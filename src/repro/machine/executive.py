"""The distributed executive, interpreted by a discrete-event simulator.

This is the runtime half of SKiPPER: the mapped process network runs on
a simulated MIMD-DM machine whose processors execute one computation at
a time and whose channels carry one message at a time (FIFO,
store-and-forward across hops) — a faithful model of the ring-connected
Transputer machine of §4.

The executive computes with *real data*: every sequential function is
actually called, so the simulated run produces exactly the outputs of
the sequential emulation (the equivalence the paper requires between the
declarative and operational skeleton definitions), while simulated time
advances according to the cost models of :mod:`repro.machine.costs`.

Farm protocols follow the operational definition of Fig. 1: the master
dispatches one packet per idle worker, accumulates results as they
return (order is arrival order — hence the commutativity requirement on
``acc``), and keeps workers busy until the packet list is exhausted;
``tf`` workers may return new packets that the master re-injects.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from .trace import Trace

from ..core.functions import FunctionTable
from ..core.semantics import EndOfStream, TaskOutcome
from ..core.sizes import HEADER_BYTES, payload_bytes
from ..faults.farm import Abandon, FarmSupervisor
from ..faults.plan import PlanMatcher
from ..faults.policy import FaultPolicy
from ..faults.report import FaultReport
from ..faults.topology import FaultTopology
from ..pnt.graph import ProcessGraph, ProcessKind
from ..syndex.distribute import Mapping
from ..syndex.route import RoutingTable, route_mapping
from .costs import CostModel, T9000

__all__ = ["ExecutiveError", "IterationRecord", "RunReport", "Executive", "simulate"]


class ExecutiveError(RuntimeError):
    """A sequential function failed during simulated execution.

    Wraps the original exception with the process/function context a
    user needs to find the faulty kernel (the simulated equivalent of a
    processor crash dump)."""

    def __init__(self, pid: str, func: Optional[str], time_us: float,
                 original: BaseException):
        self.pid = pid
        self.func = func
        self.time_us = time_us
        self.original = original
        super().__init__(
            f"sequential function {func!r} failed in process {pid!r} "
            f"at t={time_us:.1f} us: {type(original).__name__}: {original}"
        )


class _NoPiece:
    """Sentinel for scm splits shorter than the worker count."""

    def __repr__(self) -> str:
        return "<no-piece>"


_NO_PIECE = _NoPiece()


@dataclass
class _Envelope:
    """A supervised packet or answer in transit: the value under the
    sequence number the farm's supervisor knows it by."""

    seq: int
    value: Any


def _enveloped(seq: Optional[int], value: Any) -> Any:
    """``value`` as a supervised worker answers it: under the sequence
    number its packet came with, if it came with one."""
    return value if seq is None else _Envelope(seq, value)


@dataclass
class _Supervised:
    """One supervised farm in virtual time: the policy core the real
    kernels run (:class:`~repro.faults.farm.FarmSupervisor`), plus where
    its packets leave the dispatcher and come back to the owner."""

    core: FarmSupervisor
    dispatcher: str  # the pid whose CPU and out ports carry a send
    out_base: int  # dispatcher out port of worker 0
    in_base: int  # owner in port of worker 0


@dataclass
class IterationRecord:
    """Timing of one stream iteration (times in µs)."""

    index: int
    start: float  # when the input process began grabbing
    end: float  # when the last event of the iteration completed
    output_time: float  # when the output function ran
    frame_index: int  # which video frame was consumed
    frames_skipped: int  # frames lost to a slow previous iteration

    @property
    def latency(self) -> float:
        """Grab-to-display latency of this iteration."""
        return self.output_time - self.start


@dataclass
class RunReport:
    """Aggregate result of a run (simulated or real).

    Simulated runs report times in simulated microseconds; real-backend
    runs (``wall_clock=True``) report wall-clock microseconds measured on
    the host.  ``trace`` carries the per-resource span recording when the
    run was traced (see :mod:`repro.machine.trace`), and ``backend``
    names the execution backend that produced the report.
    """

    iterations: List[IterationRecord]
    outputs: List[Any]
    final_state: Any
    makespan: float
    proc_busy: Dict[str, float]
    chan_busy: Dict[str, float]
    one_shot_results: Optional[Tuple[Any, ...]] = None
    trace: Optional["Trace"] = None
    backend: str = "simulate"
    wall_clock: bool = False
    #: Fault story of the run (:class:`~repro.faults.report.FaultReport`)
    #: when fault injection / supervision was enabled; else None.
    faults: Optional[Any] = None
    #: Real-time story (:class:`~repro.realtime.ledger.RealtimeReport`)
    #: when a :class:`~repro.realtime.budget.LatencyBudget` was attached
    #: to the run; else None.
    realtime: Optional[Any] = None

    @property
    def mean_latency(self) -> float:
        if not self.iterations:
            return 0.0
        return sum(r.latency for r in self.iterations) / len(self.iterations)

    @property
    def max_latency(self) -> float:
        return max((r.latency for r in self.iterations), default=0.0)

    @property
    def min_latency(self) -> float:
        return min((r.latency for r in self.iterations), default=0.0)

    @property
    def total_frames_skipped(self) -> int:
        return sum(r.frames_skipped for r in self.iterations)

    def throughput_hz(self) -> float:
        """Completed iterations per second of simulated time."""
        if self.makespan <= 0:
            return 0.0
        return len(self.iterations) * 1e6 / self.makespan

    def utilisation(self) -> Dict[str, float]:
        """Fraction of the makespan each processor spent computing."""
        if self.makespan <= 0:
            return {p: 0.0 for p in self.proc_busy}
        return {p: b / self.makespan for p, b in self.proc_busy.items()}

    def summary(self) -> str:
        if self.wall_clock:
            lines = [
                f"backend {self.backend}: {len(self.outputs)} output(s), "
                f"wall time {self.makespan / 1000:.2f} ms",
            ]
        else:
            lines = [
                f"{len(self.iterations)} iteration(s), makespan "
                f"{self.makespan / 1000:.2f} ms",
                f"latency mean/min/max: {self.mean_latency / 1000:.2f} / "
                f"{self.min_latency / 1000:.2f} / {self.max_latency / 1000:.2f} ms",
                f"frames skipped: {self.total_frames_skipped}",
            ]
        if self.faults:
            lines.append(self.faults.summary())
        if self.realtime:
            lines.append(self.realtime.summary())
        return "\n".join(lines)


@dataclass
class Profile:
    """Measured execution profile of one run.

    ``edge_bytes`` maps edge indices (position in ``graph.edges``) to the
    largest payload observed on that edge; ``durations`` maps process ids
    to their mean per-firing compute time (µs).  Feeding these back into
    :func:`repro.syndex.distribute` is the measured-cost "adequation"
    loop of the AAA methodology.
    """

    edge_bytes: Dict[int, int] = field(default_factory=dict)
    compute_us: Dict[str, float] = field(default_factory=dict)
    firings: Dict[str, int] = field(default_factory=dict)

    def durations(self) -> Dict[str, float]:
        """Mean compute time per firing for each process."""
        return {
            pid: total / self.firings[pid]
            for pid, total in self.compute_us.items()
            if self.firings.get(pid)
        }


@dataclass
class _FarmState:
    """Master-side farm bookkeeping."""

    acc_value: Any = None
    queue: List[Any] = field(default_factory=list)
    busy: Dict[int, bool] = field(default_factory=dict)
    pending: int = 0
    started: bool = False


class Executive:
    """Simulates one mapped program on the machine model."""

    def __init__(
        self,
        mapping: Mapping,
        table: FunctionTable,
        costs: CostModel = T9000,
        *,
        real_time: bool = False,
        max_farm_tasks: int = 1_000_000,
        record_trace: bool = False,
        fault_plan: Optional[Any] = None,
        fault_policy: Optional[Any] = None,
        budget: Optional[Any] = None,
    ):
        self.mapping = mapping
        self.graph: ProcessGraph = mapping.graph
        self.table = table
        self.costs = costs
        self.real_time = real_time
        self.budget = budget
        self.max_farm_tasks = max_farm_tasks
        self.routing: RoutingTable = route_mapping(mapping)
        self._edge_index = {id(e): i for i, e in enumerate(self.graph.edges)}

        # Fault model: the FaultPlan that drives the real kernels makes
        # the same faults happen here (a crashed worker never answers
        # and stops beating, a limping one computes ``factor`` times
        # slower, a dropped message is never delivered), and what is
        # *done* about them is decided by the kernels' own policy core,
        # one per supervised farm, driven in virtual seconds.
        self._matcher = None
        self.fault_report = None
        #: Worker pid -> the fault that silenced it for good.
        self._silent: Dict[str, str] = {}
        #: Latched limplock factors, per worker pid.
        self._limp_factors: Dict[str, float] = {}
        self._sups: List[_Supervised] = []
        self._dispatchers: Dict[str, _Supervised] = {}
        self._owners: Dict[str, _Supervised] = {}
        self._worker_core: Dict[str, Tuple[FarmSupervisor, int]] = {}
        if fault_plan is not None:
            self._matcher = PlanMatcher(fault_plan)
            self.fault_report = FaultReport()
            policy = fault_policy or FaultPolicy()
            for farm in FaultTopology.from_mapping(mapping).farms:
                if not farm.supervised:
                    continue  # e.g. an scm whose split/merge are separated
                core = FarmSupervisor(farm, policy, self.fault_report)
                sup = _Supervised(
                    core, farm.dispatcher_pid,
                    *((1, 2) if farm.kind == "farm" else (0, 1)))
                self._sups.append(sup)
                self._dispatchers[farm.dispatcher_pid] = sup
                self._owners[farm.owner_pid] = sup
                for w in farm.workers:
                    self._worker_core[w.pid] = (core, w.index)
                    # The heartbeat is a fact, not a thread: a simulated
                    # worker is up from t=0 and, while it lives, fresh
                    # at every instant; dying stamps its last beat.
                    core.beat(w.index, 0.0)
                    core.beat(w.index, math.inf)

        # Machine state.
        self._proc_free: Dict[str, float] = {}
        self._proc_busy_total: Dict[str, float] = {}
        self._chan_free: Dict[str, float] = {}
        self._chan_busy_total: Dict[str, float] = {}
        # Event queue: (time, seq, handler-args)
        self._events: List[Tuple[float, int, Tuple]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._horizon = 0.0  # latest completion time seen (CPU, link, event)
        self.profile = Profile()
        self._profiled_pid: Optional[str] = None  # process being computed
        from .trace import Trace

        self.trace: Optional[Trace] = Trace() if record_trace else None

        # Per-process runtime state.
        self._inbox: Dict[str, Dict[int, Any]] = {}
        self._farms: Dict[str, _FarmState] = {}
        self._farm_tasks_done = 0

        # Stream state.
        self._mem_state: Dict[str, Any] = {}
        self._outputs: List[Any] = []
        self._one_shot_results: Dict[int, Any] = {}
        self._iteration_records: List[IterationRecord] = []
        self._frames_consumed = 0
        self._stream_over = False
        self._grab_start = 0.0
        self._output_time = 0.0

    # -- machine primitives --------------------------------------------------

    def _processor_of(self, pid: str) -> str:
        return self.mapping.processor_of(pid)

    def _speed_of(self, pid: str) -> float:
        return self.mapping.arch.processors[self._processor_of(pid)].speed

    def _compute(self, pid: str, ready: float, base_cost: float) -> float:
        """Reserve the process's CPU for a computation; returns end time."""
        proc = self._processor_of(pid)
        cost = self.costs.scaled_cost(base_cost, self._speed_of(pid))
        start = max(ready, self._proc_free.get(proc, 0.0))
        end = start + cost
        self._proc_free[proc] = end
        self._proc_busy_total[proc] = self._proc_busy_total.get(proc, 0.0) + cost
        self._horizon = max(self._horizon, end)
        self.profile.compute_us[pid] = (
            self.profile.compute_us.get(pid, 0.0) + base_cost
        )
        self.profile.firings[pid] = self.profile.firings.get(pid, 0) + 1
        if self.trace is not None:
            self.trace.add_compute(proc, pid, start, end)
        return end


    def _call(self, pid: str, spec, *args):
        """Invoke a user sequential function with crash context."""
        try:
            return spec(*args)
        except EndOfStream:
            raise
        except Exception as err:
            raise ExecutiveError(pid, spec.name, self._now, err) from err

    def _func_cost(self, func: Optional[str], *args) -> float:
        if func is None:
            return 0.0
        spec = self.table[func]
        cost = spec.cost_of(*args)
        return self.costs.default_func_cost if cost is None else cost

    def _schedule(self, time: float, *args) -> None:
        """Deliver a message: ``_handle_arrive(*args)`` at ``time``."""
        self._horizon = max(self._horizon, time)
        heapq.heappush(self._events, (time, next(self._seq), args))

    def _send(self, pid: str, port: int, value: Any, time: float) -> None:
        """Emit ``value`` from (pid, port): deliver along every out edge."""
        payload: Optional[int] = None
        for edge in self.graph.edges:
            if edge.src != pid or edge.src_port != port:
                continue
            idx = self._edge_index[id(edge)]
            if self._matcher is not None and self._drop(idx, time):
                continue  # the message is lost in transit
            if payload is None:
                payload = payload_bytes(value)
            self.profile.edge_bytes[idx] = max(
                self.profile.edge_bytes.get(idx, 0), payload
            )
            route = self.routing.routes[idx]
            if route.is_local:
                arrival = time + self.costs.local_delivery
            else:
                nbytes = HEADER_BYTES + payload
                t = time
                for cid in route.channels:
                    channel = self.mapping.arch.channels[cid]
                    start = max(t, self._chan_free.get(cid, 0.0))
                    duration = channel.transfer_time(nbytes)
                    t = start + duration
                    self._chan_free[cid] = t
                    self._chan_busy_total[cid] = (
                        self._chan_busy_total.get(cid, 0.0) + duration
                    )
                    if self.trace is not None:
                        self.trace.add_transfer(cid, pid, start, t)
                arrival = t
            self._schedule(arrival, edge.dst, edge.dst_port, value, edge.loop)

    # -- event handlers --------------------------------------------------

    def _handle_arrive(self, pid: str, port: int, value: Any, loop: bool) -> None:
        process = self.graph[pid]
        sup = self._owners.get(pid)
        if sup is not None and isinstance(value, _Envelope):
            # A supervised worker's answer reaches its farm's owner: the
            # core dedupes it and names the port it belongs to — not
            # always the one it came in on (a re-dispatch, a hedge).
            now = self._now * 1e-6
            origin = sup.core.result(port - sup.in_base, value.seq, now)
            # The kernels scan between any two answers; so do we.
            self._carry_out(sup, sup.core.tick(now), self._now)
            if origin is None:
                return  # a duplicate: first result won
            port, value = sup.in_base + origin, value.value
        if process.kind == ProcessKind.MEM:
            # Feedback: store the next iteration's state.
            self._mem_state[pid] = value
            return
        if process.kind == ProcessKind.MASTER:
            self._master_arrive(pid, port, value)
            return
        inbox = self._inbox.setdefault(pid, {})
        if port in inbox:
            raise RuntimeError(
                f"{pid} port {port} received a second message within one "
                "iteration"
            )
        inbox[port] = value
        if len(inbox) == process.n_in:
            self._inbox[pid] = {}
            self._fire(pid, dict(inbox))

    def _fire(self, pid: str, inputs: Dict[int, Any]) -> None:
        process = self.graph[pid]
        kind = process.kind
        if kind == ProcessKind.APPLY:
            self._fire_apply(pid, inputs)
        elif kind == ProcessKind.WORKER:
            self._fire_worker(pid, inputs)
        elif kind in (ProcessKind.ROUTER_MW, ProcessKind.ROUTER_WM):
            end = self._compute(pid, self._now, self.costs.router_forward)
            self._send(pid, 0, inputs[0], end)
        elif kind == ProcessKind.SPLIT:
            self._fire_split(pid, inputs)
        elif kind == ProcessKind.MERGE:
            self._fire_merge(pid, inputs)
        elif kind == ProcessKind.OUTPUT:
            self._fire_output(pid, inputs)
        else:
            raise RuntimeError(f"process kind {kind!r} should not fire")

    def _fire_apply(self, pid: str, inputs: Dict[int, Any]) -> None:
        process = self.graph[pid]
        args = tuple(inputs[i] for i in range(process.n_in))
        spec = self.table[process.func]
        end = self._compute(pid, self._now, self._func_cost(process.func, *args))
        result = self._call(pid, spec, *args)
        if spec.n_outs == 1:
            self._send(pid, 0, result, end)
        else:
            for port, value in enumerate(result):
                self._send(pid, port, value, end)

    def _fire_worker(self, pid: str, inputs: Dict[int, Any]) -> None:
        process = self.graph[pid]
        x = inputs[0]
        seq = None
        if isinstance(x, _Envelope):
            seq, x = x.seq, x.value
        if pid in self._silent:
            return  # crashed, stalled or starved: it never answers
        if isinstance(x, _NoPiece):
            end = self._compute(pid, self._now, self.costs.local_delivery)
            self._send(pid, 0, _enveloped(seq, _NO_PIECE), end)
            return
        delay_us = 0.0
        if self._matcher is not None:
            proc = self._processor_of(pid)
            specs = self._matcher.fire(
                process=pid, processor=proc,
                kinds=("crash", "stall", "delay", "slow-worker",
                       "limplock", "credit-starvation"),
            )
            for spec in specs:
                if spec.kind in ("delay", "slow-worker"):
                    delay_us += spec.delay_us
                    self.fault_report.add(
                        "injected", spec.kind, pid, self._now,
                        processor=proc, note=f"{spec.delay_us:.0f} us",
                    )
                elif spec.kind == "limplock":
                    # Persistent gray failure: every subsequent firing of
                    # this worker is stretched by the latched factor.
                    self._limp_factors[pid] = spec.factor
                    self.fault_report.add(
                        "injected", "limplock", pid, self._now,
                        processor=proc,
                        note=f"x{spec.factor:g} slowdown latched",
                    )
            fatal = next(
                (s for s in specs
                 if s.kind in ("crash", "stall", "credit-starvation")),
                None,
            )
            if fatal is not None:
                # The worker consumed the packet and will never answer.
                # A crashed one also stops beating; a stalled or starved
                # one beats on — BEAT fresh, COUNT flat.
                self.fault_report.add(
                    "injected", fatal.kind, pid, self._now, processor=proc,
                )
                self._silent[pid] = fatal.kind
                if fatal.kind == "crash" and pid in self._worker_core:
                    core, index = self._worker_core[pid]
                    core.beat(index, self._now * 1e-6)
                return
        spec = self.table[process.func]
        cost = (self._func_cost(process.func, x)
                * self._limp_factors.get(pid, 1.0) + delay_us)
        end = self._compute(pid, self._now, cost)
        self._send(pid, 0, _enveloped(seq, self._call(pid, spec, x)), end)

    def _fire_split(self, pid: str, inputs: Dict[int, Any]) -> None:
        process = self.graph[pid]
        degree = process.params["degree"]
        spec = self.table[process.func]
        x = inputs[0]
        base = self._func_cost(process.func, degree, x)
        end = self._compute(
            pid, self._now, base + degree * self.costs.split_piece
        )
        pieces = self._call(pid, spec, degree, x)
        if len(pieces) > degree:
            raise RuntimeError(
                f"{process.func} returned {len(pieces)} pieces for "
                f"degree {degree}"
            )
        for i in range(degree):
            piece = pieces[i] if i < len(pieces) else _NO_PIECE
            self._dispatch(pid, 0, i, piece, end)

    def _fire_merge(self, pid: str, inputs: Dict[int, Any]) -> None:
        process = self.graph[pid]
        degree = process.params["degree"]
        x = inputs[0]
        results = [
            inputs[1 + i]
            for i in range(degree)
            if not isinstance(inputs[1 + i], _NoPiece)
        ]
        spec = self.table[process.func]
        base = self._func_cost(process.func, x, results)
        end = self._compute(
            pid, self._now, base + len(results) * self.costs.merge_piece
        )
        self._send(pid, 0, self._call(pid, spec, x, results), end)

    def _fire_output(self, pid: str, inputs: Dict[int, Any]) -> None:
        process = self.graph[pid]
        value = inputs[0]
        if process.params.get("discard"):
            return
        if process.func is not None:
            end = self._compute(
                pid, self._now, self._func_cost(process.func, value)
            )
            self._call(pid, self.table[process.func], value)
            self._outputs.append(value)
            self._output_time = end
        else:
            self._one_shot_results[process.params.get("index", 0)] = value
            self._output_time = self._now

    # -- farm protocol -----------------------------------------------------------

    def _master_arrive(self, pid: str, port: int, value: Any) -> None:
        farm = self._farms.setdefault(pid, _FarmState())
        process = self.graph[pid]
        degree = process.params["degree"]
        if port in (0, 1):
            inbox = self._inbox.setdefault(pid, {})
            inbox[port] = value
            if 0 in inbox and 1 in inbox:
                farm.acc_value = inbox[0]
                xs = inbox[1]
                if not isinstance(xs, (list, tuple)):
                    raise RuntimeError(
                        f"farm input of {pid} must be a list, got "
                        f"{type(xs).__name__}"
                    )
                farm.queue = list(xs)
                farm.busy = {i: False for i in range(degree)}
                farm.started = True
                self._inbox[pid] = {}
                self._master_dispatch(pid, farm, self._now)
            return
        # A worker response on port 2+i.
        worker_index = port - 2
        farm.pending -= 1
        farm.busy[worker_index] = False
        spec = self.table[process.func]  # the accumulator
        if process.params["farm_kind"] == "tf":
            outcome = value
            if isinstance(outcome, tuple) and len(outcome) == 2:
                outcome = TaskOutcome(
                    results=list(outcome[0]), subtasks=list(outcome[1])
                )
            if not isinstance(outcome, TaskOutcome):
                raise RuntimeError(
                    f"tf worker returned {type(value).__name__}; expected "
                    "TaskOutcome or (results, subtasks)"
                )
            end = self._now
            for y in outcome.results:
                end = self._compute(
                    pid,
                    end,
                    self.costs.master_collect
                    + self._func_cost(process.func, farm.acc_value, y),
                )
                farm.acc_value = self._call(pid, spec, farm.acc_value, y)
            farm.queue.extend(outcome.subtasks)
        else:
            end = self._compute(
                pid,
                self._now,
                self.costs.master_collect
                + self._func_cost(process.func, farm.acc_value, value),
            )
            farm.acc_value = self._call(pid, spec, farm.acc_value, value)
        self._farm_tasks_done += 1
        if self._farm_tasks_done > self.max_farm_tasks:
            raise RuntimeError(
                f"farm processed more than {self.max_farm_tasks} packets; "
                "diverging task farm?"
            )
        self._master_dispatch(pid, farm, end)

    def _master_dispatch(self, pid: str, farm: _FarmState, time: float) -> None:
        """Send packets to idle workers; emit the result when drained."""
        process = self.graph[pid]
        degree = process.params["degree"]
        end = time
        for i in range(degree):
            if not farm.queue:
                break
            if farm.busy[i]:
                continue
            packet = farm.queue.pop(0)
            farm.busy[i] = True
            farm.pending += 1
            end = self._compute(pid, end, self.costs.master_dispatch)
            self._dispatch(pid, 1, i, packet, end)
        if farm.started and farm.pending == 0 and not farm.queue:
            farm.started = False
            self._send(pid, 0, farm.acc_value, end)

    # -- fault model -------------------------------------------------------------

    def _dispatch(self, pid: str, base: int, port: int, value: Any,
                  time: float) -> None:
        """A farm dispatcher (master / split) addresses ``value`` to
        worker ``port`` (its out port ``base + port``); a supervised
        farm's core picks who really gets it."""
        sup = self._dispatchers.get(pid)
        if sup is None:
            self._send(pid, base + port, value, time)
        else:
            self._carry_out(
                sup, sup.core.dispatch(port, value, time * 1e-6), time)

    def _carry_out(self, sup: _Supervised, decisions: List[Any],
                   time: float) -> None:
        """Do what the core decided, at virtual time ``time`` (µs)."""
        for decision in decisions:
            if isinstance(decision, Abandon):
                raise RuntimeError(
                    f"farm {sup.core.farm.sid} abandoned packet "
                    f"#{decision.seq}: no survivors or re-dispatch budget "
                    "exhausted"
                )
            if decision.why != "dispatch":
                # A send the dispatcher did not plan costs it the same
                # bookkeeping as one it did.
                time = self._compute(sup.dispatcher, time,
                                     self.costs.master_dispatch)
            self._send(sup.dispatcher, sup.out_base + decision.worker,
                       _Envelope(decision.seq, decision.value), time)

    def _drop(self, edge_idx: int, time: float) -> bool:
        """Lose one planned message (the farm's core will miss it)."""
        name = f"e{edge_idx}"
        specs = self._matcher.fire(edge=name,
                                   kinds=("drop", "partial-partition"))
        if specs:
            self.fault_report.add("injected", specs[0].kind, name, time)
        return bool(specs)

    def _next_tick(self, rescue_only: bool) -> Tuple[float, Any]:
        """(when, which farm) of the earliest supervision scan that
        could decide anything; ``(inf, None)`` if there is none.

        With no message left in the machine (``rescue_only``) only a
        farm with packets in flight is worth waking — its scan is what
        un-wedges the run.  A verdict on a suspect or a probe of a
        retired worker does not extend a run that is otherwise over
        (the kernels' scans stop with their collect loops, too).
        """
        best: Tuple[float, Any] = (math.inf, None)
        now = self._now * 1e-6
        for sup in self._sups:
            if rescue_only and not sup.core.inflight:
                continue
            wake = sup.core.next_wake(now)
            if wake is not None and wake < best[0]:
                best = (wake, sup)
        return best

    # -- iteration control ------------------------------------------------------

    def _start_sources(self, t: float, one_shot_args: Optional[Tuple] = None) -> None:
        for pid in sorted(self.graph.processes):
            process = self.graph[pid]
            if process.kind == ProcessKind.CONST:
                end = self._compute(pid, t, self.costs.const_emit)
                self._send(pid, 0, process.params["value"], end)
            elif process.kind == ProcessKind.APPLY and process.n_in == 0:
                # Nullary functions have no arrivals to trigger them:
                # they fire once at the start of every iteration.
                self._now = t
                self._fire_apply(pid, {})
            elif process.kind == ProcessKind.MEM:
                end = self._compute(pid, t, self.costs.mem_update)
                self._send(pid, 0, self._mem_state[pid], end)
            elif process.kind == ProcessKind.INPUT:
                if process.func is not None:
                    self._start_stream_input(pid, t)
                else:
                    index = list(self.graph.by_kind(ProcessKind.INPUT)).index(
                        process
                    )
                    assert one_shot_args is not None
                    self._send(pid, 0, one_shot_args[index], t)

    def _start_stream_input(self, pid: str, t: float) -> None:
        process = self.graph[pid]
        spec = self.table[process.func]
        source = process.params.get("source")
        skipped = 0
        if self.real_time:
            period = self.costs.frame_period
            latest = int(t // period)
            target = max(latest, self._frames_consumed)
            skipped = target - self._frames_consumed
            for _ in range(skipped):
                try:
                    self._call(pid, spec, source)  # frame lost to the grabber
                except EndOfStream:
                    self._stream_over = True
                    return
            grab_ready = max(t, target * period)
            self._frames_consumed = target + 1
            frame_index = target
        else:
            grab_ready = t
            frame_index = self._frames_consumed
            self._frames_consumed += 1
        try:
            item = self._call(pid, spec, source)
        except EndOfStream:
            self._stream_over = True
            return
        self._grab_start = grab_ready
        self._grab_frame = frame_index
        self._grab_skipped = skipped
        end = self._compute(pid, grab_ready, self._func_cost(process.func, source))
        self._send(pid, 0, item, end)

    def _drain(self) -> float:
        """Run events until the queue empties; returns the completion horizon
        (latest CPU, link or delivery completion time)."""
        events = self._events
        while True:
            if self._sups:
                wake, sup = self._next_tick(rescue_only=not events)
                if wake * 1e6 < (events[0][0] if events else math.inf):
                    # A supervision scan is due before the next message:
                    # the core is told the instant it asked for, to the
                    # digit.
                    self._now = wake * 1e6
                    self._carry_out(sup, sup.core.tick(wake), self._now)
                    continue
            if not events:
                return self._horizon
            self._now, _seq, args = heapq.heappop(events)
            self._handle_arrive(*args)

    def _finish_faults(self):
        """Sort the fault report and annotate the trace, if any."""
        if self.fault_report is None:
            return None
        for sup in self._sups:
            # The run is over: as on the kernels, the dispatcher's Stops
            # make the core pass its pending verdicts on silence so far.
            for worker in sup.core.farm.workers:
                sup.core.stop(worker.index, self._horizon * 1e-6)
        self.fault_report.sorted()
        if self.trace is not None:
            self.fault_report.annotate_trace(self.trace)
        return self.fault_report

    def _finish_realtime(self):
        """Project the iteration records onto a frame ledger.

        The simulator is lock-step (one frame in flight), so the ledger
        is exact: every completed iteration is a delivered frame, every
        grabber skip is a shed frame, and a deadline miss is simply
        ``latency > budget``.  This gives the conformance harness a
        deterministic realtime oracle to compare the real backends
        against.
        """
        if self.budget is None:
            return None
        from ..realtime.ledger import FrameRecord, RealtimeReport

        report = RealtimeReport(budget=self.budget)
        deadline_us = self.budget.deadline_us
        for rec in self._iteration_records:
            for k in range(rec.frames_skipped):
                frame = rec.frame_index - rec.frames_skipped + k
                report.ledger.frames.append(FrameRecord(
                    frame=frame, admitted_us=rec.start, status="shed",
                    reason="frame-skip",
                ))
                report.add_event("shed", frame, rec.start,
                                 detail="frame-skip")
            missed = rec.latency > deadline_us
            report.ledger.frames.append(FrameRecord(
                frame=rec.frame_index, admitted_us=rec.start,
                status="delivered", released_us=rec.start,
                delivered_us=rec.output_time, deadline_missed=missed,
            ))
            if missed:
                report.add_event(
                    "deadline-miss", rec.frame_index, rec.output_time,
                    detail=f"{rec.latency / 1000:.1f} ms",
                )
        if self.trace is not None:
            report.annotate_trace(self.trace)
        return report

    # -- public API --------------------------------------------------------------

    def run(self, max_iterations: Optional[int] = None) -> RunReport:
        """Run a stream program; returns the timing/output report."""
        if self.graph.by_kind(ProcessKind.MEM):
            self._init_memories()
            return self._run_stream(max_iterations)
        raise RuntimeError("not a stream program; use run_once()")

    def _init_memories(self) -> None:
        for mem in self.graph.by_kind(ProcessKind.MEM):
            params = mem.params
            if "init_func" in params:
                self._mem_state[mem.id] = self.table[params["init_func"]]()
            else:
                self._mem_state[mem.id] = params["init_value"]

    def _run_stream(self, max_iterations: Optional[int]) -> RunReport:
        t = 0.0
        index = 0
        while max_iterations is None or index < max_iterations:
            self._output_time = t
            self._grab_start = t
            self._grab_frame = self._frames_consumed
            self._grab_skipped = 0
            self._start_sources(t)
            if self._stream_over:
                break
            end = self._drain()
            self._iteration_records.append(
                IterationRecord(
                    index=index,
                    start=self._grab_start,
                    end=end,
                    output_time=self._output_time,
                    frame_index=self._grab_frame,
                    frames_skipped=self._grab_skipped,
                )
            )
            t = end
            index += 1
        final_state = None
        mems = self.graph.by_kind(ProcessKind.MEM)
        if mems:
            final_state = self._mem_state[mems[0].id]
        return RunReport(
            iterations=self._iteration_records,
            outputs=self._outputs,
            final_state=final_state,
            makespan=t,
            proc_busy=dict(self._proc_busy_total),
            chan_busy=dict(self._chan_busy_total),
            trace=self.trace,
            faults=self._finish_faults(),
            realtime=self._finish_realtime(),
        )

    def run_once(self, *args: Any) -> RunReport:
        """Run a one-shot program on ``args`` (one per INPUT process)."""
        inputs = self.graph.by_kind(ProcessKind.INPUT)
        if len(args) != len(inputs):
            raise RuntimeError(
                f"program takes {len(inputs)} input(s), got {len(args)}"
            )
        self._start_sources(0.0, one_shot_args=args)
        end = self._drain()
        results = tuple(
            self._one_shot_results[i] for i in sorted(self._one_shot_results)
        )
        return RunReport(
            iterations=[],
            outputs=list(results),
            final_state=None,
            makespan=end,
            proc_busy=dict(self._proc_busy_total),
            chan_busy=dict(self._chan_busy_total),
            one_shot_results=results,
            trace=self.trace,
            faults=self._finish_faults(),
        )


def simulate(
    mapping: Mapping,
    table: FunctionTable,
    costs: CostModel = T9000,
    *,
    max_iterations: Optional[int] = None,
    real_time: bool = False,
    args: Optional[Tuple] = None,
    fault_plan: Optional[Any] = None,
    fault_policy: Optional[Any] = None,
    budget: Optional[Any] = None,
) -> RunReport:
    """Convenience wrapper: build an :class:`Executive` and run it.

    Stream programs run ``max_iterations`` (or until the source raises
    :class:`~repro.core.semantics.EndOfStream`); one-shot programs need
    ``args``.  ``fault_plan`` enables the virtual-time fault model (see
    :mod:`repro.faults`): injected faults are charged in simulated time
    and the resulting :class:`~repro.faults.report.FaultReport` is
    attached to the returned report.
    """
    executive = Executive(
        mapping, table, costs, real_time=real_time,
        fault_plan=fault_plan, fault_policy=fault_policy, budget=budget,
    )
    if mapping.graph.by_kind(ProcessKind.MEM):
        return executive.run(max_iterations)
    return executive.run_once(*(args or ()))
