"""The policy kernel: supervision and admission behind the primitives.

The generated executive is written against the kernel primitives only
(the paper's porting contract, §3), so whatever a run adds to moving
packets hooks those primitives — once, here.  :class:`PolicyKernel`
wraps a base kernel (a :class:`~repro.codegen.kernel.Kernel` on any
substrate) and drives two clock-free policy cores with what it sees:

* **Supervision** — one :class:`~repro.faults.farm.FarmSupervisor` per
  supervised farm whose owner (the ``df``/``tf`` master, the ``scm``
  merge) this interpreter hosts.  Dispatched work travels in
  sequence-numbered :class:`~repro.faults.supervisor.Packet` envelopes,
  workers heartbeat a shared :class:`~repro.faults.supervisor.HealthBoard`,
  and the collector waits in the base kernel's own timed ``alt_`` until
  the core's next wake.  The master's ``busy[]`` bookkeeping stays
  consistent because ``alt_`` returns the *physical* arrival edge: a
  dead worker never answers and drops out of the rotation.  The ``scm``
  merge receives port by port, so results carry their origin slot and a
  stash reorders them.
* **Admission** — one :class:`~repro.realtime.admission.AdmissionCore`
  where the stream input is hosted: every grabbed frame is offered to
  it, buffered, fanned out and pumped into the network with the base
  kernel's ``try_send_`` while the in-flight window allows, so the j-th
  delivery is the j-th released frame.  Where the stream output is
  hosted each delivery is stamped and counted on the shared
  :class:`~repro.realtime.board.StreamBoard`, whose doorbell releases
  the next frame.  The grabber is paced to ``frame_period_ms``.
* **Injection** — the fault plan's events happen where they are keyed:
  crash / stall / delay / slow-worker / limplock in ``call_``, drops in
  ``send_``, credit starvation in ``recv_``, burst and input surge at
  the grabber's pacing wait.

Each primitive looks its edge (``call_``: its thread) up in a table
built at construction; an edge neither core polices costs that lookup
and nothing else.  Every clock reading is :meth:`PolicyKernel.now_us`.
One service thread per wrapper, started on first need (the first
beating worker spawned, the first frame offered), beats for the hosted
workers and runs the admission watchdog; it sleeps on the stream
board's doorbell until the next beat or the admission core's next wake.
:class:`AsyncPolicyKernel` is the same wrapper for a coroutine
executive on one event loop.
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..codegen.kernel import Shutdown
from ..faults.farm import Abandon, FarmSupervisor, Send
from ..faults.plan import EDGE_KINDS, FaultPlan, PlanMatcher
from ..faults.policy import FaultPolicy
from ..faults.report import FaultReport
from ..faults.supervisor import HealthBoard, Packet, Result, WorkerCrash
from ..faults.topology import FarmWorker, FaultTopology
from ..realtime.admission import PARK, AdmissionCore, Shed
from ..realtime.board import StreamBoard
from ..realtime.budget import LatencyBudget
from ..realtime.ledger import assemble_report
from ..realtime.topology import StreamTopology

__all__ = ["PolicyKernel", "AsyncPolicyKernel", "SERVICE_THREAD"]

#: Seconds between heartbeat writes, and the longest a collector waits
#: between looks at its farm: a beat, a re-send that met a full queue
#: and an ``scm`` split's dispatch (another thread) ring no collector.
HEARTBEAT_INTERVAL_S = 0.02

#: What the admission pump waits after a ``queue.Full`` before it tries
#: again: a non-blocking put has no event to wait for, so this is the
#: one timer left on the data path — and it runs only while the pump is
#: stalled on a full queue.
_RETRY_S = 0.02

#: The name of the one service thread (the loop task, on a loop).
SERVICE_THREAD = "policy-service"

#: The plan's kinds that fire on a computation.
_COMPUTE_KINDS = ("crash", "stall", "delay", "slow-worker", "limplock")


class _Hosted:
    """One supervised farm as its owner hosts it: the policy core plus
    what is mechanism, not policy."""

    def __init__(self, core: FarmSupervisor):
        self.core = core
        self.farm = core.farm
        #: Serialises every call into ``core`` (single-threaded by
        #: contract): the dispatcher and the collector are two threads.
        self.lock = threading.Lock()
        #: Results that arrived for a port the collector is not currently
        #: waiting on (scm out-of-order recovery).
        self.stash: Dict[int, Any] = {}
        #: (edge, envelope) sends waiting for queue space.
        self.pending_sends: List[Tuple[str, Any]] = []


class _PendingFrame:
    """One buffered frame: its value per out-edge, filled as the grabber
    sends them, and how many edges the pump has put into the network."""

    __slots__ = ("frame", "values", "sent")

    def __init__(self, frame: int):
        self.frame = frame
        self.values: Dict[str, Any] = {}
        self.sent = 0


class PolicyKernel:
    """Supervision, fault injection and admission around a base kernel.

    ``faults`` (the program's :class:`FaultTopology`) turns supervision
    on, with the fault ``plan`` to inject, the ``policy`` and the
    ``health_board`` shared by every interpreter of the run; ``stream``
    and ``budget`` turn admission on, with the shared ``stream_board``.
    One instance runs per interpreter: a farm is supervised where its
    owner is hosted, admission runs where the stream input is, delivery
    is stamped where the stream output is — a base kernel whose
    ``hosts`` is ``None`` (or absent) hosts all of them.
    """

    def __init__(
        self,
        base: Any,
        *,
        faults: Optional[FaultTopology] = None,
        plan: Optional[FaultPlan] = None,
        policy: Optional[FaultPolicy] = None,
        health_board: Optional[HealthBoard] = None,
        stream: Optional[StreamTopology] = None,
        budget: Optional[LatencyBudget] = None,
        stream_board: Optional[StreamBoard] = None,
    ):
        self._base = base
        hosts = getattr(base, "hosts", None)
        self.fault_report = FaultReport()
        self.matcher = (PlanMatcher(plan) if faults is not None and plan
                        else None)
        #: The heartbeat board stamps ``time.monotonic``: supervision
        #: instants are that clock, read once here, plus :meth:`now_us`.
        self._epoch = time.monotonic() - base.now_us() * 1e-6
        self._local = threading.local()
        #: Serialises admission, the service thread's start and its
        #: list of beating workers.
        self._lock = threading.Lock()
        #: Where a ``block`` grabber facing a full buffer, and the
        #: end-of-stream flush, park: notified when the pump pops the
        #: head of the buffer, and at shutdown.
        self._room: Any = threading.Condition(self._lock)
        self._closing = False
        self._service: Any = None
        self._beating: List[Tuple[int, threading.Thread]] = []
        self._next_beat = 0.0

        # -- supervision and injection: the per-edge / per-thread tables --
        self._topology = faults
        self._health = health_board
        #: Latched persistent slowdowns: pid/processor -> factor.
        self._limp_factors: Dict[str, float] = {}
        self._hosted: Dict[str, _Hosted] = {}
        self._dispatch: Dict[str, Tuple[_Hosted, FarmWorker]] = {}
        self._collect: Dict[str, Tuple[_Hosted, FarmWorker]] = {}
        self._beat_slot: Dict[str, int] = {}
        self._compute_threads: frozenset = frozenset()
        self._droppable: frozenset = frozenset()
        self._starvation = False
        self._on_send: Dict[str, Callable[[str, Any], None]] = {}
        self._on_recv: Dict[str, Callable[[str], Any]] = {}
        if faults is not None:
            self._host_farms(faults, hosts, policy or FaultPolicy())
            if self.matcher is not None:
                self._plan_injection(plan)

        # -- admission and delivery --
        self._topo = stream
        self._budget = budget
        self._board = stream_board or StreamBoard.local()
        self._admission_active = stream is not None and (
            hosts is None or stream.input_processor in hosts)
        self._delivery_active = stream is not None and (
            hosts is None or stream.output_processor in hosts)
        #: Only the admission side sleeps on the stream board's doorbell
        #: (a shared one wakes every sleeper, and one may eat another's
        #: ring); elsewhere the service thread has a bell of its own.
        self._bell = (self._board if self._admission_active
                      else StreamBoard.local())
        self._admitted: frozenset = frozenset()
        self._input_thread: Optional[str] = None
        self._delivery_edge: Optional[str] = None
        if self._admission_active:
            self._admitted = frozenset(stream.admission_edges)
            self._input_thread = stream.input_thread
            for edge in self._admitted:
                self._on_send[edge] = self._send_admitted
        if self._delivery_active:
            self._delivery_edge = stream.delivery_edge
            self._on_recv[stream.delivery_edge] = self._recv_delivered
        #: The threads whose ``call_`` is policed: injection, pacing.
        self._call_threads = self._compute_threads | (
            {self._input_thread} if self._input_thread else set())
        self._core = AdmissionCore(budget) if budget is not None else None
        #: The core's admission buffer, with each frame's edge values.
        self._pending: Deque[_PendingFrame] = deque()
        self._paired = 0          # board deliveries reported to the core
        self._paired_us = 0.0     # ... as of this clock reading
        self._last_shed = False   # swallow trailing sends of a shed frame
        self._full = False        # the last drain ended on a queue.Full
        self._flushing = False    # Stop came: release past the window
        self._next_due = 0.0      # pacing clock (seconds of now_us)
        self._pace_boost: int = 0       # grabs left at burst speed
        self._surge_left: int = 0       # grabs left at surged rate
        self._surge_factor: float = 1.0
        #: Delivery stamps (single writer: the output thread).
        self._stamps: List[float] = []

    def _host_farms(self, topology: FaultTopology, hosts: Any,
                    policy: FaultPolicy) -> None:
        """Host the policy core of every supervised farm whose owner
        runs here; other interpreters only wrap and unwrap envelopes."""
        if self._health is None:
            self._health = HealthBoard.local(topology.n_slots)
        slot_of_pid = {
            w.pid: w.slot for farm in topology.farms for w in farm.workers}
        self._beat_slot = {
            thread: slot_of_pid[pid]
            for thread, pid in topology.thread_to_pid.items()
            if pid in slot_of_pid}
        for farm in topology.farms:
            owner = topology.pid_to_processor.get(farm.owner_pid)
            if not farm.supervised or not (hosts is None or owner in hosts):
                continue
            hosted = self._hosted[farm.sid] = _Hosted(FarmSupervisor(
                farm, policy, self.fault_report, self._epoch))
            for worker in farm.workers:
                self._dispatch[worker.dispatch_edge] = (hosted, worker)
                self._collect[worker.collect_edge] = (hosted, worker)
        for edge in topology.work_in_edges:
            self._on_recv[edge] = self._recv_work
        for edge in self._collect:
            self._on_recv[edge] = self._recv_port
        for edge in topology.work_out_edges:
            self._on_send[edge] = self._send_result
        for edge in self._dispatch:
            self._on_send[edge] = self._send_dispatch

    def _plan_injection(self, plan: FaultPlan) -> None:
        """Which edges may drop, which threads' computations and
        receives the plan can touch: the only ones that consult it."""
        topology = self._topology
        self._droppable = frozenset(
            s.edge for s in plan.events if s.kind in EDGE_KINDS)
        for edge in self._droppable:
            self._on_send.setdefault(edge, self._send_plain)
        self._starvation = any(
            s.kind == "credit-starvation" for s in plan.events)
        compute = [s for s in plan.events if s.kind in _COMPUTE_KINDS]
        pids = {s.process for s in compute}
        processors = {s.processor for s in compute}
        self._compute_threads = frozenset(
            thread for thread, pid in topology.thread_to_pid.items()
            if pid in pids
            or topology.pid_to_processor.get(pid) in processors)

    # -- what generated code and host_run read of a kernel -------------------

    @property
    def stop(self) -> Any:
        return self._base.stop

    @property
    def stop_token(self) -> Any:
        return self._base.stop_token

    @property
    def blackboard(self) -> Dict[str, Any]:
        return self._base.blackboard

    def is_stop(self, value: Any) -> bool:
        return self._base.is_stop(value)

    def join_(self, sinks: List[Any], timeout: float = 60.0) -> Any:
        return self._base.join_(sinks, timeout)

    def now_us(self) -> float:
        """The one clock every policy reading comes from: the base
        kernel's microseconds since the run epoch."""
        return self._base.now_us()

    def _instant(self) -> float:
        """:meth:`now_us` as a supervision instant (heartbeat seconds)."""
        return self._epoch + self.now_us() * 1e-6

    # -- the primitives --------------------------------------------------------

    def spawn_(self, name: str, body: Callable[[], None]) -> Any:
        if name in self._compute_threads:
            inner = body

            def body() -> None:
                try:
                    inner()
                except WorkerCrash:
                    pass  # the injected death of this executive thread

        thread = self._base.spawn_(name, body)
        slot = self._beat_slot.get(name)
        if slot is not None and isinstance(thread, threading.Thread):
            self._health.beat(slot)
            with self._lock:
                self._beating.append((slot, thread))
                self._start_service()
        return thread

    def call_(self, func: Callable, *args: Any) -> Any:
        if self._call_threads:
            name = threading.current_thread().name
            if name in self._call_threads:
                return self._call_policed(name, func, *args)
        return self._base.call_(func, *args)

    def send_(self, edge: str, value: Any) -> None:
        hook = self._on_send.get(edge)
        if hook is None:
            return self._base.send_(edge, value)
        return hook(edge, value)

    def recv_(self, edge: str) -> Any:
        if self._starvation:
            self._inject_starvation(edge)
        hook = self._on_recv.get(edge)
        if hook is None:
            return self._base.recv_(edge)
        return hook(edge)

    def alt_(self, edges: List[str]) -> Tuple[str, Any]:
        entry = self._collect.get(edges[0])
        if entry is not None and (self._topology.farm_of_collect_edges(edges)
                                  is entry[0].farm):
            return self._alt_collect(entry[0], edges)
        return self._base.alt_(edges)

    def stop_(self, edge: str) -> None:
        if edge in self._admitted:
            # Blocking-release every buffered frame before Stop goes
            # (once: the first admission edge's Stop claims the flush).
            with self._room:
                if not self._flushing:
                    self._flushing = True
                    while not self._flush_step():
                        self._room.wait()
        if edge in self._dispatch:
            return self._send_dispatch(edge, self._base.stop_token)
        return self._base.stop_(edge)

    # -- call_: pacing, then injection ----------------------------------------

    def _call_policed(self, name: str, func: Callable, *args: Any) -> Any:
        if name == self._input_thread:
            self._pace()
        if name not in self._compute_threads:
            return self._base.call_(func, *args)
        self._inject_compute()
        pid, proc = self._identity()
        factor = self._limp_factors.get(pid) or (
            self._limp_factors.get(proc) if proc else None)
        if factor is None:
            return self._base.call_(func, *args)
        # A limping worker: the computation itself is untouched (results
        # stay bit-identical), but its *service time* is multiplied —
        # measured, not guessed, so the slowdown scales with real work.
        start = self.now_us()
        try:
            return self._base.call_(func, *args)
        finally:
            stretch = (self.now_us() - start) * 1e-6 * (factor - 1.0)
            if stretch > 0:
                self._pause(stretch)

    def _pace(self) -> None:
        """Pre-grab: fire overload faults, then hold to the frame period."""
        period = self._pace_setup()
        if period is None:
            return
        # One wait that ends on the due time or on stop, whichever
        # comes first (every stop flag of a run wakes its waiters).
        if self._base.stop.wait(self._next_due - self.now_us() * 1e-6):
            raise Shutdown
        self._pace_advance(period)

    def _pace_setup(self) -> Optional[float]:
        """Fire overload faults; returns this frame's effective period.

        ``None`` means no pacing wait applies (no period configured, or
        a burst fault releases the frame back-to-back); otherwise
        ``_next_due`` is primed, the caller waits up to it — in
        whatever way suits its substrate — and then calls
        :meth:`_pace_advance`.
        """
        if self.matcher is not None:
            specs = self.matcher.fire(
                process=self._topo.input_pid,
                processor=self._topo.input_processor,
                kinds=("burst", "input-surge"),
            )
            for spec in specs:
                self.fault_report.add(
                    "injected", spec.kind, self._topo.input_pid,
                    self.now_us(), processor=self._topo.input_processor,
                    note=(f"x{spec.factor:g} rate"
                          if spec.kind == "input-surge"
                          else "back-to-back frame"),
                )
                if spec.kind == "burst":
                    self._pace_boost += 1
                else:
                    self._surge_left += 1
                    self._surge_factor = max(self._surge_factor,
                                             spec.factor)
        period = self._budget.frame_period_s
        if period <= 0:
            return None
        if self._pace_boost > 0:
            self._pace_boost -= 1
            return None  # burst: release this frame immediately
        if self._surge_left > 0:
            self._surge_left -= 1
            period = period / self._surge_factor
            if self._surge_left == 0:
                self._surge_factor = 1.0
        if self._next_due == 0.0:
            self._next_due = self.now_us() * 1e-6
        return period

    def _pace_advance(self, period: float) -> None:
        """Schedule the next grab one period on — or, after a stall of
        more than a period, from now: lost time is not caught up."""
        self._next_due = max(self._next_due + period,
                             self.now_us() * 1e-6 - period)

    # -- injection -------------------------------------------------------------

    def _identity(self) -> Tuple[Optional[str], Optional[str]]:
        """(process id, processor) of the calling executive thread."""
        name = threading.current_thread().name
        pid = self._topology.thread_to_pid.get(name)
        proc = self._topology.pid_to_processor.get(pid) if pid else None
        return pid, proc

    def _dropped(self, edge: str) -> bool:
        """Count one message on ``edge`` against the plan's drops; True:
        swallow it."""
        if edge not in self._droppable:
            return False
        specs = self.matcher.fire(edge=edge, kinds=EDGE_KINDS)
        for spec in specs:
            pid, proc = self._identity()
            self.fault_report.add(
                "injected", spec.kind, edge, self.now_us(), processor=proc,
                note=f"sent by {pid or 'unknown'}"
                + (" (link stalled one direction)"
                   if spec.kind == "partial-partition" else ""),
            )
        return bool(specs)

    def _inject_compute(self) -> None:
        pid, proc = self._identity()
        specs = self.matcher.fire(
            process=pid, processor=proc, kinds=_COMPUTE_KINDS)
        if not specs:
            return
        for spec in specs:
            if spec.kind == "limplock":
                # Latch: from here on *every* computation by this target
                # runs ``factor`` times slower (see call_), while its
                # heartbeat stays perfectly fresh — the gray failure.
                self._limp_factors[pid or spec.target] = spec.factor
                self.fault_report.add(
                    "injected", "limplock", pid or spec.target,
                    self.now_us(), processor=proc,
                    note=f"x{spec.factor:g} slowdown latched",
                )
            elif spec.kind in ("delay", "slow-worker"):
                self.fault_report.add(
                    "injected", spec.kind, pid or spec.target,
                    self.now_us(),
                    processor=proc, note=f"{spec.delay_us:.0f} us",
                )
                self._pause(spec.delay_us / 1e6)
        if any(s.kind == "stall" for s in specs):
            self.fault_report.add(
                "injected", "stall", pid or "?", self.now_us(),
                processor=proc,
            )
            # Park forever (until teardown): the thread stays alive and
            # keeps heartbeating, exactly like a wedged computation.
            self._base.stop.wait()
            raise Shutdown
        if any(s.kind == "crash" for s in specs):
            self.fault_report.add(
                "injected", "crash", pid or "?", self.now_us(),
                processor=proc,
            )
            raise WorkerCrash(pid or "?")

    def _inject_starvation(self, edge: str) -> None:
        """``credit-starvation``: the consumer parks *before* dequeuing.

        Nothing is consumed from this edge again, so the queue backs up
        and — on the tcp backend, where credits are granted per dequeue
        — no flow-control credit ever returns to the senders.  The
        worker's heartbeat keeps beating throughout: upstream sees BEAT
        fresh, COUNT flat, the textbook gray failure.
        """
        pid, proc = self._identity()
        specs = self.matcher.fire(
            process=pid, processor=proc, kinds=("credit-starvation",))
        if not specs:
            return
        self.fault_report.add(
            "injected", "credit-starvation", pid or specs[0].target,
            self.now_us(), processor=proc,
            note=f"consumer stopped draining {edge}",
        )
        self._base.stop.wait()
        raise Shutdown

    def _pause(self, seconds: float) -> None:
        """An injected delay, cut short by the run's stop."""
        if self._base.stop.wait(seconds):
            raise Shutdown

    # -- send_ and recv_ hooks -------------------------------------------------

    def _send_plain(self, edge: str, value: Any) -> None:
        """A send the plan may drop; a Stop is never counted."""
        if not self._base.is_stop(value) and self._dropped(edge):
            return None
        return self._base.send_(edge, value)

    def _send_result(self, edge: str, value: Any) -> None:
        """A worker's answer: tagged with the packet it answers."""
        seq = getattr(self._local, "seq", None)
        if seq is None or self._base.is_stop(value):
            return self._send_plain(edge, value)
        if self._dropped(edge):
            return None
        return self._base.send_(edge, Result(seq, value))

    def _send_dispatch(self, edge: str, value: Any) -> None:
        hosted, worker = self._dispatch[edge]
        stopping = self._base.is_stop(value)
        with hosted.lock:
            now = self._instant()
            decisions = (hosted.core.stop(worker.index, now) if stopping
                         else hosted.core.dispatch(worker.index, value, now))
            if stopping and decisions and hosted.pending_sends:
                # Behind the re-sends still waiting for queue space.
                hosted.pending_sends.append((edge, value))
                return None
        if not decisions:
            return None  # a Stop withheld until nothing is in flight
        (decision,) = decisions
        if isinstance(decision, Abandon):
            self._abandon()
        if stopping:
            return self._base.send_(edge, value)
        if self._dropped(edge):
            return None  # in-flight record stays: the core recovers
        return self._base.send_(
            hosted.farm.workers[decision.worker].dispatch_edge,
            Packet(decision.seq, value))

    def _recv_work(self, edge: str) -> Any:
        """A worker's receive: unwrap the packet, remember its seq."""
        value = self._base.recv_(edge)
        if isinstance(value, Packet):
            self._local.seq = value.seq
            return value.value
        return value  # Stop (or plain value) passes through

    def _recv_port(self, edge: str) -> Any:
        hosted, worker = self._collect[edge]
        return self._recv_collect(hosted, worker.index)

    def _recv_delivered(self, edge: str) -> Any:
        return self._delivered(self._base.recv_(edge))

    def _delivered(self, value: Any) -> Any:
        """What the stream output received: stamp and count a delivery."""
        if not self._base.is_stop(value):
            self._stamps.append(self.now_us())
            self._board.note_delivered()
        return value

    # -- the supervision loops -------------------------------------------------

    def _alt_collect(self, hosted: _Hosted,
                     edges: List[str]) -> Tuple[str, Any]:
        """df/tf master collect: any port, physical arrival edge."""
        while True:
            got = self._arrival(hosted, edges)
            if got is not None and got[1] is not None:
                return got[0], got[2]

    def _recv_collect(self, hosted: _Hosted, slot: int) -> Any:
        """scm merge collect: port-ordered, stash reorders origins."""
        edges = [w.collect_edge for w in hosted.farm.workers]
        while slot not in hosted.stash:
            got = self._arrival(hosted, edges)
            if got is None:
                with hosted.lock:  # a dead worker forwards no Stop
                    if hosted.core.retired(slot):
                        return self._base.stop_token
            elif got[1] is not None:
                hosted.stash[got[1]] = got[2]
        return hosted.stash.pop(slot)

    def _arrival(self, hosted: _Hosted,
                 edges: List[str]) -> Optional[Tuple[str, Optional[int], Any]]:
        """``(edge, origin port, value)`` of what the base kernel's ALT
        brings within :meth:`_wait_s` (the origin None for a duplicate:
        first result won), or None if nothing came."""
        try:
            edge, raw = self._base.alt_(edges, self._wait_s(hosted))
        except queue.Empty:
            return None
        port = self._collect[edge][1].index
        if not isinstance(raw, Result):
            # A physical Stop (or plain value) can only come from the
            # worker that owns the edge, so it is that port's.
            return edge, port, raw
        with hosted.lock:
            return edge, hosted.core.result(
                port, raw.seq, self._instant()), raw.value

    def _wait_s(self, hosted: _Hosted) -> float:
        """Report the heartbeats and scan if anything is due, then say
        how long the collector may wait: until the core's next wake, and
        never longer than one :data:`HEARTBEAT_INTERVAL_S`."""
        with hosted.lock:
            core = hosted.core
            for w in hosted.farm.workers:
                beat = self._health.last(w.slot)
                if beat > 0.0:  # 0.0: not started yet
                    core.beat(w.index, beat)
            now = self._instant()
            wake = core.next_wake(now)
            if hosted.pending_sends or (wake is not None and wake <= now):
                self._supervise(hosted, now)
                wake = core.next_wake(now)
        if wake is None:
            return HEARTBEAT_INTERVAL_S
        return min(HEARTBEAT_INTERVAL_S, wake - now)

    def _supervise(self, hosted: _Hosted, now: float) -> None:
        """One scan, with ``hosted.lock`` held: flush queued sends, let
        the core decide what is due at ``now``, queue what it
        decided."""
        workers = hosted.farm.workers
        self._flush_sends(hosted)
        for decision in hosted.core.tick(now):
            if isinstance(decision, Abandon):
                self._abandon()
            if isinstance(decision, Send):
                hosted.pending_sends.append(
                    (workers[decision.worker].dispatch_edge,
                     Packet(decision.seq, decision.value)))
            else:  # ReleaseStop
                hosted.pending_sends.append(
                    (workers[decision.port].dispatch_edge,
                     self._base.stop_token))
        self._flush_sends(hosted)

    def _abandon(self) -> None:
        self._base.stop.set()
        raise Shutdown

    def _flush_sends(self, hosted: _Hosted) -> None:
        """Re-dispatches use non-blocking puts so supervision never wedges.

        Called with ``hosted.lock`` held (the dispatcher queues a Stop
        here too, behind the packets).  A queued *packet* lives only
        while it is in flight, then goes with an ``overflow`` record (the
        core's timeouts cover a queue that never drains).  Stop tokens
        are never dropped: workers consume their queues on the way out,
        so a held-back Stop always becomes sendable.
        """
        remaining: List[Tuple[str, Any]] = []
        for edge, envelope in hosted.pending_sends:
            if (isinstance(envelope, Packet)
                    and envelope.seq not in hosted.core.inflight):
                self.fault_report.add(
                    "overflow", "queue-full", edge, self.now_us(),
                    seq=envelope.seq,
                    note=f"re-dispatch of packet #{envelope.seq} dropped: "
                         f"it settled while the queue stayed full",
                )
                continue
            try:
                self._base.try_send_(edge, envelope)
            except queue.Full:
                remaining.append((edge, envelope))
        hosted.pending_sends = remaining

    # -- admission (the grabber thread) ----------------------------------------

    def _send_admitted(self, edge: str, value: Any) -> None:
        if self._base.is_stop(value):
            return self._send_plain(edge, value)
        if edge == self._topo.primary_edge:
            with self._room:
                self._start_service()
                while not self._offer(value):
                    self._room.wait()
        elif not self._fan_out(edge, value):
            return self._send_plain(edge, value)
        return None

    def _fan_out(self, edge: str, value: Any) -> bool:
        """Add a secondary out-edge's value to the newest buffered frame;
        False when none can take it (flush raced us): send it directly."""
        with self._lock:
            if self._last_shed:
                return True  # the rest of a shed frame's fan-out
            if self._pending:
                entry = self._pending[-1]
                if edge not in entry.values:
                    entry.values[edge] = value
                    self._kick()
                    return True
        return False

    def _offer(self, value: Any) -> bool:
        """Offer a grabbed frame to the core and carry its decisions out
        (caller holds ``_lock``).  False: park until the pump pops the
        head — or, once the run is over, raise :class:`Shutdown`."""
        decisions = self._core.offer(self.now_us())
        last = decisions[-1]
        if last is PARK:
            if self._closing or self._base.stop.is_set():
                raise Shutdown
            return False
        for shed in decisions[:-1]:
            self._pending.remove(next(
                e for e in self._pending if e.frame == shed.frame))
        self._last_shed = isinstance(last, Shed)
        if not self._last_shed:
            entry = _PendingFrame(last.frame)
            entry.values[self._topo.primary_edge] = value
            self._pending.append(entry)
            # Pump inline: a frame that fits goes out on the grabber's
            # own thread, without waking anybody.
            self._kick()
        return True

    def _drain(self) -> bool:
        """Pump until stalled (caller holds ``_lock``); True when a
        ``queue.Full`` stalled it — no event ends that, so retry it."""
        self._full = False
        while self._pump_step():
            pass
        return self._full

    def _kick(self) -> None:
        """Pump from the grabber's side (caller holds ``_lock``); a full
        queue is handed to the service thread, which owns the retry."""
        if self._drain():
            self._board.ring()

    def _pump_step(self) -> bool:
        """Release the head frame if the core (or the flush, past the
        window) allows it (holds ``_lock``); True when a send landed."""
        if not self._pending or not (
                self._flushing
                or self._core.may_release(self._board.in_flight())):
            return False
        entry = self._pending[0]
        edges = self._topo.admission_edges
        if len(entry.values) < len(edges):
            return False  # the grabber is still fanning this frame out
        sent = entry.sent
        for edge in edges[sent:]:
            try:
                self._base.try_send_(edge, entry.values[edge])
            except queue.Full:
                self._full = True
                if entry.sent:  # half in the network: not retractable
                    self._core.started(entry.frame)
                return entry.sent > sent
            entry.sent += 1
        self._pending.popleft()
        self._room.notify_all()
        self._core.released(entry.frame, self.now_us())
        self._board.note_released()
        return True

    def _flush_step(self) -> bool:
        """One flush round (caller holds ``_lock``); True when finished.

        Otherwise a full queue holds frames back: the service thread is
        rung to retry, and the caller parks until it pops a head."""
        if self._closing or self._base.stop.is_set():
            now = self.now_us()
            for entry in self._pending:
                self._core.failed(entry.frame, now, "aborted at teardown")
            self._pending.clear()
            return True
        self._kick()
        return not self._pending

    # -- the service thread ----------------------------------------------------

    def _start_service(self) -> None:
        """Start the service thread on first need (caller holds
        ``_lock``)."""
        if self._service is None and not self._closing:
            self._service = threading.Thread(
                target=self._serve, name=SERVICE_THREAD, daemon=True)
            self._service.start()

    def _serve(self) -> None:
        # Never the run's stop: a process exiting while a daemon thread
        # sits inside a shared multiprocessing Event's lock poisons its
        # semaphore for every other process.
        while not self._closing:
            self._bell.wait(self._service_round())

    def _service_round(self) -> float:
        """Beat for the live hosted workers when a beat is due, then one
        admission round; returns how long the thread may sleep."""
        timeout = None
        if self._beating:
            now = self.now_us() * 1e-6
            if now >= self._next_beat:
                for slot, thread in list(self._beating):
                    if thread.is_alive():
                        self._health.beat(slot)
                self._next_beat = now + HEARTBEAT_INTERVAL_S
            timeout = self._next_beat - now
        if self._admission_active:
            wait = self._watch_tick()
            timeout = wait if timeout is None else min(timeout, wait)
        return timeout

    def _watch_tick(self) -> float:
        """One admission round: deliveries to the core, pump, deadline
        scan.

        Returns how long, in seconds, the service thread may sleep if
        the doorbell (a delivery frees a slot) stays silent: until the
        core's next wake, else one ``deadline_ms`` — so an admission
        need not ring: no frame admitted meanwhile can be late before
        the sleeper is up.  Only a pump that met a full queue has no
        event to wait for and retries after ``_RETRY_S``.
        """
        with self._lock:
            now = self.now_us()
            self._pair_deliveries(now)
            full = self._drain()
            self._core.tick(now)
            wake = self._core.next_wake(now)
        timeout = (self._budget.deadline_ms / 1000.0 if wake is None
                   else (wake - now) / 1e6)
        return min(timeout, _RETRY_S) if full else timeout

    def _pair_deliveries(self, now: float) -> None:
        """Report the board's new deliveries to the core, FIFO-paired
        with the frames in flight (caller holds ``_lock``).  The board
        does not stamp them: each is judged by the previous report's
        reading, when it was still on its way — the ledger join stamps
        deliveries and backstops the misses."""
        delivered = self._board.delivered()
        while self._paired < delivered and self._core.in_flight:
            self._core.delivered(None, self._paired_us)
            self._paired += 1
        self._paired_us = now

    def shutdown(self) -> None:
        """Stop the service thread, then close every hosted farm's books.

        Every sleeper of this layer is woken here, not waited out: a
        parked grabber unwinds with :class:`Shutdown`, the service
        thread finds ``_closing`` and returns.
        """
        with self._room:
            self._closing = True
            self._room.notify_all()
        if self._service is not None:
            self._bell.ring()
            self._service.join(1.0)
        self._close_books()

    def _close_books(self) -> None:
        now = self._instant()
        for hosted in self._hosted.values():
            with hosted.lock:
                hosted.core.finish(now)

    # -- reporting -------------------------------------------------------------

    def payload(self) -> Dict[str, Optional[Dict]]:
        """This kernel's halves of the realtime report (``None`` for a
        half it does not host), by
        :func:`~repro.realtime.ledger.assemble_report` parameter."""
        admission = delivery = None
        if self._admission_active:
            with self._lock:
                admission = {
                    "frames": [f.to_dict() for f in self._core.ledger.frames],
                    "events": [e.to_dict() for e in self._core.events]}
        if self._delivery_active:
            delivery = {"stamps": list(self._stamps), "events": []}
        return {"admission": admission, "delivery": delivery}

    def build_report(self):
        """Assemble the full realtime report (one-interpreter runs)."""
        return assemble_report(self._budget, **self.payload())


class _Room(asyncio.Event):
    """The admission condition on a loop: the pump ``notify_all()`` s
    it, the parked grabber task awaits it."""

    notify_all = asyncio.Event.set

    async def park(self) -> None:
        # No await between the caller's check and this clear(): on one
        # loop nothing can pop the head in between.
        self.clear()
        await self.wait()


class AsyncPolicyKernel(PolicyKernel):
    """Admission and pacing for a coroutine executive on one event loop.

    :class:`PolicyKernel` with its waiting re-expressed for one loop:
    the blocking primitives are coroutines, the doorbell and the
    admission condition are :class:`asyncio.Event` s, and the service
    is a loop task started by the first frame offered — an OS thread
    must never touch the loop-confined queues of an
    :class:`~repro.codegen.async_kernel.AsyncioKernel`.  The core, the
    pump, the fan-out and the watchdog's sleep rule are inherited
    unchanged.  Supervision's primitives block threads, so this wrapper
    takes a stream and a budget only.  Finish with :meth:`ashutdown`.
    """

    def __init__(self, base: Any, stream: StreamTopology,
                 budget: LatencyBudget):
        super().__init__(
            base, stream=stream, budget=budget,
            stream_board=StreamBoard([0.0, 0.0], asyncio.Event()))
        self._room = _Room()

    def _start_service(self) -> None:
        if self._service is None and not self._closing:
            self._service = asyncio.get_running_loop().create_task(
                self._serve_async())
            self._service.set_name(SERVICE_THREAD)

    async def _serve_async(self) -> None:
        bell = self._board.bell
        loop = asyncio.get_running_loop()
        while True:
            # The timeout rings the same bell a delivery does.
            timer = loop.call_later(self._watch_tick(), bell.set)
            try:
                await bell.wait()
            finally:
                timer.cancel()
            bell.clear()

    async def ashutdown(self) -> None:
        """Cancel the service task (call inside the loop)."""
        self._closing = True
        self._room.notify_all()
        if self._service is not None:
            self._service.cancel()
            await asyncio.gather(self._service, return_exceptions=True)

    async def call_(self, func: Callable, *args: Any) -> Any:
        task = asyncio.current_task()
        if task is not None and task.get_name() == self._input_thread:
            await self._pace_async()
        return await self._base.call_(func, *args)

    async def _pace_async(self) -> None:
        period = self._pace_setup()
        if period is None:
            return
        # One sleep to the due time; teardown cancels the task.
        wait = self._next_due - self.now_us() * 1e-6
        if wait > 0:
            await asyncio.sleep(wait)
        if self._base.stop.is_set():
            raise Shutdown
        self._pace_advance(period)

    async def send_(self, edge: str, value: Any) -> None:
        if edge not in self._admitted or self._base.is_stop(value):
            return await self._base.send_(edge, value)
        if edge == self._topo.primary_edge:
            while True:
                with self._lock:
                    self._start_service()
                    if self._offer(value):
                        return None
                await self._room.park()
        if not self._fan_out(edge, value):
            return await self._base.send_(edge, value)
        return None

    async def stop_(self, edge: str) -> None:
        if edge in self._admitted and not self._flushing:
            self._flushing = True  # one loop: nothing races the claim
            while True:
                with self._lock:
                    if self._flush_step():
                        break
                await self._room.park()
        return await self._base.stop_(edge)

    async def recv_(self, edge: str) -> Any:
        value = await self._base.recv_(edge)
        if edge == self._delivery_edge:
            return self._delivered(value)
        return value
