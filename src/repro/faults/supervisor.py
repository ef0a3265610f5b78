"""Supervised kernel: fault injection and farm recovery behind the primitives.

:class:`SupervisedKernel` wraps a base kernel (a
:class:`~repro.codegen.kernel.Kernel` on any substrate) and adds two
things without touching a single line of generated executive code:

* **Injection** — ``call_`` and ``send_`` consult the
  :class:`~repro.faults.plan.PlanMatcher` and make planned crash/stall/
  delay/drop events actually happen (a crash kills the executive thread,
  a stall parks it until teardown, a drop swallows one message).

* **Supervision** — on farm protocol edges (see
  :class:`~repro.faults.topology.FaultTopology`) dispatched work is
  wrapped in sequence-numbered envelopes, workers heartbeat a shared
  health board, and the collector side (the ``df``/``tf`` master's
  ``alt_``, the ``scm`` merge's ``recv_``) scans between polls — so the
  farm degrades gracefully instead of hanging.  What a scan *decides*
  (who is dead or limping, which packet moves where, when a Stop may
  go) is not here: this kernel is one driver of the clock-free policy
  core, :class:`~repro.faults.farm.FarmSupervisor`, to which it reports
  events with ``time.monotonic()`` readings and whose decisions it
  carries out.  The simulator is the other driver.

The master's own ``busy[]``/``pending`` bookkeeping stays consistent
because ``alt_`` returns the *physical* arrival edge of each result: a
dead worker simply never returns, stays "busy" forever, and naturally
drops out of the master's dispatch rotation.  The ``scm`` merge instead
receives port-by-port, so results carry their *origin* slot and a stash
reorders them; this requires split and merge to share one supervisor
instance, which is why an ``scm`` farm is only supervised when both are
mapped to the same processor.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..codegen.kernel import Shutdown
from .farm import Abandon, FarmSupervisor, Send
from .plan import FaultPlan, PlanMatcher
from .policy import FaultPolicy
from .report import FaultReport
from .topology import Farm, FarmWorker, FaultTopology

__all__ = [
    "Packet",
    "Result",
    "WorkerCrash",
    "HealthBoard",
    "SupervisedKernel",
]


class WorkerCrash(Exception):
    """An injected crash: kills the raising executive thread only."""


class Packet:
    """Dispatch envelope: one unit of farm work with a sequence number."""

    __slots__ = ("seq", "value")

    def __init__(self, seq: int, value: Any):
        self.seq = seq
        self.value = value

    def __getstate__(self):
        return (self.seq, self.value)

    def __setstate__(self, state):
        self.seq, self.value = state

    def __repr__(self) -> str:
        return f"<packet #{self.seq}>"


class Result:
    """Collect envelope: a worker's answer, tagged with the packet seq."""

    __slots__ = ("seq", "value")

    def __init__(self, seq: int, value: Any):
        self.seq = seq
        self.value = value

    def __getstate__(self):
        return (self.seq, self.value)

    def __setstate__(self, state):
        self.seq, self.value = state

    def __repr__(self) -> str:
        return f"<result #{self.seq}>"


class HealthBoard:
    """Per-worker heartbeat timestamps (``time.monotonic`` seconds).

    Backed by a plain list on the threads backend or a lock-free
    ``multiprocessing.Array('d', n)`` on the processes backend —
    ``CLOCK_MONOTONIC`` is system-wide on Linux, so timestamps written
    in one OS process are comparable in another.  A slot still at its
    initial ``0.0`` means the worker has not started yet; the kernel
    reports no beat for it, which the policy core treats as *fresh* (a
    worker that never ran cannot have died; the slower stall path
    covers one that never starts).
    """

    def __init__(self, slots: Any):
        self._slots = slots

    @classmethod
    def local(cls, n: int) -> "HealthBoard":
        return cls([0.0] * max(1, n))

    def beat(self, slot: int) -> None:
        self._slots[slot] = time.monotonic()

    def last(self, slot: int) -> float:
        return self._slots[slot]


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
        #: (edge, envelope, flush_attempts) sends waiting for queue space.
        self.pending_sends: List[Tuple[str, Any, int]] = []


class SupervisedKernel:
    """Fault-aware wrapper around a thread-style kernel.

    Every primitive not overridden here (``join_``, ``blackboard``,
    span lists, ...) delegates to the base kernel, so the wrapper is a
    drop-in replacement wherever a kernel is accepted.
    """

    def __init__(
        self,
        base: Any,
        topology: FaultTopology,
        *,
        plan: Optional[FaultPlan] = None,
        policy: Optional[FaultPolicy] = None,
        board: Optional[HealthBoard] = None,
    ):
        self._base = base
        self._topology = topology
        #: Shared with a realtime wrapper stacked on top of this one
        #: (overload injection fires from the same plan).
        self.matcher = PlanMatcher(plan) if plan else None
        self._policy = policy or FaultPolicy()
        #: Latched persistent slowdowns: pid/processor -> factor.
        self._limp_factors: Dict[str, float] = {}
        self.fault_report = FaultReport()
        self._board = board or HealthBoard.local(topology.n_slots)
        #: The mapped processors the base kernel hosts; None = all of
        #: them (this instance owns every farm).
        self._hosts = getattr(base, "hosts", None)
        self._local = threading.local()
        self._slot_of_pid = {
            w.pid: w.slot for farm in topology.farms for w in farm.workers
        }
        # Farms are hosted only where the owner (master / split+merge)
        # runs; other processes just wrap/unwrap envelopes statelessly.
        # The base kernel's epoch, read once on the supervision clock:
        # every later decision is judged (and stamped) by one reading.
        epoch = time.monotonic() - base.now_us() * 1e-6
        self._hosted: Dict[str, _Hosted] = {}
        self._dispatch: Dict[str, Tuple[_Hosted, FarmWorker]] = {}
        self._collect: Dict[str, Tuple[_Hosted, FarmWorker]] = {}
        for farm in topology.farms:
            if not farm.supervised or not self._owns(farm):
                continue
            hosted = self._hosted[farm.sid] = _Hosted(FarmSupervisor(
                farm, self._policy, self.fault_report, epoch))
            for worker in farm.workers:
                self._dispatch[worker.dispatch_edge] = (hosted, worker)
                self._collect[worker.collect_edge] = (hosted, worker)
        self._beat_lock = threading.Lock()
        self._beating: List[Tuple[int, threading.Thread]] = []
        self._beater: Optional[threading.Thread] = None
        # The beater must pace itself on a *local* event, never on the
        # shared multiprocessing stop event: a process exiting while a
        # daemon thread sits inside the shared Event's lock poisons the
        # semaphore for every other process (observed as a parent hang
        # in stop_event.set()).
        self._beat_stop = threading.Event()

    def _owns(self, farm: Farm) -> bool:
        """The supervisor runs where the farm's master lives."""
        owner = self._topology.pid_to_processor.get(farm.owner_pid)
        return self._hosts is None or owner in self._hosts

    # -- plumbing --------------------------------------------------------------

    def __getattr__(self, name: str) -> Any:
        return getattr(self._base, name)

    def _check_stop(self) -> None:
        if self._base.stop.is_set():
            raise Shutdown

    def _identity(self) -> Tuple[Optional[str], Optional[str]]:
        """(process id, processor) of the calling executive thread."""
        name = threading.current_thread().name
        pid = self._topology.thread_to_pid.get(name)
        proc = self._topology.pid_to_processor.get(pid) if pid else None
        return pid, proc

    # -- heartbeats ------------------------------------------------------------

    def _register_beat(self, slot: int, thread: threading.Thread) -> None:
        self._board.beat(slot)
        with self._beat_lock:
            self._beating.append((slot, thread))
            if self._beater is None:
                self._beater = threading.Thread(
                    target=self._beat_loop, name="fault-heartbeat", daemon=True
                )
                self._beater.start()

    def _beat_loop(self) -> None:
        while not self._beat_stop.wait(self._policy.heartbeat_interval_s):
            with self._beat_lock:
                live = [(s, t) for s, t in self._beating if t.is_alive()]
            for slot, _thread in live:
                self._board.beat(slot)

    def shutdown(self) -> None:
        """Stop and join the heartbeat thread (call before process exit)."""
        self._beat_stop.set()
        beater = self._beater
        if beater is not None:
            beater.join(1.0)

    # -- injection -------------------------------------------------------------

    def _maybe_drop(self, edge: str) -> bool:
        if self.matcher is None:
            return False
        specs = self.matcher.fire(
            edge=edge, kinds=("drop", "partial-partition")
        )
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
            process=pid, processor=proc,
            kinds=("crash", "stall", "delay", "slow-worker", "limplock"),
        )
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
                time.sleep(spec.delay_us / 1e6)
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

    # -- primitives ------------------------------------------------------------

    def spawn_(self, name: str, body: Callable[[], None]) -> Any:
        def guarded() -> None:
            try:
                body()
            except WorkerCrash:
                pass  # the injected death of this executive thread

        thread = self._base.spawn_(name, guarded)
        pid = self._topology.thread_to_pid.get(name)
        slot = self._slot_of_pid.get(pid)
        if slot is not None and isinstance(thread, threading.Thread):
            self._register_beat(slot, thread)
        return thread

    def call_(self, func: Callable, *args: Any) -> Any:
        if self.matcher is None:
            return self._base.call_(func, *args)
        self._inject_compute()
        factor = None
        if self._limp_factors:
            pid, proc = self._identity()
            factor = self._limp_factors.get(pid) or (
                self._limp_factors.get(proc) if proc else None
            )
        if factor is None:
            return self._base.call_(func, *args)
        # A limping worker: the computation itself is untouched (results
        # stay bit-identical), but its *service time* is multiplied —
        # measured, not guessed, so the slowdown scales with real work.
        start = time.monotonic()
        try:
            return self._base.call_(func, *args)
        finally:
            stretch = (time.monotonic() - start) * (factor - 1.0)
            if stretch > 0:
                time.sleep(stretch)

    def send_(self, edge: str, value: Any) -> None:
        entry = self._dispatch.get(edge)
        if entry is not None:
            return self._send_dispatch(entry[0], entry[1], edge, value)
        wout = self._topology.work_out_edges.get(edge)
        if wout is not None and not self._base.is_stop(value):
            seq = getattr(self._local, "seq", None)
            if seq is not None:
                if self._maybe_drop(edge):
                    return None
                return self._base.send_(edge, Result(seq, value))
        if self._maybe_drop(edge) and not self._base.is_stop(value):
            return None
        return self._base.send_(edge, value)

    def _send_dispatch(self, hosted: _Hosted, worker: FarmWorker,
                       edge: str, value: Any) -> None:
        stopping = self._base.is_stop(value)
        with hosted.lock:
            now = time.monotonic()
            decisions = (hosted.core.stop(worker.index, now) if stopping
                         else hosted.core.dispatch(worker.index, value, now))
            if stopping and decisions and hosted.pending_sends:
                # Behind the re-sends still waiting for queue space.
                hosted.pending_sends.append((edge, value, 0))
                return None
        if not decisions:
            return None  # a Stop withheld until nothing is in flight
        (decision,) = decisions
        if isinstance(decision, Abandon):
            self._abandon()
        if stopping:
            return self._base.send_(edge, value)
        if self._maybe_drop(edge):
            return None  # in-flight record stays: the core recovers
        return self._base.send_(
            hosted.farm.workers[decision.worker].dispatch_edge,
            Packet(decision.seq, value))

    def recv_(self, edge: str) -> Any:
        if self.matcher is not None:
            self._inject_starvation(edge)
        entry = self._collect.get(edge)
        if entry is not None:
            return self._recv_collect(entry[0], entry[1].index)
        if edge in self._topology.work_in_edges:
            value = self._base.recv_(edge)
            if isinstance(value, Packet):
                self._local.seq = value.seq
                return value.value
            return value  # Stop (or plain value) passes through
        return self._base.recv_(edge)

    def _inject_starvation(self, edge: str) -> None:
        """``credit-starvation``: the consumer parks *before* dequeuing.

        Nothing is consumed from this edge again, so the queue backs up
        and — on the tcp backend, where credits are granted per dequeue
        — no flow-control credit ever returns to the senders.  The
        worker's heartbeat thread keeps beating throughout: upstream
        sees BEAT fresh, COUNT flat, the textbook gray failure.
        """
        pid, proc = self._identity()
        specs = self.matcher.fire(
            process=pid, processor=proc, kinds=("credit-starvation",)
        )
        if not specs:
            return
        self.fault_report.add(
            "injected", "credit-starvation", pid or specs[0].target,
            self.now_us(), processor=proc,
            note=f"consumer stopped draining {edge}",
        )
        self._base.stop.wait()
        raise Shutdown

    def stop_(self, edge: str) -> None:
        self.send_(edge, self._base.stop_token)

    def grain_(self, remaining: int, degree: int) -> int:
        """A supervised farm dispatches item by item: the packet is the
        unit of re-dispatch, of hedging, of the ``HedgeClock`` percentile
        and of the limp score's service time, and ``FaultPlan``
        occurrences count firings — a chunk of 8 beside a chunk of 1
        would read as an 8x limping worker.  Timing chunks per item
        belongs to the clock-free ``FarmSupervisor`` (ROADMAP item 2)."""
        return 1

    def alt_(self, edges: List[str]) -> Tuple[str, Any]:
        farm = self._topology.farm_of_collect_edges(edges)
        if farm is not None and farm.sid in self._hosted:
            return self._alt_collect(self._hosted[farm.sid], edges)
        return self._base.alt_(edges)

    # -- the supervision loops -------------------------------------------------

    def _alt_collect(self, hosted: _Hosted,
                     edges: List[str]) -> Tuple[str, Any]:
        """df/tf master collect: any port, physical arrival edge."""
        while True:
            self._check_stop()
            for edge in edges:
                try:
                    raw = self._base.try_recv_(edge)
                except queue.Empty:
                    continue
                if isinstance(raw, Result):
                    if self._accept(hosted, edge, raw) is None:
                        continue  # a duplicate: first result won
                    return edge, raw.value
                return edge, raw  # Stop or unenveloped value
            self._supervise(hosted)
            time.sleep(0.0005)

    def _recv_collect(self, hosted: _Hosted, slot: int) -> Any:
        """scm merge collect: port-ordered, stash reorders origins."""
        while True:
            self._check_stop()
            if slot in hosted.stash:
                return hosted.stash.pop(slot)
            for w in hosted.farm.workers:
                try:
                    raw = self._base.try_recv_(w.collect_edge)
                except queue.Empty:
                    continue
                # A physical Stop (or plain value) can only come from the
                # worker that owns the edge, so it is that port's.
                origin, value = w.index, raw
                if isinstance(raw, Result):
                    origin, value = self._accept(
                        hosted, w.collect_edge, raw), raw.value
                    if origin is None:
                        continue
                if origin == slot:
                    return value
                hosted.stash[origin] = value
            with hosted.lock:
                # A dead worker forwards no Stop; fake it once it owes
                # nothing.
                if hosted.core.retired(slot):
                    return self._base.stop_token
            self._supervise(hosted)
            time.sleep(0.0005)

    def _accept(self, hosted: _Hosted, edge: str,
                result: Result) -> Optional[int]:
        """The origin port of an answer that came in on ``edge``, or
        None for a duplicate."""
        with hosted.lock:
            return hosted.core.result(self._collect[edge][1].index,
                                      result.seq, time.monotonic())

    def _supervise(self, hosted: _Hosted) -> None:
        """One scan: flush queued sends, report the heartbeats, let the
        core decide what is due, queue what it decided."""
        workers = hosted.farm.workers
        with hosted.lock:
            self._flush_sends(hosted)
            for w in workers:
                beat = self._board.last(w.slot)
                if beat > 0.0:  # 0.0: not started yet
                    hosted.core.beat(w.index, beat)
            decisions = hosted.core.tick(time.monotonic())
            for decision in decisions:
                if isinstance(decision, Abandon):
                    self._abandon()
                if isinstance(decision, Send):
                    hosted.pending_sends.append(
                        (workers[decision.worker].dispatch_edge,
                         Packet(decision.seq, decision.value), 0))
                else:  # ReleaseStop
                    hosted.pending_sends.append(
                        (workers[decision.port].dispatch_edge,
                         self._base.stop_token, 0))
            self._flush_sends(hosted)

    def _abandon(self) -> None:
        self._base.stop.set()
        raise Shutdown

    def _flush_sends(self, hosted: _Hosted) -> None:
        """Re-dispatches use non-blocking puts so supervision never wedges.

        Called with ``hosted.lock`` held (the dispatcher queues a Stop
        here too, behind the packets).  Each entry carries a flush-attempt counter: a *packet* whose
        target queue stays full for ``max_flush_attempts`` scans is
        dropped with an ``overflow`` record — its in-flight entry stays,
        so the normal timeout path re-dispatches it elsewhere (a worker
        whose queue never drains is overloaded and earns its quarantine).
        Stop tokens are never dropped: workers consume their queues on
        the way out, so a held-back Stop always becomes sendable.
        """
        remaining: List[Tuple[str, Any, int]] = []
        for edge, envelope, attempts in hosted.pending_sends:
            try:
                self._base.try_send_(edge, envelope)
            except queue.Full:
                attempts += 1
                if (isinstance(envelope, Packet)
                        and attempts >= self._policy.max_flush_attempts):
                    self.fault_report.add(
                        "overflow", "queue-full", edge, self.now_us(),
                        seq=envelope.seq, attempts=attempts,
                        note=f"re-dispatch of packet #{envelope.seq} "
                             f"dropped after {attempts} full-queue scans",
                    )
                    continue
                remaining.append((edge, envelope, attempts))
        hosted.pending_sends = remaining
