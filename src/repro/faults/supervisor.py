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
  ``alt_``, the ``scm`` merge's ``recv_``) detects dead or stalled
  workers, re-dispatches their in-flight packets to survivors, and
  quarantines them — so the farm degrades gracefully instead of hanging.

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
from ..health import HEALTHY, FarmHealth, HealthPolicy, HedgeClock, LIMPING
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
    initial ``0.0`` means the worker has not started yet, which the
    supervisor treats as *fresh* (a worker that never ran cannot have
    died; the slower stall path covers one that never starts).
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

    def stale(self, slot: int, now: float, timeout: float) -> bool:
        last = self._slots[slot]
        return last > 0.0 and (now - last) > timeout


class _InFlight:
    """One dispatched, not-yet-answered packet."""

    __slots__ = ("seq", "value", "origin_slot", "assigned", "sent_at",
                 "attempts", "redispatch_record", "sends", "hedges")

    def __init__(self, seq: int, value: Any, origin_slot: int,
                 assigned: int, sent_at: float):
        self.seq = seq
        self.value = value
        self.origin_slot = origin_slot  # the port the collector expects
        self.assigned = assigned  # worker index currently holding it
        self.sent_at = sent_at
        self.attempts = 0
        self.redispatch_record = None  # FaultRecord awaiting its latency
        #: worker index -> when this packet was sent to it (dispatch,
        #: re-dispatch, hedge, probe); attributes each answer's service
        #: time to the worker that actually produced it.
        self.sends: Dict[int, float] = {assigned: sent_at}
        #: Speculative duplicates issued for this packet.
        self.hedges = 0


class _Suspect:
    """A worker that lost a hedge race and still owes its answer.

    First-result-wins means a rescued packet leaves the in-flight table
    before the classic timeout can pass judgement on the worker that
    failed to answer it.  The suspect entry keeps that judgement alive:
    the worker clears itself by answering *anything*, or is convicted —
    detected, quarantined, and the winning hedge retroactively recorded
    as the packet's re-dispatch — when its silence outlives the normal
    crash/stall deadlines (or the run ends first).
    """

    __slots__ = ("seq", "since", "win_latency_us", "rescued_by")

    def __init__(self, seq: int, since: float, win_latency_us: float,
                 rescued_by: FarmWorker):
        self.seq = seq
        self.since = since  # monotonic time of the unanswered send
        self.win_latency_us = win_latency_us
        self.rescued_by = rescued_by


class _Breaker:
    """Circuit-breaker state for one quarantined worker.

    After ``probe_after_s`` the supervisor duplicates a live in-flight
    packet onto the quarantined worker's dispatch edge (a *probation
    packet*: real work, so a false-positive quarantine costs nothing but
    one duplicate answer, which the dedupe path already discards).  Any
    result arriving on the worker's collect edge proves it alive and
    re-admits it to the dispatch rotation; ``max_probes`` unanswered
    probes make the quarantine permanent.
    """

    __slots__ = ("next_probe_at", "probes")

    def __init__(self, next_probe_at: float):
        self.next_probe_at = next_probe_at
        self.probes = 0


#: Settled send maps remembered for late-answer service-time attribution.
_RECENT_SENDS = 512


class _FarmState:
    """Supervisor-side state of one farm (lives in the owner process)."""

    def __init__(self, farm: Farm, health_policy: Optional[HealthPolicy]
                 = None):
        self.farm = farm
        self.lock = threading.Lock()
        self.next_seq = 0
        self.inflight: Dict[int, _InFlight] = {}
        #: seq -> origin slot, kept only for re-dispatched packets so a
        #: late answer from a falsely-suspected worker is discarded.
        self.satisfied: Dict[int, int] = {}
        #: Gray-failure defense: per-worker scores + the hedge clock.
        hp = health_policy or HealthPolicy()
        self.health = FarmHealth(len(farm.workers), hp)
        self.hedge = HedgeClock(hp)
        #: Seqs that ever received a speculative duplicate (labels the
        #: loser's late arrival as hedge waste rather than a mystery).
        self.hedged: set = set()
        #: seq -> send map of settled packets (bounded), so a late
        #: answer still updates the answering worker's score — that is
        #: how a limping worker's trickle earns its recovery.
        self.recent_sends: Dict[int, Dict[int, float]] = {}
        #: worker index -> outstanding hedge-race loss (see _Suspect).
        self.suspects: Dict[int, _Suspect] = {}
        #: Monotonic time of the last periodic health sample.
        self.last_sample_at = 0.0
        #: worker index -> heartbeat stamp at which this supervisor
        #: first saw the worker alive (the stuck rule's time origin).
        self.alive_since: Dict[int, float] = {}
        self.quarantined: set = set()
        #: worker index -> probation state (created at quarantine).
        self.breakers: Dict[int, _Breaker] = {}
        self.stopping = False
        #: Results that arrived for a port the collector is not currently
        #: waiting on (scm out-of-order recovery).
        self.stash: Dict[int, Any] = {}
        #: (edge, envelope, flush_attempts) re-dispatches waiting for
        #: queue space.
        self.pending_sends: List[Tuple[str, Any, int]] = []
        #: Dispatch edges whose Stop is withheld until no packet is in
        #: flight: releasing Stop early would let a survivor exit before
        #: a re-dispatched packet reaches it.
        self.held_stops: List[str] = []
        #: Online re-mapping: workers migrated out of the rotation.
        #: Stronger than a demotion (no trickle — full dispatch
        #: exclusion), weaker than quarantine (restoration is expected).
        self.migrated: set = set()
        #: worker index -> farm completions observed while the worker
        #: stayed continuously limping (the count-based migrate trigger).
        self.remap_counts: Dict[int, int] = {}
        #: migrated worker index -> farm completions since its last
        #: probation duplicate (the count-based probe cadence).
        self.remap_probe_gap: Dict[int, int] = {}


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
        self._hp = self._policy.health_policy()
        self._rp = self._policy.remap_policy()
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
        # Farm states exist only where the owner (master / split+merge)
        # runs; other processes just wrap/unwrap envelopes statelessly.
        self._states: Dict[str, _FarmState] = {}
        self._dispatch: Dict[str, Tuple[_FarmState, FarmWorker]] = {}
        self._collect: Dict[str, Tuple[_FarmState, FarmWorker]] = {}
        for farm in topology.farms:
            if not farm.supervised or not self._owns(farm):
                continue
            state = _FarmState(farm, self._hp)
            self._states[farm.sid] = state
            for worker in farm.workers:
                self._dispatch[worker.dispatch_edge] = (state, worker)
                self._collect[worker.collect_edge] = (state, worker)
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

    # -- introspection ---------------------------------------------------------

    def health_snapshot(self) -> Dict[str, Any]:
        """Per-farm worker health + hedge clock, for stats surfaces."""
        out: Dict[str, Any] = {}
        for sid, state in self._states.items():
            with state.lock:
                workers = []
                for w in state.farm.workers:
                    row = state.health.workers[w.index].to_row()
                    row["worker"] = w.pid
                    if w.index in state.quarantined:
                        row["state"] = "quarantined"
                    elif w.index in state.migrated:
                        row["state"] = "migrated"
                    workers.append(row)
                out[sid] = {"workers": workers,
                            "hedge": state.hedge.to_dict()}
        return out

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

    def _send_dispatch(self, state: _FarmState, worker: FarmWorker,
                       edge: str, value: Any) -> None:
        if self._base.is_stop(value):
            with state.lock:
                state.stopping = True
                if state.suspects:
                    self._judge_suspects(state, time.monotonic(),
                                         at_stop=True)
                if state.inflight or state.pending_sends:
                    # Workers exit on Stop; keep them alive until every
                    # in-flight packet is answered or re-dispatched.
                    state.held_stops.append(edge)
                    return None
            return self._base.send_(edge, value)
        with state.lock:
            seq = state.next_seq
            state.next_seq += 1
            assigned, out_edge = worker.index, edge
            if (worker.index in state.quarantined
                    or worker.index in state.migrated):
                # The dispatcher still addresses the dead (or migrated)
                # worker's port; reroute transparently so its full queue
                # cannot block us.
                target = self._pick_survivor(state, seq)
                if target is None:
                    self._abandon(state, None)
                assigned, out_edge = target.index, target.dispatch_edge
            elif (worker.index in state.suspects
                    or (self._hp.enabled
                        and not state.health.keeps(worker.index, seq))):
                # Health-weighted dispatch: a limping worker keeps only
                # a demoted fraction of the packets addressed to it (it
                # still gets a trickle — that is how its score recovers
                # and it earns readmission); the rest reroute to the
                # healthiest peer, transparently to the master.
                #
                # A *suspect* — it lost a hedge race and has answered
                # nothing since — keeps none until it clears itself or
                # is convicted.  First-result-wins frees its port, so
                # the master would go on feeding it; if it is in fact
                # dead those packets pile up unread, and the blocking
                # send below, on a queue nobody drains, would park the
                # one thread whose scan can convict it.
                alive = [w.index for w in state.farm.workers
                         if w.index not in state.quarantined
                         and w.index not in state.migrated]
                demoted = state.health.pick_healthy(
                    seq, exclude={worker.index, *state.suspects},
                    alive=alive,
                )
                if demoted is not None:
                    target = state.farm.workers[demoted]
                    assigned, out_edge = target.index, target.dispatch_edge
            state.inflight[seq] = _InFlight(
                seq, value, worker.index, assigned, time.monotonic()
            )
        if self._maybe_drop(edge):
            return None  # in-flight record stays: the supervisor recovers
        return self._base.send_(out_edge, Packet(seq, value))

    def recv_(self, edge: str) -> Any:
        if self.matcher is not None:
            self._inject_starvation(edge)
        entry = self._collect.get(edge)
        if entry is not None:
            return self._recv_collect(entry[0], entry[1])
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
        if farm is not None and farm.sid in self._states:
            return self._alt_collect(self._states[farm.sid], edges)
        return self._base.alt_(edges)

    # -- the supervision loops -------------------------------------------------

    def _alt_collect(self, state: _FarmState,
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
                    entry = self._collect.get(edge)
                    if entry is not None:
                        # Any answer from a quarantined worker — probe
                        # or stale original — proves it alive.
                        self._readmit(state, entry[1])
                    status, _origin, value = self._accept(
                        state, raw, entry[1] if entry else None
                    )
                    if status == "dup":
                        continue
                    return edge, value
                return edge, raw  # Stop or unenveloped value
            self._supervise(state)
            time.sleep(0.0005)

    def _recv_collect(self, state: _FarmState, worker: FarmWorker) -> Any:
        """scm merge collect: port-ordered, stash reorders origins."""
        slot = worker.index
        while True:
            self._check_stop()
            if slot in state.stash:
                return state.stash.pop(slot)
            for w in state.farm.workers:
                try:
                    raw = self._base.try_recv_(w.collect_edge)
                except queue.Empty:
                    continue
                if isinstance(raw, Result):
                    self._readmit(state, w)
                    status, origin, value = self._accept(state, raw, w)
                    if status == "dup":
                        continue
                elif self._base.is_stop(raw):
                    # A physical Stop can only come from the worker that
                    # owns the edge, so it is that port's terminator.
                    origin, value = w.index, raw
                else:
                    origin, value = w.index, raw
                if origin == slot:
                    return value
                state.stash[origin] = value
            if self._synthesize_stop(state, slot):
                return self._base.stop_token
            self._supervise(state)
            time.sleep(0.0005)

    def _synthesize_stop(self, state: _FarmState, slot: int) -> bool:
        """A dead worker forwards no Stop; fake it once it owes nothing."""
        if not state.stopping or slot not in state.quarantined:
            return False
        with state.lock:
            return not any(
                rec.origin_slot == slot for rec in state.inflight.values()
            )

    def _accept(self, state: _FarmState, result: Result,
                arrival: Optional[FarmWorker]) -> Tuple[str, int, Any]:
        """Dedupe and settle one arriving result envelope.

        ``arrival`` is the worker whose collect edge the envelope
        physically came in on: its service time (send-to-it -> now) is
        what feeds the health scores — including on the dup path, so a
        limping worker's late answers still move its EWMA and let it
        recover.  Dedup happens *here*, below the realtime layer, which
        is what keeps FrameLedger conservation exact under hedging: the
        collector sees each seq exactly once, whatever raced.
        """
        now_us = self.now_us()
        now = time.monotonic()
        with state.lock:
            if arrival is not None:
                # Answering anything clears an outstanding suspicion.
                state.suspects.pop(arrival.index, None)
            rec = state.inflight.pop(result.seq, None)
            if rec is None:
                self._observe(state, arrival,
                              state.recent_sends.get(result.seq), now)
                origin = state.satisfied.get(result.seq, -1)
                self.fault_report.add(
                    "duplicate",
                    "hedge-waste" if result.seq in state.hedged
                    else "late-result",
                    state.farm.sid, now_us, seq=result.seq,
                )
                if result.seq in state.hedged:
                    state.hedge.wasted += 1
                return "dup", origin, None
            self._observe(state, arrival, rec.sends, now)
            if self._rp.enabled:
                self._note_completion(state)
            state.recent_sends[result.seq] = rec.sends
            while len(state.recent_sends) > _RECENT_SENDS:
                state.recent_sends.pop(next(iter(state.recent_sends)))
            if rec.hedges > 0 and arrival is not None \
                    and arrival.index != rec.assigned:
                state.hedge.won += 1
                win_latency_us = (
                    now - rec.sends.get(arrival.index, now)
                ) * 1e6
                self.fault_report.add(
                    "hedge-win", "overdue", arrival.pid, now_us,
                    processor=arrival.processor, seq=result.seq,
                    latency_us=win_latency_us,
                )
                if rec.assigned not in state.quarantined:
                    state.suspects[rec.assigned] = _Suspect(
                        result.seq,
                        rec.sends.get(rec.assigned, rec.sent_at),
                        win_latency_us, arrival,
                    )
            if rec.attempts > 0 or rec.hedges > 0:
                state.satisfied[result.seq] = rec.origin_slot
                if rec.redispatch_record is not None:
                    rec.redispatch_record.latency_us = (
                        now_us - rec.redispatch_record.time_us
                    )
            return "ok", rec.origin_slot, result.value

    def _observe(self, state: _FarmState, arrival: Optional[FarmWorker],
                 sends: Optional[Dict[int, float]], now: float) -> None:
        """Feed one answer's service time into the health machinery.

        Called with ``state.lock`` held.  Attribution needs to know when
        the packet was sent *to the answering worker* — a re-dispatched
        or hedged packet has one send time per worker it visited.
        """
        if not self._hp.enabled or arrival is None or sends is None:
            return
        sent_at = sends.get(arrival.index)
        if sent_at is None:
            return
        service = now - sent_at
        event = state.health.observe(arrival.index, service, now)
        if state.health.state(arrival.index) != LIMPING:
            # Only healthy answers calibrate the hedge threshold: letting
            # a limping worker's stretched services into the percentile
            # window inflates the threshold until hedging self-disables
            # (the clock must answer "how long would a healthy worker
            # take", not "how long do packets take lately").
            state.hedge.record(service)
        if event is not None:
            self.fault_report.add(
                "restored", "stuck", arrival.pid, self.now_us(),
                processor=arrival.processor,
            )

    def _supervise(self, state: _FarmState) -> None:
        """One scan: flush queued re-sends, time out overdue packets."""
        self._flush_sends(state)
        now = time.monotonic()
        policy = self._policy
        with state.lock:
            for seq, rec in list(state.inflight.items()):
                worker = state.farm.workers[rec.assigned]
                elapsed = now - rec.sent_at
                deadline = policy.deadline_s(rec.attempts)
                if (elapsed > deadline and self._board.stale(
                        worker.slot, now, policy.heartbeat_timeout_s)):
                    kind = "crash"
                elif elapsed > deadline * policy.stall_factor:
                    kind = "stall"  # alive-but-silent, or a lost message
                else:
                    self._maybe_flag_stuck(state, rec, worker, now)
                    self._maybe_hedge(state, rec, elapsed, now)
                    continue
                self._quarantine(state, worker, kind, seq)
                if rec.attempts >= policy.max_redispatch:
                    self._abandon(state, seq)
                target = self._pick_survivor(state, seq)
                if target is None:
                    self._abandon(state, seq)
                rec.assigned = target.index
                rec.attempts += 1
                rec.sent_at = now
                rec.sends[target.index] = now
                rec.redispatch_record = self.fault_report.add(
                    "redispatch", kind, target.pid, self.now_us(),
                    processor=target.processor, seq=seq,
                    attempts=rec.attempts,
                    note=f"packet #{seq} moved off {worker.pid}",
                )
                state.pending_sends.append(
                    (target.dispatch_edge, Packet(seq, rec.value), 0)
                )
            self._judge_suspects(state, now)
            self._evaluate_health(state, now)
            self._apply_remap(state, now)
            self._probe_quarantined(state, now)
            if (state.stopping and not state.inflight
                    and not state.pending_sends and state.held_stops):
                edges, state.held_stops = state.held_stops, []
                state.pending_sends.extend(
                    (edge, self._base.stop_token, 0) for edge in edges
                )
        self._flush_sends(state)

    def _maybe_flag_stuck(self, state: _FarmState, rec: _InFlight,
                          worker: FarmWorker, now: float) -> None:
        """BEAT fresh, COUNT flat: the beats-but-never-progresses case.

        Called with ``state.lock`` held.  The worker holds a packet well
        past the stuck threshold, its heartbeat is perfectly fresh (so
        the crash path will never fire) and it has completed *nothing*
        since this packet was dispatched — flag it limping long before
        the much slower stall timeout would.

        The clock starts when the worker was first seen beating, never
        at dispatch: a packet sent to a worker whose OS process is
        still starting (``spawn`` re-imports the world) waits on a
        cold start, not on a wedged computation, and the limping
        rule's ``min_samples`` guard has no say here — a worker stuck
        on its very first packet has no samples and must still be
        caught.
        """
        if not self._hp.enabled:
            return
        beat = self._board.last(worker.slot)
        if beat <= 0.0:
            return  # not started yet: nothing to be stuck in
        since = state.alive_since.setdefault(rec.assigned, beat)
        held = now - max(rec.sent_at, since)
        if held <= self._hp.stuck_after_s:
            return
        if self._board.stale(worker.slot, now,
                             self._policy.heartbeat_timeout_s):
            return  # dead, not limping: the crash path owns this
        health = state.health.workers[rec.assigned]
        if (health.last_done_at is not None
                and health.last_done_at >= rec.sent_at):
            return  # it finished something since: slow, not stuck
        event = state.health.mark_stuck(rec.assigned)
        if event is not None:
            self.fault_report.add(
                "limping", "stuck", worker.pid, self.now_us(),
                processor=worker.processor, seq=rec.seq,
                note=f"BEAT fresh, no completion for {held * 1e3:.0f} ms",
            )

    def _maybe_hedge(self, state: _FarmState, rec: _InFlight,
                     elapsed: float, now: float) -> None:
        """Speculatively duplicate an overdue packet to a healthy worker.

        Called with ``state.lock`` held.  The threshold is adaptive —
        a multiple of a high percentile of *observed* service times —
        so hedging self-tunes to the workload instead of needing a
        configured timeout.  First result wins; :meth:`_accept` already
        discards the loser, which is exactly the dedup contract the
        breaker's probation packets rely on.
        """
        if state.stopping or rec.hedges >= self._hp.max_hedges_per_packet:
            return
        if not state.hedge.overdue(elapsed):
            return
        alive = [w.index for w in state.farm.workers
                 if w.index not in state.quarantined
                 and w.index not in state.migrated]
        target_index = state.health.pick_healthy(
            rec.seq, exclude=set(rec.sends), alive=alive
        )
        if target_index is None:
            return
        target = state.farm.workers[target_index]
        rec.hedges += 1
        rec.sends[target_index] = now
        state.hedged.add(rec.seq)
        state.hedge.issued += 1
        threshold = state.hedge.threshold_s() or 0.0
        self.fault_report.add(
            "hedge", "overdue", target.pid, self.now_us(),
            processor=target.processor, seq=rec.seq,
            note=f"in-flight {elapsed * 1e3:.0f} ms > "
                 f"threshold {threshold * 1e3:.0f} ms; duplicated off "
                 f"{state.farm.workers[rec.assigned].pid}",
        )
        state.pending_sends.append(
            (target.dispatch_edge, Packet(rec.seq, rec.value), 0)
        )

    def _judge_suspects(self, state: _FarmState, now: float,
                        at_stop: bool = False) -> None:
        """Pass verdict on workers that lost a hedge race and stayed silent.

        Called with ``state.lock`` held.  The deadlines are the same
        crash/stall rules the in-flight scan applies; ``at_stop`` means
        the run is ending, so silence-so-far is all the evidence there
        will ever be and the verdict is immediate.
        """
        policy = self._policy
        for index, susp in list(state.suspects.items()):
            if index in state.quarantined:
                state.suspects.pop(index)
                continue
            worker = state.farm.workers[index]
            stale = self._board.stale(worker.slot, now,
                                      policy.heartbeat_timeout_s)
            elapsed = now - susp.since
            deadline = policy.deadline_s(0)
            if at_stop:
                kind = "crash" if stale else "stall"
            elif elapsed > deadline and stale:
                kind = "crash"
            elif elapsed > deadline * policy.stall_factor:
                kind = "stall"
            else:
                continue
            state.suspects.pop(index)
            self._quarantine(state, worker, kind, susp.seq)
            # The winning hedge was this packet's re-dispatch; now that
            # the original worker is convicted, record it as such, with
            # the duplicate's real recovery latency.
            self.fault_report.add(
                "redispatch", kind, susp.rescued_by.pid, self.now_us(),
                processor=susp.rescued_by.processor, seq=susp.seq,
                attempts=1, latency_us=max(susp.win_latency_us, 1.0),
                note=f"hedged duplicate of packet #{susp.seq} off "
                     f"{worker.pid} confirmed by {kind} verdict",
            )

    def _evaluate_health(self, state: _FarmState, now: float) -> None:
        """Re-apply the score-outlier rule; emit transition + sample records.

        Called with ``state.lock`` held.
        """
        if not self._hp.enabled:
            return
        for index, new_state, reason in state.health.evaluate():
            worker = state.farm.workers[index]
            category = "limping" if new_state == LIMPING else "restored"
            score = state.health.workers[index].score or 0.0
            median = state.health.median() or 0.0
            self.fault_report.add(
                category, reason, worker.pid, self.now_us(),
                processor=worker.processor,
                note=f"score {score * 1e3:.1f} ms vs farm median "
                     f"{median * 1e3:.1f} ms",
            )
        if now - state.last_sample_at < self._hp.sample_interval_s:
            return
        state.last_sample_at = now
        now_us = self.now_us()
        for w in state.farm.workers:
            health = state.health.workers[w.index]
            if health.score is None and health.state != LIMPING:
                continue  # nothing measured yet: no counter point
            self.fault_report.add(
                "health", health.state, w.pid, now_us,
                processor=w.processor,
                value=(health.score or 0.0) * 1e3,
            )

    def _note_completion(self, state: _FarmState) -> None:
        """Advance the count-based re-map clocks on one farm completion.

        Called with ``state.lock`` held, from :meth:`_accept`'s settle
        path.  Counting *completions* rather than seconds keeps every
        re-map decision unit-free: the same packet sequence produces the
        same decision sequence whether time is wall-clock or the
        simulator's virtual microseconds.
        """
        limping = state.health.limping()
        for index in list(state.remap_counts):
            if index not in limping or index in state.migrated:
                # The streak must be continuous: recovery (or migration)
                # resets the confirmation count.
                state.remap_counts.pop(index)
        for index in limping:
            if index in state.migrated or index in state.quarantined:
                continue
            state.remap_counts[index] = state.remap_counts.get(index, 0) + 1
        for index in state.migrated:
            state.remap_probe_gap[index] = (
                state.remap_probe_gap.get(index, 0) + 1
            )

    def _apply_remap(self, state: _FarmState, now: float) -> None:
        """Migrate confirmed-limping workers out; restore recovered ones.

        Called with ``state.lock`` held.  Migration is the escalation
        above demotion: the worker leaves the dispatch rotation entirely
        and its in-flight packets drain to healthy survivors through the
        normal re-dispatch path (attempt counters and ledger
        conservation intact).  Restoration requires measured evidence —
        the probation duplicates must pull the worker's EWMA score back
        under the health layer's clear hysteresis — never mere liveness.
        """
        if not self._rp.enabled or not self._hp.enabled:
            return
        # 1. Restore migrated workers whose score recovered (HEALTHY is
        # only reachable through the clear_factor hysteresis).
        for index in sorted(state.migrated):
            if state.health.state(index) != HEALTHY:
                continue
            state.migrated.discard(index)
            state.remap_probe_gap.pop(index, None)
            worker = state.farm.workers[index]
            self.fault_report.add(
                "restored", "remap", worker.pid, self.now_us(),
                processor=worker.processor,
                note="score recovered; rejoining dispatch rotation",
            )
        # 2. Migrate workers that stayed limping past the confirmation
        # count — but only while enough healthy capacity remains.
        for index in sorted(state.remap_counts):
            if state.remap_counts[index] < self._rp.confirm_completions:
                continue
            if index in state.migrated or index in state.quarantined:
                state.remap_counts.pop(index, None)
                continue
            active = [w.index for w in state.farm.workers
                      if w.index not in state.quarantined
                      and w.index not in state.migrated
                      and w.index != index]
            healthy = [i for i in active
                       if state.health.state(i) == HEALTHY]
            if len(active) < self._rp.min_active or not healthy:
                continue  # nobody to migrate onto; demotion keeps covering
            state.remap_counts.pop(index, None)
            state.migrated.add(index)
            state.remap_probe_gap[index] = 0
            worker = state.farm.workers[index]
            score = state.health.workers[index].score or 0.0
            median = state.health.median() or 0.0
            self.fault_report.add(
                "remap", "limping", worker.pid, self.now_us(),
                processor=worker.processor,
                note=f"migrated after {self._rp.confirm_completions} farm "
                     f"completions limping (score {score * 1e3:.1f} ms vs "
                     f"median {median * 1e3:.1f} ms)",
            )
            if self._rp.drain:
                self._drain_migrated(state, worker, now)
        # 3. Probation duplicates pace the migrated worker's way back.
        if state.stopping or not state.inflight:
            return
        for index in sorted(state.migrated):
            if state.remap_probe_gap.get(index, 0) < self._rp.probe_stride:
                continue
            state.remap_probe_gap[index] = 0
            worker = state.farm.workers[index]
            rec = min(state.inflight.values(), key=lambda r: r.seq)
            rec.sends.setdefault(worker.index, now)
            self.fault_report.add(
                "probe", "remap", worker.pid, self.now_us(),
                processor=worker.processor, seq=rec.seq,
                note=f"probation duplicate of packet #{rec.seq} "
                     f"(migrated worker)",
            )
            state.pending_sends.append(
                (worker.dispatch_edge, Packet(rec.seq, rec.value), 0)
            )

    def _drain_migrated(self, state: _FarmState, worker: FarmWorker,
                        now: float) -> None:
        """Coordinated drain: re-home the migrated worker's in-flight load.

        Called with ``state.lock`` held.  Each packet still assigned to
        the migrated worker is re-dispatched to a survivor immediately
        instead of waiting for its timeout; the worker's own late answer
        (it is slow, not dead) settles as a discarded duplicate — and
        still feeds its health score, which is part of how it recovers.
        """
        for seq, rec in sorted(state.inflight.items()):
            if rec.assigned != worker.index:
                continue
            if rec.attempts >= self._policy.max_redispatch:
                continue  # let the timeout path pass final judgement
            target = self._pick_survivor(state, seq)
            if target is None or target.index == worker.index:
                continue
            rec.assigned = target.index
            rec.attempts += 1
            rec.sent_at = now
            rec.sends[target.index] = now
            rec.redispatch_record = self.fault_report.add(
                "redispatch", "remap", target.pid, self.now_us(),
                processor=target.processor, seq=seq, attempts=rec.attempts,
                note=f"drain: packet #{seq} migrated off {worker.pid}",
            )
            state.pending_sends.append(
                (target.dispatch_edge, Packet(seq, rec.value), 0)
            )

    def _probe_quarantined(self, state: _FarmState, now: float) -> None:
        """Circuit breaker: offer quarantined workers probation packets.

        Called with ``state.lock`` held.  A probe *duplicates* a live
        in-flight packet onto the quarantined worker's dispatch edge —
        never synthetic work, which could crash user functions — so the
        worker's answer is either the accepted result (it beat the
        survivor) or a discarded duplicate.  Either way its arrival on
        the worker's collect edge re-admits it (see the collect loops).
        """
        if state.stopping or not state.inflight:
            return
        policy = self._policy
        for index in sorted(state.quarantined):
            breaker = state.breakers.get(index)
            if breaker is None or now < breaker.next_probe_at:
                continue
            if breaker.probes >= policy.max_probes:
                continue  # permanently retired
            worker = state.farm.workers[index]
            rec = min(state.inflight.values(), key=lambda r: r.seq)
            rec.sends.setdefault(worker.index, now)
            breaker.probes += 1
            breaker.next_probe_at = now + policy.probe_delay_s(
                breaker.probes
            )
            self.fault_report.add(
                "probe", "probation", worker.pid, self.now_us(),
                processor=worker.processor, seq=rec.seq,
                attempts=breaker.probes,
                note=f"duplicate of packet #{rec.seq}",
            )
            state.pending_sends.append(
                (worker.dispatch_edge, Packet(rec.seq, rec.value), 0)
            )

    def _readmit(self, state: _FarmState, worker: FarmWorker) -> None:
        """A quarantined worker answered: return it to the rotation."""
        if worker.index not in state.quarantined:
            return
        with state.lock:
            if worker.index not in state.quarantined:
                return
            state.quarantined.discard(worker.index)
            state.breakers.pop(worker.index, None)
        self.fault_report.add(
            "readmit", "probation", worker.pid, self.now_us(),
            processor=worker.processor,
        )

    def _quarantine(self, state: _FarmState, worker: FarmWorker,
                    kind: str, seq: int) -> None:
        now_us = self.now_us()
        self.fault_report.add(
            "detected", kind, worker.pid, now_us,
            processor=worker.processor, seq=seq,
        )
        if worker.index not in state.quarantined:
            state.quarantined.add(worker.index)
            state.breakers[worker.index] = _Breaker(
                time.monotonic() + self._policy.probe_after_s
            )
            self.fault_report.add(
                "quarantine", kind, worker.pid, now_us,
                processor=worker.processor,
            )

    def _pick_survivor(self, state: _FarmState,
                       seq: int) -> Optional[FarmWorker]:
        survivors = [
            w.index for w in state.farm.workers
            if w.index not in state.quarantined
            and w.index not in state.migrated
        ]
        if not survivors:
            # A migrated worker is slow, not dead: better it than
            # abandoning the packet when nothing else survives.
            survivors = [
                w.index for w in state.farm.workers
                if w.index not in state.quarantined
            ]
        if not survivors:
            return None
        if self._hp.enabled:
            # Prefer fully healthy survivors: re-dispatching a packet
            # onto a limping worker just schedules the next timeout.
            index = state.health.pick_healthy(seq, exclude=set(),
                                              alive=survivors)
            if index is not None:
                return state.farm.workers[index]
        return state.farm.workers[survivors[seq % len(survivors)]]

    def _abandon(self, state: _FarmState, seq: Optional[int]) -> None:
        """Out of retries or survivors: fail the run instead of hanging."""
        self.fault_report.add(
            "abandoned", "give-up", state.farm.sid, self.now_us(), seq=seq,
            note="no survivors or re-dispatch budget exhausted",
        )
        self._base.stop.set()
        raise Shutdown

    def _flush_sends(self, state: _FarmState) -> None:
        """Re-dispatches use non-blocking puts so supervision never wedges.

        Each entry carries a flush-attempt counter: a *packet* whose
        target queue stays full for ``max_flush_attempts`` scans is
        dropped with an ``overflow`` record — its in-flight entry stays,
        so the normal timeout path re-dispatches it elsewhere (a worker
        whose queue never drains is overloaded and earns its quarantine).
        Stop tokens are never dropped: workers consume their queues on
        the way out, so a held-back Stop always becomes sendable.
        """
        remaining: List[Tuple[str, Any, int]] = []
        for edge, envelope, attempts in state.pending_sends:
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
        state.pending_sends = remaining
