"""The supervision policy of one farm, as a clock-free state machine.

:class:`FarmSupervisor` holds every *decision* a supervised farm makes —
which worker a packet goes to, when a silent worker is convicted and its
packets re-dispatched, when a slow one is flagged, demoted, hedged
around, migrated or probed, when a withheld Stop may go — and nothing
else: no clock, no thread, no queue, no kernel.  A *driver* feeds it
events, each with the one clock reading that event is judged by, and
carries out the decisions it returns:

==========================  ==================================================
event                       returns
==========================  ==================================================
``dispatch(port, value,     ``[Send(worker, seq, value, "dispatch")]`` — the
now)``                      worker may differ from ``port`` (dead, migrated,
                            suspect or demoted) — or ``[Abandon(None)]``
``stop(port, now)``         ``[ReleaseStop(port)]``, or ``[]`` while packets
                            are still in flight (released by a later tick)
``result(arrival, seq,      the *origin* port the answer belongs to, or
now)``                      ``None`` for a duplicate (first result wins)
``beat(worker, at)``        nothing — the worker was seen alive at ``at``
``tick(now)``               ``Send``s with ``why`` in ``redispatch`` /
                            ``hedge`` / ``probe`` / ``drain``, ``ReleaseStop``,
                            ``Abandon`` (always last)
``next_wake(now)``          the earliest instant a ``tick`` could decide
                            anything, ``None`` when only an event can
==========================  ==================================================

Two drivers exist: :class:`~repro.backends.policy_kernel.PolicyKernel`
passes ``time.monotonic()`` and holds its per-farm lock around every
call (the core is single-threaded by contract);
:class:`~repro.machine.executive.Executive` passes virtual seconds.
Every duration in :class:`~repro.faults.policy.FaultPolicy` and
:class:`~repro.health.policy.HealthPolicy` is seconds on that one
clock; ``FaultReport`` records are stamped ``(now - epoch) * 1e6`` and
written here, so no driver formats a note twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from ..codegen.kernel import Chunk
from ..health import HEALTHY, LIMPING, FarmHealth, HedgeClock
from .policy import FaultPolicy
from .report import FaultRecord, FaultReport
from .topology import Farm

__all__ = ["Send", "ReleaseStop", "Abandon", "Decision", "FarmSupervisor"]


@dataclass(frozen=True)
class Send:
    """Put packet ``seq`` on ``worker``'s dispatch edge."""

    worker: int
    seq: int
    value: Any
    why: str  # dispatch | redispatch | hedge | probe | drain


@dataclass(frozen=True)
class ReleaseStop:
    """The Stop withheld on ``port`` may go: nothing is in flight."""

    port: int


@dataclass(frozen=True)
class Abandon:
    """Out of survivors or retries: fail the run instead of hanging."""

    seq: Optional[int]


Decision = Union[Send, ReleaseStop, Abandon]


class _InFlight:
    """One dispatched, not-yet-answered packet."""

    __slots__ = ("seq", "value", "origin_slot", "assigned", "sent_at",
                 "attempts", "redispatch_record", "sends", "hedges", "items")

    def __init__(self, seq: int, value: Any, items: int, origin_slot: int,
                 assigned: int, sent_at: float):
        self.seq = seq
        self.value = value
        self.items = items  # farm items the packet carries (a Chunk: n)
        self.origin_slot = origin_slot  # the port the collector expects
        self.assigned = assigned  # worker index currently holding it
        self.sent_at = sent_at
        self.attempts = 0
        self.redispatch_record: Optional[FaultRecord] = None
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

    __slots__ = ("seq", "items", "since", "win_latency_us", "rescued_by")

    def __init__(self, seq: int, items: int, since: float,
                 win_latency_us: float, rescued_by: int):
        self.seq = seq
        self.items = items
        self.since = since  # when the worker started sitting on the packet
        self.win_latency_us = win_latency_us
        self.rescued_by = rescued_by


class _Breaker:
    """Circuit-breaker state for one quarantined worker.

    After ``probe_after_s`` the supervisor duplicates a live in-flight
    packet onto the quarantined worker's dispatch edge (a *probation
    packet*: real work, so a false-positive quarantine costs nothing but
    one duplicate answer, which the dedupe path already discards).  Any
    result arriving from the worker proves it alive and re-admits it to
    the dispatch rotation; ``max_probes`` unanswered probes make the
    quarantine permanent.
    """

    __slots__ = ("next_probe_at", "probes")

    def __init__(self, next_probe_at: float):
        self.next_probe_at = next_probe_at
        self.probes = 0


#: Settled send maps remembered for late-answer service-time attribution.
_RECENT_SENDS = 512
MAX_REDISPATCH = 3  # re-dispatches of a packet before the run gives up
MAX_HEDGES_PER_PACKET = 1  # speculative duplicates of a packet
SAMPLE_INTERVAL_S = 0.25  # seconds between ``health`` report samples


class FarmSupervisor:
    """Supervision state and policy of one farm (see the module docstring)."""

    def __init__(self, farm: Farm, policy: FaultPolicy, report: FaultReport,
                 epoch: float = 0.0):
        self.farm = farm
        self.policy = policy
        self.report = report
        self._epoch = epoch
        self._hp = policy.health_policy()
        self._rp = policy.remap_policy()
        self.next_seq = 0
        self.inflight: Dict[int, _InFlight] = {}
        #: Gray-failure defense: per-worker scores + the hedge clock.
        self.health = FarmHealth(len(farm.workers), self._hp)
        self.hedge = HedgeClock(self._hp)
        #: Seqs that ever received a speculative duplicate (labels the
        #: loser's late arrival as hedge waste rather than a mystery).
        self.hedged: set = set()
        #: seq -> (send map, items) of settled packets (bounded), so a
        #: late answer still updates the answering worker's score — that
        #: is how a limping worker's trickle earns its recovery.
        self.recent_sends: Dict[int, Tuple[Dict[int, float], int]] = {}
        #: worker index -> outstanding hedge-race loss (see _Suspect).
        self.suspects: Dict[int, _Suspect] = {}
        self.quarantined: set = set()
        #: worker index -> probation state (created at quarantine).
        self.breakers: Dict[int, _Breaker] = {}
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
        self.stopping = False
        #: Ports whose Stop is withheld until no packet is in flight:
        #: releasing Stop early would let a survivor exit before a
        #: re-dispatched packet reaches it.
        self.held_stops: List[int] = []
        #: worker index -> first / latest instant it was seen alive.
        self._first_beat: Dict[int, float] = {}
        self._last_beat: Dict[int, float] = {}
        self._last_sample_at: Optional[float] = None
        #: An answer arrived since the last tick: scores moved, so the
        #: count-based rules (flag, migrate, restore, release) are due.
        self._dirty = False

    # -- events ----------------------------------------------------------------

    def dispatch(self, port: int, value: Any, now: float) -> List[Decision]:
        """The dispatcher addresses ``value`` to ``port``.  A ``Chunk`` of
        ``n`` items is timed per item — deadlines times ``n``, service
        time over ``n`` — and re-sent whole."""
        items = len(value) if isinstance(value, Chunk) else 1
        seq = self.next_seq
        self.next_seq += 1
        assigned = port
        if port in self.quarantined or port in self.migrated:
            # The dispatcher still addresses the dead (or migrated)
            # worker's port; reroute transparently so its full queue
            # cannot block anyone (nor a suspect's, while a peer exists).
            target = self._pick_survivor(seq, avoid=self.suspects)
            if target is None:
                return [self._abandon(None, now)]
            assigned = target
        elif (port in self.suspects
                or (self._hp.enabled and not self.health.keeps(port, seq))):
            # Health-weighted dispatch: a limping worker keeps only a
            # demoted fraction of the packets addressed to it (it still
            # gets a trickle — that is how its score recovers and it
            # earns readmission); the rest reroute to the healthiest
            # peer, transparently to the dispatcher.
            #
            # A *suspect* — it lost a hedge race and has answered
            # nothing since — keeps none until it clears itself or is
            # convicted.  First-result-wins frees its port, so the
            # dispatcher would go on feeding it; if it is in fact dead
            # those packets pile up unread, and a blocking send on a
            # queue nobody drains would park the one thread whose scan
            # can convict it.
            demoted = self.health.pick_healthy(
                seq, exclude={port, *self.suspects}, alive=self._active(),
            )
            if demoted is not None:
                assigned = demoted
        self.inflight[seq] = _InFlight(seq, value, items, port, assigned,
                                       now)
        return [Send(assigned, seq, value, "dispatch")]

    def stop(self, port: int, now: float) -> List[Decision]:
        """The dispatcher terminates ``port``; the run is ending."""
        self.stopping = True
        if self.suspects:
            self._judge_suspects(now, at_stop=True)
        if self.inflight:
            # Workers exit on Stop; keep them alive until every
            # in-flight packet is answered or re-dispatched.
            self.held_stops.append(port)
            return []
        return [ReleaseStop(port)]

    def finish(self, now: float) -> None:
        """The run is over, however it ended: a worker that lost a hedge
        race and stayed silent is judged on the silence so far, as at
        :meth:`stop` — which the dispatcher may never reach when the
        run's sinks complete first."""
        self._judge_suspects(now, at_stop=True)

    def result(self, arrival: int, seq: int, now: float) -> Optional[int]:
        """Worker ``arrival`` answered packet ``seq``: dedupe and settle.

        ``arrival`` is the worker the answer physically came from: its
        service time (send-to-it -> now) is what feeds the health scores
        — including on the duplicate path, so a limping worker's late
        answers still move its EWMA and let it recover.  Dedup happens
        *here*, below the realtime layer, which is what keeps
        FrameLedger conservation exact under hedging: the collector sees
        each seq exactly once, whatever raced.
        """
        self._dirty = True
        self._readmit(arrival, now)
        # Answering anything clears an outstanding suspicion.
        self.suspects.pop(arrival, None)
        rec = self.inflight.pop(seq, None)
        if rec is None:
            self._observe(arrival, *self.recent_sends.get(seq, (None, 1)),
                          now)
            wasted = seq in self.hedged
            self._add("duplicate", "hedge-waste" if wasted else "late-result",
                      self.farm.sid, now, seq=seq)
            if wasted:
                self.hedge.wasted += 1
            return None
        self._observe(arrival, rec.sends, rec.items, now)
        if self._rp.enabled:
            self._note_completion()
        self.recent_sends[seq] = (rec.sends, rec.items)
        while len(self.recent_sends) > _RECENT_SENDS:
            self.recent_sends.pop(next(iter(self.recent_sends)))
        if rec.hedges > 0 and arrival != rec.assigned:
            self.hedge.won += 1
            win_latency_us = (now - rec.sends.get(arrival, now)) * 1e6
            self._note("hedge-win", "overdue", arrival, now, seq=seq,
                       latency_us=win_latency_us)
            since = self._held_since(rec.assigned, rec.sent_at)
            if rec.assigned not in self.quarantined and since is not None:
                self.suspects[rec.assigned] = _Suspect(
                    seq, rec.items, since, win_latency_us, arrival)
        if rec.redispatch_record is not None:
            rec.redispatch_record.latency_us = (
                self._us(now) - rec.redispatch_record.time_us
            )
        return rec.origin_slot

    def beat(self, worker: int, at: float) -> None:
        """``worker`` was seen alive at ``at`` (its latest heartbeat)."""
        self._first_beat.setdefault(worker, at)
        self._last_beat[worker] = at

    def tick(self, now: float) -> List[Decision]:
        """One scan: everything that is due at ``now``."""
        self._dirty = False
        out: List[Decision] = []
        for seq, rec in list(self.inflight.items()):
            kind = self._verdict(rec.assigned, rec.sent_at, rec.attempts,
                                 rec.items, now)
            if kind is None:
                self._maybe_flag_stuck(rec, now)
                self._maybe_hedge(rec, now, out)
                continue
            convicted = self.farm.workers[rec.assigned]
            self._quarantine(rec.assigned, kind, seq, now)
            target = (None if rec.attempts >= MAX_REDISPATCH
                      else self._pick_survivor(seq))
            if target is None:
                out.append(self._abandon(seq, now))
                return out
            out.append(self._redispatch(
                rec, target, kind, "redispatch",
                f"packet #{seq} moved off {convicted.pid}", now))
        self._judge_suspects(now)
        self._evaluate_health(now)
        self._apply_remap(now, out)
        self._probe_quarantined(now, out)
        if self._stops_due():
            out.extend(ReleaseStop(port) for port in self.held_stops)
            self.held_stops = []
        return out

    def next_wake(self, now: float) -> Optional[float]:
        """The earliest instant at which :meth:`tick` could decide
        anything, given no further event; ``None`` when only an event
        (a dispatch, an answer, a beat) can change that."""
        if self._dirty or self._stops_due():
            return now
        dues: List[float] = []
        for rec in self.inflight.values():
            dues.extend(self._verdict_dues(rec.assigned, rec.sent_at,
                                           rec.attempts, rec.items))
            dues.append(self._stuck_due(rec, now))
            if self._hedge_target(rec) is not None:
                dues.append(self._hedge_due(rec))
        for index, susp in self.suspects.items():
            dues.extend(self._verdict_dues(index, susp.since, 0,
                                           susp.items))
        if self.inflight and not self.stopping:
            dues.extend(b.next_probe_at for b in self.breakers.values()
                        if b.probes < self.policy.max_probes)
        due = min(dues, default=math.inf)
        # Deadlines are strict (an answer *at* the deadline is on time),
        # so the first deciding instant is the next one after it.
        return None if due == math.inf else max(
            now, math.nextafter(due, math.inf))

    # -- queries ---------------------------------------------------------------

    def retired(self, port: int) -> bool:
        """The run is ending, ``port``'s worker is quarantined and owes
        nothing: a dead worker forwards no Stop, so the collector may
        stop waiting for one."""
        return (self.stopping and port in self.quarantined
                and not any(rec.origin_slot == port
                            for rec in self.inflight.values()))

    # -- records ---------------------------------------------------------------

    def _us(self, now: float) -> float:
        return (now - self._epoch) * 1e6

    def _add(self, category: str, kind: str, target: str, now: float,
             **detail: Any) -> FaultRecord:
        return self.report.add(category, kind, target, self._us(now),
                               **detail)

    def _note(self, category: str, kind: str, index: int, now: float,
              **detail: Any) -> FaultRecord:
        """A record about worker ``index``."""
        worker = self.farm.workers[index]
        return self._add(category, kind, worker.pid, now,
                         processor=worker.processor, **detail)

    # -- liveness --------------------------------------------------------------

    def _stale(self, index: int, now: float) -> bool:
        """Dead by heartbeat.  A worker never seen alive is *fresh*: one
        that never ran cannot have died (the slower stall deadline covers
        a worker that never starts)."""
        last = self._last_beat.get(index)
        return (last is not None
                and now > last + self.policy.heartbeat_timeout_s)

    def _held_since(self, index: int, sent_at: float) -> Optional[float]:
        """Since when worker ``index`` has been *sitting on* a packet
        sent at ``sent_at`` — the origin of every rule that reads slow
        service as a symptom (stuck, hedge, suspicion).

        Never earlier than the worker's first beat: a packet sent to a
        worker whose OS process is still starting (``spawn`` re-imports
        the world) waits on a cold start, not on a wedged computation.
        ``None`` while the worker has never been seen alive; the crash /
        stall deadlines, which run from ``sent_at``, cover that case.
        """
        first = self._first_beat.get(index)
        return None if first is None else max(sent_at, first)

    def _verdict_dues(self, index: int, since: float, attempts: int,
                      items: int) -> Tuple[float, float]:
        """(crash due, stall due) of one packet of ``items`` held since
        ``since``."""
        deadline = self.policy.deadline_s(attempts) * items
        last = self._last_beat.get(index)
        crash = (math.inf if last is None else
                 max(since + deadline,
                     last + self.policy.heartbeat_timeout_s))
        # Alive-but-silent, or a lost message.
        return crash, since + deadline * self.policy.stall_factor

    def _verdict(self, index: int, since: float, attempts: int, items: int,
                 now: float) -> Optional[str]:
        crash, stall = self._verdict_dues(index, since, attempts, items)
        if now > crash:
            return "crash"
        if now > stall:
            return "stall"
        return None

    def _stops_due(self) -> bool:
        return bool(self.stopping and self.held_stops and not self.inflight)

    def _active(self) -> List[int]:
        """Workers in the dispatch rotation."""
        return [w.index for w in self.farm.workers
                if w.index not in self.quarantined
                and w.index not in self.migrated]

    # -- the rules -------------------------------------------------------------

    def _observe(self, arrival: int, sends: Optional[Dict[int, float]],
                 items: int, now: float) -> None:
        """Feed one answer's service time, per item of the packet, into
        the health machinery.

        Attribution needs to know when the packet was sent *to the
        answering worker* — a re-dispatched or hedged packet has one
        send time per worker it visited.
        """
        if not self._hp.enabled or sends is None:
            return
        sent_at = sends.get(arrival)
        if sent_at is None:
            return
        service = (now - sent_at) / items
        event = self.health.observe(arrival, service, now)
        if self.health.state(arrival) != LIMPING:
            # Only healthy answers calibrate the hedge threshold: letting
            # a limping worker's stretched services into the percentile
            # window inflates the threshold until hedging self-disables
            # (the clock must answer "how long would a healthy worker
            # take", not "how long do packets take lately").
            self.hedge.record(service)
        if event is not None:
            self._note("restored", "stuck", arrival, now)

    def _redispatch(self, rec: _InFlight, target: int, kind: str, why: str,
                    note: str, now: float) -> Send:
        rec.assigned = target
        rec.attempts += 1
        rec.sent_at = now
        rec.sends[target] = now
        rec.redispatch_record = self._note(
            "redispatch", kind, target, now, seq=rec.seq,
            attempts=rec.attempts, note=note)
        return Send(target, rec.seq, rec.value, why)

    def _stuck_due(self, rec: _InFlight, now: float) -> float:
        """When the holder of ``rec`` becomes *stuck* — BEAT fresh, COUNT
        flat — or ``inf`` if that cannot happen as things stand.

        The worker holds a packet well past the stuck threshold, its
        heartbeat is perfectly fresh (so the crash path will never fire)
        and it has completed *nothing* since this packet was dispatched:
        flagged limping long before the much slower stall timeout would.
        The limping rule's ``min_samples`` guard has no say here — a
        worker stuck on its very first packet has no samples and must
        still be caught.
        """
        since = self._held_since(rec.assigned, rec.sent_at)
        if not self._hp.enabled or since is None:
            return math.inf
        health = self.health.workers[rec.assigned]
        if health.state == LIMPING:
            return math.inf
        if (health.last_done_at is not None
                and health.last_done_at >= rec.sent_at):
            return math.inf  # it finished something since: slow, not stuck
        due = since + self._hp.stuck_after_s * rec.items
        if self._stale(rec.assigned, max(now, due)):
            return math.inf  # dead, not limping: the crash path owns this
        return due

    def _maybe_flag_stuck(self, rec: _InFlight, now: float) -> None:
        if (now > self._stuck_due(rec, now)
                and self.health.mark_stuck(rec.assigned) is not None):
            held = now - self._held_since(rec.assigned, rec.sent_at)
            self._note("limping", "stuck", rec.assigned, now, seq=rec.seq,
                       note=f"BEAT fresh, no completion for "
                            f"{held * 1e3:.0f} ms")

    def _hedge_due(self, rec: _InFlight) -> float:
        """When ``rec`` earns a speculative duplicate (``inf``: never).

        The threshold is adaptive — a multiple of a high percentile of
        *observed* service times — so hedging self-tunes to the workload
        instead of needing a configured timeout.
        """
        threshold = self.hedge.threshold_s()
        since = self._held_since(rec.assigned, rec.sent_at)
        if (self.stopping or threshold is None or since is None
                or rec.hedges >= MAX_HEDGES_PER_PACKET):
            return math.inf
        return since + threshold * rec.items

    def _hedge_target(self, rec: _InFlight) -> Optional[int]:
        """A healthy worker that has not seen ``rec`` yet, if any."""
        return self.health.pick_healthy(
            rec.seq, exclude=set(rec.sends), alive=self._active())

    def _maybe_hedge(self, rec: _InFlight, now: float,
                     out: List[Decision]) -> None:
        """First result wins; :meth:`result` already discards the loser,
        which is exactly the dedup contract the breaker's probation
        packets rely on."""
        due = self._hedge_due(rec)
        target = self._hedge_target(rec) if now > due else None
        if target is None:
            return
        rec.hedges += 1
        rec.sends[target] = now
        self.hedged.add(rec.seq)
        self.hedge.issued += 1
        since = self._held_since(rec.assigned, rec.sent_at)
        self._note(
            "hedge", "overdue", target, now, seq=rec.seq,
            note=f"in-flight {(now - since) * 1e3:.0f} ms > "
                 f"threshold {(due - since) * 1e3:.0f} ms; duplicated off "
                 f"{self.farm.workers[rec.assigned].pid}")
        out.append(Send(target, rec.seq, rec.value, "hedge"))

    def _judge_suspects(self, now: float, at_stop: bool = False) -> None:
        """Pass verdict on workers that lost a hedge race and stayed silent.

        The deadlines are the same crash/stall rules the in-flight scan
        applies; ``at_stop`` means the run is ending, so silence-so-far
        is all the evidence there will ever be and the verdict is
        immediate.
        """
        for index, susp in list(self.suspects.items()):
            if index in self.quarantined:
                self.suspects.pop(index)
                continue
            if at_stop:
                kind = "crash" if self._stale(index, now) else "stall"
            else:
                kind = self._verdict(index, susp.since, 0, susp.items, now)
                if kind is None:
                    continue
            self.suspects.pop(index)
            self._quarantine(index, kind, susp.seq, now)
            # The winning hedge was this packet's re-dispatch; now that
            # the original worker is convicted, record it as such, with
            # the duplicate's real recovery latency.
            self._note(
                "redispatch", kind, susp.rescued_by, now, seq=susp.seq,
                attempts=1, latency_us=max(susp.win_latency_us, 1.0),
                note=f"hedged duplicate of packet #{susp.seq} off "
                     f"{self.farm.workers[index].pid} confirmed by "
                     f"{kind} verdict")

    def _evaluate_health(self, now: float) -> None:
        """Re-apply the score-outlier rule; emit transition + sample records."""
        if not self._hp.enabled:
            return
        for index, new_state, reason in self.health.evaluate():
            score = self.health.workers[index].score or 0.0
            median = self.health.median() or 0.0
            self._note(
                "limping" if new_state == LIMPING else "restored", reason,
                index, now,
                note=f"score {score * 1e3:.1f} ms vs farm median "
                     f"{median * 1e3:.1f} ms")
        if (self._last_sample_at is not None
                and now - self._last_sample_at < SAMPLE_INTERVAL_S):
            return
        self._last_sample_at = now
        for health in self.health.workers:
            if health.score is None and health.state != LIMPING:
                continue  # nothing measured yet: no counter point
            self._note("health", health.state, health.index, now,
                       value=(health.score or 0.0) * 1e3)

    def _note_completion(self) -> None:
        """Advance the count-based re-map clocks on one farm completion.

        Counting *completions* rather than seconds keeps every re-map
        decision unit-free: the same packet sequence produces the same
        decision sequence on any clock.
        """
        limping = self.health.limping()
        for index in list(self.remap_counts):
            if index not in limping or index in self.migrated:
                # The streak must be continuous: recovery (or migration)
                # resets the confirmation count.
                self.remap_counts.pop(index)
        for index in limping:
            if index in self.migrated or index in self.quarantined:
                continue
            self.remap_counts[index] = self.remap_counts.get(index, 0) + 1
        for index in self.migrated:
            self.remap_probe_gap[index] = (
                self.remap_probe_gap.get(index, 0) + 1
            )

    def _apply_remap(self, now: float, out: List[Decision]) -> None:
        """Migrate confirmed-limping workers out; restore recovered ones.

        Migration is the escalation above demotion: the worker leaves
        the dispatch rotation entirely and its in-flight packets drain
        to healthy survivors through the normal re-dispatch path
        (attempt counters and ledger conservation intact).  Restoration
        requires measured evidence — the probation duplicates must pull
        the worker's EWMA score back under the health layer's clear
        hysteresis — never mere liveness.
        """
        if not self._rp.enabled or not self._hp.enabled:
            return
        # 1. Restore migrated workers whose score recovered (HEALTHY is
        # only reachable through the clear_factor hysteresis).
        for index in sorted(self.migrated):
            if self.health.state(index) != HEALTHY:
                continue
            self.migrated.discard(index)
            self.remap_probe_gap.pop(index, None)
            self._note("restored", "remap", index, now,
                       note="score recovered; rejoining dispatch rotation")
        # 2. Migrate workers that stayed limping past the confirmation
        # count — but only while enough healthy capacity remains.
        for index in sorted(self.remap_counts):
            if self.remap_counts[index] < self._rp.confirm_completions:
                continue
            if index in self.migrated or index in self.quarantined:
                self.remap_counts.pop(index, None)
                continue
            active = [i for i in self._active() if i != index]
            healthy = [i for i in active if self.health.state(i) == HEALTHY]
            if len(active) < self._rp.min_active or not healthy:
                continue  # nobody to migrate onto; demotion keeps covering
            self.remap_counts.pop(index, None)
            self.migrated.add(index)
            self.remap_probe_gap[index] = 0
            score = self.health.workers[index].score or 0.0
            median = self.health.median() or 0.0
            self._note(
                "remap", "limping", index, now,
                note=f"migrated after {self._rp.confirm_completions} farm "
                     f"completions limping (score {score * 1e3:.1f} ms vs "
                     f"median {median * 1e3:.1f} ms)")
            if self._rp.drain:
                self._drain_migrated(index, now, out)
        # 3. Probation duplicates pace the migrated worker's way back.
        if self.stopping or not self.inflight:
            return
        for index in sorted(self.migrated):
            if self.remap_probe_gap.get(index, 0) < self._rp.probe_stride:
                continue
            self.remap_probe_gap[index] = 0
            out.append(self._probe(
                index, "remap", now, note_suffix=" (migrated worker)"))

    def _drain_migrated(self, index: int, now: float,
                        out: List[Decision]) -> None:
        """Coordinated drain: re-home the migrated worker's in-flight load.

        Each packet still assigned to the migrated worker is
        re-dispatched to a survivor immediately instead of waiting for
        its timeout; the worker's own late answer (it is slow, not dead)
        settles as a discarded duplicate — and still feeds its health
        score, which is part of how it recovers.
        """
        pid = self.farm.workers[index].pid
        for seq, rec in sorted(self.inflight.items()):
            if rec.assigned != index:
                continue
            if rec.attempts >= MAX_REDISPATCH:
                continue  # let the timeout path pass final judgement
            target = self._pick_survivor(seq)
            if target is None or target == index:
                continue
            out.append(self._redispatch(
                rec, target, "remap", "drain",
                f"drain: packet #{seq} migrated off {pid}", now))

    def _probe(self, index: int, kind: str, now: float, *,
               note_suffix: str = "", **detail: Any) -> Send:
        """Duplicate the oldest live packet onto worker ``index`` — never
        synthetic work, which could crash user functions — so its answer
        is either the accepted result (it beat the survivor) or a
        discarded duplicate."""
        rec = min(self.inflight.values(), key=lambda r: r.seq)
        rec.sends.setdefault(index, now)
        self._note("probe", kind, index, now, seq=rec.seq,
                   note=f"probation duplicate of packet #{rec.seq}"
                        f"{note_suffix}", **detail)
        return Send(index, rec.seq, rec.value, "probe")

    def _probe_quarantined(self, now: float, out: List[Decision]) -> None:
        """Circuit breaker: offer quarantined workers probation packets;
        any answer re-admits the worker (see :meth:`result`)."""
        if self.stopping or not self.inflight:
            return
        for index in sorted(self.quarantined):
            breaker = self.breakers.get(index)
            if breaker is None or now <= breaker.next_probe_at:
                continue
            if breaker.probes >= self.policy.max_probes:
                continue  # permanently retired
            breaker.probes += 1
            breaker.next_probe_at = now + self.policy.probe_delay_s(
                breaker.probes)
            out.append(self._probe(index, "probation", now,
                                   attempts=breaker.probes))

    def _readmit(self, index: int, now: float) -> None:
        """A quarantined worker answered — a probe or a stale original,
        either proves it alive: return it to the rotation."""
        if index in self.quarantined:
            self.quarantined.discard(index)
            self.breakers.pop(index, None)
            self._note("readmit", "probation", index, now)

    def _quarantine(self, index: int, kind: str, seq: int,
                    now: float) -> None:
        self._note("detected", kind, index, now, seq=seq)
        if index not in self.quarantined:
            self.quarantined.add(index)
            self.breakers[index] = _Breaker(now + self.policy.probe_after_s)
            self._note("quarantine", kind, index, now)

    def _pick_survivor(self, seq: int, avoid=()) -> Optional[int]:
        active = self._active()
        # A migrated worker is slow, not dead: better it than abandoning
        # the packet when nothing else survives.
        survivors = ([i for i in active if i not in avoid] or active or [
            w.index for w in self.farm.workers
            if w.index not in self.quarantined
        ])
        if not survivors:
            return None
        if self._hp.enabled:
            # Prefer fully healthy survivors: re-dispatching a packet
            # onto a limping worker just schedules the next timeout.
            return self.health.pick_healthy(seq, exclude=set(),
                                            alive=survivors)
        return survivors[seq % len(survivors)]

    def _abandon(self, seq: Optional[int], now: float) -> Abandon:
        self._add("abandoned", "give-up", self.farm.sid, now, seq=seq,
                  note="no survivors or re-dispatch budget exhausted")
        return Abandon(seq)
