"""The admission policy of one stream, as a clock-free state machine.

:class:`AdmissionCore` makes every overload *decision* of a stream and
keeps its ledger; it has no clock, thread or queue.  A driver feeds it
events, each with the one clock reading (µs since the driver's epoch)
it is judged by, and carries out what :meth:`~AdmissionCore.offer`
returns.  At ``admission_depth`` buffered frames ``block`` parks,
``shed-newest`` sheds the offered frame, and ``shed-oldest`` sheds the
oldest frame still retractable (the offered one when only a started
head is left).  ``degrade`` does what ``shed-oldest`` does and enters
degraded mode: it keeps that frame, then one offered frame in
:data:`DEGRADE_RATIO`, until the buffer is empty and at most
``max(1, max_in_flight // 2)`` frames are in flight — checked on every
event that moves either count.  A miss is flagged once, when ``now -
admitted > deadline``: by ``tick`` while the frame is on its way, or at
the latest when it is settled.

Drivers: :class:`~repro.backends.policy_kernel.PolicyKernel` under its
admission lock, :class:`~repro.serve.tenancy.Tenant` under the
scheduler's; the core is single-threaded by contract.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Union

from .budget import LatencyBudget
from .ledger import FrameLedger, FrameRecord, RealtimeRecord

__all__ = ["DEGRADE_RATIO", "PARK", "Park", "Queue", "Shed", "Decision",
           "AdmissionCore"]

#: In degraded mode one offered frame in this many is kept: the
#: frame-rate halving of the ``degrade`` policy.
DEGRADE_RATIO = 2


@dataclass(frozen=True)
class Park:
    """``block`` at depth: nothing is recorded; offer again on room."""


@dataclass(frozen=True)
class Queue:
    """``frame`` waits in the admission buffer."""

    frame: int


@dataclass(frozen=True)
class Shed:
    """``frame`` is dropped before it enters the network."""

    frame: int
    reason: str  # shed-newest | shed-oldest | degraded


Decision = Union[Park, Queue, Shed]
PARK = Park()


class AdmissionCore:
    """Admission buffer, in-flight window, degraded mode and ledger."""

    def __init__(self, budget: LatencyBudget):
        self.budget = budget
        self.ledger = FrameLedger()
        self.events: List[RealtimeRecord] = []
        self.degraded = False
        self._skips = 0                  # offers since degraded-enter
        self._buffer: Deque[FrameRecord] = deque()
        self._head_started = False
        self._flying: Deque[FrameRecord] = deque()   # in release order
        #: Deadline-scan cursor: every record before it is settled.
        self._scan_from = 0
        #: The earliest deadline still open, or an earlier instant.
        self._due: Optional[float] = None

    @property
    def queued(self) -> int:
        return len(self._buffer)

    @property
    def in_flight(self) -> int:
        return len(self._flying)

    def offer(self, now: float) -> List[Decision]:
        """A grabbed frame: ``[PARK]``; or the ``Shed`` s of displaced
        frames, then ``Queue(frame)``; or ``[Shed(frame, reason)]``."""
        budget = self.budget
        policy = budget.policy
        full = len(self._buffer) >= budget.admission_depth
        if full and policy == "block":
            return [PARK]
        record = FrameRecord(frame=len(self.ledger.frames), admitted_us=now)
        self.ledger.frames.append(record)
        if self._due is None:
            self._due = now + budget.deadline_us
        if policy == "degrade" and self.degraded:
            self._skips += 1
            if self._skips % DEGRADE_RATIO:
                return [self._drop(record, "degraded", now)]
        out: List[Decision] = []
        if full:
            if policy == "shed-newest":
                return [self._drop(record, "shed-newest", now)]
            if policy == "degrade" and not self.degraded:
                self.degraded = True
                self._skips = 0
                self._event("degraded-enter", record.frame, now,
                            "admission buffer overflow")
            index = int(self._head_started)
            if index == len(self._buffer):
                # Only the started head is left: it cannot be retracted
                # from the network, so the offered frame takes the hit.
                return [self._drop(record, "shed-oldest", now)]
            victim = self._buffer[index]
            del self._buffer[index]
            out.append(self._drop(victim, "shed-oldest", now))
        self._buffer.append(record)
        out.append(Queue(record.frame))
        return out

    def started(self, frame: int) -> None:
        """The head's release began: it can no longer be retracted."""
        self._head_started = True

    def released(self, frame: int, now: float) -> None:
        record = self._buffer.popleft()
        assert record.frame == frame, "only the head is released"
        self._head_started = False
        record.released_us = now
        self._flying.append(record)
        self._maybe_exit(now)

    def delivered(self, frame: Optional[int], now: float) -> None:
        """``frame`` left the network (``None``: the oldest in flight)."""
        if frame is None:
            record = self._flying.popleft()
        else:
            record = self.ledger.frames[frame]
            self._flying.remove(record)
        record.status = "delivered"
        record.delivered_us = now
        self._settled(record, now)

    def failed(self, frame: int, now: float, reason: str) -> None:
        record = self.ledger.frames[frame]
        if record.released_us is not None:
            self._flying.remove(record)
        else:
            if record is self._buffer[0]:
                self._head_started = False
            self._buffer.remove(record)
        record.status = "failed"
        record.reason = reason
        self._settled(record, now)

    def may_release(self, in_flight: int) -> bool:
        return bool(self._buffer) and in_flight < self.budget.max_in_flight

    def tick(self, now: float) -> List[int]:
        """Flag the frames on their way past their deadline; returns them.

        The scan starts at the first record still on its way (those
        before it are settled for good): it reads the frames buffered and
        in flight, and what was shed among them — not the whole run."""
        deadline = self.budget.deadline_us
        frames = self.ledger.frames
        flagged: List[int] = []
        due = None
        settled_prefix = True
        for index in range(self._scan_from, len(frames)):
            record = frames[index]
            if record.status != "in-flight":
                if settled_prefix:
                    self._scan_from = index + 1
                continue
            settled_prefix = False
            if record.deadline_missed:
                continue
            if now - record.admitted_us > deadline:
                self._miss(record, now, "in flight")
                flagged.append(record.frame)
            elif due is None:
                # Admission order is deadline order: the first one
                # still open is the earliest.
                due = record.admitted_us + deadline
        self._due = due
        return flagged

    def next_wake(self, now: float) -> Optional[float]:
        """The earliest a ``tick`` could flag anything; None: only events."""
        return None if self._due is None else max(self._due, now)

    def _settled(self, record: FrameRecord, now: float) -> None:
        if (not record.deadline_missed
                and now - record.admitted_us > self.budget.deadline_us):
            self._miss(record, now, "when " + record.status)
        self._maybe_exit(now)

    def _maybe_exit(self, now: float) -> None:
        if (self.degraded and not self._buffer and len(self._flying)
                <= max(1, self.budget.max_in_flight // 2)):
            self.degraded = False
            self._event("degraded-exit", None, now, "backlog cleared")

    def _miss(self, record: FrameRecord, now: float, where: str) -> None:
        record.deadline_missed = True
        self._event("deadline-miss", record.frame, now,
                    f"{(now - record.admitted_us) / 1000:.1f} ms {where}")

    def _drop(self, record: FrameRecord, reason: str, now: float) -> Shed:
        record.status = "shed"
        record.reason = reason
        self._event("shed", record.frame, now, reason)
        return Shed(record.frame, reason)

    def _event(self, kind: str, frame: Optional[int], now: float,
               detail: str) -> None:
        self.events.append(RealtimeRecord(kind, frame, now, detail))
