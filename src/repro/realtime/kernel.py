"""Realtime kernel: deadline watchdog and admission control as a wrapper.

Like :class:`~repro.faults.supervisor.SupervisedKernel`, the realtime
layer hooks the *kernel primitives* and leaves the generated executive
untouched.  :class:`RealtimeKernel` wraps either a base kernel or a
supervised kernel and polices two choke points of the stream
(:class:`~repro.realtime.topology.StreamTopology`):

* **Admission** (the process hosting the stream input): frames the
  grabber sends are parked in a bounded admission buffer; a pump
  releases them into the process network with non-blocking puts, but
  only while fewer than ``max_in_flight`` frames are between release
  and delivery.  When the buffer is full the
  configured overload policy decides: ``block`` the grabber,
  ``shed-newest``, ``shed-oldest``, or enter ``degrade`` mode (admit one
  frame in ``degrade_ratio`` until the backlog clears).  Shedding
  happens strictly *before* a frame enters the FIFO network — which is
  what makes the frame-conservation ledger pair the j-th delivery with
  the j-th released frame.

* **Delivery** (the process hosting the stream output): each non-Stop
  value on the delivery edge is timestamped and counted on the shared
  :class:`StreamBoard`, closing the in-flight window — and rings the
  board's doorbell, which is what releases the next frame.

The watchdog also flags deadline misses *while frames are in flight*
(pending or released-but-undelivered frames older than the budget), and
the admission side paces the grabber to ``frame_period_ms`` — the hook
where the seeded ``burst`` / ``input-surge`` overload faults fire.

Nothing here ticks.  The one service thread of the admission side (the
watchdog) sleeps on the board's doorbell until the earliest deadline it
has not flagged yet; a ``block`` grabber facing a full buffer parks on a
condition the pump notifies; pacing is one wait to the due time.  An
executive with no frame in it wakes once per ``deadline_ms``.
"""

from __future__ import annotations

import os
import select
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import queue

from ..codegen.kernel import Shutdown
from .budget import LatencyBudget
from .ledger import FrameRecord, RealtimeRecord, assemble_report
from .topology import StreamTopology

__all__ = ["StreamBoard", "RealtimeKernel"]


class _PipeBell:
    """``threading.Event``'s ``set`` / ``wait`` / ``clear`` over a pipe:
    the doorbell of a board that OS processes share.

    Both ends are non-blocking and every process of the run holds both,
    so a ring is one ``write`` that never waits and a killed ringer
    leaves nothing half-done.  Built from a multiprocessing context, so
    it crosses ``fork`` by inheritance and ``spawn`` by descriptor
    passing, like the context's queues.
    """

    def __init__(self, ctx: Any):
        self._rx, self._tx = ctx.Pipe(duplex=False)
        for end in (self._rx, self._tx):
            os.set_blocking(end.fileno(), False)

    def set(self) -> None:
        try:
            os.write(self._tx.fileno(), b"\0")
        except BlockingIOError:
            pass  # a pipe full of rings nobody answered: it is rung

    def wait(self, timeout: float) -> bool:
        # poll() rounds the timeout up to whole milliseconds; the
        # sleeper's are tens of them, and none has to end on the dot.
        poller = select.poll()
        poller.register(self._rx, select.POLLIN)
        return bool(poller.poll(timeout * 1000.0))

    def clear(self) -> None:
        try:
            while len(os.read(self._rx.fileno(), 4096)) == 4096:
                pass
        except BlockingIOError:
            pass

    def close(self) -> None:
        self._rx.close()
        self._tx.close()


class StreamBoard:
    """Shared released/delivered frame counters, and a doorbell.

    Slot 0 counts frames released into the network (written only by the
    admission pump), slot 1 frames delivered at the stream output
    (written only by the output thread) — single-writer slots, so a
    lock-free ``multiprocessing.Array('d', 2)`` works across OS
    processes exactly like the heartbeat board.

    A delivery frees an in-flight slot, so :meth:`note_delivered` rings
    the ``bell`` (anything with ``threading.Event``'s ``set`` / ``wait``
    / ``clear``) the admission side's service thread sleeps on in
    :meth:`wait`.  The count moves *before* the ring and the sleeper
    clears the bell *before* it reads the count, so no delivery is
    slept through.  An admission does not ring: see
    :meth:`RealtimeKernel._watch_tick`.
    """

    def __init__(self, slots: Any, bell: Any):
        self._slots = slots
        self.bell = bell

    @classmethod
    def local(cls) -> "StreamBoard":
        """A board for one interpreter."""
        return cls([0.0, 0.0], threading.Event())

    @classmethod
    def shared(cls, ctx: Any) -> "StreamBoard":
        """A board for the processes of one multiprocessing context;
        whoever builds it :meth:`close` s it when they are gone."""
        return cls(ctx.Array("d", 2, lock=False), _PipeBell(ctx))

    def close(self) -> None:
        """Give the doorbell's descriptors back (a pipe has some)."""
        if isinstance(self.bell, _PipeBell):
            self.bell.close()

    def ring(self) -> None:
        self.bell.set()

    def wait(self, timeout: float) -> None:
        """Sleep until rung, ``timeout`` seconds at most."""
        if self.bell.wait(timeout):
            self.bell.clear()

    def note_released(self) -> None:
        self._slots[0] += 1.0

    def note_delivered(self) -> None:
        self._slots[1] += 1.0
        self.ring()

    def released(self) -> int:
        return int(self._slots[0])

    def delivered(self) -> int:
        return int(self._slots[1])

    def in_flight(self) -> int:
        return max(0, self.released() - self.delivered())


class _PendingFrame:
    """One grabbed frame waiting in the admission buffer."""

    __slots__ = ("record", "values", "unsent")

    def __init__(self, record: FrameRecord, edges: List[str]):
        self.record = record
        #: edge -> value; filled as the grabber sends on each out-edge.
        self.values: Dict[str, Any] = {}
        #: edges not yet put into the network (partial-send tracking).
        self.unsent: List[str] = list(edges)

    def complete(self, n_edges: int) -> bool:
        return len(self.values) == n_edges


class RealtimeKernel:
    """Budget-enforcing wrapper around a (possibly supervised) kernel.

    Every primitive not overridden here delegates to the wrapped kernel,
    so the wrapper is a drop-in replacement wherever a kernel is
    accepted.  One instance runs per interpreter of the run; admission
    logic activates only where the stream input is hosted, delivery
    logic only where the stream output is (a kernel that hosts every
    processor — or does not say — owns both).
    """

    def __init__(
        self,
        inner: Any,
        topology: StreamTopology,
        budget: LatencyBudget,
        *,
        board: Optional[StreamBoard] = None,
        start_watchdog: bool = True,
    ):
        self._inner = inner
        self._topo = topology
        self._budget = budget
        self._board = board or StreamBoard.local()
        hosts = getattr(inner, "hosts", None)
        self._admission_active = (
            hosts is None or topology.input_processor in hosts)
        self._delivery_active = (
            hosts is None or topology.output_processor in hosts)
        #: Resolved once: ``call_`` compares it on every call of every
        #: thread, and the topology's property rebuilds the name.
        self._input_thread = topology.input_thread
        self._edge_set = set(topology.admission_edges)
        self._n_edges = len(topology.admission_edges)
        # Overload injection shares the supervised kernel's matcher and
        # report when one is underneath; without a fault plan there is
        # no overload injection, only policy enforcement.
        self._matcher = getattr(inner, "matcher", None)
        self._fault_report = getattr(inner, "fault_report", None)

        #: What the pump waits after a ``queue.Full`` before it tries
        #: again — the period on which the kernel's own blocked sends do.
        self._retry_s = getattr(inner, "_poll_s", budget.deadline_ms / 1000.0)

        # -- admission state (guarded by _lock) --
        self._lock = threading.Lock()
        #: Where a ``block`` grabber facing a full buffer, and the
        #: end-of-stream flush, park: notified when the pump pops the
        #: head of the buffer, and at shutdown.
        self._room = threading.Condition(self._lock)
        self._frames: List[FrameRecord] = []
        self._pending: Deque[_PendingFrame] = deque()
        #: Deadline-scan cursor: the first record still on its way, and
        #: how many released records lie before it.
        self._scan_from = 0
        self._scan_released = 0
        self._events: List[RealtimeRecord] = []
        self._last_shed = False   # swallow trailing sends of a shed frame
        self._full = False        # the last drain ended on a queue.Full
        self._closing = False     # shutdown() was called
        self._stopping = False
        self._flushed = False
        self._degraded = False
        self._degrade_counter = 0
        self._next_due = 0.0      # pacing clock (perf_counter seconds)
        self._pace_boost: int = 0       # grabs left at burst speed
        self._surge_left: int = 0       # grabs left at surged rate
        self._surge_factor: float = 1.0

        # -- delivery state (single-writer: the output thread) --
        self._stamps: List[float] = []

        self._watchdog: Optional[threading.Thread] = None
        # A coroutine-kernel wrapper passes start_watchdog=False and runs
        # the same tick from an event-loop task instead (an OS thread
        # must not touch loop-confined asyncio queues).
        if self._admission_active and start_watchdog:
            self._watchdog = threading.Thread(
                target=self._watch_loop, name="rt-watchdog", daemon=True
            )
            self._watchdog.start()

    # -- plumbing ----------------------------------------------------------

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def _event(self, kind: str, frame: Optional[int], detail: str = "",
               *, locked: bool = False) -> None:
        record = RealtimeRecord(kind, frame, self.now_us(), detail)
        if locked:
            self._events.append(record)
        else:
            with self._lock:
                self._events.append(record)

    def shutdown(self) -> None:
        """Stop the watchdog (and the wrapped kernel's service threads).

        Every sleeper of this layer is woken here, not waited out: a
        parked grabber unwinds with :class:`Shutdown`, the watchdog
        finds ``_closing`` and returns.
        """
        with self._room:
            self._closing = True
            self._room.notify_all()
        if self._watchdog is not None:
            self._board.ring()
            self._watchdog.join(1.0)
        inner_shutdown = getattr(self._inner, "shutdown", None)
        if inner_shutdown is not None:
            inner_shutdown()

    # -- pacing and overload injection (the grabber thread) ----------------

    def call_(self, func: Callable, *args: Any) -> Any:
        if (self._admission_active
                and threading.current_thread().name
                == self._input_thread):
            self._pace()
        return self._inner.call_(func, *args)

    def _pace(self) -> None:
        """Pre-grab: fire overload faults, then hold to the frame period."""
        period = self._pace_setup()
        if period is None:
            return
        # One wait that ends on the due time or on stop, whichever
        # comes first (every stop flag of a run wakes its waiters).
        if self.stop.wait(self._next_due - time.perf_counter()):
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
        if self._matcher is not None:
            specs = self._matcher.fire(
                process=self._topo.input_pid,
                processor=self._topo.input_processor,
                kinds=("burst", "input-surge"),
            )
            for spec in specs:
                if self._fault_report is not None:
                    self._fault_report.add(
                        "injected", spec.kind, self._topo.input_pid,
                        self.now_us(),
                        processor=self._topo.input_processor,
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
            self._next_due = time.perf_counter()
        return period

    def _pace_advance(self, period: float) -> None:
        """Schedule the next grab one period on — or, after a stall of
        more than a period, from now: lost time is not caught up."""
        self._next_due = max(self._next_due + period,
                             time.perf_counter() - period)

    # -- admission (the grabber thread) ------------------------------------

    def send_(self, edge: str, value: Any) -> None:
        if (not self._admission_active or edge not in self._edge_set
                or self._inner.is_stop(value)):
            return self._inner.send_(edge, value)
        if edge == self._topo.primary_edge:
            return self._admit(value)
        with self._lock:
            if self._last_shed:
                return None  # the rest of a shed frame's fan-out
            if self._pending:
                entry = self._pending[-1]
                if edge not in entry.values:
                    entry.values[edge] = value
                    self._kick()
                    return None
        # No pending entry can take it (flush raced us): send directly.
        return self._inner.send_(edge, value)

    def _admit(self, value: Any) -> None:
        with self._room:
            while self._must_park():
                self._room.wait()
        # One grabber: between here and there the buffer only shrinks.
        return self._admit_locked(value)

    def _must_park(self) -> bool:
        """``block`` policy, buffer at the admission depth: the grabber
        parks until the pump pops the head (caller holds ``_lock``).
        Raises :class:`Shutdown` once the run is over instead."""
        if (self._budget.policy != "block"
                or len(self._pending) < self._budget.admission_depth):
            return False
        if self._closing or self.stop.is_set():
            raise Shutdown
        return True

    def _admit_locked(self, value: Any) -> None:
        """Admission decision for one frame (takes ``_lock`` itself)."""
        budget = self._budget
        with self._lock:
            frame = len(self._frames)
            record = FrameRecord(frame=frame, admitted_us=self.now_us())
            self._frames.append(record)
            self._last_shed = False
            if budget.policy == "degrade" and self._degraded:
                self._degrade_counter += 1
                if self._degrade_counter % budget.degrade_ratio != 0:
                    self._shed(record, "degraded")
                    return None
            if len(self._pending) >= budget.admission_depth:
                if budget.policy == "shed-newest":
                    self._shed(record, "shed-newest")
                    return None
                if budget.policy in ("shed-oldest", "degrade"):
                    if (budget.policy == "degrade"
                            and not self._degraded):
                        self._degraded = True
                        self._degrade_counter = 0
                        self._event("degraded-enter", frame,
                                    "admission buffer overflow",
                                    locked=True)
                    victim = self._pop_sheddable()
                    if victim is None:
                        # Only the half-released head remains: it cannot
                        # be retracted from the network, so the new
                        # frame takes the hit instead.
                        self._shed(record, "shed-oldest")
                        return None
                    self._shed(victim.record, "shed-oldest")
                # block never reaches here; degrade overflows shed-oldest
            self._pending.append(
                _PendingFrame(record, self._topo.admission_edges)
            )
            self._pending[-1].values[self._topo.primary_edge] = value
            # Pump inline: a frame that fits goes out on the grabber's
            # own thread, without waking anybody.
            self._kick()
        return None

    def _pop_sheddable(self) -> Optional[_PendingFrame]:
        """Remove and return the oldest *retractable* buffered frame.

        The pump touches only the head of the deque, so the head is
        sheddable only while none of its edges have been released; every
        other entry is untouched by construction.  Caller holds
        ``_lock``.
        """
        if not self._pending:
            return None
        head = self._pending[0]
        if len(head.unsent) == self._n_edges:
            return self._pending.popleft()
        if len(self._pending) > 1:
            victim = self._pending[1]
            del self._pending[1]
            return victim
        return None

    def _shed(self, record: FrameRecord, reason: str) -> None:
        """Mark one frame shed (caller holds ``_lock``)."""
        record.status = "shed"
        record.reason = reason
        if record is self._frames[-1]:
            self._last_shed = True
        self._event("shed", record.frame, reason, locked=True)

    # -- the pump and watchdog (daemon thread on the admission side) -------

    def _put_nowait(self, edge: str, value: Any) -> bool:
        try:
            self._inner.try_send_(edge, value)
            return True
        except queue.Full:
            self._full = True
            return False

    def _drain(self) -> bool:
        """Pump until stalled (caller holds ``_lock``).

        Returns True when it was a ``queue.Full`` that stalled it — the
        one stall no event ends, so somebody has to try again."""
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
        """Release the head frame if capacity allows (holds ``_lock``).

        Returns True when it made progress (a send landed)."""
        budget = self._budget
        if not self._pending:
            return False
        if (not self._stopping
                and self._board.in_flight() >= budget.max_in_flight):
            return False
        entry = self._pending[0]
        if not entry.complete(self._n_edges):
            return False  # the grabber is still fanning this frame out
        progressed = False
        while entry.unsent:
            edge = entry.unsent[0]
            if not self._put_nowait(edge, entry.values[edge]):
                return progressed
            entry.unsent.pop(0)
            progressed = True
        self._pending.popleft()
        self._room.notify_all()
        entry.record.released_us = self.now_us()
        self._board.note_released()
        return True

    def _watch_loop(self) -> None:
        while not self._closing:
            self._board.wait(self._watch_tick())

    def _watch_tick(self) -> float:
        """One watchdog round: pump, deadline scan, degrade hysteresis.

        Returns how long, in seconds, the service thread may sleep if
        the doorbell stays silent: until the earliest deadline it has
        not flagged yet — a delivery, which frees a slot, rings.  With
        nothing left to flag that is one whole ``deadline_ms``, and this
        is why an admission need not ring: no frame admitted meanwhile
        can be late before the sleeper is up again.  Only a pump that
        met a full queue has no event to wait for and retries on the
        kernel's poll period.
        """
        with self._lock:
            full = self._drain()
            due_us = self._scan_deadlines()
            self._maybe_exit_degraded()
            if due_us is None:
                timeout = self._budget.deadline_ms / 1000.0
            else:
                timeout = max(0.0, (due_us - self.now_us()) / 1e6)
        return min(timeout, self._retry_s) if full else timeout

    def _scan_deadlines(self) -> Optional[float]:
        """Flag frames over budget *while still in flight* (lock held);
        returns the earliest deadline, on the kernel clock, among those
        on their way and not flagged yet (``None``: there is none).

        Starts at the first record still on its way: everything before
        ``_scan_from`` is shed, failed, or released and — by the FIFO
        count — delivered, and none of that is ever undone.  So a tick
        inspects the frames in flight and pending (plus whatever was
        shed behind the oldest of them), not every frame the run ever
        admitted.
        """
        now_us = self.now_us()
        deadline = self._budget.deadline_us
        delivered = self._board.delivered()
        frames = self._frames
        released_seen = self._scan_released
        settled_prefix = True
        earliest = None
        for index in range(self._scan_from, len(frames)):
            rec = frames[index]
            if rec.released_us is not None:
                released_seen += 1
            # On its way: in the admission buffer, or released and (FIFO)
            # not among the first ``delivered`` releases.
            on_its_way = rec.status == "in-flight" and (
                rec.released_us is None or released_seen > delivered)
            if on_its_way:
                settled_prefix = False
                if rec.deadline_missed:
                    continue
                if now_us - rec.admitted_us > deadline:
                    rec.deadline_missed = True
                    self._event(
                        "deadline-miss", rec.frame,
                        f"{(now_us - rec.admitted_us) / 1000:.1f} ms in "
                        f"flight", locked=True,
                    )
                elif earliest is None:
                    # Admission order is deadline order: the first one
                    # still open is the earliest.
                    earliest = rec.admitted_us + deadline
            elif settled_prefix:
                self._scan_from = index + 1
                self._scan_released = released_seen
        return earliest

    def _maybe_exit_degraded(self) -> None:
        if not self._degraded:
            return
        cap = self._budget.max_in_flight
        if not self._pending and self._board.in_flight() <= max(1, cap // 2):
            self._degraded = False
            self._event("degraded-exit", None, "backlog cleared",
                        locked=True)

    # -- teardown (the grabber thread, via generated stop_) ----------------

    def stop_(self, edge: str) -> None:
        if self._admission_active and edge in self._edge_set:
            self._flush_on_stop()
        return self._inner.stop_(edge)

    def _flush_on_stop(self) -> None:
        """Blocking-release every buffered frame before Stop propagates."""
        with self._room:
            if self._begin_flush():
                while not self._flush_step():
                    self._room.wait()

    def _begin_flush(self) -> bool:
        """Claim the (one-shot) flush; False when already flushed.
        From here on the pump ignores the in-flight window.  Caller
        holds ``_lock``."""
        if self._flushed:
            return False
        self._flushed = self._stopping = True
        return True

    def _flush_step(self) -> bool:
        """One flush round (caller holds ``_lock``); True when finished.

        Otherwise a full queue holds frames back: the service thread is
        rung to retry, and the caller parks until it pops a head."""
        if self._closing or self.stop.is_set():
            for entry in self._pending:
                entry.record.status = "failed"
                entry.record.reason = "aborted at teardown"
            self._pending.clear()
            return True
        self._kick()
        return not self._pending

    # -- delivery (the output thread) --------------------------------------

    def recv_(self, edge: str) -> Any:
        value = self._inner.recv_(edge)
        if (self._delivery_active and edge == self._topo.delivery_edge
                and not self._inner.is_stop(value)):
            self._stamps.append(self.now_us())
            self._board.note_delivered()
        return value

    # -- reporting ---------------------------------------------------------

    def admission_payload(self) -> Optional[Dict]:
        """This kernel's admission half of the realtime report."""
        if not self._admission_active:
            return None
        with self._lock:
            return {
                "frames": [f.to_dict() for f in self._frames],
                "events": [e.to_dict() for e in self._events],
            }

    def delivery_payload(self) -> Optional[Dict]:
        """This kernel's delivery half of the realtime report."""
        if not self._delivery_active:
            return None
        return {"stamps": list(self._stamps), "events": []}

    def payload(self) -> Dict[str, Optional[Dict]]:
        """This kernel's halves of the realtime report, by
        :func:`~repro.realtime.ledger.assemble_report` parameter."""
        return {"admission": self.admission_payload(),
                "delivery": self.delivery_payload()}

    def build_report(self):
        """Assemble the full report (single-process kernels only)."""
        return assemble_report(self._budget, **self.payload())
