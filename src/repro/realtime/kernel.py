"""Realtime kernel: the admission core's driver, as a kernel wrapper.

Like :class:`~repro.faults.supervisor.SupervisedKernel`, the realtime
layer hooks the *kernel primitives* and leaves the generated executive
untouched.  :class:`RealtimeKernel` wraps either a base kernel or a
supervised kernel and polices two choke points of the stream
(:class:`~repro.realtime.topology.StreamTopology`):

* **Admission** (the process hosting the stream input): every frame the
  grabber sends is offered to an
  :class:`~repro.realtime.admission.AdmissionCore`, which decides and
  keeps the ledger; this side parks the grabber, fans the frame out and
  pumps the buffered head into the process network with non-blocking
  puts while the core allows it.  Shedding happens strictly *before* a
  frame enters the FIFO network, so the j-th delivery is the j-th
  released frame.

* **Delivery** (the process hosting the stream output): each non-Stop
  value on the delivery edge is timestamped and counted on the shared
  :class:`StreamBoard` — whose doorbell it rings, which is what
  releases the next frame.

The watchdog reports the board's deliveries to the core and lets it
flag deadline misses *while frames are in flight*; pacing holds the
grabber to ``frame_period_ms`` — where the seeded ``burst`` /
``input-surge`` overload faults fire.

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
from typing import Any, Callable, Deque, Dict, List, Optional

import queue

from ..codegen.kernel import Shutdown
from .admission import PARK, AdmissionCore, Shed
from .budget import LatencyBudget
from .ledger import assemble_report
from .topology import StreamTopology

__all__ = ["StreamBoard", "RealtimeKernel"]

#: What the admission pump waits after a ``queue.Full`` before it tries
#: again: a non-blocking put has no event to wait for, so this is the
#: one timer left on the data path — and it runs only while the pump is
#: stalled on a full queue.
_RETRY_S = 0.02


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
    """One buffered frame: its value per out-edge, filled as the grabber
    sends them, and how many edges the pump has put into the network."""

    __slots__ = ("frame", "values", "sent")

    def __init__(self, frame: int):
        self.frame = frame
        self.values: Dict[str, Any] = {}
        self.sent = 0


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
        # Overload injection shares the supervised kernel's matcher and
        # report when one is underneath (without a fault plan, none).
        self._matcher = getattr(inner, "matcher", None)
        self._fault_report = getattr(inner, "fault_report", None)

        # -- admission state (guarded by _lock) --
        self._lock = threading.Lock()
        #: Where a ``block`` grabber facing a full buffer, and the
        #: end-of-stream flush, park: notified when the pump pops the
        #: head of the buffer, and at shutdown.
        self._room = threading.Condition(self._lock)
        self._core = AdmissionCore(budget)
        #: The core's admission buffer, with each frame's edge values.
        self._pending: Deque[_PendingFrame] = deque()
        self._paired = 0          # board deliveries reported to the core
        self._paired_us = 0.0     # ... as of this clock reading
        self._last_shed = False   # swallow trailing sends of a shed frame
        self._full = False        # the last drain ended on a queue.Full
        self._closing = False     # shutdown() was called
        self._flushing = False    # Stop came: release past the window
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
            with self._room:
                while not self._offer(value):
                    self._room.wait()
        elif not self._fan_out(edge, value):
            return self._inner.send_(edge, value)
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
            if self._closing or self.stop.is_set():
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

    # -- the pump and watchdog (daemon thread on the admission side) -------

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
                self._inner.try_send_(edge, entry.values[edge])
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

    def _watch_loop(self) -> None:
        while not self._closing:
            self._board.wait(self._watch_tick())

    def _watch_tick(self) -> float:
        """One watchdog round: deliveries to the core, pump, deadline scan.

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

    # -- teardown (the grabber thread, via generated stop_) ----------------

    def stop_(self, edge: str) -> None:
        if self._admission_active and edge in self._edge_set:
            # Blocking-release every buffered frame before Stop goes.
            with self._room:
                if self._begin_flush():
                    while not self._flush_step():
                        self._room.wait()
        return self._inner.stop_(edge)

    def _begin_flush(self) -> bool:
        """Claim the (one-shot) flush; False when already flushed.
        From here on the pump ignores the in-flight window.  Caller
        holds ``_lock``."""
        if self._flushing:
            return False
        self._flushing = True
        return True

    def _flush_step(self) -> bool:
        """One flush round (caller holds ``_lock``); True when finished.

        Otherwise a full queue holds frames back: the service thread is
        rung to retry, and the caller parks until it pops a head."""
        if self._closing or self.stop.is_set():
            now = self.now_us()
            for entry in self._pending:
                self._core.failed(entry.frame, now, "aborted at teardown")
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
        """Assemble the full report (single-process kernels only)."""
        return assemble_report(self._budget, **self.payload())
