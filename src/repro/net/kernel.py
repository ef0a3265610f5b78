"""What is genuinely network about the ``tcp`` port of the kernel.

The kernel itself is :class:`repro.codegen.kernel.Kernel`, the same
class every threaded substrate runs; a worker hosts a *set* of mapped
processors (the coordinator deals processors round-robin when the
program is wider than the cluster) and hands the kernel one channel per
edge that crosses workers (:func:`net_channels`).  This module holds
those channels and the run-scoped state mirrored over the worker's
connection.

Flow control replaces a bounded queue: each outgoing network edge holds
``queue_size`` credits, a send consumes one, and the consumer returns a
CREDIT frame per dequeued value — so a slow consumer exerts exactly the
same backpressure a full bounded queue would, and ``try_send_`` sees
``queue.Full`` just like on the other substrates.  The consumer end is
an in-process queue the link reader thread pushes into, so a thread
parked in ``alt_`` is woken by its doorbell like on any local edge.

The shared stop event and both shared boards (heartbeats, stream
counters) are mirrored over the same connection: local writes update the
local copy and emit a frame; the coordinator relays to the other
workers, which fold the update in monotonically.  A dead socket simply
stops a worker's heartbeats — which is precisely the signal the fault
supervisor's staleness scan is built on.
"""

from __future__ import annotations

import queue
import struct
import threading
import time
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from ..codegen.kernel import _MISS, Latch, Shutdown, _LocalChannel
from ..realtime.board import StreamBoard
from . import codec
from .protocol import ConnectionClosed, Frame, Link, pack_edge, pack_run

__all__ = [
    "NetStopEvent", "NetHealthBoard", "NetStreamBoard", "net_channels",
]

_U32 = struct.Struct("!I")
_SLOT_AGE = struct.Struct("!Id")
_COUNT = struct.Struct("!Bd")


class NetStopEvent:
    """The run's stop flag, mirrored through the coordinator.

    ``set()`` (reached through the supervisor's abandon path or an
    executive error) raises the local flag *and* sends one STOPREQ so the
    coordinator broadcasts STOPRUN to every worker — the distributed
    equivalent of setting the shared multiprocessing event.
    ``set_local()`` is the receive side: STOPRUN raises the flag without
    echoing a request back.  Either trips a local :class:`Latch`, whose
    descriptor (:meth:`fileno`) every parked kernel thread polls and
    whose callbacks (:meth:`on_set`) wake the ones on in-process queues.
    """

    def __init__(self, link: Link, run: int):
        self._latch = Latch()
        self._link = link
        self._run = run
        self._requested = False

    def is_set(self) -> bool:
        return self._latch.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._latch.wait(timeout)

    def fileno(self) -> int:
        return self._latch.fileno()

    def on_set(self, callback: Callable[[], None]) -> None:
        self._latch.on_set(callback)

    def set_local(self) -> None:
        self._latch.set()

    def set(self) -> None:
        self._latch.set()
        if self._requested:
            return
        self._requested = True
        try:
            self._link.send(Frame.STOPREQ, pack_run(self._run))
        except ConnectionClosed:
            pass


class NetHealthBoard:
    """Heartbeat board mirrored as BEAT frames.

    Local beats stamp the local slot and emit ``(slot, age=0)``; relayed
    beats are applied as ``local_now - age`` (ages survive clock-domain
    crossings; absolute stamps would not), folded in with ``max`` so a
    reordered relay can never move a worker backwards in time.  A worker
    whose socket dies goes silent, its slots age out, and the supervisor
    quarantines it — no extra failure detector needed.
    """

    def __init__(self, n: int, link: Link, run: int):
        self._slots = [0.0] * max(1, n)
        self._link = link
        self._run = run

    def beat(self, slot: int) -> None:
        self._slots[slot] = time.monotonic()
        try:
            self._link.send(
                Frame.BEAT, pack_run(self._run), _SLOT_AGE.pack(slot, 0.0)
            )
        except ConnectionClosed:
            pass

    def last(self, slot: int) -> float:
        return self._slots[slot]

    def apply(self, body: memoryview) -> None:
        slot, age = _SLOT_AGE.unpack(body)
        if 0 <= slot < len(self._slots):
            stamp = time.monotonic() - age
            if stamp > self._slots[slot]:
                self._slots[slot] = stamp


class NetStreamBoard(StreamBoard):
    """Released/delivered frame counters mirrored as COUNT frames.

    Same single-writer discipline as the shared-memory ``StreamBoard``:
    slot 0 is written only by the admission pump (one worker), slot 1
    only by the delivery thread (one worker); everyone else holds a
    monotonically-folded mirror.  The mirror lags by one relay hop, so
    the pump's in-flight view errs on the *high* side — it can only
    under-admit briefly, never overrun ``max_in_flight``.

    The doorbell is local to each worker: a delivery rings it where it
    happens, and :meth:`apply` rings it where the count arrives.
    """

    def __init__(self, link: Link, run: int):
        super().__init__([0.0, 0.0], threading.Event())
        self._link = link
        self._run = run

    def _bump(self, slot: int) -> None:
        self._slots[slot] += 1.0
        try:
            self._link.send(
                Frame.COUNT, pack_run(self._run),
                _COUNT.pack(slot, self._slots[slot]),
            )
        except ConnectionClosed:
            pass

    def note_released(self) -> None:
        self._bump(0)

    def note_delivered(self) -> None:
        self._bump(1)
        self.ring()

    def apply(self, body: memoryview) -> None:
        slot, value = _COUNT.unpack(body)
        if 0 <= slot < 2 and value > self._slots[slot]:
            self._slots[slot] = value
            if slot == 1:
                self.ring()


class _NetOutChannel:
    """Producer end of a network edge: credits + encoded DATA frames.

    A sender that finds no credit parks in the kernel on ``room_bell``,
    which :meth:`add_credit` rings."""

    __slots__ = ("_link", "_header", "_credits", "_lock", "room_bell",
                 "accepted_at")

    def __init__(self, link: Link, run_id: int, edge: str, credits: int):
        self._link = link
        self._header = pack_edge(run_id, edge)
        self._credits = credits
        self._lock = threading.Lock()
        self.room_bell: Any = None
        #: ``time.perf_counter()`` when the last ``put`` got its credit —
        #: where the back-pressure wait ends and the move begins.
        self.accepted_at = 0.0

    def add_credit(self, n: int) -> None:
        """A CREDIT frame arrived for this edge."""
        with self._lock:
            self._credits += n
        bell = self.room_bell
        if bell is not None and bell.armed:
            bell.ring()

    def put_nowait(self, value: Any) -> None:
        with self._lock:
            if self._credits <= 0:
                raise queue.Full
            self._credits -= 1
        self.accepted_at = time.perf_counter()
        buffers = codec.encode(value)
        try:
            self._link.send(Frame.DATA, self._header, *buffers)
        except ConnectionClosed:
            # Our uplink is gone: this run cannot finish here.  Unwind
            # the executive thread quietly; the coordinator has already
            # seen the dead socket and is driving recovery or teardown.
            raise Shutdown


class _NetInChannel(_LocalChannel):
    """Consumer end of a network edge: raw inbox + credit grants.

    The inbox itself is unbounded — boundedness lives on the producer
    side as credits, granted back one per dequeue — so the link reader
    thread never blocks on a slow consumer.
    """

    def __init__(self, link: Link, run_id: int, edge: str):
        super().__init__()
        self._link = link
        self._header = pack_edge(run_id, edge)

    #: Called by the link reader with the raw encoded value.
    push = _LocalChannel.put_nowait

    def get(self, block: bool = True, timeout: Optional[float] = None) -> Any:
        return self._granted(super().get(block, timeout))

    def take(self, stop: Any, timeout: Optional[float] = None) -> Any:
        raw = super().take(stop, timeout)
        return raw if raw is _MISS else self._granted(raw)

    def _granted(self, raw: Any) -> Any:
        """Decode a dequeued value and grant its credit back."""
        value = codec.decode(raw)
        try:
            self._link.send(Frame.CREDIT, self._header, _U32.pack(1))
        except ConnectionClosed:
            pass  # the run is dying; recv loops unwind via the stop flag
        return value


def net_channels(
    processors: Iterable[str],
    edges: Dict[str, Tuple[str, str]],
    link: Link,
    run_id: int,
    queue_size: int,
) -> Tuple[Dict[str, _NetOutChannel], Dict[str, _NetInChannel]]:
    """The network ends of one worker: ``(outgoing, incoming)`` by edge.

    ``edges`` maps every inter-processor edge of the program to its
    ``(source, destination)`` processors; edges fully inside or fully
    outside ``processors`` are not this worker's network business.
    """
    hosted = frozenset(processors)
    out: Dict[str, _NetOutChannel] = {}
    inboxes: Dict[str, _NetInChannel] = {}
    for edge, (src_proc, dst_proc) in edges.items():
        if src_proc in hosted and dst_proc not in hosted:
            out[edge] = _NetOutChannel(link, run_id, edge, queue_size)
        elif dst_proc in hosted and src_proc not in hosted:
            inboxes[edge] = _NetInChannel(link, run_id, edge)
    return out, inboxes
