"""The executive kernel: the only platform-dependent layer.

"The code of these primitives — which basically support thread creation,
communication and synchronisation and sequentialisation of user supplied
computation functions and of inter-processor communications — is the
only platform-dependent part of the programming environment, making it
highly portable" (section 3).

:data:`KERNEL_PRIMITIVES` documents the primitive set the macro-code is
written against and :class:`Kernel` implements it once for every
threaded substrate.  What differs between substrates is *data handed to
the constructor*, never code: ``hosts`` says which mapped processors'
threads start in this interpreter (all of them on the ``threads``
backend, one in a ``processes`` worker, a set in a ``tcp`` worker), and
``remote`` maps the edges that leave this interpreter to channel
objects.  Every other edge is a bounded in-process queue.  Porting the
executive to a new interconnect therefore means writing one channel
class, not a kernel:

``put_nowait(value)``
    raise ``queue.Full`` with the value *not* enqueued;
``get_nowait()``
    raise ``queue.Empty``;
``fileno()`` or ``bell``
    how a receiver waits for data: a descriptor readable while
    ``get_nowait`` can make progress, or a ``bell`` attribute the
    kernel stores the waiting thread's doorbell in, which the channel
    rings (when ``armed``) as a packet lands;
``room_fileno()`` or ``room_bell``
    the same for a sender parked on a full channel: readable while
    ``put_nowait`` can make progress, or rung as room appears;
``put(value, timeout=)``
    only for a channel with neither kind of room signal (the ring
    transport): the kernel retries it on a tick;
``accepted_at`` (optional)
    ``time.perf_counter()`` when the last ``put`` stopped waiting for
    room, so transfer spans time the move and not the back-pressure;
``try_flush()`` / ``has_pending`` / ``pending_owner`` (optional)
    a channel that batches; the kernel flushes it at every blocking
    point of the thread that owns the batch;
``release()`` (optional)
    reclaim what an absent receiver never claimed, at shutdown.

A blocked ``recv_``, ``send_`` or ``alt_`` has no timeout: it wakes on
a packet, on room or on the run's *stop*, never on a clock — unless
``alt_`` is handed one (the fault supervisor's collector).  On one
in-process queue it sleeps on the queue's own conditions (a hand-over
costs a lock release, not a syscall); on anything else, in one ``poll``
over the calling thread's doorbell, the channels' descriptors and the
stop.  So every stop object a kernel is handed has ``is_set`` / ``set``
/ ``wait`` and a ``fileno()`` that turns readable once it is set
(:class:`Latch` in one interpreter, the ``processes`` backend's
``StopFlag`` across them, a ``tcp`` worker's ``NetStopEvent``), and
whoever sees it set wakes the queue sleepers (:meth:`Kernel.wake_local`):
a :class:`Latch` as it is set, the host thread for a stop raised in
another process.  Only a channel that offers no descriptor and no
doorbell (the ring transport) is waited on with a tick.

Nothing else of a channel is looked at.  This module imports only the
standard library, so ``repro emit`` ships it verbatim as
``skipper_kernel.py``.
"""

from __future__ import annotations

import inspect
import math
import os
import queue
import select
import threading
import time
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence,
    Set, Tuple, Union,
)

__all__ = [
    "KERNEL_PRIMITIVES",
    "Stop",
    "NoPiece",
    "NO_PIECE",
    "Chunk",
    "grain",
    "Shutdown",
    "RemoteStub",
    "Latch",
    "Kernel",
]

#: The kernel primitive set: name -> (signature, description).
KERNEL_PRIMITIVES: Dict[str, Tuple[str, str]] = {
    "spawn_": ("(name, body) -> thread", "create and start an executive thread"),
    "send_": ("(edge, value) -> unit", "blocking send on a logical channel"),
    "recv_": ("(edge) -> value", "blocking receive on a logical channel"),
    "try_send_": (
        "(edge, value) -> unit | raises queue.Full",
        "non-blocking send (supervisor re-dispatch, realtime admission pump; "
        "not used by generated code)",
    ),
    "call_": ("(func, *args) -> value", "run a user sequential function"),
    "stop_": ("(edge) -> unit", "propagate end-of-stream on a channel"),
    "alt_": ("(edges, timeout=None) -> (edge, value)",
             "wait on several channels (ALT); queue.Empty after timeout s"),
    "join_": ("() -> unit", "wait for executive completion"),
}

#: One recorded occupancy interval: ``(resource, owner, start_us,
#: end_us)`` — the field order of :class:`repro.machine.trace.Span`.
SpanTuple = Tuple[str, str, float, float]


class Stop:
    """End-of-stream token, forwarded edge-to-edge to unwind the network."""

    def __repr__(self) -> str:
        return "<stop>"


class NoPiece:
    """Placeholder for scm splits shorter than the split degree.

    Tokens cross OS-process boundaries on the multiprocess backends, so
    the class lives here (importable, hence picklable) and the generated
    code tests with ``isinstance`` rather than object identity.
    """

    def __repr__(self) -> str:
        return "<no-piece>"


NO_PIECE = NoPiece()


class Chunk(list):
    """Several farm items — or their results, in the same order — in one
    packet.

    A df/tf master that :func:`grain` tells to send more than one item
    wraps the slice in a ``Chunk``; the worker answers with a ``Chunk``
    of results.  A chunk of one is never built (the bare item is the
    packet), and a user item that is itself a ``list`` stays a ``list``:
    only this subclass means "iterate me".
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return f"<chunk {list.__repr__(self)}>"


def grain(remaining: int, degree: int) -> int:
    """Guided self-scheduling, factoring form: with ``remaining`` items
    left for a farm of ``degree`` workers the next packet carries
    ``remaining // (2 * degree)`` of them, never fewer than one — big
    chunks while there is plenty, single items at the tail where balance
    matters, and a farm fed fewer than ``4 * degree`` items is the
    one-item-per-packet farm of the paper."""
    return max(1, remaining // (2 * degree))


class Shutdown(Exception):
    """Raised inside executive threads when the run is torn down."""


class RemoteStub:
    """Stand-in for an executive thread this interpreter does not run:
    hosted by another process or machine, or a router fused away."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def join(self, timeout: Optional[float] = None) -> None:
        return None

    def is_alive(self) -> bool:
        return False

    def __repr__(self) -> str:
        return f"<remote thread {self.name}>"


_RING = (1).to_bytes(8, "little")  # an eventfd write is one uint64

#: How often a wait on a channel with nothing to poll (the ring
#: transport) scans it again — and how long a thread holding a batch
#: the ring could not take sleeps before it retries the flush.
_RING_TICK_S = 0.0002
#: How long a send or a receive blocks inside a ring channel's own
#: ``put`` / ``get`` before it looks at the stop again.
_RING_WAIT_S = 0.02


def _wakeup_fds() -> Tuple[int, int]:
    """``(read end, write end)`` of a non-blocking wake-up descriptor:
    one eventfd where the platform has it, else a pipe."""
    if hasattr(os, "eventfd"):
        fd = os.eventfd(0, os.EFD_NONBLOCK | os.EFD_CLOEXEC)
        return fd, fd
    rfd, wfd = os.pipe()  # pragma: no cover - platforms without eventfd
    os.set_blocking(rfd, False)
    os.set_blocking(wfd, False)
    return rfd, wfd


def _close_fds(rfd: int, wfd: int) -> None:
    os.close(rfd)
    if wfd != rfd:  # pragma: no cover - pipe fallback
        os.close(wfd)


class Latch:
    """A run's stop in one interpreter: ``threading.Event``'s
    ``is_set`` / ``set`` / ``wait``, plus a ``fileno()`` that is
    readable once set — a descriptor written once and never read, so it
    stays readable for every ``poll`` that includes it from then on.

    ``on_set(callback)`` has ``set()`` call ``callback()`` too — how a
    kernel wakes the threads asleep on its in-process queues, which no
    descriptor reaches.  ``close()`` (also on collection) gives the
    descriptor back; a ``set()`` after it only flips the flag (and
    calls the callbacks).
    """

    __slots__ = ("_set", "_fds", "_lock", "_callbacks")

    def __init__(self) -> None:
        self._set = False
        self._lock = threading.Lock()
        self._callbacks: List[Callable[[], None]] = []
        self._fds: Optional[Tuple[int, int]] = None
        self._fds = _wakeup_fds()

    def fileno(self) -> int:
        fds = self._fds
        if fds is None:
            raise ValueError("the latch is closed")
        return fds[0]

    def is_set(self) -> bool:
        return self._set

    def on_set(self, callback: Callable[[], None]) -> None:
        """Call ``callback()`` once set: at ``set()``, or now if it is."""
        with self._lock:
            if not self._set:
                self._callbacks.append(callback)
                return
        callback()

    def set(self) -> None:
        """Flag first, then the descriptor and the callbacks: whoever
        they wake reads the flag as set."""
        with self._lock:  # never a write to a descriptor close() freed
            if self._set:
                return
            self._set = True
            if self._fds is not None:
                os.write(self._fds[1], _RING)
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until set or ``timeout`` seconds; returns the flag.

        ``select``, not ``poll``: a pacing wait has to end *on* its due
        time, and ``poll`` rounds up to whole milliseconds."""
        fds = self._fds
        if self._set or fds is None:
            return self._set
        select.select([fds[0]], [], [],
                      None if timeout is None else max(0.0, timeout))
        return self._set

    def close(self) -> None:
        with self._lock:
            fds, self._fds = self._fds, None
        if fds is not None:
            _close_fds(*fds)

    __del__ = close


class _Doorbell:
    """What a parked thread is woken through by a channel that has no
    descriptor of its own: one per thread, shared by all its waits.

    ``armed`` is raised by the waiter *before* it tries its channels and
    lowered by whoever rings, so a sender pays the wake-up syscall only
    while somebody may be about to sleep — and a packet (or room) that
    appears between the waiter's try and its ``poll`` still finds the
    bell armed, which is what makes the wake-up impossible to lose.
    """

    __slots__ = ("armed", "_fds")

    def __init__(self) -> None:
        self.armed = False
        self._fds = _wakeup_fds()

    def fileno(self) -> int:
        return self._fds[0]

    def ring(self) -> None:
        self.armed = False
        try:
            os.write(self._fds[1], _RING)
        except BlockingIOError:  # pragma: no cover - already rung
            pass

    def clear(self) -> None:
        try:
            os.read(self._fds[0], 4096)
        except BlockingIOError:
            pass

    def __del__(self) -> None:
        # Never closed while referenced: a ringer holds the bell it is
        # ringing, so the descriptor cannot be freed (or reused) under
        # its write.
        _close_fds(*self._fds)


_MISS = object()  # what a try (or a timed wait) that moved nothing returns


class _LocalChannel(queue.Queue):
    """An in-process edge.

    A thread that waits on it alone — ``recv_`` on it, or ``send_``
    while it is full — sleeps on the queue's own conditions: handing a
    packet over costs a lock release, not a syscall that lets go of the
    GIL.  A stop reaches such a sleeper through :meth:`wake`.  A thread
    ALTing over it with other edges stores its doorbell in ``bell``,
    which :meth:`put` rings (when armed) once the mutex is released."""

    bell: Optional[_Doorbell] = None

    def put(self, item: Any, block: bool = True,
            timeout: Optional[float] = None) -> None:
        super().put(item, block, timeout)
        self._ring()

    def _ring(self) -> None:
        bell = self.bell
        if bell is not None and bell.armed:
            bell.ring()

    # ``take`` / ``give``: ``get`` / ``put`` that block until they move
    # (a ``take`` at most ``timeout``, then :data:`_MISS`) or ``stop`` is
    # raised (then Shutdown).  The stop is read under the mutex
    # :meth:`wake` takes, so a wake cannot fall in between.

    def take(self, stop: Any, timeout: Optional[float] = None) -> Any:
        with self.not_empty:
            while not self._qsize():
                if stop.is_set():
                    raise Shutdown
                if not self.not_empty.wait(timeout):
                    return _MISS
            item = self._get()
            self.not_full.notify()
        return item

    def give(self, item: Any, stop: Any) -> None:
        with self.not_full:
            while 0 < self.maxsize <= self._qsize():
                if stop.is_set():
                    raise Shutdown
                self.not_full.wait()
            self._put(item)
            self.unfinished_tasks += 1
            self.not_empty.notify()
        self._ring()

    def wake(self) -> None:
        """The stop is raised: every sleeper re-reads it."""
        with self.mutex:
            self.not_empty.notify_all()
            self.not_full.notify_all()


class _QueueWaiter:
    """One thread's wait on one in-process queue (see
    :class:`_LocalChannel`): to receive from it or to send ``value``."""

    __slots__ = ("edge", "channel", "sends")

    def __init__(self, edge: str, channel: _LocalChannel,
                 sends: bool) -> None:
        self.edge, self.channel, self.sends = edge, channel, sends

    def move(self, value: Any, stop: Any = None,
             timeout: Optional[float] = None) -> Any:
        """Send ``value`` (returns None) or receive ``(edge, value)``;
        with a ``stop``, block until it moves (or a receive's
        ``timeout`` passes), else :data:`_MISS` if it cannot move."""
        channel = self.channel
        if stop is not None:
            if self.sends:
                return channel.give(value, stop)
            item = channel.take(stop, timeout)
            return _MISS if item is _MISS else (self.edge, item)
        try:
            if self.sends:
                return channel.put_nowait(value)
            return self.edge, channel.get_nowait()
        except (queue.Full, queue.Empty):
            return _MISS

    def disown(self) -> None:
        pass


class _Waiter:
    """One thread's wait on a fixed set of channels — to receive on any
    of them, or to send on one (``channel``): the ``poll`` set over the
    thread's doorbell, the stop and the channels' descriptors, and the
    channels that ring the doorbell instead (while the thread is armed,
    their ``slot`` attribute holds it)."""

    __slots__ = ("channel", "slot", "rung", "by_fd", "bell", "poller",
                 "ready")

    def __init__(self, entries: List[Tuple[str, Any]], sends: bool,
                 bell: _Doorbell, stop_fd: int) -> None:
        self.channel = entries[0][1] if sends else None
        self.slot = "room_bell" if sends else "bell"
        fileno = "room_fileno" if sends else "fileno"
        self.rung = [(edge, channel) for edge, channel in entries
                     if hasattr(channel, self.slot)]
        self.by_fd = {
            getattr(channel, fileno)(): (edge, channel)
            for edge, channel in entries if not hasattr(channel, self.slot)
        }
        self.bell = bell
        self.poller = select.poll()
        for fd in (bell.fileno(), stop_fd, *self.by_fd):
            self.poller.register(fd, select.POLLIN)
        #: The descriptors the last ``poll`` found readable.
        self.ready: List[int] = []

    def move(self, value: Any, stop: Any = None,
             timeout: Optional[float] = None) -> Any:
        """One non-blocking try: put ``value`` on the send channel, or
        take ``(edge, value)`` from a channel that rings or whose
        descriptor is readable.  If nothing moved (:data:`_MISS`) and
        there is a ``stop``, sleep in ``poll`` (at most ``timeout``
        seconds, rounded up to whole ms) until the doorbell, a channel
        or the stop (whose descriptor is in the set) wakes it."""
        bell = self.bell
        if stop is not None:
            bell.armed = True  # before the try: see _Doorbell
            for _edge, channel in self.rung:
                setattr(channel, self.slot, bell)
        moved = self._attempt(value, stop is None)
        if moved is _MISS and stop is not None:
            self.ready = [fd for fd, _event in self.poller.poll(
                None if timeout is None else math.ceil(timeout * 1e3))]
            if bell.fileno() in self.ready:
                bell.clear()
        bell.armed = False
        return moved

    def _attempt(self, value: Any, every_fd: bool) -> Any:
        if self.channel is not None:
            try:
                self.channel.put_nowait(value)
            except queue.Full:
                return _MISS
            return None
        for edge, channel in self.rung:
            try:
                return edge, channel.get_nowait()
            except queue.Empty:
                continue
        ready, self.ready = self.ready, []
        for fd in self.by_fd if every_fd else ready:
            entry = self.by_fd.get(fd)
            if entry is None:
                continue
            try:
                return entry[0], entry[1].get_nowait()
            except queue.Empty:
                continue  # readiness without a whole packet
        return _MISS

    def disown(self) -> None:
        """The thread is gone: no channel may ring its bell any more."""
        for _edge, channel in self.rung:
            if getattr(channel, self.slot) is self.bell:
                setattr(channel, self.slot, None)


class Kernel:
    """The kernel primitives on threads, over a table of channels.

    ``hosts`` names the mapped processor (or processors) whose threads
    this interpreter runs; ``placement`` maps generated thread names to
    processor ids so :meth:`spawn_` can answer for the others with a
    :class:`RemoteStub`.  ``None`` hosts everything.  ``remote`` maps
    the edges whose other end lives elsewhere to channel objects (see
    the module docstring for what a channel is); every other edge gets
    a bounded in-process queue on first use — bounded so constant
    sources self-throttle instead of running arbitrarily ahead of the
    computation (the Transputer links they model are rendezvous
    channels).

    ``edge_aliases`` / ``fused_threads`` are the fused identity routers
    of :func:`repro.backends.hosting.fused_routers`: an aliased
    edge resolves to the channel of the edge it names and a fused
    thread is never started.

    ``stop`` is the run's stop (``is_set`` / ``set`` / ``wait`` /
    ``fileno``), shared with whoever else must be able to end the run;
    by default a fresh :class:`Latch`.  With ``record_spans`` every
    ``call_`` and every send on a remote edge appends a ``(resource,
    owner, start_us, end_us)`` tuple — µs since ``epoch`` — to
    :attr:`compute_spans` / :attr:`transfer_spans`.

    ``recv_`` (an ALT over one edge), ``send_`` and ``alt_`` — the
    Transputer ALT — share one wait loop (:meth:`_wait`) over the
    thread's waiter for the edges: one in-process queue is a blocking
    ``get`` / ``put`` on its own conditions (:class:`_QueueWaiter`);
    other channels are tried, then the thread arms its doorbell and
    sleeps in one ``poll`` over it, their descriptors and the stop
    (:class:`_Waiter`).
    A parked thread costs nothing until one of its own events comes.
    """

    def __init__(
        self,
        *,
        hosts: Union[None, str, Iterable[str]] = None,
        placement: Optional[Dict[str, str]] = None,
        remote: Optional[Dict[str, Any]] = None,
        edge_aliases: Optional[Dict[str, str]] = None,
        fused_threads: FrozenSet[str] = frozenset(),
        stop: Optional[Any] = None,
        queue_size: int = 4,
        epoch: Optional[float] = None,
        record_spans: bool = False,
    ):
        if stop is not None and not hasattr(stop, "fileno"):
            raise TypeError(
                "the kernel's stop must be pollable (a fileno() that is "
                "readable once set), e.g. a Latch")
        if isinstance(hosts, str):
            hosts = (hosts,)
        self.hosts: Optional[FrozenSet[str]] = (
            None if hosts is None else frozenset(hosts))
        #: Label of this interpreter in spans and error reports.
        self.processor = "+".join(sorted(self.hosts)) if self.hosts else "?"
        self.placement: Dict[str, str] = placement or {}
        self._remote: Dict[str, Any] = remote or {}
        self._aliases = edge_aliases or {}
        self._fused = fused_threads
        #: The remote channels that batch (see the back-stops below);
        #: none on the default transports, so the flush sweeps — one per
        #: blocking point — have nothing to walk.
        self._batching = [
            channel for channel in self._remote.values()
            if hasattr(channel, "try_flush")
        ]
        self._local: Dict[str, _LocalChannel] = {}
        self._lock = threading.Lock()
        #: Per-thread wait state (``bell``, ``waiters``), built on first
        #: use.
        self._tls = threading.local()
        self.stop = Latch() if stop is None else stop
        on_set = getattr(self.stop, "on_set", None)
        if on_set is not None:
            on_set(self.wake_local)
        self._queue_size = queue_size
        self._epoch = time.perf_counter() if epoch is None else epoch
        self._record_spans = record_spans
        self._threads: List[threading.Thread] = []
        #: Spawned threads whose body has returned; the ones
        #: :meth:`wait_finished` still waits for, and its latch.
        self._finished: Set[threading.Thread] = set()
        self._awaited: Set[threading.Thread] = set()
        self._on_last: Optional[Latch] = None
        self.stop_token = Stop()
        #: Scratch space the generated code uses for final results.
        self.blackboard: Dict[str, Any] = {}
        self.compute_spans: List[SpanTuple] = []
        self.transfer_spans: List[SpanTuple] = []

    def now_us(self) -> float:
        """Microseconds since the run epoch (the clock spans are in)."""
        return (time.perf_counter() - self._epoch) * 1e6

    # -- primitives ------------------------------------------------------------

    def channel(self, edge: str) -> Any:
        edge = self._aliases.get(edge, edge)
        channel = self._remote.get(edge)
        if channel is None:
            channel = self._local.get(edge)
        if channel is None:
            # Two threads meet on every new edge (its producer and its
            # consumer): unlocked check-then-set hands them two queues.
            with self._lock:
                channel = self._local.get(edge)
                if channel is None:
                    channel = self._local[edge] = _LocalChannel(
                        maxsize=self._queue_size)
        return channel

    def spawn_(self, name: str, body: Callable[[], None]) -> Any:
        home = self.placement.get(name)
        if name in self._fused or (
                self.hosts is not None and home is not None
                and home not in self.hosts):
            return RemoteStub(name)

        def runner() -> None:
            try:
                body()
            except Shutdown:
                pass
            finally:
                # A one-shot thread may exit right after a send that a
                # batching channel merely *accepted into its pending
                # batch*; drain it now or the packet would be stranded.
                self._drain_thread_pending()
                self._close_thread_waits()
                self._note_finished(thread)

        thread = threading.Thread(target=runner, name=name, daemon=True)
        self._threads.append(thread)
        thread.start()
        return thread

    def send_(self, edge: str, value: Any) -> None:
        edge = self._aliases.get(edge, edge)  # spans name the real edge
        channel = self.channel(edge)
        timed = self._record_spans and edge in self._remote
        if timed:
            start = time.perf_counter()
        waiter = self._waiter((edge,), sends=True)
        if waiter is None:
            self._ring_wait(channel.put, value)
        else:
            self._wait(waiter, value)
        if timed:
            end = time.perf_counter()
            # The span times the move, not the back-pressure: a channel
            # that knows when it accepted the packet (after the wait
            # for a free slot or a credit) says so.
            start = max(start, getattr(channel, "accepted_at", start))
            self.transfer_spans.append((
                edge, threading.current_thread().name,
                (start - self._epoch) * 1e6, (end - self._epoch) * 1e6,
            ))

    def recv_(self, edge: str) -> Any:
        return self._receive((edge,))[1]

    def try_send_(self, edge: str, value: Any) -> None:
        """Non-blocking send: raises ``queue.Full``, value not enqueued.

        Not used by generated executives; the supervisor's re-dispatch
        and the realtime admission pump send with it from threads that
        must never park behind a slow consumer.
        """
        self.channel(edge).put_nowait(value)

    def stop_(self, edge: str) -> None:
        self.send_(edge, self.stop_token)

    def alt_(self, edges: List[str],
             timeout: Optional[float] = None) -> Tuple[str, Any]:
        """Wait for a message on any of ``edges`` (the Transputer ALT);
        given a ``timeout`` (seconds), raise ``queue.Empty`` once it has
        passed with nothing received — ``0`` is one non-blocking try."""
        return self._receive(edges, timeout)

    # -- the one wait loop -----------------------------------------------------

    def _receive(self, edges: Sequence[str],
                 timeout: Optional[float] = None) -> Tuple[str, Any]:
        """``recv_`` and ``alt_``: an ALT over ``edges``."""
        # About to wait: whatever this thread still holds in pending
        # batches (a router receives on one edge and sends on others)
        # must go out *before* it blocks.
        self._flush_thread_pending()
        deadline = None if timeout is None else time.monotonic() + timeout
        waiter = self._waiter(edges)
        if waiter is not None:
            return self._wait(waiter, None, deadline)
        if len(edges) == 1 and deadline is None:
            return edges[0], self._ring_wait(self.channel(edges[0]).get)
        return self._alt_tick(edges, deadline)

    def _wait(self, waiter: Any, value: Any,
              deadline: Optional[float] = None) -> Any:
        """Move on ``waiter``'s channels (send ``value``, or receive),
        sleeping until a packet or room appears or the stop is raised —
        nothing else wakes it — or until a receive's ``deadline``
        (``time.monotonic()``) passes: then ``queue.Empty``."""
        stop = self.stop
        left = None
        while True:
            if stop.is_set():
                raise Shutdown
            if deadline is not None:
                left = max(0.0, deadline - time.monotonic())
            if not (self._batching and self._thread_pending()):
                moved = waiter.move(value, stop, left)
            else:
                # This thread holds a batch: it must not sleep until the
                # batch is out, and nothing can be polled for the room
                # the ring needs, so retry on the ring's tick.
                moved = waiter.move(value)
                if moved is _MISS:
                    self._flush_thread_pending()
                    if self._thread_pending():
                        time.sleep(_RING_TICK_S if left is None
                                   else min(_RING_TICK_S, left))
            if moved is not _MISS:
                return moved
            if left == 0.0:
                raise queue.Empty

    def _waiter(self, edges: Iterable[str], sends: bool = False) -> Any:
        """This thread's wait state for receiving on ``edges`` (or
        sending on the one edge): a :class:`_QueueWaiter` for one
        in-process queue, a :class:`_Waiter` for channels that can be
        polled or rung, None when one of them can be neither."""
        edges = tuple(edges)
        tls = self._tls
        waiters = getattr(tls, "waiters", None)
        if waiters is None:
            waiters = tls.waiters = {}
        key = (sends, edges)
        waiter = waiters.get(key)
        if waiter is not None:
            return waiter
        entries = [(edge, self.channel(edge)) for edge in edges]
        if len(entries) == 1 and isinstance(entries[0][1], _LocalChannel):
            waiter = _QueueWaiter(*entries[0], sends)
        else:
            ways = ("room_bell", "room_fileno") if sends else (
                "bell", "fileno")
            if not all(any(hasattr(channel, way) for way in ways)
                       for _edge, channel in entries):
                return None
            try:
                stop_fd = self.stop.fileno()
            except (OSError, ValueError):  # its run is over: gone, closed
                if self.stop.is_set():
                    raise Shutdown from None
                raise
            bell = getattr(tls, "bell", None)
            if bell is None:
                bell = tls.bell = _Doorbell()
            waiter = _Waiter(entries, sends, bell, stop_fd)
        waiters[key] = waiter
        return waiter

    def _close_thread_waits(self) -> None:
        """At thread exit: unhook the doorbell from every channel, so
        the last ringer to let go of it closes it."""
        tls = self._tls
        for waiter in getattr(tls, "waiters", {}).values():
            waiter.disown()
        tls.__dict__.clear()

    def wake_local(self) -> None:
        """The stop is raised: wake every thread asleep on an in-process
        queue's conditions (which no descriptor reaches) to read it.

        A :class:`Latch` stop (also inside a ``NetStopEvent``) calls
        this itself as it is set; for a ``StopFlag`` raised in another
        process the host thread, already asleep on the stop's
        descriptor, calls it (:func:`repro.backends.hosting.host_run`)."""
        with self._lock:
            channels = list(self._local.values())
        channels += [channel for channel in self._remote.values()
                     if isinstance(channel, _LocalChannel)]
        for channel in channels:
            channel.wake()

    def _alt_tick(self, edges: Iterable[str],
                  deadline: Optional[float] = None) -> Tuple[str, Any]:
        """ALT over channels with nothing to block on (the ring
        transport): scan them all on a bounded tick, until a deadline."""
        channels = [(edge, self.channel(edge)) for edge in edges]
        tick = _RING_TICK_S
        while True:
            if self.stop.is_set():
                raise Shutdown
            for edge, channel in channels:
                try:
                    return edge, channel.get_nowait()
                except queue.Empty:
                    continue
            if deadline is not None:
                tick = min(_RING_TICK_S, deadline - time.monotonic())
                if tick <= 0:
                    raise queue.Empty
            self._flush_thread_pending()
            time.sleep(tick)

    def _ring_wait(self, move: Callable[..., Any], *value: Any) -> Any:
        """Send or receive on a channel with nothing to poll (the ring
        transport): its own blocking ``put`` / ``get``, re-checking the
        stop between tries."""
        while True:
            if self.stop.is_set():
                raise Shutdown
            try:
                return move(*value, timeout=_RING_WAIT_S)
            except (queue.Full, queue.Empty):
                self._flush_thread_pending()

    def call_(self, func: Callable, *args: Any) -> Any:
        if not self._record_spans:
            return self._resolve(func(*args))
        name = threading.current_thread().name
        start = time.perf_counter()
        try:
            return self._resolve(func(*args))
        finally:
            end = time.perf_counter()
            self.compute_spans.append((
                self.placement.get(name, self.processor), name,
                (start - self._epoch) * 1e6, (end - self._epoch) * 1e6,
            ))

    @staticmethod
    def _resolve(result: Any) -> Any:
        # Async-native table functions: each call drives its own loop on
        # this thread, so awaited I/O still overlaps across threads.
        if inspect.iscoroutine(result):
            import asyncio

            return asyncio.run(result)
        return result

    def join_(self, sinks: List[Any], timeout: float = 60.0) -> None:
        """Wait for the sink threads, then tear everything down."""
        for thread in sinks:
            thread.join(timeout)
            if thread.is_alive():
                self.stop.set()
                raise RuntimeError(
                    f"executive thread {thread.name!r} did not terminate"
                )
        self.stop.set()
        for thread in self._threads:
            thread.join(1.0)

    def is_stop(self, value: Any) -> bool:
        return isinstance(value, Stop)

    # -- batching back-stops ---------------------------------------------------
    #
    # A batching channel may *accept* a small packet into a process-local
    # pending batch instead of writing it through (Nagle-flavoured
    # coalescing).  These sweeps are the residency bound: every blocking
    # point flushes what the current thread still holds, and a thread
    # drains completely before it exits.  Only the owning thread ever
    # touches a channel's pending batch — such channels are strictly SPSC.

    def _thread_pending(self) -> List[Any]:
        if not self._batching:
            return self._batching
        ident = threading.get_ident()
        return [
            channel for channel in self._batching
            if channel.pending_owner == ident and channel.has_pending
        ]

    def _flush_thread_pending(self) -> None:
        """Best-effort flush of this thread's pending batches."""
        for channel in self._thread_pending():
            channel.try_flush()

    def _drain_thread_pending(self) -> None:
        """Blocking flush at thread exit; bails only on a raised stop."""
        for channel in self._thread_pending():
            while channel.has_pending and not channel.try_flush():
                if self.stop.is_set():
                    return
                time.sleep(_RING_TICK_S)

    # -- host-side helpers -----------------------------------------------------

    def local_threads(self) -> List[threading.Thread]:
        """The executive threads actually started in this interpreter."""
        return list(self._threads)

    def wait_finished(self, threads: Iterable[threading.Thread]) -> bool:
        """Sleep until every one of ``threads`` (spawned here) has
        finished its body, or the stop is raised; ``True`` when the
        threads finished and the stop is still down."""
        finished = Latch()
        with self._lock:
            self._awaited = set(threads) - self._finished
            self._on_last = finished
            if not self._awaited:
                finished.set()
        try:
            poller = select.poll()
            for fd in (finished.fileno(), self.stop.fileno()):
                poller.register(fd, select.POLLIN)
            poller.poll()
            return not self.stop.is_set()
        finally:
            with self._lock:
                self._on_last = None
            finished.close()

    def _note_finished(self, thread: threading.Thread) -> None:
        with self._lock:
            self._finished.add(thread)
            self._awaited.discard(thread)
            if not self._awaited and self._on_last is not None:
                self._on_last.set()

    def release(self) -> None:
        """Shutdown hook: let every remote channel reclaim what its
        receiver never claimed (it crashed, or the run stopped first)."""
        for channel in self._remote.values():
            release = getattr(channel, "release", None)
            if release is not None:
                release()
