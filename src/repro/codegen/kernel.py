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

``put(value, timeout=)`` / ``put_nowait(value)``
    raise ``queue.Full`` with the value *not* enqueued;
``get(timeout=)`` / ``get_nowait()``
    raise ``queue.Empty``;
``fileno()`` (optional)
    readable while ``get_nowait`` can make progress — lets ``alt_``
    block on the channel instead of scanning it on a tick;
``accepted_at`` (optional)
    ``time.perf_counter()`` when the last ``put`` stopped waiting for
    room, so transfer spans time the move and not the back-pressure;
``try_flush()`` / ``has_pending`` / ``pending_owner`` (optional)
    a channel that batches; the kernel flushes it at every blocking
    point of the thread that owns the batch;
``release()`` (optional)
    reclaim what an absent receiver never claimed, at shutdown.

Nothing else of a channel is looked at.  This module imports only the
standard library, so ``repro emit`` ships it verbatim as
``skipper_kernel.py``.
"""

from __future__ import annotations

import inspect
import os
import queue
import select
import threading
import time
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple, Union,
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
    "Kernel",
]

#: The kernel primitive set: name -> (signature, description).
KERNEL_PRIMITIVES: Dict[str, Tuple[str, str]] = {
    "spawn_": ("(name, body) -> thread", "create and start an executive thread"),
    "send_": ("(edge, value) -> unit", "blocking send on a logical channel"),
    "recv_": ("(edge) -> value", "blocking receive on a logical channel"),
    "try_recv_": (
        "(edge) -> value | raises queue.Empty",
        "non-blocking receive (supervisor polling; not used by generated code)",
    ),
    "try_send_": (
        "(edge, value) -> unit | raises queue.Full",
        "non-blocking send (supervisor re-dispatch, realtime admission pump; "
        "not used by generated code)",
    ),
    "call_": ("(func, *args) -> value", "run a user sequential function"),
    "stop_": ("(edge) -> unit", "propagate end-of-stream on a channel"),
    "alt_": ("(edges) -> (edge, value)", "wait on several channels (ALT)"),
    "grain_": (
        "(remaining, degree) -> int",
        "how many of a farm's remaining items the next packet carries: "
        "max(1, remaining // (2 * degree)); more than one travel as a Chunk",
    ),
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


class _Doorbell:
    """What a thread parked in ``alt_`` is woken through by local puts.

    ``armed`` is raised by the waiter *before* it scans its queues and
    lowered by whoever rings, so a sender pays the wake-up syscall only
    while somebody may be about to sleep — and a packet that lands
    between the waiter's scan and its ``poll`` still finds the bell
    armed, which is what makes the wake-up impossible to lose.
    """

    __slots__ = ("armed", "_rfd", "_wfd")

    def __init__(self) -> None:
        self.armed = False
        if hasattr(os, "eventfd"):
            self._rfd = self._wfd = os.eventfd(
                0, os.EFD_NONBLOCK | os.EFD_CLOEXEC)
        else:  # pragma: no cover - platforms without eventfd
            self._rfd, self._wfd = os.pipe()
            os.set_blocking(self._rfd, False)
            os.set_blocking(self._wfd, False)

    def fileno(self) -> int:
        return self._rfd

    def ring(self) -> None:
        self.armed = False
        try:
            os.write(self._wfd, _RING)
        except BlockingIOError:  # pragma: no cover - already rung
            pass

    def clear(self) -> None:
        try:
            os.read(self._rfd, 4096)
        except BlockingIOError:
            pass

    def close(self) -> None:
        os.close(self._rfd)
        if self._wfd != self._rfd:  # pragma: no cover - pipe fallback
            os.close(self._wfd)


class _LocalChannel(queue.Queue):
    """An in-process edge; rings the doorbell of a thread ALTing on it."""

    bell: Optional[_Doorbell] = None

    def _put(self, item: Any) -> None:
        self.queue.append(item)
        bell = self.bell
        if bell is not None and bell.armed:
            bell.ring()


class _Waiter:
    """One thread's ALT over a fixed edge list: poller, doorbell, lookups."""

    __slots__ = ("edges", "local", "by_fd", "bell", "poller")

    def __init__(self, edges: Tuple[str, ...],
                 channels: List[Any]) -> None:
        self.edges = edges
        self.local = [
            (edge, channel) for edge, channel in zip(edges, channels)
            if isinstance(channel, _LocalChannel)
        ]
        self.by_fd = {
            channel.fileno(): (edge, channel)
            for edge, channel in zip(edges, channels)
            if not isinstance(channel, _LocalChannel)
        }
        self.bell = _Doorbell()
        self.poller = select.poll()
        self.poller.register(self.bell.fileno(), select.POLLIN)
        for fd in self.by_fd:
            self.poller.register(fd, select.POLLIN)
        for _edge, channel in self.local:
            channel.bell = self.bell

    def close(self) -> None:
        for _edge, channel in self.local:
            channel.bell = None
        self.bell.close()


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

    ``stop`` is the run's stop flag (``is_set`` / ``set`` / ``wait``),
    shared with whoever else must be able to end the run.  With
    ``record_spans`` every ``call_`` and every send on a remote edge
    appends a ``(resource, owner, start_us, end_us)`` tuple — µs since
    ``epoch`` — to :attr:`compute_spans` / :attr:`transfer_spans`.

    ``alt_`` — the Transputer ALT — *blocks*: channels with a file
    descriptor are waited on with one ``poll`` per calling thread, and
    in-process queues ring that thread's doorbell (an eventfd) when a
    packet lands, so a farm master sleeps until a result exists.  Only
    channels offering neither keep a bounded polling tick.
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
        poll_s: float = 0.05,
        epoch: Optional[float] = None,
        record_spans: bool = False,
    ):
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
        #: ``recv_``/``alt_`` — have nothing to walk.
        self._batching = [
            channel for channel in self._remote.values()
            if hasattr(channel, "try_flush")
        ]
        self._local: Dict[str, _LocalChannel] = {}
        self._lock = threading.Lock()
        #: Per-thread ALT state (``waiter``), built on first use.
        self._tls = threading.local()
        self.stop = threading.Event() if stop is None else stop
        self._queue_size = queue_size
        self._poll_s = poll_s
        self._epoch = time.perf_counter() if epoch is None else epoch
        self._record_spans = record_spans
        self._threads: List[threading.Thread] = []
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
                waiter = getattr(self._tls, "waiter", None)
                if waiter is not None:
                    waiter.close()

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
        while True:
            if self.stop.is_set():
                raise Shutdown
            try:
                channel.put(value, timeout=self._poll_s)
                break
            except queue.Full:
                self._flush_thread_pending()
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
        channel = self.channel(edge)
        # About to wait: whatever this thread still holds in pending
        # batches (a router receives on one edge and sends on others)
        # must go out *before* blocking — flushing only after the first
        # timeout would hold every reply hostage for a full poll tick.
        self._flush_thread_pending()
        while True:
            if self.stop.is_set():
                raise Shutdown
            try:
                return channel.get(timeout=self._poll_s)
            except queue.Empty:
                self._flush_thread_pending()

    def try_recv_(self, edge: str) -> Any:
        """Non-blocking receive: raises ``queue.Empty`` when idle.

        Not used by generated executives; the fault supervisor polls
        with it so one thread can watch several channels *and* run
        timeout scans between polls.
        """
        if self.stop.is_set():
            raise Shutdown
        self._flush_thread_pending()
        return self.channel(edge).get_nowait()

    def try_send_(self, edge: str, value: Any) -> None:
        """Non-blocking send: raises ``queue.Full``, value not enqueued.

        Not used by generated executives; the supervisor's re-dispatch
        and the realtime admission pump send with it from threads that
        must never park behind a slow consumer.
        """
        self.channel(edge).put_nowait(value)

    def stop_(self, edge: str) -> None:
        self.send_(edge, self.stop_token)

    def alt_(self, edges: List[str]) -> Tuple[str, Any]:
        """Wait for a message on any of ``edges`` (the Transputer ALT)."""
        self._flush_thread_pending()  # publish before waiting, as in recv_
        waiter = self._waiter(edges)
        if waiter is None:
            return self._alt_tick(edges)
        bell = waiter.bell
        timeout_ms = self._poll_s * 1000.0
        while True:
            if self.stop.is_set():
                raise Shutdown
            bell.armed = True  # before the scan: see _Doorbell
            for edge, channel in waiter.local:
                try:
                    value = channel.get_nowait()
                except queue.Empty:
                    continue
                bell.armed = False
                return edge, value
            ready = waiter.poller.poll(timeout_ms)
            bell.armed = False
            for fd, _event in ready:
                entry = waiter.by_fd.get(fd)
                if entry is None:
                    bell.clear()
                    continue
                try:
                    return entry[0], entry[1].get_nowait()
                except queue.Empty:
                    continue  # readiness without a whole packet
            if not ready:
                self._flush_thread_pending()

    def _waiter(self, edges: List[str]) -> Optional[_Waiter]:
        """This thread's blocking-ALT state for ``edges``, or None when
        one of the channels can neither be polled nor ring a doorbell."""
        key = tuple(edges)
        waiter = getattr(self._tls, "waiter", None)
        if waiter is not None and waiter.edges == key:
            return waiter
        channels = [self.channel(edge) for edge in edges]
        if not all(isinstance(channel, _LocalChannel)
                   or hasattr(channel, "fileno") for channel in channels):
            return None
        if waiter is not None:
            waiter.close()
        waiter = self._tls.waiter = _Waiter(key, channels)
        return waiter

    def _alt_tick(self, edges: List[str]) -> Tuple[str, Any]:
        """ALT over channels with nothing to block on (the ring
        transport): scan them all on a bounded tick."""
        channels = [(edge, self.channel(edge)) for edge in edges]
        while True:
            if self.stop.is_set():
                raise Shutdown
            for edge, channel in channels:
                try:
                    return edge, channel.get_nowait()
                except queue.Empty:
                    continue
            self._flush_thread_pending()
            time.sleep(0.0002)

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

    grain_ = staticmethod(grain)

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
                time.sleep(0.0002)

    # -- host-side helpers -----------------------------------------------------

    def local_threads(self) -> List[threading.Thread]:
        """The executive threads actually started in this interpreter."""
        return list(self._threads)

    def release(self) -> None:
        """Shutdown hook: let every remote channel reclaim what its
        receiver never claimed (it crashed, or the run stopped first)."""
        for channel in self._remote.values():
            release = getattr(channel, "release", None)
            if release is not None:
                release()
