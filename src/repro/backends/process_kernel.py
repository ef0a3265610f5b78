"""The kernel primitives on OS processes: SKiPPER's port story, realised.

"The code of these primitives ... is the only platform-dependent part of
the programming environment, making it highly portable" (§3).  This
module is the second port of the primitive set (after the reference
:class:`~repro.codegen.kernel.ThreadKernel`): the same generated
executive, unchanged, runs with *true* parallelism — one OS process per
mapped processor, so CPU-bound sequential functions escape the GIL.

Topology: the parent creates one bounded channel per inter-processor
edge (built by the selected transport — a pipe channel by default) and
a shared stop flag; every worker process loads the full generated
executive, but :meth:`ProcessKernel.spawn_` only starts the threads of
the logical processes mapped onto *its* processor (co-located processes
communicate through plain in-process queues, exactly like the thread
kernel).  Large numpy payloads cross processor boundaries through POSIX
shared memory instead of pickle.

``alt_`` — the Transputer ALT — *blocks*: remote channels that expose a
file descriptor are waited on with one ``poll`` per calling thread, and
local queues ring that thread's doorbell (an eventfd) when a packet
lands, so a farm master sleeps until a result exists instead of
sleep-polling every collect edge.  To be waited on this way a channel
needs only ``fileno()`` (readable while ``get_nowait`` can make
progress); channels without one — the ``ring`` transport — keep a
bounded polling tick.
"""

from __future__ import annotations

import os
import queue
import select
import threading
import time
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from ..codegen.kernel import Shutdown, Stop
from ..machine.trace import Span
from ..shm.channel import RingChannel

try:  # numpy is a hard dependency of the repo, but stay import-safe.
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

__all__ = ["SHM_MIN_BYTES", "ProcessKernel"]

#: Below this payload size the pickle path is cheaper than a shared
#: memory segment (creation + two mappings); measured crossover is in
#: the tens of kilobytes on Linux.
SHM_MIN_BYTES = 1 << 16


class _ShmRef:
    """Wire descriptor of a numpy payload parked in shared memory."""

    __slots__ = ("name", "shape", "dtype")

    def __init__(self, name: str, shape: Tuple[int, ...], dtype: str):
        self.name = name
        self.shape = shape
        self.dtype = dtype

    def __getstate__(self):
        return (self.name, self.shape, self.dtype)

    def __setstate__(self, state):
        self.name, self.shape, self.dtype = state

    def __repr__(self) -> str:
        return f"<shm {self.name} {self.dtype}{list(self.shape)}>"


def _shm_pack(value: Any, threshold: int, owned: Optional[set] = None) -> Any:
    """Park large numpy arrays in shared memory; pass anything else through.

    ``owned`` collects the segment names this sender has created but not
    yet seen claimed: ownership normally transfers to the receiver (it
    unlinks after attaching), but a receiver that dies — or a run torn
    down — before attaching would leak the segment forever.  The kernel
    unlinks everything still in ``owned`` at shutdown; double unlinks
    are harmless (``FileNotFoundError`` is swallowed on both sides).
    """
    if (
        _np is None
        or _shared_memory is None
        or not isinstance(value, _np.ndarray)
        or value.dtype.hasobject
        or value.nbytes < threshold
    ):
        return value
    segment = _shared_memory.SharedMemory(create=True, size=value.nbytes)
    view = _np.ndarray(value.shape, dtype=value.dtype, buffer=segment.buf)
    view[...] = value
    ref = _ShmRef(segment.name, value.shape, value.dtype.str)
    # Ownership transfers to the receiver (it unlinks after attaching);
    # unregister here so this process's resource tracker does not warn
    # about — or double-unlink — a segment it no longer owns.
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:
        pass
    segment.close()
    if owned is not None:
        owned.add(ref.name)
    return ref


def _shm_unpack(value: Any) -> Any:
    """Materialise a shared-memory payload; pass anything else through."""
    if not isinstance(value, _ShmRef):
        return value
    try:
        segment = _shared_memory.SharedMemory(name=value.name)
    except FileNotFoundError:
        # The sender reclaimed the segment at shutdown before we could
        # attach: the run is being torn down, unwind this thread.
        raise Shutdown
    try:
        arr = _np.ndarray(
            value.shape, dtype=_np.dtype(value.dtype), buffer=segment.buf
        ).copy()
    finally:
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass
    return arr


class _RemoteStub:
    """Stand-in for an executive thread this process does not run:
    hosted by another OS process, or a router fused away."""

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


class ProcessKernel:
    """Kernel primitives for one worker process (one mapped processor).

    Instantiated *inside* each worker by the processes backend; the
    shared plumbing (``remote_channels``, ``stop_event``) is created by
    the parent and inherited/pickled across.  ``placement`` maps
    generated thread names to processor ids so :meth:`spawn_` can skip
    processes that belong elsewhere.
    """

    def __init__(
        self,
        processor: str,
        *,
        placement: Dict[str, str],
        remote_channels: Dict[str, Any],
        stop_event: Any,
        queue_size: int = 4,
        poll_s: float = 0.05,
        epoch: float = 0.0,
        shm_threshold: int = SHM_MIN_BYTES,
        record_spans: bool = True,
        edge_aliases: Optional[Dict[str, str]] = None,
        fused_threads: FrozenSet[str] = frozenset(),
    ):
        self.processor = processor
        self.placement = placement
        self._remote = remote_channels
        #: Fused routers (see ``fused_routers`` in the processes
        #: backend): the edge on the worker's side of an identity
        #: router resolves to the channel on its far side, and the
        #: router's thread is never started.
        self._aliases = edge_aliases or {}
        self._fused = fused_threads
        #: The remote channels that batch (see the back-stops below);
        #: none on the default transport, so its flush sweeps — one per
        #: ``recv_``/``alt_`` — have nothing to walk.
        self._rings = [
            channel for channel in remote_channels.values()
            if isinstance(channel, RingChannel)
        ]
        self._local: Dict[str, _LocalChannel] = {}
        self._local_lock = threading.Lock()
        #: Per-thread ALT state (``waiter``), built on first use.
        self._tls = threading.local()
        self._stop_event = stop_event
        self._queue_size = queue_size
        self._poll_s = poll_s
        self._epoch = epoch
        self._shm_threshold = shm_threshold
        self._record_spans = record_spans
        self._threads: List[threading.Thread] = []
        #: Names of shm segments created here and possibly never claimed.
        self._owned_shm: set = set()
        self.stop_token = Stop()
        self.blackboard: Dict[str, Any] = {}
        #: Wall-clock compute spans (µs since the shared epoch).
        self.compute_spans: List[Span] = []
        #: Wall-clock occupancy of the outgoing inter-processor channels.
        self.transfer_spans: List[Span] = []

    # -- primitives ------------------------------------------------------------

    def channel(self, edge: str):
        edge = self._aliases.get(edge, edge)
        channel = self._remote.get(edge)
        if channel is None:
            channel = self._local.get(edge)
        if channel is None:
            with self._local_lock:
                channel = self._local.get(edge)
                if channel is None:
                    channel = self._local[edge] = _LocalChannel(
                        maxsize=self._queue_size)
        return channel

    def spawn_(self, name: str, body: Callable[[], None]):
        if (self.placement.get(name, self.processor) != self.processor
                or name in self._fused):
            return _RemoteStub(name)

        def runner() -> None:
            try:
                body()
            except Shutdown:
                pass
            finally:
                # A one-shot thread may exit right after a send that the
                # ring channel merely *accepted into its pending batch*;
                # drain it now or the packet would be stranded forever.
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
        remote = edge in self._remote
        if remote:
            if not isinstance(channel, RingChannel):
                # Ring channels skip the _ShmRef detour: the tag codec
                # writes arrays straight into the slot (or the overflow
                # side-channel), so packing here would only add a copy.
                value = _shm_pack(value, self._shm_threshold, self._owned_shm)
            start = time.perf_counter()
        while True:
            if self._stop_event.is_set():
                raise Shutdown
            try:
                channel.put(value, timeout=self._poll_s)
                break
            except queue.Full:
                self._flush_thread_pending()
                continue
        if remote and self._record_spans:
            end = time.perf_counter()
            # The span times the move, not the back-pressure: a channel
            # that knows when it accepted the packet (after the wait
            # for a free slot) says so.
            start = max(start, getattr(channel, "accepted_at", start))
            self.transfer_spans.append(
                Span(
                    edge,
                    threading.current_thread().name,
                    (start - self._epoch) * 1e6,
                    (end - self._epoch) * 1e6,
                )
            )

    def recv_(self, edge: str) -> Any:
        channel = self.channel(edge)
        # About to wait: whatever this thread still holds in pending
        # batches (a router receives on one edge and sends on others)
        # must go out *before* blocking — flushing only after the first
        # timeout would hold every reply hostage for a full poll tick.
        self._flush_thread_pending()
        while True:
            if self._stop_event.is_set():
                raise Shutdown
            try:
                return _shm_unpack(channel.get(timeout=self._poll_s))
            except queue.Empty:
                self._flush_thread_pending()
                continue

    def try_recv_(self, edge: str) -> Any:
        """Non-blocking receive: raises ``queue.Empty`` when idle.

        Not used by generated executives; the fault supervisor polls
        with it so one thread can watch several channels *and* run
        timeout scans between polls.
        """
        if self._stop_event.is_set():
            raise Shutdown
        self._flush_thread_pending()
        return _shm_unpack(self.channel(edge).get_nowait())

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
            if self._stop_event.is_set():
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
                    return entry[0], _shm_unpack(entry[1].get_nowait())
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
            if self._stop_event.is_set():
                raise Shutdown
            for edge, channel in channels:
                try:
                    return edge, _shm_unpack(channel.get_nowait())
                except queue.Empty:
                    continue
            self._flush_thread_pending()
            time.sleep(0.0002)

    def call_(self, func: Callable, *args: Any) -> Any:
        if not self._record_spans:
            return func(*args)
        start = time.perf_counter()
        try:
            return func(*args)
        finally:
            end = time.perf_counter()
            self.compute_spans.append(
                Span(
                    self.processor,
                    threading.current_thread().name,
                    (start - self._epoch) * 1e6,
                    (end - self._epoch) * 1e6,
                )
            )

    def is_stop(self, value: Any) -> bool:
        return isinstance(value, Stop)

    # -- batching back-stops ---------------------------------------------------
    #
    # A ring channel may *accept* a small packet into a process-local
    # pending batch instead of writing it through (Nagle-flavoured
    # coalescing).  These sweeps are the residency bound: every blocking
    # point flushes what the current thread still holds, and a thread
    # drains completely before it exits.  Only the owning thread ever
    # touches a channel's pending batch — the rings are strictly SPSC.

    def _thread_ring_channels(self) -> List[RingChannel]:
        ident = threading.get_ident()
        return [
            channel for channel in self._rings
            if channel.pending_owner == ident
        ]

    def _flush_thread_pending(self) -> None:
        """Best-effort flush of this thread's pending batches."""
        for channel in self._thread_ring_channels():
            if channel.has_pending:
                channel.try_flush()

    def _drain_thread_pending(self) -> None:
        """Blocking flush at thread exit; bails only on a raised stop."""
        for channel in self._thread_ring_channels():
            while channel.has_pending:
                if channel.try_flush():
                    break
                if self._stop_event.is_set():
                    return
                time.sleep(0.0002)

    # -- worker-side helpers ---------------------------------------------------

    def local_threads(self) -> List[threading.Thread]:
        """The executive threads actually started in this process."""
        return list(self._threads)

    def release_shm(self) -> None:
        """Unlink every shm segment this kernel created and still owns.

        Called at worker shutdown: segments whose receiver attached are
        already gone (``FileNotFoundError`` swallowed); segments whose
        receiver never attached — it crashed, or the run stopped first —
        would otherwise outlive the interpreter in ``/dev/shm``.
        """
        # Ring channels park oversized payloads in one-shot segments
        # with the same transfer-of-ownership contract: reclaim the
        # unclaimed ones too.
        for channel in self._rings:
            channel.release()
        if _shared_memory is None:
            return
        names, self._owned_shm = self._owned_shm, set()
        for name in names:
            try:
                segment = _shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue  # claimed by its receiver: the common case
            except Exception:  # pragma: no cover - platform oddities
                continue
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - lost race
                pass
