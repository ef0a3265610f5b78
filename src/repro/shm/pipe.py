"""PipeChannel: a bounded SPSC channel that writes from the sending thread.

An OS pipe carries length-prefixed pickles and a semaphore bounds the
messages in flight.  The sending thread writes the pipe itself (no
feeder thread), and the read end is a plain descriptor a selector can
wait on (:meth:`fileno`), which lets the kernel's ALT block.

Nothing ever waits inside a write: the read end of a SIGKILLed reader
stays open in every sibling, and a blocking write to its full pipe
would park the sender forever.  A message of at most ``PIPE_BUF`` bytes
goes through the pipe in one *atomic* non-blocking write — POSIX: all
of it or ``EAGAIN``, never a part.  Anything larger is *spilled* into a
mapped *slot* under ``/dev/shm`` (the temporary directory elsewhere),
and only its serial and length cross the pipe.  So a sender waits only
on the semaphore, with the caller's timeout, seeing the stop flag.

Spill serial ``s`` goes into slot ``s % maxsize``: one file per slot,
opened and mapped once per process, grown (``posix_fallocate``, then a
fresh mapping) when a message is longer than the mapping.  No lock
guards a slot: ``put`` holds one of the ``maxsize`` semaphore units
while it writes, and ``get`` returns its unit only after copying the
message out, so when serial ``s`` is written at most ``maxsize - 1``
messages are unread, serial ``s - maxsize`` is not among them, and its
slot is free.  Pages are reserved before anything is written through
the mapping, so a full ``/dev/shm`` is ``OSError(ENOSPC)``, not SIGBUS.

Buffers of a page or more inside a message — a frame, the pixels of an
``Image``, at any nesting — travel *out of band* (pickle protocol 5):
the slot holds ``index | pickle | raw buffers``, and the consumer
copies it into one ``bytearray`` and rebuilds the arrays over its
slices (writable, owned, never aliasing a reused slot).  Slot files
carry the channel's prefix, so :meth:`destroy` — the parent, once every
worker is gone — reclaims them, whatever a killed consumer left.

Single-producer/single-consumer, as :class:`~repro.shm.channel.
RingChannel`: a process-graph edge has one source and one sink thread.
"""

from __future__ import annotations

import glob
import mmap
import os
import pickle
import queue
import select
import struct
import tempfile
import time
import uuid
from typing import Any, Dict, List, Optional

__all__ = ["PipeChannel"]

#: Frame header: body length, low bit of the flags byte = spilled.
_HEADER = struct.Struct("<IB")
#: Body of a spilled frame: the spill serial and the message's length.
_SPILL = struct.Struct("<QQ")
#: Largest pickle that still travels inside the pipe.
_INLINE_MAX = select.PIPE_BUF - _HEADER.size
#: Slot index: the part count, then one length per part.
_COUNT = struct.Struct("<I")


def _spill_directory() -> str:
    return "/dev/shm" if os.path.isdir("/dev/shm") else tempfile.gettempdir()


def _wait(fd: int, event: int, deadline: Optional[float]) -> bool:
    """Block until ``fd`` reports ``event`` or the deadline passes."""
    if deadline is None:
        timeout_ms = None
    else:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return False
        timeout_ms = remaining * 1000.0
    poller = select.poll()
    poller.register(fd, event)
    return bool(poller.poll(timeout_ms))


class PipeChannel:
    """One intra-host edge over a pipe and a counting semaphore."""

    def __init__(self, ctx: Any, maxsize: int):
        self._reader, self._writer = ctx.Pipe(duplex=False)
        # O_NONBLOCK lives on the open file description, so every
        # process that inherits or receives these ends sees it.
        os.set_blocking(self._reader.fileno(), False)
        os.set_blocking(self._writer.fileno(), False)
        self._maxsize = maxsize
        self._slots = ctx.BoundedSemaphore(maxsize)
        self._spill_prefix = os.path.join(
            _spill_directory(), f"repro-pipe-{uuid.uuid4().hex}-")
        self._spilled = 0
        #: This process's mapping of each slot it has touched.
        self._mapped: Dict[int, mmap.mmap] = {}
        #: ``time.perf_counter()`` when the last ``put`` got its slot —
        #: where the back-pressure wait ends and the move begins.
        self.accepted_at = 0.0

    def __getstate__(self):
        return (self._reader, self._writer, self._maxsize, self._slots,
                self._spill_prefix)

    def __setstate__(self, state):
        (self._reader, self._writer, self._maxsize, self._slots,
         self._spill_prefix) = state
        self._spilled = 0
        self._mapped = {}
        self.accepted_at = 0.0

    def fileno(self) -> int:
        """The read end: readable exactly when ``get_nowait`` succeeds."""
        return self._reader.fileno()

    def _slot(self, serial: int, size: int) -> mmap.mmap:
        """Serial ``serial``'s slot, mapped at least ``size`` bytes long."""
        slot = serial % self._maxsize
        mapped = self._mapped.get(slot)
        if mapped is None or len(mapped) < size:
            fd = os.open(f"{self._spill_prefix}{slot}",
                         os.O_CREAT | os.O_RDWR, 0o600)
            try:
                os.posix_fallocate(fd, 0, size)  # ENOSPC here, not SIGBUS
                grown = mmap.mmap(fd, size)
            finally:
                os.close(fd)
            if mapped is not None:
                mapped.close()
            self._mapped[slot] = mapped = grown
        return mapped

    # -- producer --------------------------------------------------------------

    def _spill(self, parts: List[Any]) -> bytes:
        """Copy an oversized message into its slot; returns the frame."""
        serial = self._spilled
        index = _COUNT.pack(len(parts)) + struct.pack(
            f"<{len(parts)}Q", *(len(part) for part in parts))
        total = len(index) + sum(len(part) for part in parts)
        with memoryview(self._slot(serial, total)) as view:
            offset = 0
            for part in (index, *parts):
                view[offset:offset + len(part)] = part
                offset += len(part)
        self._spilled += 1
        return _HEADER.pack(_SPILL.size, 1) + _SPILL.pack(serial, total)

    def _frame(self, value: Any) -> bytes:
        """What crosses the pipe for ``value``: the pickle itself, or
        the descriptor of the slot now holding it."""
        large: List[memoryview] = []

        def in_band(buffer: pickle.PickleBuffer) -> bool:
            raw = buffer.raw()
            if len(raw) < select.PIPE_BUF:
                return True
            large.append(raw)
            return False

        body = pickle.dumps(value, protocol=5, buffer_callback=in_band)
        if large or len(body) > _INLINE_MAX:
            return self._spill([memoryview(body), *large])
        return _HEADER.pack(len(body), 0) + body

    def _put(self, value: Any, deadline: Optional[float]) -> None:
        if deadline is None:
            self._slots.acquire()
        elif not self._slots.acquire(
                True, max(0.0, deadline - time.monotonic())):
            raise queue.Full
        self.accepted_at = time.perf_counter()
        serial = self._spilled
        try:
            frame = self._frame(value)
        except BaseException:
            self._slots.release()  # unpicklable value, full /dev/shm
            raise
        fd = self._writer.fileno()
        while True:
            try:
                os.write(fd, frame)  # <= PIPE_BUF: all of it or EAGAIN
                return
            except BlockingIOError:
                # Only with more than a pipe's worth of slots (a
                # ``queue_size`` above 16): wait for the reader.
                if _wait(fd, select.POLLOUT, deadline):
                    continue
                self._slots.release()
                self._spilled = serial  # its slot is free again
                raise queue.Full from None

    def put(self, value: Any, timeout: Optional[float] = None) -> None:
        """Enqueue ``value``; ``queue.Full`` after ``timeout`` seconds.

        ``queue.Full`` is only raised with the value NOT enqueued, so a
        retry loop never duplicates a packet.
        """
        self._put(value,
                  None if timeout is None else time.monotonic() + timeout)

    def put_nowait(self, value: Any) -> None:
        self._put(value, 0.0)

    # -- consumer --------------------------------------------------------------

    def _fetch(self, descriptor: bytes) -> List[memoryview]:
        """The parts of a spilled message: its pickle, then the buffers
        that travelled raw — slices of one writable ``bytearray``."""
        serial, total = _SPILL.unpack(descriptor)
        with memoryview(self._slot(serial, total)) as view:
            data = memoryview(bytearray(view[:total]))
        (count,) = _COUNT.unpack_from(data)
        parts, offset = [], _COUNT.size + 8 * count
        for size in struct.unpack_from(f"<{count}Q", data, _COUNT.size):
            parts.append(data[offset:offset + size])
            offset += size
        return parts

    def _get(self, deadline: Optional[float]) -> Any:
        fd = self._reader.fileno()
        while True:
            try:
                header = os.read(fd, _HEADER.size)
                break
            except BlockingIOError:
                if not _wait(fd, select.POLLIN, deadline):
                    raise queue.Empty from None
        if not header:
            raise EOFError("pipe channel: every write end is closed")
        # Frames are written whole, so the body is already there.
        size, flags = _HEADER.unpack(header)
        body, buffers = os.read(fd, size), ()
        if flags & 1:
            body, *buffers = self._fetch(body)
        # Only now: the message's slot is copied out and free for reuse.
        self._slots.release()
        return pickle.loads(body, buffers=buffers)

    def get(self, timeout: Optional[float] = None) -> Any:
        return self._get(
            None if timeout is None else time.monotonic() + timeout)

    def get_nowait(self) -> Any:
        return self._get(0.0)

    # -- lifecycle -------------------------------------------------------------

    def destroy(self) -> None:
        """Close, unmap and remove the slots (creator-side, last)."""
        self._reader.close()
        self._writer.close()
        for mapped in self._mapped.values():
            mapped.close()
        self._mapped.clear()
        for path in glob.glob(glob.escape(self._spill_prefix) + "*"):
            try:
                os.unlink(path)
            except FileNotFoundError:  # pragma: no cover - lost a race
                pass
