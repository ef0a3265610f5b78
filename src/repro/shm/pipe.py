"""PipeChannel: a bounded SPSC channel that writes from the sending thread.

The ``queue`` transport used to hand every edge a
``multiprocessing.Queue``: ``put`` appends to a process-local deque, a
*feeder thread* per queue pickles and writes it, and ``get_nowait``
builds a fresh selector to ask whether the pipe is readable — four GIL
hand-offs and a lock pair per packet for an edge that has exactly one
producer thread and one consumer thread.  This channel keeps the two
parts of that design that matter — an OS pipe carrying length-prefixed
pickles, a semaphore bounding the packets in flight — and drops the
rest: the sending thread writes the pipe itself, and the reading end is
a plain file descriptor a selector can wait on (:meth:`fileno`), which
is what lets the kernel's ALT block instead of sleep-polling.

What the feeder thread used to hide is a write that does not fit: a
pipe holds 64 KB, the read end of a SIGKILLed reader stays open in
every sibling, and a blocking write to it parks the sender forever.
Here nothing ever waits inside a write.  A message of at most
``PIPE_BUF`` bytes goes through the pipe in one *atomic* non-blocking
write — POSIX: all of it or ``EAGAIN``, never a part — and anything
larger is *spilled*: the message goes into a file of its own under
``/dev/shm`` (RAM-backed; the system's temporary directory elsewhere)
and only a descriptor crosses the pipe.  The consumer reads the file
and unlinks it.  So the only place a sender waits is the semaphore, with
the caller's timeout, and its retry loop keeps observing the stop flag.

Large buffers inside a message — a frame, the pixels of an ``Image``,
however deeply nested — never enter the pickle at all: protocol 5 hands
them over *out of band*, the spill file is ``index | pickle | raw
buffers`` written with one ``writev`` straight from the arrays' memory,
and the consumer rebuilds the arrays over slices of the one
``bytearray`` it read the file into.  A 256 KB frame therefore costs
two copies, where the pickle alone used to make two more and the pipe
four 64 KB round trips between two processes' GILs.  Spill files carry
the channel's own prefix, so :meth:`destroy` — the parent, once every
worker is gone — reclaims whatever a killed consumer never read.

Single-producer/single-consumer per channel is assumed, as for
:class:`~repro.shm.channel.RingChannel`: one process-graph edge has one
source thread and one destination thread.
"""

from __future__ import annotations

import glob
import os
import pickle
import queue
import select
import struct
import tempfile
import time
import uuid
from typing import Any, List, Optional

__all__ = ["PipeChannel"]

#: Frame header: body length, low bit of the flags byte = spilled.
_HEADER = struct.Struct("<IB")
#: Body of a spilled frame: the spill file's serial number.
_SPILL = struct.Struct("<Q")
#: Largest pickle that still travels inside the pipe.
_INLINE_MAX = select.PIPE_BUF - _HEADER.size
#: Spill-file index: the part count, then one length per part.
_COUNT = struct.Struct("<I")
#: Most buffers one ``writev`` takes (POSIX guarantees at least 16).
_IOV_MAX = os.sysconf("SC_IOV_MAX")


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
        self._slots = ctx.BoundedSemaphore(maxsize)
        self._spill_prefix = os.path.join(
            _spill_directory(), f"repro-pipe-{uuid.uuid4().hex}-")
        self._spilled = 0
        #: ``time.perf_counter()`` when the last ``put`` got its slot —
        #: where the back-pressure wait ends and the move begins.
        self.accepted_at = 0.0

    def __getstate__(self):
        return (self._reader, self._writer, self._slots, self._spill_prefix)

    def __setstate__(self, state):
        (self._reader, self._writer, self._slots,
         self._spill_prefix) = state
        self._spilled = 0
        self.accepted_at = 0.0

    def fileno(self) -> int:
        """The read end: readable exactly when ``get_nowait`` succeeds."""
        return self._reader.fileno()

    # -- producer --------------------------------------------------------------

    def _spill_path(self, serial: int) -> str:
        return f"{self._spill_prefix}{serial}"

    def _spill(self, parts: List[Any]) -> bytes:
        """Park an oversized message in its own file; returns the frame."""
        serial = self._spilled
        path = self._spill_path(serial)
        index = _COUNT.pack(len(parts)) + struct.pack(
            f"<{len(parts)}Q", *(len(part) for part in parts))
        pending = [memoryview(index), *parts]
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o600)
        try:
            while pending:  # a full /dev/shm raises ENOSPC, never truncates
                written = os.writev(fd, pending[:_IOV_MAX])
                while pending and written >= len(pending[0]):
                    written -= len(pending.pop(0))
                if written:
                    pending[0] = pending[0][written:]
        except BaseException:
            os.unlink(path)
            raise
        finally:
            os.close(fd)
        self._spilled += 1
        return _HEADER.pack(_SPILL.size, 1) + _SPILL.pack(serial)

    def _frame(self, value: Any) -> bytes:
        """What crosses the pipe for ``value``: the pickle itself, or
        the descriptor of the spill file now holding it."""
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
                if self._spilled != serial:
                    self._spilled = serial
                    os.unlink(self._spill_path(serial))
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
        path = self._spill_path(*_SPILL.unpack(descriptor))
        try:
            with open(path, "rb", buffering=0) as handle:
                data = memoryview(bytearray(os.fstat(handle.fileno()).st_size))
                handle.readinto(data)
        finally:
            os.unlink(path)
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
        # Only now: an unread spill file always belongs to one of the
        # last ``maxsize`` frames.
        self._slots.release()
        return pickle.loads(body, buffers=buffers)

    def get(self, timeout: Optional[float] = None) -> Any:
        return self._get(
            None if timeout is None else time.monotonic() + timeout)

    def get_nowait(self) -> Any:
        return self._get(0.0)

    # -- lifecycle -------------------------------------------------------------

    def destroy(self) -> None:
        """Close both ends and reclaim unread spill files (creator-side,
        once every process using the channel is gone)."""
        self._reader.close()
        self._writer.close()
        for path in glob.glob(glob.escape(self._spill_prefix) + "*"):
            try:
                os.unlink(path)
            except FileNotFoundError:  # pragma: no cover - lost a race
                pass
