"""PipeChannel: a bounded SPSC channel that writes from the sending thread.

An OS pipe carries length-prefixed pickles and a second pipe holds the
*credits* that bound the messages in flight.  The sending thread writes
the data pipe itself (no feeder thread), and both read ends are plain
descriptors a ``poll`` can wait on: :meth:`fileno` is readable while a
message waits, :meth:`room_fileno` while a credit does.  So a kernel
thread parked on either side sleeps until the other side moves or the
run's stop is raised — never on a timer.

The credit pipe starts with ``maxsize`` bytes in it.  ``put`` reads one
byte (a credit) before it writes; ``get`` writes one back.  Only the
producer reads credits and only the consumer returns them, and both
ends are non-blocking, so a credit is one syscall with no lock to
poison: a producer whose reader was SIGKILLed finds no credit, parks on
:meth:`room_fileno` beside the stop, and unwinds on the stop.

Nothing ever waits inside a write: the read end of a SIGKILLed reader
stays open in every sibling, and a blocking write to its full pipe
would park the sender forever.  A message of at most ``PIPE_BUF`` bytes
goes through the pipe in one *atomic* non-blocking write — POSIX: all
of it or ``EAGAIN``, never a part.  Anything larger is *spilled* into a
mapped *slot* under ``/dev/shm`` (the temporary directory elsewhere),
and only its serial and length cross the pipe.  So a sender waits only
for a credit.  (With a ``maxsize`` above 16 the data pipe itself can
fill first: the write is refused, and the producer then holds every
credit it can see, so :meth:`room_fileno` turns readable with the next
``get`` — the one that makes room in the pipe — instead of at once.)

Spill serial ``s`` goes into slot ``s % maxsize``: one file per slot,
opened and mapped once per process, grown (``posix_fallocate``, then a
fresh mapping) when a message is longer than the mapping.  No lock
guards a slot: ``put`` holds one of the ``maxsize`` credits while it
writes, and ``get`` gives its credit back only after copying the
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
from multiprocessing.context import assert_spawning
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
    """One intra-host edge over a data pipe and a credit pipe."""

    def __init__(self, ctx: Any, maxsize: int):
        if not 1 <= maxsize <= select.PIPE_BUF:
            raise ValueError(
                f"maxsize must be 1..{select.PIPE_BUF}, got {maxsize}")
        self._reader, self._writer = ctx.Pipe(duplex=False)
        self._credits, self._refund = ctx.Pipe(duplex=False)
        # O_NONBLOCK lives on the open file description, so every
        # process that inherits or receives these ends sees it.
        for end in (self._reader, self._writer, self._credits,
                    self._refund):
            os.set_blocking(end.fileno(), False)
        os.write(self._refund.fileno(), bytes(maxsize))
        self._maxsize = maxsize
        self._spill_prefix = os.path.join(
            _spill_directory(), f"repro-pipe-{uuid.uuid4().hex}-")
        self._reset_process_state()

    def _reset_process_state(self) -> None:
        self._spilled = 0
        #: Credits the producer took out of the pipe and holds (only
        #: after the data pipe refused a write: see the module docstring).
        self._held = 0
        #: This process's mapping of each slot it has touched.
        self._mapped: Dict[int, mmap.mmap] = {}
        #: ``time.perf_counter()`` when the last ``put`` got its credit —
        #: where the back-pressure wait ends and the move begins.
        self.accepted_at = 0.0

    def __getstate__(self):
        # Descriptors cross by inheritance or with a spawned process's
        # arguments; anywhere else a pickle would need a resource sharer.
        assert_spawning(self)
        return (self._reader, self._writer, self._credits, self._refund,
                self._maxsize, self._spill_prefix)

    def __setstate__(self, state):
        (self._reader, self._writer, self._credits, self._refund,
         self._maxsize, self._spill_prefix) = state
        self._reset_process_state()

    def fileno(self) -> int:
        """The read end: readable exactly when ``get_nowait`` succeeds."""
        return self._reader.fileno()

    def room_fileno(self) -> int:
        """The credit pipe's read end: readable exactly when a ``put``
        would get a credit (save the full-pipe case above)."""
        return self._credits.fileno()

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

    def _take_credit(self, deadline: Optional[float]) -> bool:
        if self._held:
            self._held -= 1
            return True
        fd = self._credits.fileno()
        while True:
            try:
                os.read(fd, 1)
                return True
            except BlockingIOError:
                if not _wait(fd, select.POLLIN, deadline):
                    return False

    def _hold_credits(self) -> None:
        """The data pipe is full: hold the credit in hand and every one
        left in the pipe, until a ``get`` makes room (and refunds)."""
        self._held += 1
        try:
            self._held += len(os.read(self._credits.fileno(),
                                      self._maxsize))
        except BlockingIOError:
            pass

    def _put(self, value: Any, deadline: Optional[float]) -> None:
        if not self._take_credit(deadline):
            raise queue.Full
        self.accepted_at = time.perf_counter()
        serial = self._spilled
        try:
            frame = self._frame(value)
        except BaseException:  # unpicklable value, full /dev/shm
            os.write(self._refund.fileno(), b"\0")
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
                self._hold_credits()
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
        os.write(self._refund.fileno(), b"\0")
        return pickle.loads(body, buffers=buffers)

    def get(self, timeout: Optional[float] = None) -> Any:
        return self._get(
            None if timeout is None else time.monotonic() + timeout)

    def get_nowait(self) -> Any:
        return self._get(0.0)

    # -- lifecycle -------------------------------------------------------------

    def destroy(self) -> None:
        """Close, unmap and remove the slots (creator-side, last)."""
        for end in (self._reader, self._writer, self._credits,
                    self._refund):
            end.close()
        for mapped in self._mapped.values():
            mapped.close()
        self._mapped.clear()
        for path in glob.glob(glob.escape(self._spill_prefix) + "*"):
            try:
                os.unlink(path)
            except FileNotFoundError:  # pragma: no cover - lost a race
                pass
