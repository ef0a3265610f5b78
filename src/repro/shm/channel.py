"""RingChannel: a queue-compatible channel over a shared-memory ring.

The channel speaks the same protocol as the bounded queues the process
kernel already uses — ``put(value, timeout)`` raising ``queue.Full``,
``get(timeout)`` / ``get_nowait()`` raising ``queue.Empty`` — so the
generated executive and the fault supervisor run on it unchanged.  Under
the hood every value takes one of three encodings into a fixed-size
slot:

* **codec** — the pickle-free tag codec of :mod:`repro.net.codec`
  (scalars, tuples/lists/dicts, numpy arrays, executive tokens);
* **pickle** — the fallback for exotic-but-picklable values, keeping
  parity with what a ``multiprocessing.Queue`` edge would accept;
* **overflow** — payloads larger than a slot are parked in a one-shot
  shared-memory segment and the slot carries only a descriptor, so the
  ring itself never allocates per packet.

Small codec/pickle packets additionally coalesce into batched frames
under the channel's :class:`~repro.shm.batch.BatchPolicy`; the consumer
splits a batch once and then drains it from a local inbox without
touching shared state again — the "iterate batches without re-entering
the scheduler per packet" half of the bargain.

Single-producer/single-consumer is assumed per channel (one process
graph edge has exactly one source thread and one destination thread);
``pending_owner`` records the producer thread so the kernel's
flush-at-blocking-point sweep never writes a channel from the wrong
thread.
"""

from __future__ import annotations

import os
import pickle
import queue
import struct
import threading
import time
from typing import Any, List, Optional, Set, Tuple

from ..codegen.kernel import Chunk
from ..net.codec import CodecError, encode, encoded_size
from ..net.codec import decode as codec_decode
from .batch import (
    BATCH_OVERHEAD,
    ENTRY_OVERHEAD,
    BatchPolicy,
    frame_entries,
    split_entries,
)
from .ring import Ring, RingError, RingHandle, create_ring

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

__all__ = [
    "F_CODEC",
    "F_PICKLE",
    "F_OVERFLOW",
    "F_BATCH",
    "ChannelError",
    "RingChannel",
]

# Slot / batch-entry flags (batch entries use only the low byte).
F_CODEC = 0x01     # payload is a tag-codec frame
F_PICKLE = 0x02    # payload is a pickle (exotic value fallback)
F_OVERFLOW = 0x04  # payload is an overflow descriptor, not the value
F_BATCH = 0x08     # payload is a batch frame of (flags, payload) entries

#: How often a blocked producer/consumer re-checks the ring.  A *timed*
#: sleep, deliberately: there is no futex to park on (lock-free is the
#: whole point), and ``sleep(0)`` yield-spinning keeps the waiter on
#: the runqueue stealing quanta from the peer that has actual work —
#: measurably slower on single-core hosts than parking for a tick.
_POLL_TICK_S = 0.0005

_DESC = struct.Struct("<I")  # overflow descriptor: name length prefix

try:  # numpy is a hard dependency of the repo, but stay import-safe.
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Containers the bounded array scan descends into; beyond this many
#: elements (or this depth) we assume scalar bulk and take pickle —
#: wrong only costs an array a pickle copy, never correctness.
_SCAN_WIDTH = 16
_SCAN_DEPTH = 4

#: Exact types that can never hold a buffer: the overwhelmingly common
#: case, settled with one set lookup (isinstance chains cost more than
#: the pickle they would gate).
_SCALARS = frozenset((int, float, bool, complex, str, type(None)))


def _carries_array(value: Any, depth: int = 0) -> bool:
    """Early-exit probe: does ``value`` contain a buffer worth the
    codec's zero-copy path (ndarray, bytes, bytearray, memoryview)?"""
    kind = type(value)
    if kind in _SCALARS:
        return False
    if kind is tuple or kind is list or kind is Chunk:
        if depth >= _SCAN_DEPTH:
            return False
        for element in value[:_SCAN_WIDTH]:
            if type(element) not in _SCALARS \
                    and _carries_array(element, depth + 1):
                return True
        return False
    if kind is dict:
        if depth >= _SCAN_DEPTH:
            return False
        for element in list(value.values())[:_SCAN_WIDTH]:
            if type(element) not in _SCALARS \
                    and _carries_array(element, depth + 1):
                return True
        return False
    if isinstance(value, (bytes, bytearray, memoryview)):
        return True
    if _np is not None and isinstance(
        value, (_np.ndarray, _np.generic)
    ):
        return True
    inner = getattr(value, "value", None)  # supervisor Packet and kin
    if inner is not None and type(value).__module__.startswith("repro."):
        return _carries_array(inner, depth + 1)
    return False


class ChannelError(RingError):
    """A value could not cross the ring channel."""


def _unlink_segment(name: str) -> None:
    """Best-effort unlink of one named segment (idempotent)."""
    if _shared_memory is None:  # pragma: no cover
        return
    try:
        segment = _shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    except Exception:  # pragma: no cover - platform oddities
        return
    # Attach registered the name; unlink() unregisters it — balanced,
    # so no explicit untrack (a double unregister makes the tracker
    # daemon print KeyError tracebacks).
    try:
        segment.close()
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - lost race
        pass


class RingChannel:
    """One intra-host edge over a preallocated shared-memory ring."""

    def __init__(
        self,
        handle: Optional[RingHandle] = None,
        *,
        slots: int = 64,
        slot_bytes: int = 16384,
        policy: Optional[BatchPolicy] = None,
        label: str = "",
    ):
        if handle is None:
            handle = create_ring(slots, slot_bytes)
            self._creator = True
        else:
            self._creator = False
        self.handle = handle
        self.label = label
        self.policy = policy or BatchPolicy()
        # A batch frame must fit one slot alongside its framing.
        self._batch_room = handle.slot_bytes - BATCH_OVERHEAD
        self._reset_process_state()

    # -- process-local state ---------------------------------------------------

    def _reset_process_state(self) -> None:
        self._pid: Optional[int] = None
        self._ring: Optional[Ring] = None
        #: Producer side: encoded-but-unflushed (flags, payload) entries.
        self._pending: List[Tuple[int, bytes]] = []
        self._pending_bytes = 0
        self._pending_since = 0.0
        #: Thread ident of the (single) producer thread, once known.
        self.pending_owner: Optional[int] = None
        #: Consumer side: decoded values from an already-split batch.
        self._inbox: List[Any] = []
        self._inbox_pos = 0
        #: Overflow segments created here and possibly never claimed.
        self._owned_overflow: Set[str] = set()
        # Telemetry (process-local, best effort).
        self.sent_packets = 0
        self.sent_slots = 0
        self.sent_batches = 0
        self.sent_overflows = 0
        self.received_packets = 0

    def __getstate__(self):
        return (self.handle, self.policy, self.label)

    def __setstate__(self, state):
        self.handle, self.policy, self.label = state
        self._creator = False
        self._batch_room = self.handle.slot_bytes - BATCH_OVERHEAD
        self._reset_process_state()

    @property
    def ring(self) -> Ring:
        """This process's attached ring view (fork/spawn safe)."""
        if self._ring is None or self._pid != os.getpid():
            self._ring = Ring(self.handle)
            self._pid = os.getpid()
        return self._ring

    # -- encoding --------------------------------------------------------------

    def _encode(self, value: Any) -> Tuple[int, List[Any], int]:
        """``(flags, buffers, total_bytes)`` for one value.

        The tag codec earns its keep on ndarrays (the payload bytes go
        into the slot without a pickle copy); on small scalar payloads
        its pure-Python traversal costs an order of magnitude more than
        C pickle, so array-free values take the pickle path.
        """
        if _carries_array(value):
            try:
                buffers = encode(value)
                return F_CODEC, buffers, encoded_size(buffers)
            except CodecError:
                pass
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        return F_PICKLE, [blob], len(blob)

    def _spill(self, buffers: List[Any], size: int) -> Tuple[bytes, str]:
        """Park an oversized payload in its own segment.

        Returns ``(descriptor, segment_name)``.  Ownership transfers to
        the consumer (it unlinks after copying); :meth:`release`
        reclaims segments whose consumer never attached, exactly like
        the kernel's large-array transfer path.
        """
        if _shared_memory is None:  # pragma: no cover
            raise ChannelError("shared memory unavailable for overflow")
        segment = _shared_memory.SharedMemory(create=True, size=max(1, size))
        pos = 0
        for part in buffers:
            view = part if isinstance(part, memoryview) else memoryview(part)
            if view.format != "B" or view.ndim != 1:
                view = view.cast("B")
            n = view.nbytes
            if n:
                segment.buf[pos:pos + n] = view
            pos += n
        name = segment.name
        segment.close()
        self._owned_overflow.add(name)
        self.sent_overflows += 1
        descriptor = _DESC.pack(len(name.encode("ascii"))) \
            + name.encode("ascii") + struct.pack("<Q", size)
        return descriptor, name

    def _fetch_overflow(self, descriptor: bytes) -> bytes:
        name_len = _DESC.unpack_from(descriptor, 0)[0]
        name = descriptor[_DESC.size:_DESC.size + name_len].decode("ascii")
        (size,) = struct.unpack_from("<Q", descriptor, _DESC.size + name_len)
        try:
            segment = _shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            raise ChannelError(
                f"overflow segment {name!r} vanished before the consumer "
                "attached (sender torn down mid-run?)"
            ) from None
        try:
            blob = bytes(segment.buf[:size])
        finally:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - double reclaim
                pass
        return blob

    def _decode(self, flags: int, payload: bytes) -> Any:
        if flags & F_OVERFLOW:
            payload = self._fetch_overflow(payload)
            flags &= ~F_OVERFLOW
        if flags == F_CODEC:
            return codec_decode(payload)
        if flags == F_PICKLE:
            return pickle.loads(payload)
        raise ChannelError(f"slot carries unknown flags {flags:#x}")

    # -- producer --------------------------------------------------------------

    @property
    def has_pending(self) -> bool:
        return bool(self._pending)

    def try_flush(self) -> bool:
        """Write the pending batch into the ring; True when drained."""
        pending = self._pending
        if not pending:
            return True
        if len(pending) == 1:
            flags, payload = pending[0]
            pushed = self.ring.try_push([payload], len(payload), flags)
        else:
            frame = frame_entries(pending)
            pushed = self.ring.try_push([frame], len(frame), F_BATCH)
            if pushed:
                self.sent_batches += 1
        if pushed:
            self.sent_slots += 1
            pending.clear()
            self._pending_bytes = 0
        return pushed

    def _flush_until(self, deadline: Optional[float]) -> bool:
        while not self.try_flush():
            if deadline is None or time.monotonic() >= deadline:
                return False
            time.sleep(_POLL_TICK_S)
        return True

    def _push_single_until(
        self, buffers: List[Any], size: int, flags: int,
        deadline: Optional[float],
    ) -> bool:
        while not self.ring.try_push(buffers, size, flags):
            if deadline is None or time.monotonic() >= deadline:
                return False
            time.sleep(_POLL_TICK_S)
        self.sent_slots += 1
        return True

    def _note_owner(self) -> None:
        self.pending_owner = threading.get_ident()

    def put(self, value: Any, timeout: Optional[float] = None) -> None:
        """Enqueue ``value``; ``queue.Full`` after ``timeout`` seconds.

        Small packets may be *accepted into the pending batch* rather
        than written through — the kernel flushes pending batches at
        every blocking point and at producer-thread exit, which is what
        bounds their residency.  ``queue.Full`` is only raised with the
        value NOT enqueued, so a retry loop never duplicates a packet.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        self._note_owner()
        flags, buffers, size = self._encode(value)
        entry_bytes = ENTRY_OVERHEAD + size
        batchable = (
            size <= self.policy.small_max
            and entry_bytes + BATCH_OVERHEAD <= self.handle.slot_bytes
        )
        if not batchable:
            # Order is sacred: everything pending goes first.
            if not self._flush_until(deadline):
                raise queue.Full
            spilled: Optional[str] = None
            if size > self.handle.slot_bytes:
                descriptor, spilled = self._spill(buffers, size)
                buffers, size, flags = (
                    [descriptor], len(descriptor), flags | F_OVERFLOW
                )
            if not self._push_single_until(buffers, size, flags, deadline):
                if spilled is not None:
                    # The descriptor never made it into a slot: reclaim
                    # the segment now so a put retry does not stack one
                    # orphan per attempt until shutdown.
                    self._owned_overflow.discard(spilled)
                    _unlink_segment(spilled)
                raise queue.Full
            self.sent_packets += 1
            return
        payload = b"".join(
            bytes(b) if not isinstance(b, (bytes, bytearray)) else b
            for b in buffers
        )
        if (self._pending
                and self._pending_bytes + entry_bytes > self._batch_room):
            # No room to coalesce: the pending frame must drain first.
            if not self._flush_until(deadline):
                raise queue.Full
        if not self._pending:
            self._pending_since = time.monotonic()
        self._pending.append((flags, payload))
        self._pending_bytes += entry_bytes
        self.sent_packets += 1
        if self.policy.should_flush(
            self._pending_bytes, len(self._pending),
            time.monotonic() - self._pending_since,
        ):
            # Best effort: a full ring leaves the batch pending for the
            # kernel's next blocking-point sweep.
            self.try_flush()

    def put_nowait(self, value: Any) -> None:
        """Immediate put (the supervisor's re-dispatch path)."""
        self._note_owner()
        if not self.try_flush():
            raise queue.Full
        flags, buffers, size = self._encode(value)
        spilled: Optional[str] = None
        if size > self.handle.slot_bytes:
            descriptor, spilled = self._spill(buffers, size)
            buffers, size, flags = (
                [descriptor], len(descriptor), flags | F_OVERFLOW
            )
        if not self.ring.try_push(buffers, size, flags):
            if spilled is not None:
                self._owned_overflow.discard(spilled)
                _unlink_segment(spilled)
            raise queue.Full
        self.sent_packets += 1
        self.sent_slots += 1

    # -- consumer --------------------------------------------------------------

    def _pop_inbox(self) -> Any:
        value = self._inbox[self._inbox_pos]
        self._inbox_pos += 1
        if self._inbox_pos >= len(self._inbox):
            self._inbox.clear()
            self._inbox_pos = 0
        self.received_packets += 1
        return value

    def _pop_slot(self) -> bool:
        """Pop one slot into the inbox; False when the ring is empty."""
        item = self.ring.try_pop()
        if item is None:
            return False
        flags, payload = item
        if flags & F_BATCH:
            for entry_flags, entry_payload in split_entries(payload):
                self._inbox.append(self._decode(entry_flags, entry_payload))
        else:
            self._inbox.append(self._decode(flags, payload))
        return True

    def get(self, timeout: Optional[float] = None) -> Any:
        if self._inbox_pos < len(self._inbox):
            return self._pop_inbox()
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._pop_slot():
            if deadline is not None and time.monotonic() >= deadline:
                raise queue.Empty
            time.sleep(_POLL_TICK_S)
        return self._pop_inbox()

    def get_nowait(self) -> Any:
        if self._inbox_pos < len(self._inbox):
            return self._pop_inbox()
        if not self._pop_slot():
            raise queue.Empty
        return self._pop_inbox()

    def qsize(self) -> int:
        """Occupied slots plus locally buffered packets (approximate)."""
        return len(self.ring) + (len(self._inbox) - self._inbox_pos) \
            + len(self._pending)

    # -- lifecycle -------------------------------------------------------------

    def release(self) -> None:
        """Reclaim overflow segments whose consumer never attached."""
        if _shared_memory is None:  # pragma: no cover
            return
        names, self._owned_overflow = self._owned_overflow, set()
        for name in names:
            try:
                segment = _shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue  # claimed by the consumer: the common case
            except Exception:  # pragma: no cover - platform oddities
                continue
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - lost race
                pass

    def close(self) -> None:
        if self._ring is not None:
            self._ring.close()
            self._ring = None

    def destroy(self) -> None:
        """Unlink the ring segment (creator-side, end of run)."""
        self.close()
        self.handle.unlink()

    def __repr__(self) -> str:
        where = f" {self.label}" if self.label else ""
        return f"<RingChannel{where} {self.handle!r}>"
