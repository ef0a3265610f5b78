"""A lock-free one-byte stop flag in shared memory, with a latch to wait on.

``multiprocessing.Event`` serialises every ``is_set()`` and ``set()``
through an inter-process semaphore.  A worker that dies — in particular
one SIGKILLed by the chaos suite — while it happens to hold that
semaphore poisons it for every surviving process: the parent's eventual
``stop_event.set()`` blocks forever on a lock nobody will ever release
(the service thread of :mod:`repro.backends.policy_kernel` documents
the same hazard).

A shared *byte* has no lock to poison.  ``set()`` is one aligned store,
``is_set()`` one load, and the flag only ever transitions ``0 -> 1``,
so there is nothing to race: any interleaving of loads and the single
monotonic store is correct.  This is the same single-writer assumption
the :class:`~repro.shm.ring.Ring` counters and the fault supervisor's
``HealthBoard`` already rely on.

A byte cannot wake anybody, so a *latch* sits beside it for
:meth:`StopFlag.wait`: a named FIFO that ``set()`` writes one byte into
and nobody ever reads.  It is level-triggered (once written it polls
readable for every process, for good) and as lock-free as the byte — a
waiter is a ``select`` on its own descriptor, so one killed mid-wait
leaves nothing behind for the others to trip over.
"""

from __future__ import annotations

import os
import select
import tempfile
from typing import Any, Dict, Optional

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - always present on CPython >= 3.8
    _shared_memory = None

from .ring import RingError

__all__ = ["StopFlag"]

#: Where the latch FIFOs live: beside the segments where the host has a
#: ``/dev/shm`` (one listing shows everything a run owns).
_LATCH_DIR = "/dev/shm" if os.path.isdir("/dev/shm") else tempfile.gettempdir()


class StopFlag:
    """SIGKILL-tolerant replacement for a ``multiprocessing.Event``.

    Picklable: crossing a process boundary ships only the segment name;
    a process that got the flag that way attaches its own mapping (and
    opens the latch) lazily, a forked child keeps using what it
    inherited.  The *creator* owns the final :meth:`unlink`.  Once the
    segment is gone, :meth:`is_set` reports ``True`` — a vanished flag
    means the run is over, and late pollers must stop, not crash.

    Any number of threads may share one flag.  A worker's executive
    threads all reach a freshly unpickled flag at about the same time;
    each that finds no mapping yet attaches one, and ``dict.setdefault``
    — atomic under the GIL — makes exactly one of them the mapping every
    thread uses.  A loser closes a segment nobody else ever saw.
    (Storing "the latest attach" instead let a loser's segment be
    collected while a third thread still held its buffer: ``ValueError:
    operation forbidden on released memoryview``, a dead executive
    thread, a run that starved until its timeout.)
    """

    __slots__ = ("name", "_attached", "_view")

    def __init__(self, name: Optional[str] = None):
        if _shared_memory is None:  # pragma: no cover
            raise RingError("POSIX shared memory is unavailable on this host")
        #: This process's mapping and latch descriptor, by kind.
        self._attached: Dict[str, Any] = {}
        #: The mapped byte, resolved once: ``is_set`` is called by every
        #: ``send_`` / ``recv_`` / ``alt_`` of every packet hop.
        self._view: Optional[memoryview] = None
        if name is None:
            segment = _shared_memory.SharedMemory(create=True, size=1)
            segment.buf[0] = 0
            self.name = segment.name
            self._attached["segment"] = segment
            self._view = segment.buf
            os.mkfifo(self._latch_path, 0o600)
            # Held open for the flag's whole life: a FIFO forgets what
            # was written once its last descriptor closes, and a setter
            # may exit before the first waiter arrives.
            self.fileno()
        else:
            self.name = name

    @property
    def _latch_path(self) -> str:
        return os.path.join(_LATCH_DIR, self.name.lstrip("/") + ".latch")

    # -- pickling: ship the name, re-attach lazily ----------------------------

    def __getstate__(self):
        return self.name

    def __setstate__(self, state):
        self.name = state
        self._attached = {}
        self._view = None

    def _first(self, kind: str, mine: Any, discard: Any) -> Any:
        """Publish ``mine`` as this process's ``kind`` unless another
        thread got there first (then ``discard`` it and use theirs)."""
        winner = self._attached.setdefault(kind, mine)
        if winner is not mine:
            discard(mine)
        return winner

    def _buf(self) -> memoryview:
        view = self._view
        if view is None:
            segment = self._first(
                "segment", _shared_memory.SharedMemory(name=self.name),
                _shared_memory.SharedMemory.close)
            view = self._view = segment.buf
        return view

    def fileno(self) -> int:
        """This process's descriptor of the latch: readable once set."""
        fd = self._attached.get("latch")
        if fd is None:
            # O_RDWR: opening a FIFO for one direction only would block
            # until somebody opens the other.
            fd = self._first(
                "latch",
                os.open(self._latch_path, os.O_RDWR | os.O_NONBLOCK),
                os.close)
        return fd

    # -- the Event surface the kernels rely on --------------------------------

    def is_set(self) -> bool:
        try:
            return (self._view or self._buf())[0] != 0
        except FileNotFoundError:
            return True

    def set(self) -> None:
        """Store the byte, then trip the latch (in that order: whoever
        the latch wakes reads the flag as set).  Every call writes — a
        setter killed between the two leaves a latch the next ``set()``
        still trips."""
        try:
            self._buf()[0] = 1
            os.write(self.fileno(), b"\1")
        except (FileNotFoundError, BlockingIOError):
            pass  # vanished: already over; full: tripped long ago

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until set, in any process, or ``timeout`` seconds.

        ``select.select``, not ``poll``: a pacing wait has to end *on*
        its due time, and ``poll`` rounds up to whole milliseconds.
        """
        if self.is_set():
            return True
        try:
            fd = self.fileno()
        except FileNotFoundError:
            return True
        if timeout is not None and timeout < 0:
            timeout = 0.0
        ready, _, _ = select.select([fd], [], [], timeout)
        return bool(ready) or self.is_set()

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        self._view = None
        fd = self._attached.pop("latch", None)
        if fd is not None:
            os.close(fd)
        segment = self._attached.pop("segment", None)
        if segment is not None:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - exported view alive
                pass

    def unlink(self) -> None:
        """Remove the segment and the latch (idempotent; creator-owned).

        Sets the flag first: a waiter parked on the latch holds its own
        descriptor and would sleep through the name going away.
        """
        self.set()
        self.close()
        try:
            os.unlink(self._latch_path)
        except FileNotFoundError:
            pass
        try:
            segment = _shared_memory.SharedMemory(name=self.name)
        except FileNotFoundError:
            return
        # Fresh attach registered the name with the resource tracker and
        # unlink() unregisters it — balanced, same idiom as RingHandle.
        try:
            segment.close()
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - lost the race
            pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "set" if self.is_set() else "clear"
        return f"<StopFlag {self.name} {state}>"
