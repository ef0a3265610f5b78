"""A lock-free one-byte stop flag in shared memory.

``multiprocessing.Event`` serialises every ``is_set()`` and ``set()``
through an inter-process semaphore.  A worker that dies — in particular
one SIGKILLed by the chaos suite — while it happens to hold that
semaphore poisons it for every surviving process: the parent's eventual
``stop_event.set()`` blocks forever on a lock nobody will ever release
(the beater thread in :mod:`repro.faults.supervisor` documents the same
hazard).

A shared *byte* has no lock to poison.  ``set()`` is one aligned store,
``is_set()`` one load, and the flag only ever transitions ``0 -> 1``,
so there is nothing to race: any interleaving of loads and the single
monotonic store is correct.  This is the same single-writer assumption
the :class:`~repro.shm.ring.Ring` counters and the fault supervisor's
``HealthBoard`` already rely on.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Optional

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - always present on CPython >= 3.8
    _shared_memory = None

from .ring import RingError

__all__ = ["StopFlag"]


class StopFlag:
    """SIGKILL-tolerant replacement for a ``multiprocessing.Event``.

    Picklable: crossing a process boundary ships only the segment name;
    each process (re-)attaches its own mapping lazily.  The *creator*
    owns the final :meth:`unlink`.  Once the segment is gone,
    :meth:`is_set` reports ``True`` — a vanished flag means the run is
    over, and late pollers must stop, not crash.

    Any number of threads may share one flag.  A worker's executive
    threads all reach a freshly forked (or unpickled) flag at about the
    same time; each that finds no mapping for its process attaches one,
    and ``dict.setdefault`` — atomic under the GIL — makes exactly one
    of them the mapping every thread uses.  A loser closes a segment
    nobody else ever saw.  (Storing "the latest attach" instead let a
    loser's segment be collected while a third thread still held its
    buffer: ``ValueError: operation forbidden on released memoryview``,
    a dead executive thread, a run that starved until its timeout.)
    """

    __slots__ = ("name", "_attached")

    def __init__(self, name: Optional[str] = None):
        if _shared_memory is None:  # pragma: no cover
            raise RingError("POSIX shared memory is unavailable on this host")
        #: pid -> this process's mapping (a forked child inherits its
        #: parent's entry and never looks at it).
        self._attached: Dict[int, Any] = {}
        if name is None:
            segment = _shared_memory.SharedMemory(create=True, size=1)
            segment.buf[0] = 0
            self.name = segment.name
            self._attached[os.getpid()] = segment
        else:
            self.name = name

    # -- pickling: ship the name, re-attach lazily ----------------------------

    def __getstate__(self):
        return self.name

    def __setstate__(self, state):
        self.name = state
        self._attached = {}

    def _buf(self):
        segment = self._attached.get(os.getpid())
        if segment is None:
            mine = _shared_memory.SharedMemory(name=self.name)
            segment = self._attached.setdefault(os.getpid(), mine)
            if segment is not mine:
                mine.close()
        return segment.buf

    # -- the Event surface the kernels rely on --------------------------------

    def is_set(self) -> bool:
        try:
            return self._buf()[0] != 0
        except FileNotFoundError:
            return True

    def set(self) -> None:
        try:
            self._buf()[0] = 1
        except FileNotFoundError:
            pass

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Poll until set (2 ms cadence); no shared lock, no poisoning."""
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while not self.is_set():
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.002)
        return True

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        segment = self._attached.pop(os.getpid(), None)
        if segment is not None:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - exported view alive
                pass

    def unlink(self) -> None:
        """Remove the segment (idempotent; creator-owned)."""
        self.close()
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
