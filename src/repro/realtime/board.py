"""The stream board: released/delivered frame counters and a doorbell.

The admission side of a budgeted run (where the stream input is hosted)
and its delivery side (where the stream output is) may live in
different OS processes or on different hosts; this board is all they
share.  The admission side's service thread sleeps on its doorbell,
which a delivery rings.
"""

from __future__ import annotations

import os
import select
import threading
from typing import Any

__all__ = ["StreamBoard"]


class _PipeBell:
    """``threading.Event``'s ``set`` / ``wait`` / ``clear`` over a pipe:
    the doorbell of a board that OS processes share.

    Both ends are non-blocking and every process of the run holds both,
    so a ring is one ``write`` that never waits and a killed ringer
    leaves nothing half-done.  Built from a multiprocessing context, so
    it crosses ``fork`` by inheritance and ``spawn`` by descriptor
    passing, like the context's queues.
    """

    def __init__(self, ctx: Any):
        self._rx, self._tx = ctx.Pipe(duplex=False)
        for end in (self._rx, self._tx):
            os.set_blocking(end.fileno(), False)

    def set(self) -> None:
        try:
            os.write(self._tx.fileno(), b"\0")
        except BlockingIOError:
            pass  # a pipe full of rings nobody answered: it is rung

    def wait(self, timeout: float) -> bool:
        # poll() rounds the timeout up to whole milliseconds; the
        # sleeper's are tens of them, and none has to end on the dot.
        poller = select.poll()
        poller.register(self._rx, select.POLLIN)
        return bool(poller.poll(timeout * 1000.0))

    def clear(self) -> None:
        try:
            while len(os.read(self._rx.fileno(), 4096)) == 4096:
                pass
        except BlockingIOError:
            pass

    def close(self) -> None:
        self._rx.close()
        self._tx.close()


class StreamBoard:
    """Shared released/delivered frame counters, and a doorbell.

    Slot 0 counts frames released into the network (written only by the
    admission pump), slot 1 frames delivered at the stream output
    (written only by the output thread) — single-writer slots, so a
    lock-free ``multiprocessing.Array('d', 2)`` works across OS
    processes exactly like the heartbeat board.

    A delivery frees an in-flight slot, so :meth:`note_delivered` rings
    the ``bell`` (anything with ``threading.Event``'s ``set`` / ``wait``
    / ``clear``) the admission side's service thread sleeps on in
    :meth:`wait`.  The count moves *before* the ring and the sleeper
    clears the bell *before* it reads the count, so no delivery is
    slept through.  An admission does not ring: see
    :meth:`~repro.backends.policy_kernel.PolicyKernel._watch_tick`.
    """

    def __init__(self, slots: Any, bell: Any):
        self._slots = slots
        self.bell = bell

    @classmethod
    def local(cls) -> "StreamBoard":
        """A board for one interpreter."""
        return cls([0.0, 0.0], threading.Event())

    @classmethod
    def shared(cls, ctx: Any) -> "StreamBoard":
        """A board for the processes of one multiprocessing context;
        whoever builds it :meth:`close` s it when they are gone."""
        return cls(ctx.Array("d", 2, lock=False), _PipeBell(ctx))

    def close(self) -> None:
        """Give the doorbell's descriptors back (a pipe has some)."""
        if isinstance(self.bell, _PipeBell):
            self.bell.close()

    def ring(self) -> None:
        self.bell.set()

    def wait(self, timeout: float) -> None:
        """Sleep until rung, ``timeout`` seconds at most."""
        if self.bell.wait(timeout):
            self.bell.clear()

    def note_released(self) -> None:
        self._slots[0] += 1.0

    def note_delivered(self) -> None:
        self._slots[1] += 1.0
        self.ring()

    def released(self) -> int:
        return int(self._slots[0])

    def delivered(self) -> int:
        return int(self._slots[1])

    def in_flight(self) -> int:
        return max(0, self.released() - self.delivered())
