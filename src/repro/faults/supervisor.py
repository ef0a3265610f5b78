"""Supervision plumbing shared by every interpreter of a run.

The farm protocol's envelopes and the heartbeat board: what a
supervised run puts on its wires and in its shared memory.  The
decisions live in :class:`~repro.faults.farm.FarmSupervisor`; the
driver that carries them out on a real kernel is
:class:`~repro.backends.policy_kernel.PolicyKernel`.
"""

from __future__ import annotations

import time
from typing import Any

__all__ = [
    "Packet",
    "Result",
    "WorkerCrash",
    "HealthBoard",
]


class WorkerCrash(Exception):
    """An injected crash: kills the raising executive thread only."""


class Packet:
    """Dispatch envelope: one unit of farm work with a sequence number."""

    __slots__ = ("seq", "value")

    def __init__(self, seq: int, value: Any):
        self.seq = seq
        self.value = value

    def __getstate__(self):
        return (self.seq, self.value)

    def __setstate__(self, state):
        self.seq, self.value = state

    def __repr__(self) -> str:
        return f"<packet #{self.seq}>"


class Result:
    """Collect envelope: a worker's answer, tagged with the packet seq."""

    __slots__ = ("seq", "value")

    def __init__(self, seq: int, value: Any):
        self.seq = seq
        self.value = value

    def __getstate__(self):
        return (self.seq, self.value)

    def __setstate__(self, state):
        self.seq, self.value = state

    def __repr__(self) -> str:
        return f"<result #{self.seq}>"


class HealthBoard:
    """Per-worker heartbeat timestamps (``time.monotonic`` seconds).

    Backed by a plain list on the threads backend or a lock-free
    ``multiprocessing.Array('d', n)`` on the processes backend —
    ``CLOCK_MONOTONIC`` is system-wide on Linux, so timestamps written
    in one OS process are comparable in another.  A slot still at its
    initial ``0.0`` means the worker has not started yet; the kernel
    reports no beat for it, which the policy core treats as *fresh* (a
    worker that never ran cannot have died; the slower stall path
    covers one that never starts).
    """

    def __init__(self, slots: Any):
        self._slots = slots

    @classmethod
    def local(cls, n: int) -> "HealthBoard":
        return cls([0.0] * max(1, n))

    def beat(self, slot: int) -> None:
        self._slots[slot] = time.monotonic()

    def last(self, slot: int) -> float:
        return self._slots[slot]
