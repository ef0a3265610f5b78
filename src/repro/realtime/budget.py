"""Per-frame latency budgets and overload policies.

SKiPPER's target applications are *real-time*: the Transvision demo of
the paper processes a live video stream under a hard per-frame latency
bound.  A :class:`LatencyBudget` makes that bound explicit at runtime —
attached to a stream run it arms a watchdog (deadline misses are
detected while the frame is still in flight: it sleeps until the
earliest deadline still open, so there is no scan period to set),
bounds how many frames may be inside the process network at once, and
selects what happens to new frames when the network is saturated.

The four overload policies:

* ``block`` — classic backpressure: the grabber waits until the network
  drains.  No frame is lost; latency grows unboundedly under sustained
  overload.
* ``shed-newest`` — a frame arriving while the admission queue is full
  is refused.  Keeps old work; freshest data is sacrificed.
* ``shed-oldest`` — the *oldest* waiting frame is dropped to make room.
  The right default for live video: a stale frame is worthless, the
  newest one is what the display needs.
* ``degrade`` — enter a degraded mode that admits only one frame in
  ``degrade_ratio`` (adaptive frame-rate halving) until the backlog
  clears; overflow beyond the queue is shed oldest-first meanwhile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["OVERLOAD_POLICIES", "LatencyBudget"]

#: The admission-time overload policies, in documentation order.
OVERLOAD_POLICIES = ("block", "shed-newest", "shed-oldest", "degrade")


@dataclass(frozen=True)
class LatencyBudget:
    """The real-time contract of one stream run.

    Times are wall-clock on the real backends and virtual microseconds on
    the simulator (which converts from the same millisecond knobs).
    """

    #: Grab-to-display budget of one frame, milliseconds.
    deadline_ms: float = 40.0
    #: What to do with new frames when the network is saturated.
    policy: str = "block"
    #: How many admitted frames may be inside the process network at
    #: once (the released-minus-delivered window).  This is the bounded
    #: queue that makes backpressure real: a slow worker slows the
    #: grabber instead of growing unbounded queues.
    max_in_flight: int = 4
    #: Admission-buffer depth ahead of the network (frames grabbed but
    #: not yet released).  0 means "same as max_in_flight".
    queue_depth: int = 0
    #: Source pacing period, milliseconds; 0 = free-running grabber.
    frame_period_ms: float = 0.0
    #: In degraded mode only one frame in ``degrade_ratio`` is admitted.
    degrade_ratio: int = 2

    def __post_init__(self):
        if self.policy not in OVERLOAD_POLICIES:
            raise ValueError(
                f"unknown overload policy {self.policy!r}; expected one of "
                f"{OVERLOAD_POLICIES}"
            )
        if self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        if self.degrade_ratio < 2:
            raise ValueError("degrade_ratio must be >= 2")

    @property
    def deadline_us(self) -> float:
        return self.deadline_ms * 1000.0

    @property
    def frame_period_s(self) -> float:
        return self.frame_period_ms / 1000.0

    @property
    def admission_depth(self) -> int:
        """Effective admission-buffer bound (resolves the 0 default)."""
        return self.queue_depth or self.max_in_flight

    def to_dict(self) -> Dict:
        return {
            "deadline_ms": self.deadline_ms,
            "policy": self.policy,
            "max_in_flight": self.max_in_flight,
            "queue_depth": self.queue_depth,
            "frame_period_ms": self.frame_period_ms,
            "degrade_ratio": self.degrade_ratio,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "LatencyBudget":
        return cls(**data)
