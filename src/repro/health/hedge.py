"""The adaptive hedge threshold: when is an in-flight packet *overdue*?

Classic hedged-request design (Dean & Barroso's "tail at scale"):
instead of a fixed timeout, anchor the speculation threshold to a high
percentile of *observed* completed service times.  The clock is cheap —
a bounded deque and a nearest-rank percentile — and entirely
deterministic given the same observation sequence.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional

from .policy import HealthPolicy

__all__ = ["HedgeClock"]


class HedgeClock:
    """Farm-wide adaptive percentile threshold over completed services.

    Fed and read in seconds on the executing machine's clock, wall or
    virtual; ``hedge_floor_s`` guards against hedging on measurement
    noise, so a virtual-time run — whose packets may be far shorter, and
    jitter-free — sets it to the scale of its cost model.
    """

    def __init__(self, policy: Optional[HealthPolicy] = None):
        self.policy = policy or HealthPolicy()
        self._window: Deque[float] = deque(maxlen=self.policy.hedge_window)
        self._seen = 0
        #: Hedges issued / won by the duplicate / wasted (late loser).
        self.issued = 0
        self.won = 0
        self.wasted = 0

    @property
    def samples(self) -> int:
        """Completed service times observed over the clock's lifetime."""
        return self._seen

    def record(self, service_s: float) -> None:
        """One completed packet's service time (seconds)."""
        if service_s >= 0.0:
            self._window.append(service_s)
            self._seen += 1

    def percentile(self) -> Optional[float]:
        """Nearest-rank ``hedge_percentile`` of the window, or None."""
        if not self._window:
            return None
        ordered = sorted(self._window)
        rank = math.ceil(self.policy.hedge_percentile / 100.0 * len(ordered))
        return ordered[max(0, min(rank - 1, len(ordered) - 1))]

    def threshold_s(self) -> Optional[float]:
        """Current hedge threshold (seconds); None while warming up."""
        if not self.policy.hedge_enabled:
            return None
        if self._seen < self.policy.hedge_min_samples:
            return None
        pct = self.percentile()
        if pct is None:
            return None
        return max(self.policy.hedge_floor_s,
                   self.policy.hedge_factor * pct)

    def to_dict(self) -> dict:
        threshold = self.threshold_s()
        return {
            "samples": self._seen,
            "threshold_ms": (round(threshold * 1e3, 3)
                             if threshold is not None else None),
            "issued": self.issued,
            "won": self.won,
            "wasted": self.wasted,
        }
