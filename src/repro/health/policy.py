"""Tuning knobs of the gray-failure defense layer.

Kept in their own frozen dataclass (rather than growing
:class:`~repro.faults.policy.FaultPolicy` field by field) so the health
machinery can be reasoned about — and switched off — as a unit.  The
fault policy carries one of these in its ``health`` slot; everything is
plain data and picklable because the processes and tcp backends ship
policies into worker OS processes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["HealthPolicy"]


@dataclass(frozen=True)
class HealthPolicy:
    """How the supervisor scores workers and hedges overdue packets.

    The defaults favour *no false positives* on a loaded laptop: a
    worker is only flagged limping on a sustained multiple of the farm
    median, and hedging waits for both a sample floor and an absolute
    elapsed floor before spending duplicate work.
    """

    #: Master switch for scoring and limping detection.  Off, the
    #: supervisor behaves exactly as before this layer existed.
    enabled: bool = True
    #: EWMA smoothing factor for per-worker service times (weight of the
    #: newest sample).
    ewma_alpha: float = 0.3
    #: Sliding window of recent service-time samples kept per worker
    #: (the farm median is computed over these EWMA scores).
    window: int = 32
    #: Completed packets a worker must have before its score is trusted
    #: enough to flag it (protects cold starts).
    min_samples: int = 3
    #: A worker whose EWMA score exceeds ``limp_factor`` x the farm
    #: median is flagged *limping*.
    limp_factor: float = 3.0
    #: Hysteresis: a limping worker is restored once its score drops
    #: back under ``clear_factor`` x the farm median.
    clear_factor: float = 2.0
    #: Dispatch weight of a limping worker: it keeps roughly this
    #: fraction of the packets addressed to it (demotion, not the
    #: binary quarantine reserved for dead workers).
    limp_weight: float = 0.25
    #: Seconds an in-flight packet may sit on a worker whose heartbeat
    #: is *fresh* but which has completed nothing since the dispatch —
    #: the beats-but-never-progresses case (BEAT fresh, COUNT flat) —
    #: before the worker is flagged limping as *stuck*.
    stuck_after_s: float = 0.25
    #: Master switch for hedged re-dispatch.
    hedge_enabled: bool = True
    #: Percentile of recent completed service times the hedge threshold
    #: is anchored to.
    hedge_percentile: float = 95.0
    #: The threshold itself: ``hedge_factor`` x that percentile.  An
    #: in-flight time beyond it earns a speculative duplicate.
    hedge_factor: float = 3.0
    #: Farm-wide completions required before hedging engages (the
    #: percentile is meaningless on a handful of samples).
    hedge_min_samples: int = 8
    #: Absolute floor (seconds) under which a packet is never hedged,
    #: whatever the percentile says.
    hedge_floor_s: float = 0.01
    #: Completed service times remembered by the hedge clock.
    hedge_window: int = 128

    def __post_init__(self):
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.limp_factor < self.clear_factor:
            raise ValueError("limp_factor must be >= clear_factor "
                             "(hysteresis would oscillate)")
        if not 0.0 < self.limp_weight <= 1.0:
            raise ValueError("limp_weight must be in (0, 1]")
        if not 0.0 < self.hedge_percentile <= 100.0:
            raise ValueError("hedge_percentile must be in (0, 100]")

    def keep_stride(self) -> int:
        """Every n-th packet a limping worker keeps (``1/limp_weight``)."""
        return max(1, round(1.0 / self.limp_weight))
