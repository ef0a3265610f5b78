"""Supervision tuning knobs shared by all fault-aware execution layers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..health.policy import HealthPolicy
from ..sched.remap import RemapPolicy

__all__ = ["FaultPolicy"]


@dataclass(frozen=True)
class FaultPolicy:
    """How aggressively the supervised executive detects and recovers.

    Every duration is seconds *on the executing machine's clock*: the
    real kernels judge them against ``time.monotonic()``, the simulator
    against virtual time — one policy core
    (:class:`~repro.faults.farm.FarmSupervisor`) reads them for both.
    The defaults suit interactive runs (sub-second detection without
    false positives on a loaded laptop); chaos tests shrink the timeouts
    to keep the suite fast, virtual-time tests to the scale of their
    cost model.
    """

    #: Seconds a dispatched packet may stay unanswered before the
    #: supervisor suspects the worker (first attempt; grows by
    #: ``backoff`` per re-dispatch).
    packet_timeout_s: float = 0.5
    #: Heartbeat staleness that marks an OS process dead.
    heartbeat_timeout_s: float = 0.2
    #: A worker whose heartbeat is *fresh* but whose packet is overdue is
    #: merely slow: its deadline stretches up to ``stall_factor`` times
    #: before it is declared stalled and quarantined anyway.
    stall_factor: float = 4.0
    #: Multiplier applied to the packet timeout on each re-dispatch.
    backoff: float = 1.5
    #: Seconds after quarantine before the circuit breaker sends the
    #: first probation packet to the retired worker.  The default is
    #: deliberately longer than typical short chaos runs, so probation
    #: only engages where it is asked for (soaks, long streams).
    probe_after_s: float = 1.0
    #: Multiplier applied to the probe delay after each failed probe.
    probe_backoff: float = 2.0
    #: Failed probes before quarantine becomes permanent.
    max_probes: int = 3
    #: Gray-failure defense knobs (limplock detection, health-weighted
    #: dispatch, hedged re-dispatch).  ``None`` means the defaults of
    #: :class:`~repro.health.policy.HealthPolicy`; pass one with
    #: ``enabled=False`` / ``hedge_enabled=False`` to switch the layer
    #: off for A/B comparisons.
    health: Optional[HealthPolicy] = None
    #: Online re-mapping knobs (migrate processors off workers that stay
    #: limping, count-based so the simulator reproduces every decision
    #: in virtual time).  ``None`` means re-mapping is off and the
    #: demotion/hedging defenses stand alone.
    remap: Optional[RemapPolicy] = None

    def health_policy(self) -> HealthPolicy:
        return self.health if self.health is not None else HealthPolicy()

    def remap_policy(self) -> RemapPolicy:
        return self.remap if self.remap is not None \
            else RemapPolicy(enabled=False)

    def deadline_s(self, attempts: int) -> float:
        """Packet timeout for the given (0-based) dispatch attempt."""
        return self.packet_timeout_s * (self.backoff ** attempts)

    def probe_delay_s(self, probes: int) -> float:
        """Breaker delay before the (0-based) n-th probation packet."""
        return self.probe_after_s * (self.probe_backoff ** probes)
