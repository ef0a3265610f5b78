"""Unit tests for the gray-failure defense primitives.

Covers the three pure pieces of :mod:`repro.health` in isolation: the
policy knobs and their validation, the EWMA/median limping detector
(:class:`FarmHealth`), and the adaptive hedge threshold
(:class:`HedgeClock`).
"""

import pytest

from repro.health import (
    HEALTHY,
    LIMPING,
    FarmHealth,
    HealthPolicy,
    HedgeClock,
    WorkerHealth,
)


class TestHealthPolicy:
    def test_defaults_are_valid(self):
        policy = HealthPolicy()
        assert policy.enabled and policy.hedge_enabled

    def test_ewma_alpha_bounds(self):
        with pytest.raises(ValueError, match="ewma_alpha"):
            HealthPolicy(ewma_alpha=0.0)
        with pytest.raises(ValueError, match="ewma_alpha"):
            HealthPolicy(ewma_alpha=1.5)
        HealthPolicy(ewma_alpha=1.0)  # the boundary itself is legal

    def test_hysteresis_must_not_oscillate(self):
        with pytest.raises(ValueError, match="hysteresis"):
            HealthPolicy(limp_factor=2.0, clear_factor=3.0)
        HealthPolicy(limp_factor=2.0, clear_factor=2.0)

    def test_limp_weight_bounds(self):
        with pytest.raises(ValueError, match="limp_weight"):
            HealthPolicy(limp_weight=0.0)
        with pytest.raises(ValueError, match="limp_weight"):
            HealthPolicy(limp_weight=1.2)

    def test_hedge_percentile_bounds(self):
        with pytest.raises(ValueError, match="hedge_percentile"):
            HealthPolicy(hedge_percentile=0.0)
        with pytest.raises(ValueError, match="hedge_percentile"):
            HealthPolicy(hedge_percentile=101.0)

    def test_keep_stride_is_inverse_weight(self):
        assert HealthPolicy(limp_weight=0.25).keep_stride() == 4
        assert HealthPolicy(limp_weight=1.0).keep_stride() == 1
        assert HealthPolicy(limp_weight=0.33).keep_stride() == 3


class TestWorkerHealth:
    def test_ewma_update(self):
        w = WorkerHealth(0, window=8)
        w.observe(1.0, alpha=0.5, now=0.0)
        assert w.score == 1.0  # first sample seeds the EWMA
        w.observe(3.0, alpha=0.5, now=1.0)
        assert w.score == pytest.approx(2.0)
        assert w.completed == 2
        assert w.last_done_at == 1.0

    def test_row_shape(self):
        w = WorkerHealth(2, window=4)
        assert w.to_row() == {
            "worker": 2, "state": HEALTHY, "reason": "",
            "score_ms": None, "completed": 0,
        }
        w.observe(0.002, alpha=0.3, now=0.0)
        assert w.to_row()["score_ms"] == 2.0


def feed(farm, services, rounds=4, start=0.0):
    """Feed ``rounds`` completions of ``services[i]`` to worker i."""
    now = start
    for _ in range(rounds):
        for i, service in enumerate(services):
            farm.observe(i, service, now)
            now += 0.001
    return now


class TestFarmHealthScoring:
    def test_outlier_is_flagged_limping(self):
        farm = FarmHealth(4, HealthPolicy())
        feed(farm, [0.01, 0.01, 0.01, 0.10])
        events = farm.evaluate()
        assert (3, LIMPING, "slow") in events
        assert farm.state(3) == LIMPING
        assert farm.limping() == {3}

    def test_uniformly_slow_farm_flags_nobody(self):
        # The median rule is robust: everyone equally slow is a loaded
        # farm, not a limping worker.
        farm = FarmHealth(4, HealthPolicy())
        feed(farm, [0.1, 0.1, 0.1, 0.1])
        assert farm.evaluate() == []
        assert farm.limping() == set()

    def test_cold_start_is_protected(self):
        # Below min_samples no score is trusted, however bad it looks.
        policy = HealthPolicy(min_samples=3)
        farm = FarmHealth(4, policy)
        feed(farm, [0.01, 0.01, 0.01, 0.5], rounds=2)
        assert farm.evaluate() == []

    def test_hysteresis_restores_under_clear_factor(self):
        policy = HealthPolicy(limp_factor=3.0, clear_factor=2.0,
                              ewma_alpha=1.0)
        farm = FarmHealth(4, policy)
        feed(farm, [0.01, 0.01, 0.01, 0.1])
        farm.evaluate()
        assert farm.state(3) == LIMPING
        # Score back to just under 2x the median: restored.
        feed(farm, [0.01, 0.01, 0.01, 0.015])
        events = farm.evaluate()
        assert (3, "restored", "slow") in events
        assert farm.state(3) == HEALTHY

    def test_between_clear_and_limp_keeps_state(self):
        # Hysteresis: a score between clear_factor and limp_factor x
        # median neither flags a healthy worker nor restores a limping one.
        policy = HealthPolicy(limp_factor=3.0, clear_factor=2.0,
                              ewma_alpha=1.0)
        farm = FarmHealth(4, policy)
        feed(farm, [0.01, 0.01, 0.01, 0.025])
        assert farm.evaluate() == []
        assert farm.state(3) == HEALTHY

    def test_disabled_policy_never_flags(self):
        farm = FarmHealth(4, HealthPolicy(enabled=False))
        feed(farm, [0.01, 0.01, 0.01, 0.5])
        assert farm.evaluate() == []


class TestFarmHealthStuck:
    def test_mark_stuck_flags_without_a_score(self):
        farm = FarmHealth(3, HealthPolicy())
        event = farm.mark_stuck(1)
        assert event == (1, LIMPING, "stuck")
        assert farm.state(1) == LIMPING
        # Idempotent: already-limping workers report no new event.
        assert farm.mark_stuck(1) is None

    def test_completion_clears_stuck(self):
        farm = FarmHealth(3, HealthPolicy())
        farm.mark_stuck(1)
        event = farm.observe(1, 0.01, now=1.0)
        assert event == (1, "restored", "stuck")
        assert farm.state(1) == HEALTHY


class TestDispatchWeighting:
    def test_healthy_worker_keeps_everything(self):
        farm = FarmHealth(3, HealthPolicy())
        assert all(farm.keeps(0, seq) for seq in range(10))

    def test_limping_worker_keeps_a_trickle(self):
        farm = FarmHealth(3, HealthPolicy(limp_weight=0.25))
        farm.mark_stuck(2)
        kept = [farm.keeps(2, seq) for seq in range(8)]
        assert kept == [True, False, False, False, True, False, False, False]

    def test_pick_healthy_prefers_healthy(self):
        farm = FarmHealth(4, HealthPolicy())
        farm.mark_stuck(1)
        alive = [0, 1, 2, 3]
        picks = {farm.pick_healthy(seq, exclude=set(), alive=alive)
                 for seq in range(12)}
        assert picks == {0, 2, 3}

    def test_pick_healthy_falls_back_to_limping(self):
        # A limping worker still beats a dead one.
        farm = FarmHealth(2, HealthPolicy())
        farm.mark_stuck(0)
        farm.mark_stuck(1)
        assert farm.pick_healthy(0, exclude=set(), alive=[0, 1]) in (0, 1)

    def test_pick_healthy_honours_exclusions(self):
        farm = FarmHealth(2, HealthPolicy())
        assert farm.pick_healthy(0, exclude={0}, alive=[0, 1]) == 1
        assert farm.pick_healthy(0, exclude={0, 1}, alive=[0, 1]) is None


class TestHedgeClock:
    def test_warm_up_gate(self):
        clock = HedgeClock(HealthPolicy(hedge_min_samples=8))
        for _ in range(7):
            clock.record(0.01)
        assert clock.threshold_s() is None
        clock.record(0.01)
        assert clock.samples == 8
        assert clock.threshold_s() is not None

    def test_threshold_is_factor_times_percentile(self):
        policy = HealthPolicy(hedge_min_samples=8, hedge_factor=3.0,
                              hedge_percentile=95.0, hedge_floor_s=0.0001)
        clock = HedgeClock(policy)
        for _ in range(100):
            clock.record(0.01)
        assert clock.percentile() == pytest.approx(0.01)
        assert clock.threshold_s() == pytest.approx(0.03)

    def test_nearest_rank_percentile(self):
        policy = HealthPolicy(hedge_percentile=95.0)
        clock = HedgeClock(policy)
        for v in range(1, 101):  # 0.001 .. 0.100
            clock.record(v / 1000.0)
        assert clock.percentile() == pytest.approx(0.095)

    def test_absolute_floor_damps_noise(self):
        # Tiny observed services: the floor dominates the threshold.
        policy = HealthPolicy(hedge_floor_s=0.01, hedge_factor=3.0)
        clock = HedgeClock(policy)
        for _ in range(20):
            clock.record(0.0001)
        assert clock.threshold_s() == pytest.approx(0.01)

    def test_floor_override_for_virtual_time(self):
        # A virtual-time run sets the floor to the scale of its cost
        # model through the policy, like any other run; below the
        # default floor the percentile rule then applies undamped.
        policy = HealthPolicy(hedge_factor=3.0, hedge_floor_s=0.0)
        clock = HedgeClock(policy)
        for _ in range(20):
            clock.record(0.0005)  # 500 virtual us
        assert clock.threshold_s() == pytest.approx(0.0015)

    def test_disabled_hedging_never_trips(self):
        clock = HedgeClock(HealthPolicy(hedge_enabled=False))
        for _ in range(50):
            clock.record(0.01)
        assert clock.threshold_s() is None

    def test_negative_services_are_ignored(self):
        clock = HedgeClock(HealthPolicy())
        clock.record(-1.0)
        assert clock.samples == 0

    def test_window_is_bounded(self):
        policy = HealthPolicy(hedge_window=4, hedge_min_samples=1,
                              hedge_percentile=100.0, hedge_floor_s=0.0)
        clock = HedgeClock(policy)
        clock.record(99.0)  # evicted once 4 newer samples arrive
        for _ in range(4):
            clock.record(1.0)
        assert clock.percentile() == pytest.approx(1.0)

    def test_to_dict_counters(self):
        clock = HedgeClock(HealthPolicy(hedge_min_samples=1))
        clock.record(0.02)
        clock.issued += 1
        clock.won += 1
        doc = clock.to_dict()
        assert doc["samples"] == 1
        assert doc["issued"] == 1 and doc["won"] == 1 and doc["wasted"] == 0
        assert doc["threshold_ms"] == pytest.approx(60.0)
