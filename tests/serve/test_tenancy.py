"""Tenant admission control: the admission core's policies over requests."""

import pytest

from repro.realtime import LatencyBudget
from repro.serve.scheduler import RunRequest, Ticket
from repro.serve.tenancy import DEFAULT_TENANT_POLICY, Tenant


def ticket(n: int) -> Ticket:
    return Ticket(n, RunRequest(source="", table=None, arch=None), None)


def policy(kind: str, depth: int = 2, in_flight: int = 1,
           deadline_ms: float = 60_000.0) -> LatencyBudget:
    return LatencyBudget(deadline_ms=deadline_ms, policy=kind,
                         max_in_flight=in_flight, queue_depth=depth)


def conserved(tenant: Tenant) -> bool:
    L = tenant.core.ledger
    return L.unaccounted() == len(tenant.buffered) + tenant.core.in_flight


def refused(tenant: Tenant, t: Ticket, now_us: float) -> bool:
    shed = tenant.admit(t, now_us)
    return bool(shed) and shed[-1] is t


def dispatch_all(tenant: Tenant, now_us: float) -> list:
    done = []
    while (t := tenant.take(now_us)) is not None:
        tenant.complete(t, now_us)
        done.append(t.id)
    return done


class TestAdmission:
    def test_block_never_sheds(self):
        tenant = Tenant("t", policy("block", depth=1))
        for i in range(6):
            assert tenant.admit(ticket(i), float(i)) == []
        # One waits in the core's buffer; the rest are parked, in order.
        assert list(tenant.buffered) == [0]
        assert [t.id for t, _ in tenant.parked] == [1, 2, 3, 4, 5]
        assert conserved(tenant)
        # Dispatch keeps submit order; latency counts from the submit.
        assert dispatch_all(tenant, 10.0) == [0, 1, 2, 3, 4, 5]
        frames = tenant.core.ledger.frames
        assert [f.admitted_us for f in frames] == [0.0, 1.0, 2.0, 3.0,
                                                   4.0, 5.0]
        assert tenant.core.ledger.conserved()

    def test_shed_newest_refuses_at_depth(self):
        tenant = Tenant("t", policy("shed-newest", depth=2))
        for i in range(2):
            assert tenant.admit(ticket(i), 0.0) == []
        newest = ticket(2)
        assert tenant.admit(newest, 1.0) == [newest]
        assert newest.record.reason == "shed-newest"
        assert len(tenant.core.ledger.shed) == 1
        assert conserved(tenant)

    def test_shed_oldest_displaces_stalest(self):
        tenant = Tenant("t", policy("shed-oldest", depth=2))
        first = ticket(0)
        tenant.admit(first, 0.0)
        tenant.admit(ticket(1), 1.0)
        assert tenant.admit(ticket(2), 2.0) == [first]
        assert first.record.status == "shed"
        assert [t.id for t in tenant.buffered.values()] == [1, 2]
        assert conserved(tenant)

    def test_degrade_thins_admission_until_backlog_clears(self):
        tenant = Tenant("t", policy("degrade", depth=2))
        for i in range(2):
            assert tenant.admit(ticket(i), 0.0) == []
        verdicts = [not refused(tenant, ticket(2 + i), float(i))
                    for i in range(4)]
        assert not all(verdicts), "degraded mode must refuse some"
        assert any(verdicts), "degraded mode must not refuse all"
        assert tenant.core.degraded
        assert any(e.kind == "degraded-enter" for e in tenant.core.events)
        dispatch_all(tenant, 10.0)
        assert not tenant.core.degraded
        assert any(e.kind == "degraded-exit" for e in tenant.core.events)


class TestDispatchAndCompletion:
    def test_take_respects_in_flight_window(self):
        tenant = Tenant("t", policy("block", in_flight=1))
        tenant.admit(ticket(0), 0.0)
        tenant.admit(ticket(1), 0.0)
        first = tenant.take(1.0)
        assert first is not None and tenant.core.in_flight == 1
        assert tenant.take(1.0) is None, "window of 1 is full"
        tenant.complete(first, 2.0)
        assert tenant.take(3.0) is not None

    def test_completion_conserves_and_times(self):
        tenant = Tenant("t", policy("block"))
        tenant.admit(ticket(0), 0.0)
        t = tenant.take(5.0)
        tenant.complete(t, 10.0)
        record = tenant.core.ledger.frames[0]
        assert record.status == "delivered"
        assert record.latency_us == 10.0
        assert conserved(tenant)

    def test_deadline_miss_recorded(self):
        tenant = Tenant("t", policy("block", deadline_ms=0.001))
        tenant.admit(ticket(0), 0.0)
        t = tenant.take(0.0)
        tenant.complete(t, 5_000.0)  # 5 ms turnaround, 1 us budget
        assert tenant.core.ledger.deadline_misses == 1
        assert any(e.kind == "deadline-miss" for e in tenant.core.events)

    def test_failed_completion(self):
        tenant = Tenant("t", policy("block"))
        tenant.admit(ticket(0), 0.0)
        t = tenant.take(0.0)
        tenant.complete(t, 1.0, failed=True, reason="worker died")
        assert len(tenant.core.ledger.failed) == 1
        assert tenant.core.ledger.frames[0].reason == "worker died"
        assert conserved(tenant)

    def test_abort_fails_the_buffer_and_hands_back_the_parked(self):
        tenant = Tenant("t", policy("block", depth=1))
        for i in range(3):
            tenant.admit(ticket(i), 0.0)
        running = tenant.take(1.0)       # 1 enters the buffer behind it
        orphans = tenant.abort(2.0, "service shut down")
        assert [t.id for t in orphans] == [1, 2]
        assert [f.status for f in tenant.core.ledger.frames] == [
            "in-flight", "failed"]
        tenant.complete(running, 3.0)
        assert tenant.core.ledger.conserved()

    def test_default_policy_blocks(self):
        assert Tenant("t").core.budget is DEFAULT_TENANT_POLICY
        assert DEFAULT_TENANT_POLICY.policy == "block"

    def test_to_dict_round_numbers(self):
        tenant = Tenant("t", policy("block"))
        tenant.admit(ticket(0), 0.0)
        tenant.complete(tenant.take(0.0), 1000.0)
        row = tenant.to_dict()
        assert row["submitted"] == 1 and row["delivered"] == 1
        assert row["conserved"] is True
        assert row["p50_ms"] == pytest.approx(1.0)
