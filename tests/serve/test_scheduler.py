"""Run slots sleep on the scheduler's condition until there is work.

The pool and the runs are stubbed out: a dispatched ticket goes to
``_execute``, which here completes it at once (or meets a partner at a
barrier first), so only the slots' waiting is under test.
"""

import threading
import time
import types

from repro.realtime import LatencyBudget
from repro.serve import scheduler as scheduler_module
from repro.serve.scheduler import RunRequest, RunScheduler

WAIT = 20.0


class CountingCondition(threading.Condition):
    """A condition that counts how often a waiter woke up."""

    wakes = 0

    def wait(self, timeout=None):
        try:
            return super().wait(timeout)
        finally:
            self.wakes += 1     # the lock is held again here


class InstantRuns(RunScheduler):
    """A scheduler whose runs complete as soon as they are dispatched."""

    meet = None

    def _execute(self, ticket):
        if self.meet is not None:
            self.meet.wait()
        self._complete(ticket, failed=False)
        ticket.finish("ok")


def make_scheduler(monkeypatch, slots=4, **tenant_policy):
    monkeypatch.setattr(scheduler_module, "threading", types.SimpleNamespace(
        Condition=CountingCondition, Thread=threading.Thread))
    return InstantRuns(types.SimpleNamespace(size=slots), None,
                       max_concurrent=slots,
                       default_tenant_policy=(LatencyBudget(**tenant_policy)
                                              if tenant_policy else None))


def submit(scheduler):
    request = RunRequest(source="", table=None, arch=None, tenant="t")
    return scheduler.submit(request, types.SimpleNamespace(hit=False))


def test_idle_slots_sleep_until_a_submit(monkeypatch):
    scheduler = make_scheduler(monkeypatch)
    try:
        assert scheduler.n_slots == 4
        time.sleep(1.0)
        assert scheduler._cond.wakes == 0, "an idle slot woke up"
        assert submit(scheduler).wait(WAIT).status == "ok"
        assert scheduler.drain(WAIT)
    finally:
        scheduler.close()
    assert not any(slot.is_alive() for slot in scheduler._slots)


def test_a_parked_ticket_that_enters_the_buffer_is_dispatched(monkeypatch):
    # A block tenant with a one-deep buffer and two runs at once: the
    # second ticket is parked behind the first, enters the buffer when
    # the first is dispatched, and must reach the second slot while the
    # first run is still going — both meet at the barrier.
    scheduler = make_scheduler(monkeypatch, policy="block",
                               max_in_flight=2, queue_depth=1)
    scheduler.meet = threading.Barrier(2, timeout=WAIT)
    try:
        with scheduler._cond:     # no slot dispatches before both are in
            tickets = [submit(scheduler) for _ in range(2)]
            assert len(scheduler.tenants["t"].parked) == 1
        assert [t.wait(WAIT).status for t in tickets] == ["ok"] * 2
        assert scheduler.drain(WAIT)
        assert scheduler.ledger("t").conserved()
    finally:
        scheduler.meet.abort()
        scheduler.close()
