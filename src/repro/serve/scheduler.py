"""Multi-tenant run scheduling onto one shared persistent worker pool.

The scheduler owns a fixed set of executor threads (the service's run
slots).  Each slot, when free, picks the next dispatchable ticket by
round-robin *across tenants* — tenant order rotates on every dispatch,
so a tenant with a thousand queued requests gets exactly the same slot
cadence as a tenant with one.  Starvation isolation therefore comes
from two independent mechanisms: bounded per-tenant queues at admission
(see :mod:`repro.serve.tenancy`) and fair slot rotation at dispatch.

A dispatched ticket checks ``workers_per_run`` links out of the shared
:class:`~repro.net.harness.ClusterHarness`, plans the run around the
*cached* executive source (zero codegen on a warm run), drives
:func:`~repro.net.coordinator.run_distributed` — the ``tcp`` backend's
own driver — releases the links, and
completes the ticket's tenant accounting.  A worker dying mid-run fails
only that ticket (supervised runs survive it entirely); the pool heals
itself on the next checkout, so one death never poisons the service.
"""

from __future__ import annotations

import itertools
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..backends.base import BackendError
from ..backends.hosting import plan_run
from ..core.functions import FunctionTable
from ..machine.executive import RunReport
from ..net.coordinator import run_distributed
from ..net.harness import ClusterHarness
from ..realtime.budget import LatencyBudget
from ..syndex.arch import Architecture
from .cache import CachedBuild, CompileCache
from .tenancy import Tenant

__all__ = ["RunRequest", "Ticket", "RunScheduler"]

_TICKET_IDS = itertools.count(1)


@dataclass
class RunRequest:
    """One tenant's ask: run this program on that architecture."""

    source: str
    table: FunctionTable
    arch: Architecture
    tenant: str = "default"
    entry: str = "main"
    max_iterations: Optional[int] = None
    args: Optional[Tuple] = None
    timeout: float = 120.0
    #: Stream-level latency budget (the run's own realtime layer).
    budget: Optional[LatencyBudget] = None
    fault_plan: Optional[Any] = None
    fault_policy: Optional[Any] = None
    #: Tenant admission policy, applied when the tenant is first seen.
    tenant_policy: Optional[LatencyBudget] = None


@dataclass
class Ticket:
    """One submitted request's life inside the service."""

    id: int
    request: RunRequest
    build: CachedBuild
    callback: Optional[Callable[["Ticket"], None]] = None
    state: str = "queued"            # queued | running | done
    status: str = ""                 # ok | shed | failed (terminal)
    report: Optional[RunReport] = None
    error: str = ""
    record: Any = None               # the tenant ledger's FrameRecord
    cache_hit: bool = False
    submitted_s: float = field(default_factory=time.perf_counter)
    done: threading.Event = field(default_factory=threading.Event)

    def finish(self, status: str, *, report: Optional[RunReport] = None,
               error: str = "") -> None:
        self.state = "done"
        self.status = status
        self.report = report
        self.error = error
        self.done.set()
        if self.callback is not None:
            self.callback(self)

    def wait(self, timeout: Optional[float] = None) -> "Ticket":
        if not self.done.wait(timeout):
            raise TimeoutError(f"ticket {self.id} still {self.state}")
        return self

    def to_dict(self) -> Dict:
        age = time.perf_counter() - self.submitted_s
        return {
            "id": self.id,
            "tenant": self.request.tenant,
            "state": self.state,
            "status": self.status,
            "cache_hit": self.cache_hit,
            "age_s": round(age, 3),
        }


class RunScheduler:
    """Executor slots + tenant registry over one shared cluster."""

    def __init__(
        self,
        harness: ClusterHarness,
        cache: CompileCache,
        *,
        workers_per_run: int = 1,
        max_concurrent: Optional[int] = None,
        checkout_timeout: float = 30.0,
        default_tenant_policy: Optional[LatencyBudget] = None,
    ):
        self.harness = harness
        self.cache = cache
        self.workers_per_run = max(1, workers_per_run)
        self.checkout_timeout = checkout_timeout
        self.default_tenant_policy = default_tenant_policy
        slots = max_concurrent or max(
            1, harness.size // self.workers_per_run
        )
        self.epoch = time.perf_counter()
        self.tenants: Dict[str, Tenant] = {}
        self._rr: List[str] = []          # tenant rotation order
        self._live: Dict[int, Ticket] = {}
        #: Worker-health rows of each tenant's most recent supervised
        #: run (``repro stats`` / ``repro ps`` surface these).
        self._last_health: Dict[str, List[Dict]] = {}
        self._cond = threading.Condition()
        self._closing = False
        self._slots = [
            threading.Thread(target=self._slot_loop, name=f"serve-slot-{i}",
                             daemon=True)
            for i in range(slots)
        ]
        for thread in self._slots:
            thread.start()

    @property
    def n_slots(self) -> int:
        return len(self._slots)

    def _now_us(self) -> float:
        return (time.perf_counter() - self.epoch) * 1e6

    # -- submission --------------------------------------------------------

    def submit(self, request: RunRequest, build: CachedBuild,
               callback: Optional[Callable] = None) -> Ticket:
        """Admit one compiled request; returns its ticket immediately.

        A shed request's ticket is already ``done`` on return (status
        ``shed``); an admitted one completes asynchronously on a slot.
        """
        ticket = Ticket(next(_TICKET_IDS), request, build, callback)
        ticket.cache_hit = build.hit
        with self._cond:
            if self._closing:
                raise BackendError("the service is shut down")
            tenant = self.tenants.get(request.tenant)
            if tenant is None:
                tenant = Tenant(
                    request.tenant,
                    request.tenant_policy or self.default_tenant_policy,
                )
                self.tenants[request.tenant] = tenant
                self._rr.append(request.tenant)
            elif request.tenant_policy is not None:
                tenant.budget = request.tenant_policy
            now = self._now_us()
            admitted, displaced, reason = tenant.admit(ticket, now)
            if admitted:
                self._live[ticket.id] = ticket
                self._cond.notify()
        for victim in displaced:
            self._live.pop(victim.id, None)
            victim.finish("shed", error=victim.record.reason)
        if not admitted:
            ticket.finish("shed", error=reason)
        return ticket

    # -- the slots ---------------------------------------------------------

    def _slot_loop(self) -> None:
        while True:
            with self._cond:
                ticket = self._next_locked()
                while ticket is None:
                    if self._closing:
                        return
                    self._cond.wait(0.2)
                    ticket = self._next_locked()
            self._execute(ticket)

    def _next_locked(self) -> Optional[Ticket]:
        """Fair pick: rotate tenant order on every successful dispatch."""
        now = self._now_us()
        for idx, name in enumerate(self._rr):
            ticket = self.tenants[name].take(now)
            if ticket is not None:
                self._rr = self._rr[idx + 1:] + self._rr[:idx + 1]
                ticket.state = "running"
                return ticket
        return None

    def _execute(self, ticket: Ticket) -> None:
        request = ticket.request
        source = self.cache.executive_source(
            ticket.build.key, request.max_iterations, target="python"
        )
        try:
            links = self.harness.checkout(
                self.workers_per_run, timeout=self.checkout_timeout
            )
        except BackendError as err:
            self._complete(ticket, failed=True, reason=str(err))
            ticket.finish("failed", error=str(err))
            return
        try:
            plan = plan_run(
                ticket.build.mapping, request.table,
                max_iterations=request.max_iterations,
                args=request.args,
                record_spans=True,
                fault_plan=request.fault_plan,
                fault_policy=request.fault_policy,
                budget=request.budget,
                source=source,
            )
            report = run_distributed(
                ticket.build.mapping, plan, links,
                timeout=request.timeout, backend="serve",
            )
        except BackendError as err:
            self._complete(ticket, failed=True, reason=str(err))
            ticket.finish("failed", error=str(err))
            return
        except Exception:
            detail = traceback.format_exc()
            self._complete(ticket, failed=True, reason="internal error")
            ticket.finish("failed", error=detail)
            return
        finally:
            self.harness.release(links)
        rows = (report.faults.health_rows()
                if getattr(report.faults, "health_rows", None) else [])
        if rows:
            with self._cond:
                self._last_health[request.tenant] = rows
        self._complete(ticket, failed=False)
        ticket.finish("ok", report=report)

    def _complete(self, ticket: Ticket, *, failed: bool,
                  reason: str = "") -> None:
        with self._cond:
            tenant = self.tenants[ticket.request.tenant]
            tenant.complete(ticket, self._now_us(), failed=failed,
                            reason=reason)
            self._live.pop(ticket.id, None)
            self._cond.notify()

    # -- introspection -----------------------------------------------------

    def ps(self) -> List[Dict]:
        with self._cond:
            rows = [t.to_dict() for t in self._live.values()]
        return sorted(rows, key=lambda r: r["id"])

    def tenant_stats(self) -> List[Dict]:
        with self._cond:
            return [self.tenants[name].to_dict()
                    for name in sorted(self.tenants)]

    def health_stats(self) -> Dict[str, List[Dict]]:
        """Per-tenant worker-health rows of the last supervised run."""
        with self._cond:
            return {tenant: list(rows)
                    for tenant, rows in sorted(self._last_health.items())}

    def ledger(self, tenant: str):
        """The tenant's FrameLedger (tests assert conservation on it)."""
        with self._cond:
            return self.tenants[tenant].ledger

    # -- teardown ----------------------------------------------------------

    def drain(self, timeout: float = 60.0) -> bool:
        """Wait until no ticket is queued or running."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._live:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(min(0.2, remaining))
            return True

    def close(self) -> None:
        with self._cond:
            if self._closing:
                return
            self._closing = True
            now = self._now_us()
            orphans: List[Ticket] = []
            for tenant in self.tenants.values():
                while tenant.queue:
                    ticket = tenant.queue.popleft()
                    tenant.fail_queued(ticket, now, "service shut down")
                    self._live.pop(ticket.id, None)
                    orphans.append(ticket)
            self._cond.notify_all()
        for ticket in orphans:
            ticket.finish("failed", error="service shut down")
        for thread in self._slots:
            thread.join(5.0)
