"""Per-tenant admission control: the stream admission core over *requests*.

A tenant is one traffic source sharing the service (one camera rig, one
batch job, one test).  It drives an
:class:`~repro.realtime.admission.AdmissionCore` — the one a stream
run's realtime kernel drives — with one request per frame:
``deadline_ms`` is the submit→result turnaround, ``queue_depth`` /
``max_in_flight`` bound the requests waiting / running, and the core
alone decides the ``policy``.  The tenant adds the tickets behind the
core's frames and a FIFO of the submits a ``block`` core parked, each
offered again when a dispatch frees a buffer slot: a ``block`` tenant
never sheds, keeps submit order, and counts latency from the submit.

Every offered request reaches a terminal status in the core's ledger,
so delivered + shed + failed == submitted holds per tenant as it does
per stream run — and an overloaded tenant sheds against *its own*
bounded queue while a quiet tenant's requests flow past untouched.
All mutating methods must be called under the scheduler's lock.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..realtime.admission import PARK, AdmissionCore, Shed
from ..realtime.budget import LatencyBudget

__all__ = ["DEFAULT_TENANT_POLICY", "Tenant"]

#: Service-side default: never shed, generous per-request turnaround.
DEFAULT_TENANT_POLICY = LatencyBudget(
    deadline_ms=60_000.0, policy="block", max_in_flight=2, queue_depth=8,
)


class Tenant:
    """One tenant's admission core and the tickets behind its frames."""

    def __init__(self, name: str, budget: Optional[LatencyBudget] = None):
        self.name = name
        self.core = AdmissionCore(budget or DEFAULT_TENANT_POLICY)
        #: frame -> ticket, for the core's admission buffer (in order).
        self.buffered: Dict[int, Any] = {}
        #: (ticket, submit µs) the core parked, oldest first.
        self.parked: Deque[Tuple[Any, float]] = deque()

    def admit(self, ticket, now_us: float) -> List:
        """Offer one submitted request; returns the tickets it sheds —
        itself last when refused — each owed a shed response."""
        if not self.parked:
            shed = self._offer(ticket, now_us)
            if shed is not None:
                return shed
        self.parked.append((ticket, now_us))
        return []

    def _offer(self, ticket, now_us: float) -> Optional[List]:
        """Carry one offer's decisions out; None when the core parks."""
        decisions = self.core.offer(now_us)
        last = decisions[-1]
        if last is PARK:
            return None
        shed = [self.buffered.pop(victim.frame) for victim in decisions[:-1]]
        ticket.record = self.core.ledger.frames[last.frame]
        if isinstance(last, Shed):
            shed.append(ticket)
        else:
            self.buffered[last.frame] = ticket
        return shed

    def take(self, now_us: float):
        """The next dispatchable ticket, or None (empty / window full).
        The oldest parked submit takes the buffer slot this frees."""
        if not self.core.may_release(self.core.in_flight):
            return None
        frame = next(iter(self.buffered))
        ticket = self.buffered.pop(frame)
        self.core.released(frame, now_us)
        if self.parked and self._offer(*self.parked[0]) is not None:
            self.parked.popleft()
        return ticket

    def complete(self, ticket, now_us: float, *, failed: bool = False,
                 reason: str = "") -> None:
        """Terminal accounting for a dispatched ticket."""
        if failed:
            self.core.failed(ticket.record.frame, now_us,
                             reason or "run failed")
        else:
            self.core.delivered(ticket.record.frame, now_us)

    def abort(self, now_us: float, reason: str) -> List:
        """Fail every request still waiting (service shutdown); returns
        their tickets.  A parked one has no record to fail."""
        for frame in self.buffered:
            self.core.failed(frame, now_us, reason)
        orphans = list(self.buffered.values())
        orphans += [ticket for ticket, _ in self.parked]
        self.buffered.clear()
        self.parked.clear()
        return orphans

    def to_dict(self) -> dict:
        L = self.core.ledger
        budget = self.core.budget
        in_flight = self.core.in_flight
        return {
            "tenant": self.name,
            "policy": budget.policy,
            "deadline_ms": budget.deadline_ms,
            "submitted": L.submitted + len(self.parked),
            "delivered": len(L.delivered),
            "shed": len(L.shed),
            "failed": len(L.failed),
            "queued": len(self.buffered) + len(self.parked),
            "in_flight": in_flight,
            "deadline_misses": L.deadline_misses,
            "degraded": self.core.degraded,
            "conserved": L.unaccounted() == len(self.buffered) + in_flight,
            "p50_ms": round(L.p50_us / 1000, 2),
            "p99_ms": round(L.p99_us / 1000, 2),
        }
