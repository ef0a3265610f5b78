"""The Scheduler interface and its policy registry.

Placement happens twice in this system, and both halves now route
through one interface:

* **place** — processes onto *processors* (the mapping the executive is
  generated from).  This is the static half: AAA greedy, naive
  round-robin, or the bi-criteria Pareto search.
* **assign** — mapped processors onto *workers* (the tcp coordinator
  dealing processor slices over connected ``repro worker`` machines).
  Round-robin is the registered baseline; the cost-aware policies use
  LPT (longest-processing-time-first) over the cost model's predicted
  per-processor loads so the heaviest processor never lands on the same
  worker as the second-heaviest.

One :class:`~repro.core.registry.Registry`, like backends, targets and
transports: decorate a subclass with ``@SCHEDULERS.register``, select by
name (``repro map``, ``--scheduler``).  ``REPRO_SCHEDULER`` picks only
the tcp coordinator's worker-assignment policy; placement with no
``--scheduler`` stays the AAA heuristic.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.registry import Registry
from ..pnt.graph import ProcessGraph
from ..syndex.arch import Architecture
from ..syndex.distribute import Mapping, distribute, round_robin
from .costmodel import processor_loads
from .mapper import bicriteria_map

__all__ = ["Scheduler", "SCHEDULERS", "get_scheduler", "DEFAULT_SCHEDULER"]

#: The coordinator's default worker-assignment policy; overridable per
#: run (``scheduler=``) or process-wide (``REPRO_SCHEDULER``).
DEFAULT_SCHEDULER = "bicriteria"


class Scheduler:
    """One placement policy (both halves; override either)."""

    name: str = ""
    description: str = ""

    def place(
        self,
        graph: ProcessGraph,
        arch: Architecture,
        *,
        durations: Optional[Dict[str, float]] = None,
        edge_bytes: Optional[Dict[int, int]] = None,
        comm_factor: float = 1.0,
        items_hint: int = 8,
        latency_budget_us: Optional[float] = None,
        throughput_target_hz: Optional[float] = None,
        worker_speeds: Optional[Dict[str, float]] = None,
    ) -> Mapping:
        raise NotImplementedError

    def assign(
        self,
        mapping: Mapping,
        processors: List[str],
        workers: List[Any],
        *,
        durations: Optional[Dict[str, float]] = None,
    ) -> Dict[str, Any]:
        """Deal mapped processors over workers (round-robin default)."""
        return {
            proc: workers[i % len(workers)]
            for i, proc in enumerate(processors)
        }


def _lpt_assign(
    mapping: Mapping,
    processors: List[str],
    workers: List[Any],
    durations: Optional[Dict[str, float]],
) -> Dict[str, Any]:
    """Heaviest processor first onto the least-loaded worker."""
    loads = processor_loads(mapping, durations=durations)
    ordered = sorted(
        processors, key=lambda p: (-loads.get(p, 0.0), p)
    )
    carried = [0.0] * len(workers)
    assignment: Dict[str, Any] = {}
    for proc in ordered:
        slot = min(range(len(workers)), key=lambda i: (carried[i], i))
        carried[slot] += loads.get(proc, 0.0)
        assignment[proc] = workers[slot]
    return assignment


#: Placement policies by name.
SCHEDULERS = Registry(
    "scheduler", env="REPRO_SCHEDULER", default=DEFAULT_SCHEDULER
)
get_scheduler = SCHEDULERS.get


@SCHEDULERS.register
class RoundRobinScheduler(Scheduler):
    """The naive baseline on both halves (kept for A/B comparisons)."""

    name = "round-robin"
    description = ("pin endpoints, deal everything else round-robin "
                   "(baseline)")

    def place(self, graph, arch, **_criteria) -> Mapping:
        return round_robin(graph, arch)


@SCHEDULERS.register
class AaaScheduler(Scheduler):
    """The AAA greedy list-scheduler, with LPT worker assignment."""

    name = "aaa"
    description = ("SynDEx-style greedy list-scheduling (load + "
                   "separation penalty), LPT worker assignment")

    def place(self, graph, arch, *, durations=None, edge_bytes=None,
              comm_factor=1.0, **_criteria) -> Mapping:
        return distribute(
            graph, arch, durations=durations, edge_bytes=edge_bytes,
            comm_factor=comm_factor,
        )

    def assign(self, mapping, processors, workers, *, durations=None):
        return _lpt_assign(mapping, processors, workers, durations)


@SCHEDULERS.register
class BicriteriaScheduler(Scheduler):
    """Pareto search over latency x throughput x reliability."""

    name = "bicriteria"
    description = ("AAA-seeded Pareto local search over latency, "
                   "throughput and reliability (replication)")

    def place(self, graph, arch, **criteria) -> Mapping:
        return bicriteria_map(graph, arch, **criteria)

    def assign(self, mapping, processors, workers, *, durations=None):
        return _lpt_assign(mapping, processors, workers, durations)
