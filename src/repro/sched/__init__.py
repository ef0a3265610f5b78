"""repro.sched — bi-criteria adaptive mapping over the whole stack.

The planning layer the toolchain was missing: a :class:`Scheduler`
interface with registered policies (``round-robin`` baseline, ``aaa``
greedy, ``bicriteria`` Pareto search) routing *both* placement halves —
processes onto processors, mapped processors onto tcp workers — plus
the online side: a count-based :class:`RemapPolicy` migrating work off
degraded workers mid-stream (decided by
:class:`~repro.faults.farm.FarmSupervisor`).

Static criteria and the calibrated cost model live in
:mod:`repro.sched.costmodel`; the Pareto search in
:mod:`repro.sched.mapper`.  ``repro map`` prints every registered
policy's predicted latency / throughput / reliability for a program.
"""

from .costmodel import (
    MappingEstimate,
    predict,
    processor_loads,
    speeds_from_report,
)
from .mapper import Candidate, bicriteria_map, bicriteria_search, pareto_front
from .registry import DEFAULT_SCHEDULER, SCHEDULERS, Scheduler, get_scheduler
from .remap import RemapPolicy

__all__ = [
    "MappingEstimate",
    "predict",
    "processor_loads",
    "speeds_from_report",
    "Candidate",
    "bicriteria_map",
    "bicriteria_search",
    "pareto_front",
    "DEFAULT_SCHEDULER",
    "SCHEDULERS",
    "Scheduler",
    "get_scheduler",
    "RemapPolicy",
]
