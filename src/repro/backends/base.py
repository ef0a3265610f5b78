"""The common execution-backend interface.

The paper isolates "thread creation, communication and synchronisation"
behind the kernel primitives precisely so the rest of the environment is
retargetable (§3).  This module is the corresponding seam one level up:
a :class:`Backend` takes a mapped program (or, for pure emulation, the
program IR) plus the sequential-function table and produces a
:class:`~repro.machine.executive.RunReport` — whatever substrate it runs
on.  Registering a new execution target means implementing exactly this
interface and decorating the class with ``@BACKENDS.register``.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Tuple

from ..core.functions import FunctionTable
from ..core.ir import Program
from ..core.registry import Registry
from ..machine.costs import T9000, CostModel
from ..machine.executive import RunReport
from ..machine.trace import Trace
from ..syndex.distribute import Mapping

__all__ = [
    "BACKENDS", "Backend", "BackendError", "get_backend", "pin_to_cpu",
    "report_from_blackboard",
]


class BackendError(RuntimeError):
    """A backend could not execute the mapped program."""


#: Execution backends by name; ``repro backends`` prints the columns.
BACKENDS = Registry(
    "backend", BackendError,
    columns=(("faults", "supports_faults"), ("realtime", "supports_realtime"),
             ("distributed", "distributed")),
)
get_backend = BACKENDS.get


def pin_to_cpu(index: int) -> Optional[int]:
    """Pin the calling worker process to one CPU of its inherited mask.

    A mapped processor is *one* Transputer; its OS-process stand-in is
    a dozen GIL-bound threads, and every migration of those threads
    between cores turns a GIL hand-off into a cross-core wake.  Worker
    ``index`` (its rank among the run's workers) takes
    ``cpus[index % len(cpus)]`` of the affinity mask it inherited, so a
    restricted mask (``taskset``, a cgroup) is respected and more
    workers than CPUs wrap.  Call it before any thread is spawned:
    threads inherit the caller's mask.  Returns the chosen CPU, or
    ``None`` where there is nothing to choose (a one-CPU mask, or a
    platform without ``sched_setaffinity``).
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    cpu = cpus[index % len(cpus)]
    os.sched_setaffinity(0, {cpu})
    return cpu


class Backend:
    """One execution target for mapped skeletal programs.

    Class attributes:
        name: registry key (``emulate``, ``simulate``, ``threads``, ...).
        description: one-line summary shown by ``repro backends``.
        real: True when the backend actually executes concurrently and
            reports wall-clock time; False for the simulated/sequential
            paths whose times are model-derived (or absent).
        needs_mapping: False for backends (sequential emulation) that run
            the program IR directly and ignore the placement.
        supports_faults: honours ``fault_plan``/``fault_policy`` (runs
            the fault supervisor).
        supports_realtime: honours ``budget`` (runs the realtime
            admission/delivery layer).
        distributed: executes across more than one host boundary (the
            tcp backend); the capability matrix in ``repro backends``
            renders these three flags.
    """

    name: str = "?"
    description: str = ""
    real: bool = False
    needs_mapping: bool = True
    supports_faults: bool = False
    supports_realtime: bool = False
    distributed: bool = False

    def run(
        self,
        mapping: Optional[Mapping],
        table: FunctionTable,
        *,
        program: Optional[Program] = None,
        costs: CostModel = T9000,
        max_iterations: Optional[int] = None,
        args: Optional[Tuple] = None,
        real_time: bool = False,
        record_trace: bool = False,
        timeout: float = 120.0,
        **options: Any,
    ) -> RunReport:
        """Execute the program and report outputs (and timing when real).

        Stream programs honour ``max_iterations``; one-shot programs take
        their input values from ``args``.  ``record_trace`` asks for span
        recording (``report.trace``); ``timeout`` bounds real runs so a
        deadlocked executive raises instead of hanging.
        """
        raise NotImplementedError

    @classmethod
    def available(cls) -> bool:
        """Whether this backend can run on the current host."""
        return True


def report_from_blackboard(
    blackboard: Dict[str, Any],
    *,
    makespan: float,
    backend: str,
    trace: Optional[Trace] = None,
) -> RunReport:
    """Convert an executive kernel blackboard into a :class:`RunReport`.

    The generated executive leaves ``outputs``/``final_state`` entries
    for stream programs and ``result_<i>`` entries for one-shot ones;
    ``makespan`` is the measured wall-clock duration in µs.  Busy totals
    are aggregated from the trace when one was recorded.
    """
    n_results = sum(1 for k in blackboard if k.startswith("result_"))
    one_shot: Optional[Tuple[Any, ...]] = None
    outputs = list(blackboard.get("outputs", []))
    if n_results:
        one_shot = tuple(blackboard[f"result_{i}"] for i in range(n_results))
        outputs = list(one_shot)
    proc_busy: Dict[str, float] = {}
    chan_busy: Dict[str, float] = {}
    if trace is not None:
        for span in trace.compute:
            proc_busy[span.resource] = (
                proc_busy.get(span.resource, 0.0) + span.duration
            )
        for span in trace.transfer:
            chan_busy[span.resource] = (
                chan_busy.get(span.resource, 0.0) + span.duration
            )
    return RunReport(
        iterations=[],
        outputs=outputs,
        final_state=blackboard.get("final_state"),
        makespan=makespan,
        proc_busy=proc_busy,
        chan_busy=chan_busy,
        one_shot_results=one_shot,
        trace=trace,
        backend=backend,
        wall_clock=True,
    )
