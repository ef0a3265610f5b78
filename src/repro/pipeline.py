"""The end-to-end SKiPPER pipeline (paper Fig. 2), as one public API.

Typical use::

    from repro import pipeline
    from repro.syndex import ring

    compiled = pipeline.compile_source(src, table)      # parse + HM types + IR
    graph = pipeline.expand(compiled.ir, table)         # skeleton -> PNT graph
    profile = pipeline.profile(graph, table,            # measured costs
                               max_iterations=2, rewind=app.rewind)
    mapping = pipeline.map_onto(graph, ring(8), profile=profile)
    report = pipeline.run(mapping, table, max_iterations=50, real_time=True)

or the one-call convenience :func:`build` that performs all five stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from .core.functions import FunctionTable
from .core.ir import Program
from .machine.costs import FAST_TEST, T9000, CostModel
from .machine.executive import Executive, Profile, RunReport
from .minicaml.compile import CompiledProgram, compile_source
from .pnt.expand import expand_program
from .pnt.graph import ProcessGraph, ProcessKind
from .syndex.arch import Architecture, ring
from .syndex.deadlock import DeadlockReport, check_deadlock_freedom
from .syndex.distribute import Mapping, distribute

__all__ = [
    "compile_source",
    "expand",
    "profile",
    "map_onto",
    "run",
    "build",
    "BuiltApplication",
]


def expand(program: Program, table: Optional[FunctionTable] = None) -> ProcessGraph:
    """Instantiate every skeleton's PNT: program IR → process graph."""
    return expand_program(program, table)


def profile(
    graph: ProcessGraph,
    table: FunctionTable,
    *,
    max_iterations: int = 2,
    args: Optional[Tuple] = None,
    rewind: Optional[Callable[[], None]] = None,
) -> Profile:
    """Measure per-process compute times and per-edge payload sizes.

    Runs the executive on a single-processor machine (so timing is purely
    the cost models — no mapping effects) for a few iterations, recording
    the profile that :func:`map_onto` uses for measured-cost placement.

    Stream sources are *consumed* by profiling; pass ``rewind`` to restore
    them afterwards (e.g. ``app.rewind``).
    """
    mapping = distribute(graph, ring(1))
    executive = Executive(mapping, table, FAST_TEST)
    if graph.by_kind(ProcessKind.MEM):
        executive.run(max_iterations)
    else:
        executive.run_once(*(args or ()))
    if rewind is not None:
        rewind()
    return executive.profile


def map_onto(
    graph: ProcessGraph,
    arch: Architecture,
    *,
    profile: Optional[Profile] = None,
    comm_factor: float = 1.0,
    check: bool = True,
    scheduler: Optional[str] = None,
    latency_budget_us: Optional[float] = None,
    throughput_target_hz: Optional[float] = None,
) -> Mapping:
    """Distribute the process graph onto the architecture.

    With a :class:`~repro.machine.executive.Profile`, placement uses
    measured compute times and transfer costs (the AAA adequation loop);
    without one it falls back to structural weights.  ``check`` verifies
    deadlock freedom and raises on violation.

    ``scheduler`` selects a registered placement policy by name
    (``aaa``, ``bicriteria``, ``round-robin``; see
    :mod:`repro.sched.registry`) instead of calling the AAA heuristic
    directly; the bi-criteria search honours ``latency_budget_us`` /
    ``throughput_target_hz`` as its constrained criterion.
    """
    kwargs: Dict[str, Any] = {"comm_factor": comm_factor}
    if profile is not None:
        kwargs["edge_bytes"] = profile.edge_bytes
        kwargs["durations"] = profile.durations()
    if scheduler is None:
        mapping = distribute(graph, arch, **kwargs)
    else:
        from .sched.registry import get_scheduler

        mapping = get_scheduler(scheduler).place(
            graph, arch,
            latency_budget_us=latency_budget_us,
            throughput_target_hz=throughput_target_hz,
            **kwargs,
        )
    if check:
        report = check_deadlock_freedom(mapping)
        if not report.ok:
            raise RuntimeError(report.render())
    return mapping


def run(
    mapping: Mapping,
    table: FunctionTable,
    costs: CostModel = T9000,
    *,
    backend: str = "simulate",
    program: Optional[Program] = None,
    max_iterations: Optional[int] = None,
    real_time: bool = False,
    args: Optional[Tuple] = None,
    record_trace: bool = False,
    timeout: float = 120.0,
    fault_plan: Optional[Any] = None,
    fault_policy: Optional[Any] = None,
    budget: Optional[Any] = None,
    **options: Any,
) -> RunReport:
    """Execute the mapped program on the selected execution backend.

    ``backend`` names a registered target (``emulate``, ``simulate``,
    ``threads``, ``processes``, ...); the default is the discrete-event
    simulator.  ``program`` (the IR) is only needed by backends that
    bypass the mapping, e.g. ``emulate``.  Backend-specific knobs
    (``start_method``, ``transport``, ...) pass through ``options``.

    ``fault_plan`` (a :class:`~repro.faults.plan.FaultPlan`) switches on
    fault injection and farm supervision on the backends that support it
    (``simulate``, ``threads``, ``processes``); the resulting
    :class:`~repro.faults.report.FaultReport` is attached to the report's
    ``faults`` field.  ``fault_policy`` tunes timeouts and retry budgets.

    ``budget`` (a :class:`~repro.realtime.budget.LatencyBudget`) switches
    on the real-time robustness layer on stream programs: per-frame
    deadlines, bounded-queue admission with the selected overload policy,
    and a frame-conservation ledger attached as ``report.realtime``.
    """
    from .backends import get_backend

    if fault_plan is not None:
        options["fault_plan"] = fault_plan
        options["fault_policy"] = fault_policy
    if budget is not None:
        options["budget"] = budget
    return get_backend(backend).run(
        mapping,
        table,
        program=program,
        costs=costs,
        max_iterations=max_iterations,
        real_time=real_time,
        args=args,
        record_trace=record_trace,
        timeout=timeout,
        **options,
    )


@dataclass
class BuiltApplication:
    """Everything :func:`build` produced, ready to run."""

    compiled: CompiledProgram
    graph: ProcessGraph
    mapping: Mapping
    deadlock: DeadlockReport
    profile: Optional[Profile]
    table: FunctionTable
    costs: CostModel

    def run(
        self,
        *,
        backend: str = "simulate",
        max_iterations: Optional[int] = None,
        real_time: bool = False,
        args: Optional[Tuple] = None,
        record_trace: bool = False,
        timeout: float = 120.0,
        **options: Any,
    ) -> RunReport:
        return run(
            self.mapping,
            self.table,
            self.costs,
            backend=backend,
            program=self.compiled.ir,
            max_iterations=max_iterations,
            real_time=real_time,
            args=args,
            record_trace=record_trace,
            timeout=timeout,
            **options,
        )

    def emulate(self, **kw):
        """The sequential-emulation path on the same source."""
        return self.compiled.emulate(**kw)


def build(
    source: str,
    table: FunctionTable,
    arch: Architecture,
    *,
    costs: CostModel = T9000,
    profile_iterations: int = 0,
    profile_args: Optional[Tuple] = None,
    rewind: Optional[Callable[[], None]] = None,
    comm_factor: float = 1.0,
    entry: str = "main",
    cache: Optional[Any] = None,
    scheduler: Optional[str] = None,
) -> BuiltApplication:
    """Compile, expand, (optionally) profile, map and verify in one call.

    ``profile_iterations > 0`` enables the measured-cost placement;
    supply ``rewind`` so the profiling run can restore stream sources.

    ``cache`` (a :class:`~repro.serve.cache.CompileCache`) routes the
    compile stages through a content-addressed artefact cache — an
    unchanged (source, table, architecture) triple rebuilds for free.
    Profiled or retuned builds bypass it: measured costs and
    ``comm_factor`` shape the mapping but not the cache key.
    """
    if (
        cache is not None
        and profile_iterations == 0
        and profile_args is None
        and comm_factor == 1.0
        and scheduler is None
    ):
        cached = cache.build(source, table, arch, entry=entry)
        report = check_deadlock_freedom(cached.mapping)
        return BuiltApplication(
            cached.compiled, cached.graph, cached.mapping, report,
            None, table, costs,
        )
    compiled = compile_source(source, table, entry=entry)
    graph = expand(compiled.ir, table)
    prof = None
    if profile_iterations > 0 or profile_args is not None:
        prof = profile(
            graph,
            table,
            max_iterations=profile_iterations or 2,
            args=profile_args,
            rewind=rewind,
        )
    mapping = map_onto(graph, arch, profile=prof, comm_factor=comm_factor,
                       scheduler=scheduler)
    report = check_deadlock_freedom(mapping)
    return BuiltApplication(compiled, graph, mapping, report, prof, table, costs)
