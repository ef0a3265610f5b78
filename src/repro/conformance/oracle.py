"""The differential + invariant oracle for one conformance case.

:func:`run_case` elaborates a :class:`~repro.conformance.generator.CaseSpec`,
establishes the sequential-emulation reference (the left branch of the
paper's Fig. 2), then executes the same program on each requested
backend and demands (a) bit-identical outputs and (b) a clean bill from
the trace invariant checker.  The first discrepancy comes back as a
:class:`CaseFailure`; ``None`` means the case conforms everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..backends import get_backend
from ..faults import FaultPlan, FaultPolicy, FaultSpec
from ..machine.costs import FAST_TEST
from ..pnt import expand_program
from ..syndex.distribute import Mapping, distribute
from .functions import make_counting_table, reset_stream
from .generator import BuiltCase, CaseSpec, build_case, make_arch
from .invariants import check_trace_invariants

__all__ = ["CaseFailure", "run_case", "fault_plan_of"]

#: Failure phases, in pipeline order.
PHASES = ("build", "reference", "run", "differential", "invariant")

#: Snappy supervision for injected faults on real backends (the
#: interactive defaults would dominate the fuzzing budget).
CHECK_POLICY = FaultPolicy(
    packet_timeout_s=0.3,
    heartbeat_timeout_s=0.15,
)


@dataclass
class CaseFailure:
    """One conformance violation, with everything needed to reproduce it."""

    spec: CaseSpec
    phase: str       # see PHASES
    backend: Optional[str]
    detail: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "phase": self.phase,
            "backend": self.backend,
            "detail": self.detail,
        }

    def describe(self) -> str:
        where = f" [{self.backend}]" if self.backend else ""
        return f"case seed={self.spec.seed} {self.phase}{where}: {self.detail}"


def fault_plan_of(spec: CaseSpec) -> Optional[FaultPlan]:
    """The case's concrete fault plan (None when fault-free)."""
    if not spec.faults:
        return None
    return FaultPlan(
        events=[FaultSpec.from_dict(dict(e)) for e in spec.faults],
        seed=spec.seed,
    )


def _diff_reports(reference, report) -> Optional[str]:
    """First observable difference against the emulation reference."""
    if report.outputs != reference.outputs:
        return (f"outputs diverge: {report.outputs!r} != "
                f"{reference.outputs!r} (reference)")
    if report.final_state != reference.final_state:
        return (f"final state diverges: {report.final_state!r} != "
                f"{reference.final_state!r} (reference)")
    if (reference.one_shot_results is not None
            and report.one_shot_results != reference.one_shot_results):
        return (f"one-shot results diverge: {report.one_shot_results!r} != "
                f"{reference.one_shot_results!r} (reference)")
    return None


def build_mapping(built: BuiltCase) -> Mapping:
    """Expand and place the case once (shared by every backend run)."""
    graph = expand_program(built.program, built.table)
    return distribute(graph, make_arch(built.spec))


def run_case(
    spec: CaseSpec,
    backends: Sequence[str],
    *,
    timeout: float = 30.0,
) -> Optional[CaseFailure]:
    """Run one case differentially; the first failure, or None."""
    try:
        built = build_case(spec)
        mapping = build_mapping(built)
    except Exception as err:  # noqa: BLE001 - any build error is a finding
        return CaseFailure(spec, "build", None, f"{type(err).__name__}: {err}")

    # Sequential-emulation reference, on a call-counting shadow table so
    # the invariant checker knows how many packets each farm owes.
    counting_table, expected_calls = make_counting_table(built.table)
    reset_stream()
    try:
        reference = get_backend("emulate").run(
            None, counting_table,
            program=built.program,
            args=built.args,
            max_iterations=built.max_iterations,
        )
    except Exception as err:  # noqa: BLE001
        return CaseFailure(
            spec, "reference", "emulate", f"{type(err).__name__}: {err}"
        )
    expected_calls = dict(expected_calls)  # freeze the reference's counts

    plan = fault_plan_of(spec)
    for name in backends:
        if name == "emulate":
            continue  # it *is* the reference
        backend = get_backend(name)
        options: Dict[str, Any] = {}
        if plan is not None:
            if not backend.supports_faults:
                # A fault case still exercises every other backend; a
                # backend that cannot inject (asyncio, standalone) just
                # skips the fault legs rather than failing them.
                continue
            options["fault_plan"] = fault_plan_of(spec)  # fresh matcher state
            if backend.real:
                options["fault_policy"] = CHECK_POLICY
        reset_stream()
        try:
            report = backend.run(
                mapping, built.table,
                program=built.program,
                costs=FAST_TEST,
                args=built.args,
                max_iterations=built.max_iterations,
                record_trace=True,
                timeout=timeout,
                **options,
            )
        except Exception as err:  # noqa: BLE001
            return CaseFailure(
                spec, "run", name, f"{type(err).__name__}: {err}"
            )

        detail = _diff_reports(reference, report)
        if detail is not None:
            return CaseFailure(spec, "differential", name, detail)

        # The simulator is deterministic and fully serialised, so it
        # answers to the strictest invariants; real backends get the
        # clock-independent subset.
        if name == "simulate":
            violations = check_trace_invariants(
                report, mapping, expected_calls, strict_serial=True
            )
        else:
            violations = check_trace_invariants(report, mapping, None)
        if violations:
            return CaseFailure(
                spec, "invariant", name, "; ".join(violations[:4])
            )
    return None


def available_backends(names: Sequence[str]) -> List[str]:
    """The subset of ``names`` that can run here (registry-checked)."""
    from ..backends import BackendError

    usable = []
    for name in names:
        try:
            get_backend(name)
        except BackendError:
            continue
        usable.append(name)
    return usable
