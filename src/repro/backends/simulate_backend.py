"""Discrete-event simulation backend (the modelled MIMD-DM machine)."""

from __future__ import annotations

from typing import Any, Optional, Tuple

from ..core.functions import FunctionTable
from ..core.ir import Program
from ..machine.costs import T9000, CostModel
from ..machine.executive import Executive, RunReport
from ..pnt.graph import ProcessKind
from ..syndex.distribute import Mapping
from .base import BACKENDS, Backend, BackendError

__all__ = ["SimulateBackend"]


@BACKENDS.register
class SimulateBackend(Backend):
    """Interpret the mapped network on the simulated machine.

    Computes with real data while simulated time advances per the cost
    models — the repo's stand-in for the ring-connected Transputer
    machine of §4.  Reported times are simulated microseconds.
    """

    name = "simulate"
    description = "discrete-event simulation on the modelled machine"
    real = False
    supports_faults = True
    supports_realtime = True

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
        fault_plan: Optional[Any] = None,
        fault_policy: Optional[Any] = None,
        budget: Optional[Any] = None,
        **options: Any,
    ) -> RunReport:
        if mapping is None:
            raise BackendError("the simulate backend needs a mapping")
        executive = Executive(
            mapping, table, costs,
            real_time=real_time, record_trace=record_trace,
            fault_plan=fault_plan, fault_policy=fault_policy,
            budget=budget,
        )
        if mapping.graph.by_kind(ProcessKind.MEM):
            report = executive.run(max_iterations)
        else:
            report = executive.run_once(*(args or ()))
        report.backend = self.name
        return report
