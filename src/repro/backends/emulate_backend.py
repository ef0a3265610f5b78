"""Sequential-emulation backend (the paper's correctness oracle)."""

from __future__ import annotations

from typing import Any, Optional, Tuple

from ..core.emulate import emulate, emulate_once
from ..core.functions import FunctionTable
from ..core.ir import Program
from ..machine.costs import T9000, CostModel
from ..machine.executive import RunReport
from ..syndex.distribute import Mapping
from .base import BACKENDS, Backend, BackendError

__all__ = ["EmulateBackend"]


@BACKENDS.register
class EmulateBackend(Backend):
    """Run the program IR directly with the declarative semantics.

    No process graph, no mapping, no timing — just function application.
    This is the left branch of the paper's Fig. 2 and the reference
    output every parallel backend must reproduce.
    """

    name = "emulate"
    description = "sequential emulation of the program IR (reference output)"
    real = False
    needs_mapping = False

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
        if program is None:
            raise BackendError(
                "the emulate backend runs the program IR; pass program="
            )
        if program.stream is not None:
            result = emulate(program, table, max_iterations=max_iterations)
            return RunReport(
                iterations=[],
                outputs=result.outputs,
                final_state=result.final_state,
                makespan=0.0,
                proc_busy={},
                chan_busy={},
                backend=self.name,
            )
        results = emulate_once(program, table, *(args or ()))
        return RunReport(
            iterations=[],
            outputs=list(results),
            final_state=None,
            makespan=0.0,
            proc_busy={},
            chan_busy={},
            one_shot_results=results,
            backend=self.name,
        )
