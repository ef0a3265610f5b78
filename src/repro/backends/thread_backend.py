"""Threaded-executive backend: the generated code on one
:class:`~repro.codegen.kernel.Kernel` that hosts every processor."""

from __future__ import annotations

import time
from typing import Any, Optional, Tuple

from ..codegen.kernel import Kernel
from ..codegen.pygen import run_generated, thread_name
from ..core.functions import FunctionTable
from ..core.ir import Program
from ..machine.costs import T9000, CostModel
from ..machine.executive import RunReport
from ..machine.trace import Trace
from ..syndex.distribute import Mapping
from .base import Backend, BackendError, report_from_blackboard
from .registry import register_backend

__all__ = ["ThreadBackend"]


@register_backend
class ThreadBackend(Backend):
    """Run the generated executive concurrently on Python threads.

    Real concurrency, shared memory, no serialisation — but the CPython
    GIL serialises pure-Python compute, so this backend overlaps I/O and
    models the executive faithfully without multi-core speedup.  Use the
    ``processes`` backend for CPU-bound kernels.
    """

    name = "threads"
    description = "generated executive on Python threads (GIL-bound)"
    real = True
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
            raise BackendError("the threads backend needs a mapping")
        trace = Trace() if record_trace else None
        placement = {
            thread_name(pid): proc
            for pid, proc in mapping.assignment.items()
        }
        base = Kernel(placement=placement, record_spans=record_trace)
        kernel: Any = base
        fault_report = None
        if fault_plan is not None:
            from ..faults.supervisor import SupervisedKernel
            from ..faults.topology import FaultTopology

            kernel = SupervisedKernel(
                kernel,
                FaultTopology.from_mapping(mapping),
                plan=fault_plan,
                policy=fault_policy,
            )
            fault_report = kernel.fault_report
        realtime_kernel = None
        if budget is not None:
            from ..realtime.kernel import RealtimeKernel
            from ..realtime.topology import StreamTopology

            stream = StreamTopology.from_mapping(mapping)
            if stream is None:
                raise BackendError(
                    "a latency budget needs a stream program (no stream "
                    "input/output in this mapping)"
                )
            kernel = realtime_kernel = RealtimeKernel(
                kernel, stream, budget
            )
        start = time.perf_counter()
        try:
            blackboard = run_generated(
                mapping, table,
                kernel=kernel,
                max_iterations=max_iterations,
                args=args,
                timeout=timeout,
            )
        finally:
            shutdown = getattr(kernel, "shutdown", None)
            if shutdown is not None and (fault_plan is not None
                                         or budget is not None):
                shutdown()
        wall_us = (time.perf_counter() - start) * 1e6
        if trace is not None:
            for span in base.compute_spans:
                trace.add_compute(*span)
        if fault_report is not None:
            fault_report.sorted()
            if trace is not None:
                fault_report.annotate_trace(trace)
        realtime_report = None
        if realtime_kernel is not None:
            realtime_report = realtime_kernel.build_report()
            if trace is not None:
                realtime_report.annotate_trace(trace)
        report = report_from_blackboard(
            blackboard, makespan=wall_us, backend=self.name, trace=trace
        )
        report.faults = fault_report
        report.realtime = realtime_report
        return report
