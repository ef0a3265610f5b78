"""Threaded-executive backend: one :func:`~repro.backends.hosting.host_run`
that hosts every processor, in this interpreter."""

from __future__ import annotations

import threading
import time
from typing import Any, List, Optional, Tuple

from ..core.functions import FunctionTable
from ..core.ir import Program
from ..machine.costs import T9000, CostModel
from ..machine.executive import RunReport
from ..syndex.distribute import Mapping
from .base import BACKENDS, Backend, BackendError
from .hosting import host_run, merge_run, plan_run

__all__ = ["ThreadBackend"]


@BACKENDS.register
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
        plan = plan_run(
            mapping, table,
            max_iterations=max_iterations,
            args=args,
            record_spans=record_trace,
            fault_plan=fault_plan,
            fault_policy=fault_policy,
            budget=budget,
        )
        # The only host of the run raises its stop flag itself: when its
        # sinks are complete, or at the deadline.
        stop = threading.Event()
        completed = threading.Event()

        def on_sinks(_processors: List[str]) -> None:
            completed.set()
            stop.set()

        deadline = threading.Timer(timeout, stop.set)
        deadline.daemon = True
        start = time.perf_counter()
        deadline.start()
        try:
            payload = host_run(plan, stop=stop, on_sinks=on_sinks)
        finally:
            deadline.cancel()
        wall_us = (time.perf_counter() - start) * 1e6
        if not completed.is_set():
            raise BackendError(
                "threads run exceeded its timeout (deadlocked executive?)"
            )
        return merge_run(plan, [payload], wall_us, self.name)
