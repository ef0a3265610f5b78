"""Asyncio-executive backend (generated coroutines on one event loop).

The sixth registered execution backend: the ``asyncio`` codegen target
emits the same skeleton bodies as ``async def`` coroutines, and this
backend runs them on an :class:`~repro.codegen.async_kernel.AsyncioKernel`
inside a private event loop.  Every mapped process is a Task and every
channel a bounded :class:`asyncio.Queue`, so concurrency costs one
object per process instead of one OS thread — the regime where
I/O-bound graphs sustain thousands of concurrent streams in a single
process.

The run is planned and merged by the driver every kernel-hosted backend
shares (:mod:`repro.backends.hosting`); only the hosting is this
backend's own, because its wrapper is ``await``-coloured: realtime
admission composes through
:class:`~repro.backends.policy_kernel.AsyncPolicyKernel` (its service
is a loop task).  Fault supervision does not: its heartbeats and
synchronous primitive hooks assume a thread kernel, so a fault plan is
rejected rather than half-honoured (the capability matrix and the
conformance oracle both read ``supports_faults``).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import astuple
from typing import Any, Dict, Optional, Tuple

from ..codegen.async_kernel import AsyncioKernel
from ..codegen.pygen import load_executive
from ..codegen.targets import get_target
from ..core.functions import FunctionTable
from ..core.ir import Program
from ..machine.costs import T9000, CostModel
from ..machine.executive import RunReport
from ..machine.trace import Trace
from ..syndex.distribute import Mapping
from .base import BACKENDS, Backend, BackendError
from .hosting import merge_run, plan_run
from .policy_kernel import AsyncPolicyKernel

__all__ = ["AsyncioBackend"]


@BACKENDS.register
class AsyncioBackend(Backend):
    """Run the generated coroutine executive on one event loop.

    Cooperative concurrency: sequential functions run on the loop
    thread, so a long CPU-bound function stalls every process — use
    ``threads`` or ``processes`` for compute-heavy tables.  For graphs
    dominated by waiting (sockets, sleeps, devices) this is the
    cheapest concurrency the environment offers.
    """

    name = "asyncio"
    description = "generated coroutine executive on one event loop"
    real = True
    supports_faults = False
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
            raise BackendError("the asyncio backend needs a mapping")
        if fault_plan is not None:
            raise BackendError(
                "the asyncio backend does not support fault injection "
                "(the supervisor's primitives are thread-blocking); use "
                "the threads or processes backend"
            )
        plan = plan_run(
            mapping, table,
            max_iterations=max_iterations,
            args=args,
            record_spans=record_trace,
            budget=budget,
            source=get_target("asyncio").generate(
                mapping, max_iterations=max_iterations),
        )
        trace = Trace() if record_trace else None

        async def drive() -> Dict[str, Any]:
            kernel: Any = AsyncioKernel(trace=trace, placement=plan.placement)
            realtime = None
            if plan.budget is not None:
                kernel = realtime = AsyncPolicyKernel(
                    kernel, plan.stream_topology, plan.budget
                )
            kernel.blackboard.update(plan.seed)
            try:
                _tasks, sinks = await load_executive(
                    plan.source)["build_executive"](kernel, plan.fns)
                await kernel.join_(sinks, timeout)
            finally:
                if realtime is not None:
                    await realtime.ashutdown()
            return {
                "blackboard": kernel.blackboard,
                "compute": (
                    [] if trace is None
                    else [astuple(span) for span in trace.compute]),
                "transfer": [],
                "faults": [],
                "realtime": None if realtime is None else realtime.payload(),
            }

        start = time.perf_counter()
        payload = asyncio.run(drive())
        wall_us = (time.perf_counter() - start) * 1e6
        return merge_run(plan, [payload], wall_us, self.name)
