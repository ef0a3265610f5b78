"""Multiprocess backend: the generated executive on real OS processes.

What is genuinely multiprocessing about a run — everything else is
:mod:`repro.backends.hosting`.  The parent creates the inter-processor
channels (one bounded channel per remote edge of the plan, built by the
selected transport), the shared stop flag and the shared boards, then
launches one worker process per mapped processor.  Each worker pins
itself to one CPU and calls :func:`~repro.backends.hosting.host_run`
for its processor over the parent's channels; the parent feeds the
workers' control messages (and their silent deaths) to a
:class:`~repro.backends.hosting.RunBarrier`, raises the stop flag when
it says so, and merges the payloads.

A hard ``timeout`` bounds the whole run: a deadlocked executive raises
:class:`~repro.backends.base.BackendError` (after terminating the
workers) instead of hanging the caller — or the CI job.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from multiprocessing.connection import wait
from typing import Any, Dict, List, Optional, Tuple

from ..core.functions import FunctionTable
from ..core.ir import Program
from ..faults.supervisor import HealthBoard
from ..machine.costs import T9000, CostModel
from ..machine.executive import RunReport
from ..realtime.board import StreamBoard
from ..shm.batch import BatchPolicy
from ..shm.flag import StopFlag
from ..shm.registry import TRANSPORTS, EdgeSpec, build_channels
from ..syndex.distribute import Mapping
from .base import BACKENDS, Backend, BackendError, pin_to_cpu
from .hosting import RunBarrier, RunPlan, host_run, merge_run, plan_run

__all__ = ["ProcessBackend", "run_multiprocess", "default_start_method"]

#: Environment override for the multiprocessing start method (used by CI
#: to force ``spawn``, the only method portable to every platform).
START_METHOD_ENV = "REPRO_MP_START_METHOD"


def default_start_method() -> str:
    """``fork`` where available (inherits closures — any table works),
    else ``spawn`` (requires a picklable table)."""
    env = os.environ.get(START_METHOD_ENV)
    if env:
        return env
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def _worker_main(index: int, processor: str, results: Any, plan: RunPlan,
                 hosting: Dict[str, Any]) -> None:
    """Entry point of one worker process (module-level: spawn-safe).
    ``results`` is the write end of the worker's own control pipe."""
    try:
        # One mapped processor, one core — before any thread exists, so
        # every executive thread inherits the mask.
        pin_to_cpu(index)
        payload = host_run(
            plan, hosts=processor,
            on_sinks=lambda sinks: results.send(("sinks", processor, sinks)),
            **hosting,
        )
        results.send(("done", processor, payload))
    except Exception:
        hosting["stop"].set()
        results.send(("error", processor, traceback.format_exc()))


def _feed(barrier: RunBarrier, readers: List[Any], deadline: float,
          workers: List[Any]) -> None:
    """Sleep until a control message or a worker's exit, and feed it to
    the barrier: the message, or — for a worker that died without one —
    its loss.  ``readers`` holds the control pipes not at their end yet,
    ``workers`` the workers whose exit is not fed yet; raises at the
    run's deadline."""
    remaining = deadline - time.monotonic()
    ready = remaining > 0 and wait(
        [*readers, *(w.sentinel for w in workers)], remaining)
    if not ready:
        raise BackendError(
            "multiprocess run exceeded its timeout (deadlocked "
            "executive?); workers will be terminated"
        )
    for reader in readers:
        if reader not in ready:
            continue
        # Messages first: a worker's last words come before its exit.
        try:
            tag, processor, body = reader.recv()
        except EOFError:  # its worker is gone; the sentinel says how
            readers.remove(reader)
            reader.close()
            return
        if tag == "sinks":
            barrier.sinks(body)
        elif tag == "done":
            barrier.done(processor, body)
        else:
            barrier.failed(processor, body)
        return
    for worker in list(workers):
        if worker.exitcode is None:
            continue  # its sentinel is ready a moment before its status
        workers.remove(worker)
        if worker.exitcode != 0:
            processor = worker.name[len("repro-"):]
            barrier.lost(
                processor, processor,
                f"worker process died with exit code {worker.exitcode}",
            )


def run_multiprocess(
    plan: RunPlan,
    *,
    timeout: float = 120.0,
    start_method: Optional[str] = None,
    transport: Optional[str] = None,
    transport_options: Optional[Dict[str, Any]] = None,
) -> RunReport:
    """Run a planned program with one OS process per mapped processor."""
    ctx = multiprocessing.get_context(start_method or default_start_method())

    # One channel per inter-processor edge, built by the requested
    # transport (``queue`` is the historical path; ``ring`` moves the
    # data plane onto preallocated shared-memory rings with batching).
    topts = dict(transport_options or {})
    if plan.budget is not None and "batch_policy" not in topts:
        # A latency budget forbids Nagle-style holds: flush on every
        # append, coalesce only under backpressure.
        topts["batch_policy"] = BatchPolicy(eager=True)
    channel_set = build_channels(
        TRANSPORTS.resolve(transport),
        [EdgeSpec(*edge) for edge in plan.cross_edges], ctx,
        queue_size=plan.queue_size, options=topts,
    )

    # A shared-memory byte, not ctx.Event(): a worker SIGKILLed while
    # inside the Event's semaphore would poison it and wedge the
    # parent's own set() — the chaos suite kills workers exactly there.
    stop_event = StopFlag()
    # One control pipe per worker, for its at most two messages ("sinks"
    # + "done" or "error"): a pipe with one writer needs no lock, so a
    # worker killed mid-message poisons nothing (the parent reads the
    # short message as the pipe's end), and its read end is what
    # ``_feed`` waits on beside the workers' sentinels.
    pipes = [ctx.Pipe(duplex=False) for _ in plan.participating]
    readers = [reader for reader, _writer in pipes]
    # The shared boards: lock-free, single-writer slots, aligned 8-byte
    # stores (heartbeats; released / delivered frame counters, and the
    # doorbell a delivery rings).
    health_board = stream_board = None
    if plan.supervised:
        health_board = HealthBoard(ctx.Array(
            "d", max(1, plan.fault_topology.n_slots), lock=False))
    if plan.budget is not None:
        stream_board = StreamBoard.shared(ctx)
    epoch = time.perf_counter()
    hosting = {
        "remote": channel_set.channels, "stop": stop_event, "epoch": epoch,
        "health_board": health_board, "stream_board": stream_board,
    }
    workers = []
    for index, proc_id in enumerate(plan.participating):
        worker = ctx.Process(
            target=_worker_main,
            args=(index, proc_id, pipes[index][1], plan, hosting),
            name=f"repro-{proc_id}", daemon=True,
        )
        worker.start()
        pipes[index][1].close()  # the worker's now: EOF once it is gone
        workers.append(worker)

    deadline = time.monotonic() + timeout
    barrier = RunBarrier(plan, {p: (p,) for p in plan.participating})
    running = list(workers)
    try:
        while not barrier.stopping:
            _feed(barrier, readers, deadline, running)
        stop_event.set()
        while not barrier.finished:
            _feed(barrier, readers, deadline, running)
    finally:
        for reader in readers:
            reader.close()
        stop_event.set()
        for worker in workers:
            worker.join(2.0)
        for worker in workers:
            if worker.is_alive():  # pragma: no cover - deadlock path
                worker.terminate()
                worker.join(1.0)
        # The parent created the channels, the parent unlinks them —
        # only after every worker is gone (rings are mapped memory).
        channel_set.destroy()
        stop_event.unlink()
        if stream_board is not None:
            stream_board.close()
    wall_us = (time.perf_counter() - epoch) * 1e6
    return merge_run(plan, barrier.payloads(), wall_us, "processes")


@BACKENDS.register
class ProcessBackend(Backend):
    """Run the generated executive with one OS process per processor.

    True parallelism for CPU-bound sequential functions (each worker has
    its own interpreter and GIL, pinned to one core); inter-processor
    edges are built by the selected *transport* — ``queue`` (bounded
    pipe channels written from the sending thread; large buffers cross
    out of band through ``/dev/shm``) or ``ring``
    (preallocated shared-memory rings with packet batching; see
    :mod:`repro.shm`).  Options: ``start_method`` (``fork``/``spawn``/
    ``forkserver``; default from ``REPRO_MP_START_METHOD`` or ``fork``
    where available), ``queue_size``, ``transport``
    (default from ``REPRO_TRANSPORT`` or ``queue``),
    ``transport_options`` (``ring_slots``, ``ring_slot_bytes``,
    ``batch_policy``).
    """

    name = "processes"
    description = "generated executive on pinned OS processes (true parallelism)"
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
        start_method: Optional[str] = None,
        queue_size: int = 4,
        fault_plan: Optional[Any] = None,
        fault_policy: Optional[Any] = None,
        budget: Optional[Any] = None,
        transport: Optional[str] = None,
        transport_options: Optional[Dict[str, Any]] = None,
        **options: Any,
    ) -> RunReport:
        if mapping is None:
            raise BackendError("the processes backend needs a mapping")
        plan = plan_run(
            mapping, table,
            max_iterations=max_iterations,
            args=args,
            queue_size=queue_size,
            record_spans=record_trace,
            fault_plan=fault_plan,
            fault_policy=fault_policy,
            budget=budget,
        )
        return run_multiprocess(
            plan,
            timeout=timeout,
            start_method=start_method,
            transport=transport,
            transport_options=transport_options,
        )
