"""Multiprocess backend: the generated executive on real OS processes.

The parent generates the executive once, creates the inter-processor
channels (one bounded channel per remote edge, built by the selected
transport) and the shared stop flag, then launches one worker process
per mapped processor.  Each worker pins itself to one CPU and builds
the executive against a :class:`~repro.codegen.kernel.Kernel` that
hosts only its processor — it starts the threads placed there, minus
the identity routers the mapping lets the kernel fuse away
(:func:`fused_routers`), and reaches the other processors through the
parent's channels.  Termination
mirrors the thread kernel's ``join_``: the parent waits until every
sink-owning worker has reported its sinks complete, then raises the
stop event so blocked threads unwind, and finally merges per-worker
blackboards and wall-clock spans into one
:class:`~repro.machine.executive.RunReport`.

A hard ``timeout`` bounds the whole run: a deadlocked executive raises
:class:`~repro.backends.base.BackendError` (after terminating the
workers) instead of hanging the caller — or the CI job.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
import time
import traceback
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from ..codegen.kernel import Kernel
from ..codegen.pygen import generate_python, load_executive, thread_name
from ..core.functions import FunctionTable
from ..core.ir import Program
from ..machine.costs import T9000, CostModel
from ..machine.executive import RunReport
from ..machine.trace import Span, Trace
from ..pnt.graph import ProcessKind
from ..shm.batch import BatchPolicy
from ..shm.flag import StopFlag
from ..shm.registry import (
    DEFAULT_TRANSPORT,
    TRANSPORT_ENV,
    EdgeSpec,
    build_channels,
)
from ..syndex.distribute import Mapping
from .base import Backend, BackendError, pin_to_cpu, report_from_blackboard
from .registry import register_backend

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


def _worker_main(payload: Dict[str, Any]) -> None:
    """Entry point of one worker process (module-level: spawn-safe)."""
    results = payload["results"]
    stop = payload["stop"]
    processor = payload["processor"]
    base: Optional[Kernel] = None
    try:
        # One mapped processor, one core — before any thread exists, so
        # every executive thread inherits the mask.
        pin_to_cpu(payload["index"])
        module = load_executive(payload["source"])
        base = Kernel(
            hosts=processor,
            placement=payload["placement"],
            remote=payload["remote"],
            edge_aliases=payload["edge_aliases"],
            fused_threads=payload["fused_threads"],
            stop=stop,
            queue_size=payload["queue_size"],
            poll_s=payload["poll_s"],
            epoch=payload["epoch"],
            record_spans=payload["record_spans"],
        )
        kernel: Any = base
        faults = payload.get("faults")
        if faults is not None:
            from ..faults.report import FaultReport
            from ..faults.supervisor import HealthBoard, SupervisedKernel

            kernel = SupervisedKernel(
                base,
                faults["topology"],
                plan=faults["plan"],
                policy=faults["policy"],
                report=FaultReport(),
                board=HealthBoard(faults["board"]),
                processor=processor,
            )
        realtime = payload.get("realtime")
        rt_kernel = None
        if realtime is not None:
            from ..realtime.kernel import RealtimeKernel, StreamBoard

            kernel = rt_kernel = RealtimeKernel(
                kernel,
                realtime["topology"],
                realtime["budget"],
                board=StreamBoard(realtime["board"]),
                processor=processor,
            )
        kernel.blackboard.update(payload["seed"])
        _threads, sinks = module["build_executive"](kernel, payload["fns"])
        local_sinks = [t for t in sinks if isinstance(t, threading.Thread)]
        for thread in local_sinks:
            while thread.is_alive() and not stop.is_set():
                thread.join(0.1)
        if local_sinks and not stop.is_set():
            results.put(("sinks", processor))
        stop.wait()
        for thread in base.local_threads():
            thread.join(0.5)
        if faults is not None or realtime is not None:
            # Stop the service threads (heartbeat, realtime watchdog)
            # before this process exits: dying with a daemon thread
            # inside a shared semaphore would poison it for the other
            # processes.
            kernel.shutdown()
        fault_payload = (
            kernel.fault_report.to_payload() if faults is not None else []
        )
        rt_payload = None
        if rt_kernel is not None:
            rt_payload = {
                "admission": rt_kernel.admission_payload(),
                "delivery": rt_kernel.delivery_payload(),
            }
        results.put(
            ("done", processor, base.blackboard,
             base.compute_spans, base.transfer_spans, fault_payload,
             rt_payload)
        )
    except Exception:
        stop.set()
        results.put(("error", processor, traceback.format_exc()))
    finally:
        if base is not None:
            # Reclaim what a receiver never claimed (it crashed, or the
            # run stopped first): a ring's overflow segments would
            # otherwise stay in /dev/shm for the life of the machine.
            base.release()


def fused_routers(
    mapping: Mapping, fault_plan: Optional[Any] = None
) -> Tuple[Dict[str, str], FrozenSet[str]]:
    """The identity routers this mapping lets the kernel fuse away.

    The farm template wraps every worker in an ``M->W`` and a ``W->M``
    router so that a packet finds its way across any topology; once
    the mapping has put a router on its worker's processor it forwards
    between two channels of one process and does nothing else — a
    thread, a queue and two GIL hand-offs per packet.  Such a router
    (exactly one in- and one out-edge, the worker it feeds/drains on
    its own processor) is *fused at the channel table*: the edge on the
    worker's side becomes an alias of the edge on the far side and the
    router's thread is never started.  The generated executive, the
    simulator's model of routers and the wrapper kernels are untouched
    — they keep addressing the generated edge names.

    A router the ``fault_plan`` names — as ``process``, or through
    either of its edges — keeps its thread, so every injection site
    stays where it was.  Returns ``(edge aliases, fused thread names)``.
    """
    graph = mapping.graph
    named = set()
    for spec in (fault_plan.events if fault_plan is not None else ()):
        named.update(t for t in (spec.process, spec.edge) if t)
    ins: Dict[str, List[int]] = {}
    outs: Dict[str, List[int]] = {}
    for idx, edge in enumerate(graph.edges):
        outs.setdefault(edge.src, []).append(idx)
        ins.setdefault(edge.dst, []).append(idx)
    aliases: Dict[str, str] = {}
    fused = set()
    for kind in (ProcessKind.ROUTER_MW, ProcessKind.ROUTER_WM):
        for router in graph.by_kind(kind):
            if len(ins.get(router.id, ())) != 1 \
                    or len(outs.get(router.id, ())) != 1:
                continue
            (i,), (o,) = ins[router.id], outs[router.id]
            if kind == ProcessKind.ROUTER_MW:
                worker, near, far = graph.edges[o].dst, o, i
            else:
                worker, near, far = graph.edges[i].src, i, o
            if mapping.processor_of(worker) != mapping.processor_of(router.id):
                continue
            if named & {router.id, f"e{i}", f"e{o}"}:
                continue
            aliases[f"e{near}"] = f"e{far}"
            fused.add(thread_name(router.id))
    return aliases, frozenset(fused)


def _collect(results, deadline: float, workers, *,
             lost: Optional[set] = None, expendable=frozenset()) -> Tuple:
    """Next control message, or raise on timeout / silently-dead worker.

    Under fault supervision a dead *non-sink* worker is survivable: the
    supervisor quarantines it on heartbeat staleness and the master
    re-dispatches its outstanding work, so the run completes without a
    control message from the corpse.  Such processors are recorded in
    ``lost`` instead of raising; a dead sink owner still aborts the run
    (nobody else can complete its sinks).
    """
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise BackendError(
                "multiprocess run exceeded its timeout (deadlocked "
                "executive?); workers will be terminated"
            )
        try:
            return results.get(timeout=min(0.2, remaining))
        except queue.Empty:
            for worker in workers:
                if worker.exitcode in (None, 0):
                    continue
                processor = worker.name[len("repro-"):]
                if lost is not None and processor in expendable:
                    lost.add(processor)
                    continue
                raise BackendError(
                    f"worker {worker.name!r} died with exit code "
                    f"{worker.exitcode}"
                )


def run_multiprocess(
    mapping: Mapping,
    table: FunctionTable,
    *,
    max_iterations: Optional[int] = None,
    args: Optional[Tuple] = None,
    timeout: float = 120.0,
    start_method: Optional[str] = None,
    queue_size: int = 4,
    poll_s: float = 0.02,
    record_spans: bool = True,
    fault_plan: Optional[Any] = None,
    fault_policy: Optional[Any] = None,
    budget: Optional[Any] = None,
    transport: Optional[str] = None,
    transport_options: Optional[Dict[str, Any]] = None,
) -> Tuple[Dict[str, Any], List, List, float, Any, Any]:
    """Run the mapped program on OS processes.

    Returns ``(blackboard, compute_spans, transfer_spans, wall_us,
    fault_report, realtime_report)``: the merged kernel blackboards, the
    wall-clock spans of every worker (µs since the run epoch), the total
    wall time, and — when ``fault_plan`` enabled supervision / a
    ``budget`` enabled the realtime layer — the merged
    :class:`~repro.faults.report.FaultReport` /
    :class:`~repro.realtime.ledger.RealtimeReport` (else ``None``).
    """
    graph = mapping.graph
    fns = {spec.name: spec.fn for spec in table}
    source = generate_python(mapping, max_iterations=max_iterations)
    placement = {
        thread_name(pid): proc for pid, proc in mapping.assignment.items()
    }
    method = start_method or default_start_method()
    ctx = multiprocessing.get_context(method)

    seed: Dict[str, Any] = {}
    inputs = [
        p for p in graph.by_kind(ProcessKind.INPUT) if p.func is None
    ]
    if len(args or ()) != len(inputs):
        # Validate even when args is omitted: a one-shot executive with
        # unseeded parameters would hang until the deadline.
        raise ValueError(
            f"program takes {len(inputs)} argument(s), got {len(args or ())}"
        )
    for process, value in zip(inputs, args or ()):
        seed[f"arg_{process.params.get('param')}"] = value

    # One channel per inter-processor edge, built by the requested
    # transport (``queue`` is the historical path; ``ring`` moves the
    # data plane onto preallocated shared-memory rings with batching).
    transport_name = (
        transport or os.environ.get(TRANSPORT_ENV) or DEFAULT_TRANSPORT
    )
    edge_specs = [
        EdgeSpec(
            f"e{idx}", edge.src, edge.dst,
            mapping.processor_of(edge.src), mapping.processor_of(edge.dst),
        )
        for idx, edge in enumerate(graph.edges)
        if mapping.processor_of(edge.src) != mapping.processor_of(edge.dst)
    ]
    topts = dict(transport_options or {})
    if budget is not None and "batch_policy" not in topts:
        # A latency budget forbids Nagle-style holds: flush on every
        # append, coalesce only under backpressure.
        topts["batch_policy"] = BatchPolicy(eager=True)
    channel_set = build_channels(
        transport_name, edge_specs, ctx,
        queue_size=queue_size, options=topts,
    )
    remote = channel_set.channels

    # A shared-memory byte, not ctx.Event(): a worker SIGKILLed while
    # inside the Event's semaphore would poison it and wedge the
    # parent's own set() — the chaos suite kills workers exactly there.
    stop_event = StopFlag()
    participating = [
        p for p in mapping.arch.processor_ids() if mapping.processes_on(p)
    ]
    # Each worker posts at most two control messages ("sinks" + "done" or
    # "error"); bound the queue so a runaway producer cannot grow memory
    # without limit against a stalled parent.
    results = ctx.Queue(maxsize=2 * len(participating) + 4)

    faults: Optional[Dict[str, Any]] = None
    if fault_plan is not None:
        from ..faults.policy import FaultPolicy
        from ..faults.topology import FaultTopology

        topology = FaultTopology.from_mapping(mapping)
        faults = {
            "plan": fault_plan,
            "policy": fault_policy or FaultPolicy(),
            "topology": topology,
            # Lock-free: single-writer slots, aligned 8-byte stores.
            "board": ctx.Array("d", max(1, topology.n_slots), lock=False),
        }
    realtime: Optional[Dict[str, Any]] = None
    if budget is not None:
        from ..realtime.topology import StreamTopology

        stream = StreamTopology.from_mapping(mapping)
        if stream is None:
            raise BackendError(
                "a latency budget needs a stream program (no stream "
                "input/output in this mapping)"
            )
        realtime = {
            "budget": budget,
            "topology": stream,
            # released / delivered counters: single-writer slots.
            "board": ctx.Array("d", 2, lock=False),
        }
    sink_procs = {
        mapping.processor_of(p.id)
        for p in graph.processes.values()
        if p.kind == ProcessKind.MEM
        or (p.kind == ProcessKind.OUTPUT and not p.params.get("discard"))
    }

    edge_aliases, fused_threads = fused_routers(mapping, fault_plan)

    epoch = time.perf_counter()
    workers = []
    for index, proc_id in enumerate(participating):
        payload = {
            "source": source,
            "processor": proc_id,
            "index": index,
            "placement": placement,
            "remote": remote,
            "stop": stop_event,
            "results": results,
            # Only the implementations cross the process boundary: cost
            # models may be closures, which spawn could not pickle.
            "fns": fns,
            "seed": seed,
            "epoch": epoch,
            "queue_size": queue_size,
            "poll_s": poll_s,
            "record_spans": record_spans,
            "edge_aliases": edge_aliases,
            "fused_threads": fused_threads,
            "faults": faults,
            "realtime": realtime,
        }
        worker = ctx.Process(
            target=_worker_main, args=(payload,),
            name=f"repro-{proc_id}", daemon=True,
        )
        worker.start()
        workers.append(worker)

    deadline = time.monotonic() + timeout
    waiting_sinks = set(sink_procs)
    done: Dict[str, Dict[str, Any]] = {}
    compute_spans: List = []
    transfer_spans: List = []
    fault_payloads: List = []
    rt_halves: Dict[str, Any] = {"admission": None, "delivery": None}
    error: Optional[Tuple[str, str]] = None

    def absorb(message: Tuple) -> None:
        nonlocal error
        tag = message[0]
        if tag == "sinks":
            waiting_sinks.discard(message[1])
        elif tag == "done":
            done[message[1]] = message[2]
            compute_spans.extend(Span(*s) for s in message[3])
            transfer_spans.extend(Span(*s) for s in message[4])
            if len(message) > 5:
                fault_payloads.extend(message[5])
            if len(message) > 6 and message[6] is not None:
                for half in ("admission", "delivery"):
                    if message[6].get(half) is not None:
                        rt_halves[half] = message[6][half]
        elif tag == "error":
            error = (message[1], message[2])

    # Under supervision a dead non-sink worker is survivable (the
    # supervisor re-dispatches its work); a dead sink owner is not.
    lost: set = set()
    expendable = (
        frozenset(p for p in participating if p not in sink_procs)
        if faults is not None else frozenset()
    )

    stop_raised = False
    try:
        while waiting_sinks and error is None:
            absorb(_collect(results, deadline, workers,
                            lost=lost, expendable=expendable))
        stop_event.set()
        stop_raised = True
        while (len(set(done) | lost) < len(participating)
               and error is None):
            absorb(_collect(results, deadline, workers,
                            lost=lost, expendable=expendable))
    finally:
        if not stop_raised:
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
    wall_us = (time.perf_counter() - epoch) * 1e6

    if error is not None:
        processor, tb = error
        raise BackendError(
            f"executive failed on processor {processor!r}:\n{tb}"
        )

    blackboard: Dict[str, Any] = {}
    for proc_id in participating:
        blackboard.update(done.get(proc_id, {}))
    compute_spans.sort(key=lambda s: s.start)
    transfer_spans.sort(key=lambda s: s.start)
    fault_report = None
    if faults is not None:
        from ..faults.report import FaultReport

        fault_report = FaultReport.from_payload(fault_payloads).sorted()
    realtime_report = None
    if realtime is not None:
        from ..realtime.ledger import assemble_report

        realtime_report = assemble_report(
            budget, rt_halves["admission"], rt_halves["delivery"]
        )
    return (blackboard, compute_spans, transfer_spans, wall_us,
            fault_report, realtime_report)


@register_backend
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
        (blackboard, compute, transfer, wall_us, fault_report,
         realtime_report) = run_multiprocess(
            mapping, table,
            max_iterations=max_iterations,
            args=args,
            timeout=timeout,
            start_method=start_method,
            queue_size=queue_size,
            record_spans=record_trace,
            fault_plan=fault_plan,
            fault_policy=fault_policy,
            budget=budget,
            transport=transport,
            transport_options=transport_options,
        )
        trace = Trace()
        trace.compute = compute
        trace.transfer = transfer
        if fault_report is not None:
            fault_report.annotate_trace(trace)
        if realtime_report is not None:
            realtime_report.annotate_trace(trace)
        report = report_from_blackboard(
            blackboard, makespan=wall_us, backend=self.name, trace=trace
        )
        report.faults = fault_report
        report.realtime = realtime_report
        return report
