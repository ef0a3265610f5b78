"""The coordinator side of the ``tcp`` backend.

The coordinator owns the run: it generates the executive once, deals the
mapped processors round-robin over the connected workers, ships each
worker an ASSIGN (source + its processor slice + the inter-processor
edge table), and then acts as the hub of a star topology — DATA frames
are routed to the worker hosting the destination processor, CREDIT
frames back to the producer, and BEAT/COUNT board updates are
rebroadcast to everyone else.  A hub is one hop slower than a mesh but
keeps the failure model of the paper's supervisor intact: every link the
supervisor watches is a link the coordinator also watches, so "worker
socket died" and "worker heartbeats went stale" are the same event seen
from two layers.

Termination mirrors :func:`~repro.backends.process_backend.run_multiprocess`
exactly: wait until every sink processor reported via SINKS, broadcast
STOPRUN, wait for DONE payloads, merge blackboards/spans/fault
payloads/realtime halves.  A dead worker socket is fatal *unless* the
run is supervised (then the fault layer's quarantine + re-dispatch picks
up its in-flight work, and the dead worker is simply excluded from the
DONE barrier — provided it hosted no unfinished sink).
"""

from __future__ import annotations

import itertools
import pickle
import queue
import struct
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..codegen.pygen import generate_python, thread_name
from ..core.functions import FunctionTable
from ..core.ir import Program
from ..machine.costs import T9000, CostModel
from ..machine.executive import RunReport
from ..machine.trace import Instant, Span, Trace
from ..pnt.graph import ProcessKind
from ..syndex.distribute import Mapping
from ..backends.base import Backend, BackendError, report_from_blackboard
from ..backends.registry import register_backend
from . import codec
from .protocol import ConnectionClosed, Frame, Link, pack_run, split_edge, split_run

__all__ = ["WorkerLink", "run_distributed", "assemble_run_report",
           "TcpBackend"]

_U32 = struct.Struct("!I")
_DD = struct.Struct("!dd")

_RUN_IDS = itertools.count(1)
_LINK_IDS = itertools.count(1)


class WorkerLink:
    """A connected worker as the coordinator sees it.

    A dedicated reader thread drains the socket for the link's whole
    life and routes frames *by run id*: every worker→coordinator frame
    after HELLO is run-scoped, so the link keeps a routing table from
    run id to that run's sink (its event queue).  Routing by id — not by
    "whoever registered last" — is what lets a persistent service keep
    several runs' traffic apart on one socket fabric: a straggler from a
    finished run has no route and is dropped by construction, never
    misdelivered to the run that took its place.

    EOF flips ``alive`` and emits one synthetic :data:`Frame.DEAD` to
    *every* routed sink, so each concurrent run learns about the loss
    through the same queue as everything else.
    """

    def __init__(self, link: Link, meta: Dict[str, Any]):
        self.link = link
        self.meta = meta
        self.id = next(_LINK_IDS)
        self.alive = True
        self._routes: Dict[int, Callable] = {}
        self._routes_lock = threading.Lock()
        self._thread = threading.Thread(
            target=self._read_loop, name=f"worker-link-{self.id}", daemon=True
        )
        self._thread.start()

    @property
    def host(self) -> str:
        """Stable display identity: hostname/pid from the HELLO."""
        return f"{self.meta.get('host', '?')}/{self.meta.get('pid', '?')}"

    # -- per-run routing ---------------------------------------------------

    def route(self, run: int, sink: Callable) -> None:
        """Deliver frames whose run id is ``run`` to ``sink``."""
        with self._routes_lock:
            self._routes[run] = sink
        if not self.alive:
            # The reader is already gone: deliver the death notice
            # ourselves so a run attached to a corpse still unblocks.
            sink(self, Frame.DEAD, memoryview(b""))

    def unroute(self, run: int) -> None:
        with self._routes_lock:
            self._routes.pop(run, None)

    def clear_routes(self) -> None:
        with self._routes_lock:
            self._routes.clear()

    @property
    def active_runs(self) -> List[int]:
        with self._routes_lock:
            return sorted(self._routes)

    def _read_loop(self) -> None:
        while True:
            try:
                kind, body = self.link.recv()
            except ConnectionClosed:
                self.alive = False
                with self._routes_lock:
                    sinks = list(self._routes.values())
                for sink in sinks:
                    sink(self, Frame.DEAD, memoryview(b""))
                return
            if len(body) < 4:
                continue  # run-scoped frames always lead with the id
            run = _U32.unpack(body[:4])[0]
            with self._routes_lock:
                sink = self._routes.get(run)
            if sink is not None:
                sink(self, kind, body)

    def close(self) -> None:
        self.link.close()


def _module_names(fns: Dict[str, Any]) -> List[str]:
    """Modules the workers must (re-)import before unpickling ``fns``."""
    names = set()
    for fn in fns.values():
        names.add(getattr(fn, "__module__", None))
    names.discard(None)
    return sorted(names)


def run_distributed(
    mapping: Mapping,
    table: FunctionTable,
    workers: List[WorkerLink],
    *,
    max_iterations: Optional[int] = None,
    args: Optional[Tuple] = None,
    timeout: float = 120.0,
    queue_size: int = 4,
    poll_s: float = 0.02,
    record_spans: bool = True,
    fault_plan: Optional[Any] = None,
    fault_policy: Optional[Any] = None,
    budget: Optional[Any] = None,
    on_assign: Optional[Callable[[Dict[str, WorkerLink]], None]] = None,
    source: Optional[str] = None,
    scheduler: Optional[str] = None,
    durations: Optional[Dict[str, float]] = None,
) -> Tuple[Dict[str, Any], List, List, float, Any, Any, Dict[str, str]]:
    """Run the mapped program across ``workers``.

    Returns the ``run_multiprocess`` tuple plus a ``hosts`` map
    (processor id -> worker host identity, with a ``"stream"`` entry for
    the realtime row when the run had a latency budget).  ``on_assign``
    is a test hook called with the processor->link assignment right
    after ASSIGN is sent — chaos tests use it to pick a victim socket.

    ``scheduler`` names the registered policy whose ``assign`` half
    deals mapped processors over the live workers (default: the
    registry's default — cost-aware LPT; ``"round-robin"`` restores the
    historical dealing).  ``durations`` optionally feeds measured
    per-process costs into that decision.

    ``source`` supplies a pre-generated executive (it must come from
    ``generate_python(mapping, max_iterations=...)`` with the same
    arguments); the serving layer passes the cached artefact here so a
    warm run performs zero codegen.
    """
    graph = mapping.graph
    fns = {spec.name: spec.fn for spec in table}
    if source is None:
        source = generate_python(mapping, max_iterations=max_iterations)
    placement = {
        thread_name(pid): proc for pid, proc in mapping.assignment.items()
    }

    seed: Dict[str, Any] = {}
    inputs = [
        p for p in graph.by_kind(ProcessKind.INPUT) if p.func is None
    ]
    if len(args or ()) != len(inputs):
        raise ValueError(
            f"program takes {len(inputs)} argument(s), got {len(args or ())}"
        )
    for process, value in zip(inputs, args or ()):
        seed[f"arg_{process.params.get('param')}"] = value

    # Every inter-processor edge, with its endpoints: workers classify
    # locally (co-located endpoints -> plain queue, one local endpoint ->
    # network channel) and the coordinator routes by destination.
    edges: Dict[str, Tuple[str, str]] = {}
    for idx, edge in enumerate(graph.edges):
        src_proc = mapping.processor_of(edge.src)
        dst_proc = mapping.processor_of(edge.dst)
        if src_proc != dst_proc:
            edges[f"e{idx}"] = (src_proc, dst_proc)

    participating = [
        p for p in mapping.arch.processor_ids() if mapping.processes_on(p)
    ]
    live = [w for w in workers if w.alive]
    if not live:
        raise BackendError(
            "the tcp backend has no live workers (start some with "
            "`repro worker --connect HOST:PORT`)"
        )
    from ..sched.registry import resolve_scheduler

    assignment = resolve_scheduler(scheduler).assign(
        mapping, participating, live, durations=durations,
    )
    used: List[WorkerLink] = []
    for w in assignment.values():
        if w not in used:
            used.append(w)
    procs_of = {
        w: [p for p in participating if assignment[p] is w] for w in used
    }

    faults: Optional[Dict[str, Any]] = None
    if fault_plan is not None:
        from ..faults.policy import FaultPolicy
        from ..faults.topology import FaultTopology

        faults = {
            "plan": fault_plan,
            "policy": fault_policy or FaultPolicy(),
            "topology": FaultTopology.from_mapping(mapping),
        }
    realtime: Optional[Dict[str, Any]] = None
    stream = None
    if budget is not None:
        from ..realtime.topology import StreamTopology

        stream = StreamTopology.from_mapping(mapping)
        if stream is None:
            raise BackendError(
                "a latency budget needs a stream program (no stream "
                "input/output in this mapping)"
            )
        realtime = {"budget": budget, "topology": stream}

    sink_procs = {
        mapping.processor_of(p.id)
        for p in graph.processes.values()
        if p.kind == ProcessKind.MEM
        or (p.kind == ProcessKind.OUTPUT and not p.params.get("discard"))
    }

    run = next(_RUN_IDS)
    inbox: "queue.Queue" = queue.Queue()

    def sink(w: WorkerLink, kind: int, body: memoryview) -> None:
        inbox.put((w, kind, body))

    for w in used:
        w.route(run, sink)

    try:
        modules = b"".join(
            bytes(b) if isinstance(b, memoryview) else b
            for b in codec.encode(_module_names(fns))
        )
        epoch = time.perf_counter()
        for w in used:
            try:
                blob = pickle.dumps({
                    "source": source,
                    "processors": procs_of[w],
                    "placement": placement,
                    "edges": edges,
                    "fns": fns,
                    "seed": seed,
                    "queue_size": queue_size,
                    "poll_s": poll_s,
                    "record_spans": record_spans,
                    "faults": faults,
                    "realtime": realtime,
                    "sink_procs": sorted(sink_procs),
                })
            except Exception as err:
                raise BackendError(
                    "the tcp backend ships the function table by pickle; "
                    f"this table is not picklable: {err}"
                ) from err
            header = (
                pack_run(run)
                + _DD.pack(time.perf_counter(), epoch)
                + _U32.pack(len(modules))
            )
            w.link.send(Frame.ASSIGN, header, modules, blob)
        if on_assign is not None:
            on_assign(dict(assignment))

        route_dst = {e: assignment[dst] for e, (_src, dst) in edges.items()}
        route_src = {e: assignment[src] for e, (src, _dst) in edges.items()}
        deadline = time.monotonic() + timeout
        waiting_sinks = set(sink_procs)
        done: Dict[int, Dict[str, Any]] = {}
        dead: set = set()
        error: Optional[Tuple[str, str]] = None
        stop_sent = False

        def broadcast_stop() -> None:
            for w in used:
                if w.alive:
                    try:
                        w.link.send(Frame.STOPRUN, pack_run(run))
                    except ConnectionClosed:
                        pass

        def forward(target: WorkerLink, kind: int, body: memoryview) -> None:
            if target.alive and target.id not in dead:
                try:
                    target.link.send(kind, body)
                except ConnectionClosed:
                    pass  # its DEAD event is already on its way

        def handle(w: WorkerLink, kind: int, body: memoryview) -> None:
            nonlocal error
            if kind == Frame.DEAD:
                if w.id in dead:
                    return
                dead.add(w.id)
                lost = procs_of.get(w, [])
                if faults is None:
                    error = (
                        w.host,
                        "worker connection lost (hosted: "
                        + ", ".join(lost) + "); enable fault supervision "
                        "(a FaultPlan) to survive worker loss",
                    )
                elif set(lost) & waiting_sinks:
                    error = (
                        w.host,
                        "worker hosting unfinished sink processor(s) "
                        + ", ".join(sorted(set(lost) & waiting_sinks))
                        + " died; sinks cannot be re-dispatched",
                    )
                return
            run_got, rest = split_run(body)
            if run_got != run:
                return
            if kind == Frame.DATA:
                edge, _payload = split_edge(rest)
                target = route_dst.get(edge)
                if target is not None:
                    forward(target, kind, body)
            elif kind == Frame.CREDIT:
                edge, _counter = split_edge(rest)
                target = route_src.get(edge)
                if target is not None:
                    forward(target, kind, body)
            elif kind in (Frame.BEAT, Frame.COUNT):
                for other in used:
                    if other is not w:
                        forward(other, kind, body)
            elif kind == Frame.SINKS:
                waiting_sinks.difference_update(codec.decode(rest))
            elif kind == Frame.DONE:
                done[w.id] = pickle.loads(bytes(rest))
            elif kind == Frame.ERROR:
                info = codec.decode(rest)
                error = (
                    str(info.get("processor", "?")),
                    str(info.get("traceback", "")),
                )
            elif kind == Frame.STOPREQ:
                broadcast_stop()

        def pump() -> Tuple[WorkerLink, int, memoryview]:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise BackendError(
                        "distributed run exceeded its timeout (deadlocked "
                        "executive or partitioned cluster?)"
                    )
                try:
                    return inbox.get(timeout=min(0.2, remaining))
                except queue.Empty:
                    continue

        try:
            while waiting_sinks and error is None:
                handle(*pump())
            broadcast_stop()
            stop_sent = True
            while error is None and any(
                w.id not in done and w.id not in dead for w in used
            ):
                handle(*pump())
        finally:
            if not stop_sent:
                broadcast_stop()
            for w in used:
                if w.alive:
                    try:
                        w.link.send(Frame.RUNEND, pack_run(run))
                    except ConnectionClosed:
                        pass
        wall_us = (time.perf_counter() - epoch) * 1e6

        if error is not None:
            where, detail = error
            raise BackendError(
                f"executive failed on {where!r}:\n{detail}"
            )

        blackboard: Dict[str, Any] = {}
        compute: List = []
        transfer: List = []
        fault_payloads: List = []
        rt_halves: Dict[str, Any] = {"admission": None, "delivery": None}
        for w in used:
            payload = done.get(w.id)
            if payload is None:
                continue  # dead, supervised: survivors hold its results
            blackboard.update(payload["blackboard"])
            compute.extend(Span(*s) for s in payload["compute"])
            transfer.extend(Span(*s) for s in payload["transfer"])
            fault_payloads.extend(payload["faults"])
            rt = payload["realtime"]
            if rt is not None:
                for half in ("admission", "delivery"):
                    if rt.get(half) is not None:
                        rt_halves[half] = rt[half]
        compute.sort(key=lambda s: s.start)
        transfer.sort(key=lambda s: s.start)
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
        hosts = {proc: assignment[proc].host for proc in participating}
        if stream is not None:
            hosts["stream"] = assignment[stream.input_processor].host
        return (blackboard, compute, transfer, wall_us,
                fault_report, realtime_report, hosts)
    finally:
        for w in used:
            w.unroute(run)


def assemble_run_report(
    result: Tuple[Dict[str, Any], List, List, float, Any, Any, Dict[str, str]],
    *,
    backend: str = "tcp",
) -> RunReport:
    """Turn a :func:`run_distributed` result tuple into a RunReport.

    Shared by :class:`TcpBackend` and the serving scheduler (which calls
    :func:`run_distributed` directly on checked-out pool workers).
    """
    (blackboard, compute, transfer, wall_us, fault_report,
     realtime_report, hosts) = result
    trace = Trace()
    trace.compute = compute
    trace.transfer = transfer
    if fault_report is not None:
        fault_report.annotate_trace(trace)
    if realtime_report is not None:
        realtime_report.annotate_trace(trace)
    _tag_hosts(trace, hosts)
    report = report_from_blackboard(
        blackboard, makespan=wall_us, backend=backend, trace=trace
    )
    report.faults = fault_report
    report.realtime = realtime_report
    return report


def _tag_hosts(trace: Trace, hosts: Dict[str, str]) -> None:
    """Stamp each fault/rt instant with the host that owned its row."""
    tagged: List[Instant] = []
    for inst in trace.instants:
        host = hosts.get(inst.resource)
        if host:
            detail = f"{inst.detail} [host {host}]" if inst.detail else f"[host {host}]"
            inst = Instant(inst.name, inst.resource, inst.time, detail)
        tagged.append(inst)
    trace.instants = tagged
    # Health counter series get the owning host in the series name, so a
    # multi-host trace shows which machine a limping score belongs to.
    from ..machine.trace import CounterSample

    stamped: List[CounterSample] = []
    for sample in trace.counters:
        host = hosts.get(sample.resource)
        if host:
            sample = CounterSample(
                f"{sample.name}@{host}", sample.resource,
                sample.time, dict(sample.values),
            )
        stamped.append(sample)
    trace.counters = stamped


@register_backend
class TcpBackend(Backend):
    """Run the generated executive on a TCP cluster of workers.

    The paper's second MIMD-DM target: a network of workstations.  By
    default the backend lazily starts (and reuses) a shared localhost
    :class:`~repro.net.harness.ClusterHarness` of 4 workers, so
    ``--backend tcp`` works out of the box; options select a real
    cluster instead: ``cluster`` (an existing harness), ``cluster_size``
    (spawn a private localhost cluster of N), or ``listen``
    (``HOST:PORT`` — bind there and wait for externally started
    ``repro worker --connect`` processes, with ``cluster_size`` as the
    worker count to wait for).
    """

    name = "tcp"
    description = "generated executive on a TCP worker cluster (distributed)"
    real = True
    supports_faults = True
    supports_realtime = True
    distributed = True

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
        queue_size: int = 4,
        fault_plan: Optional[Any] = None,
        fault_policy: Optional[Any] = None,
        budget: Optional[Any] = None,
        cluster: Optional[Any] = None,
        cluster_size: Optional[int] = None,
        listen: Optional[str] = None,
        on_assign: Optional[Callable] = None,
        scheduler: Optional[str] = None,
        **options: Any,
    ) -> RunReport:
        if mapping is None:
            raise BackendError("the tcp backend needs a mapping")
        from .harness import ClusterHarness, shared_cluster
        from .worker import parse_hostport

        own: Optional[ClusterHarness] = None
        if cluster is not None:
            harness = cluster
        elif listen is not None:
            host, port = parse_hostport(listen, default_host="")
            own = harness = ClusterHarness(
                size=cluster_size or 2, spawn=False,
                host=host or "0.0.0.0", port=port,
            )
        elif cluster_size is not None:
            own = harness = ClusterHarness(size=cluster_size)
        else:
            harness = shared_cluster()
        try:
            links = harness.checkout(timeout=60.0 if listen else 30.0)
            try:
                result = run_distributed(
                    mapping, table, links,
                    max_iterations=max_iterations,
                    args=args,
                    timeout=timeout,
                    queue_size=queue_size,
                    record_spans=record_trace,
                    fault_plan=fault_plan,
                    fault_policy=fault_policy,
                    budget=budget,
                    on_assign=on_assign,
                    scheduler=scheduler,
                )
            finally:
                harness.release(links)
        finally:
            if own is not None:
                own.shutdown()
        return assemble_run_report(result, backend=self.name)
