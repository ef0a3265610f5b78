"""The coordinator side of the ``tcp`` backend.

What is genuinely network about a run — the life of the run itself is
:mod:`repro.backends.hosting`, the same driver ``threads`` and
``processes`` use.  The coordinator deals the plan's processors over the
connected workers (the scheduler's ``assign`` half), ships each worker
an ASSIGN (the :class:`~repro.backends.hosting.RunPlan` + its processor
slice), and then acts as the hub of a star topology — DATA frames are
routed to the worker hosting the destination processor, CREDIT frames
back to the producer, and BEAT/COUNT board updates are rebroadcast to
everyone else.  A hub is one hop slower than a mesh but keeps the
failure model of the paper's supervisor intact: every link the
supervisor watches is a link the coordinator also watches, so "worker
socket died" and "worker heartbeats went stale" are the same event seen
from two layers.

Termination is the driver's :class:`~repro.backends.hosting.RunBarrier`,
fed from the sockets: SINKS, DONE and ERROR frames, and a dead socket as
a lost host — fatal unless the run is supervised and the worker hosted
no sink processor (then the fault layer's quarantine + re-dispatch picks
up its in-flight work and its payload is not awaited).
"""

from __future__ import annotations

import itertools
import pickle
import queue
import struct
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.functions import FunctionTable
from ..core.ir import Program
from ..machine.costs import T9000, CostModel
from ..machine.executive import RunReport
from ..machine.trace import CounterSample, Instant, Trace
from ..syndex.distribute import Mapping
from ..backends.base import BACKENDS, Backend, BackendError
from ..backends.hosting import RunBarrier, RunPlan, merge_run, plan_run
from . import codec
from .protocol import ConnectionClosed, Frame, Link, pack_run, split_edge, split_run

__all__ = ["WorkerLink", "run_distributed", "TcpBackend"]

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
    plan: RunPlan,
    workers: List[WorkerLink],
    *,
    timeout: float = 120.0,
    on_assign: Optional[Callable[[Dict[str, WorkerLink]], None]] = None,
    scheduler: Optional[str] = None,
    backend: str = "tcp",
) -> RunReport:
    """Run a planned program across ``workers``.

    ``on_assign`` is a test hook called with the processor->link
    assignment right after ASSIGN is sent — chaos tests use it to pick
    a victim socket.  ``scheduler`` names the registered policy whose
    ``assign`` half deals mapped processors over the live workers
    (default: the registry's default — cost-aware LPT; ``"round-robin"``
    restores the historical dealing).  ``backend`` labels the report
    (the serving layer runs through here as ``"serve"``).
    """
    live = [w for w in workers if w.alive]
    if not live:
        raise BackendError(
            "the tcp backend has no live workers (start some with "
            "`repro worker --connect HOST:PORT`)"
        )
    from ..sched.registry import SCHEDULERS

    participating = list(plan.participating)
    assignment = SCHEDULERS.get(SCHEDULERS.resolve(scheduler)).assign(
        mapping, participating, live)
    procs_of: Dict[WorkerLink, List[str]] = {}
    for proc in participating:
        procs_of.setdefault(assignment[proc], []).append(proc)
    used = list(procs_of)

    run = next(_RUN_IDS)
    inbox: "queue.Queue" = queue.Queue()

    for w in used:
        w.route(run, lambda *frame: inbox.put(frame))

    try:
        modules = b"".join(
            bytes(b) if isinstance(b, memoryview) else b
            for b in codec.encode(_module_names(plan.fns))
        )
        epoch = time.perf_counter()
        for w in used:
            try:
                blob = pickle.dumps(
                    {"plan": plan, "processors": procs_of[w]})
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

        # Workers classify the plan's inter-processor edges locally
        # (co-located endpoints -> plain queue, one local endpoint ->
        # network channel); the hub routes DATA by destination and
        # CREDIT back to the producer.
        route_dst = {e[0]: assignment[e[4]] for e in plan.cross_edges}
        route_src = {e[0]: assignment[e[3]] for e in plan.cross_edges}
        deadline = time.monotonic() + timeout
        barrier = RunBarrier(plan, {w.id: procs_of[w] for w in used})

        def broadcast(kind: int) -> None:
            for w in used:
                if w.alive:
                    try:
                        w.link.send(kind, pack_run(run))
                    except ConnectionClosed:
                        pass

        def forward(target: WorkerLink, kind: int, body: memoryview) -> None:
            if target.alive:
                try:
                    target.link.send(kind, body)
                except ConnectionClosed:
                    pass  # its DEAD event is already on its way

        def handle(w: WorkerLink, kind: int, body: memoryview) -> None:
            if kind == Frame.DEAD:
                barrier.lost(
                    w.id, w.host,
                    "worker connection lost (hosted: "
                    + ", ".join(procs_of[w]) + ")",
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
                barrier.sinks(codec.decode(rest))
            elif kind == Frame.DONE:
                barrier.done(w.id, pickle.loads(bytes(rest)))
            elif kind == Frame.ERROR:
                info = codec.decode(rest)
                barrier.failed(
                    str(info.get("processor", "?")),
                    str(info.get("traceback", "")),
                )
            elif kind == Frame.STOPREQ:
                broadcast(Frame.STOPRUN)

        def pump() -> None:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise BackendError(
                        "distributed run exceeded its timeout (deadlocked "
                        "executive or partitioned cluster?)"
                    )
                try:
                    return handle(*inbox.get(timeout=min(0.2, remaining)))
                except queue.Empty:
                    continue

        try:
            while not barrier.stopping:
                pump()
            broadcast(Frame.STOPRUN)
            while not barrier.finished:
                pump()
        finally:
            broadcast(Frame.RUNEND)  # stops whoever was not stopped yet
        wall_us = (time.perf_counter() - epoch) * 1e6

        report = merge_run(plan, barrier.payloads(), wall_us, backend)
        hosts = {proc: assignment[proc].host for proc in participating}
        if plan.stream_topology is not None:
            hosts["stream"] = assignment[
                plan.stream_topology.input_processor].host
        _tag_hosts(report.trace, hosts)
        return report
    finally:
        for w in used:
            w.unroute(run)


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


@BACKENDS.register
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

        # Planned before any worker is started or checked out: a bad
        # call costs no cluster.
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
                return run_distributed(
                    mapping, plan, links,
                    timeout=timeout,
                    on_assign=on_assign,
                    scheduler=scheduler,
                )
            finally:
                harness.release(links)
        finally:
            if own is not None:
                own.shutdown()
