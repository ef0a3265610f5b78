"""The run driver: the life of a kernel-hosted run, written once.

The paper's executive is "processor-independent"; the Transputer ring
and the network of workstations differ only in the kernel primitives
underneath (§3).  One level up the same holds for the *run*: whatever
carries the packets, it is planned (:func:`plan_run`), hosted
(:func:`host_run`), brought through a two-phase barrier
(:class:`RunBarrier`) and merged (:func:`merge_run`) the same way.

A backend is what it hands :func:`host_run`: which processors this
interpreter hosts, the channels that leave it, the stop flag, the epoch,
the two shared boards and how "my sinks are complete" is said.
``threads`` hosts everything in-process; ``processes`` runs one
``host_run`` per OS process over pipe/ring channels; a ``tcp`` worker
(and so every ``serve`` request) runs it over network channels.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple, Union,
)

from ..codegen.kernel import Kernel
from ..codegen.pygen import (
    generate_python, load_executive, seed_arguments, thread_name,
)
from ..core.functions import FunctionTable
from ..faults.inject import check_plan
from ..faults.policy import FaultPolicy
from ..faults.report import FaultReport
from ..faults.topology import FaultTopology
from ..machine.executive import RunReport
from ..machine.trace import Span, Trace
from ..pnt.graph import ProcessKind
from ..realtime.ledger import assemble_report
from ..realtime.topology import StreamTopology
from ..syndex.distribute import Mapping
from .base import BackendError, report_from_blackboard
from .policy_kernel import PolicyKernel

__all__ = [
    "RunPlan", "plan_run", "fused_routers", "host_run",
    "RunBarrier", "merge_run",
]


@dataclass
class RunPlan:
    """One run, decided: plain picklable data, the same on every host."""

    source: str                 # the generated executive
    #: Only the implementations cross a process boundary: cost models
    #: may be closures, which spawn could not pickle.
    fns: Dict[str, Callable]
    placement: Dict[str, str]   # generated thread name -> processor
    seed: Dict[str, Any]        # blackboard entries (``arg_<param>``)
    #: Processors hosting at least one process, in architecture order.
    participating: Tuple[str, ...]
    #: Processors whose threads complete the run (MEM, OUTPUT).
    sink_processors: FrozenSet[str]
    #: ``(edge, src pid, dst pid, src processor, dst processor)`` of
    #: every edge between two processors.
    cross_edges: Tuple[Tuple[str, str, str, str, str], ...]
    #: The identity routers fused away (:func:`fused_routers`).
    edge_aliases: Dict[str, str]
    fused_threads: FrozenSet[str]
    queue_size: int = 4
    record_spans: bool = False
    #: Fault supervision: plan and topology both set, or both ``None``.
    fault_plan: Optional[Any] = None
    fault_policy: Optional[FaultPolicy] = None
    fault_topology: Optional[FaultTopology] = None
    #: Realtime layer: both set, or both ``None``.
    budget: Optional[Any] = None
    stream_topology: Optional[StreamTopology] = None

    @property
    def supervised(self) -> bool:
        return self.fault_topology is not None


def plan_run(
    mapping: Mapping,
    table: FunctionTable,
    *,
    max_iterations: Optional[int] = None,
    args: Optional[Tuple] = None,
    queue_size: int = 4,
    record_spans: bool = False,
    fault_plan: Optional[Any] = None,
    fault_policy: Optional[FaultPolicy] = None,
    budget: Optional[Any] = None,
    source: Optional[str] = None,
) -> RunPlan:
    """Decide a run before anything starts.

    Raises ``ValueError`` on an argument-arity mismatch,
    :class:`~repro.faults.plan.PlanError` for a fault the program gives
    no place to fire, and :class:`BackendError` for a latency budget on
    a program without a stream.  ``source`` supplies a pre-generated
    executive (it must come from the same mapping and
    ``max_iterations``): the serving layer passes its cached artefact so
    a warm run performs zero codegen.
    """
    graph = mapping.graph
    seed = seed_arguments(graph, args)
    stream = None
    if budget is not None:
        stream = StreamTopology.from_mapping(mapping)
        if stream is None:
            raise BackendError(
                "a latency budget needs a stream program (no stream "
                "input/output in this mapping)"
            )
    topology = None
    if fault_plan is not None:
        topology = FaultTopology.from_mapping(mapping)
        check_plan(fault_plan, topology)
    if source is None:
        source = generate_python(mapping, max_iterations=max_iterations)
    edge_aliases, fused_threads = fused_routers(mapping, fault_plan)
    cross_edges = []
    for idx, edge in enumerate(graph.edges):
        src_proc = mapping.processor_of(edge.src)
        dst_proc = mapping.processor_of(edge.dst)
        if src_proc != dst_proc:
            cross_edges.append(
                (f"e{idx}", edge.src, edge.dst, src_proc, dst_proc))
    return RunPlan(
        source=source,
        fns={spec.name: spec.fn for spec in table},
        placement={
            thread_name(pid): proc
            for pid, proc in mapping.assignment.items()
        },
        seed=seed,
        participating=tuple(
            p for p in mapping.arch.processor_ids()
            if mapping.processes_on(p)
        ),
        sink_processors=frozenset(
            mapping.processor_of(p.id)
            for p in graph.processes.values()
            if p.kind == ProcessKind.MEM
            or (p.kind == ProcessKind.OUTPUT and not p.params.get("discard"))
        ),
        cross_edges=tuple(cross_edges),
        edge_aliases=edge_aliases,
        fused_threads=fused_threads,
        queue_size=queue_size,
        record_spans=record_spans,
        fault_plan=fault_plan,
        fault_policy=fault_policy,
        fault_topology=topology,
        budget=budget,
        stream_topology=stream,
    )


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

    A router one of whose edges the ``fault_plan`` names keeps its
    thread, so the drop happens on the edge the plan names.  Returns
    ``(edge aliases, fused thread names)``.
    """
    graph = mapping.graph
    named = {spec.edge for spec in (
        fault_plan.events if fault_plan is not None else ())}
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
            if named & {f"e{i}", f"e{o}"}:
                continue
            aliases[f"e{near}"] = f"e{far}"
            fused.add(thread_name(router.id))
    return aliases, frozenset(fused)


def host_run(
    plan: RunPlan,
    *,
    hosts: Union[None, str, Iterable[str]] = None,
    remote: Optional[Dict[str, Any]] = None,
    stop: Optional[Any] = None,
    epoch: Optional[float] = None,
    health_board: Optional[Any] = None,
    stream_board: Optional[Any] = None,
    on_sinks: Callable[[List[str]], None],
) -> Dict[str, Any]:
    """Run this interpreter's share of ``plan`` to the end of the run.

    ``hosts``, ``remote``, ``stop`` and ``epoch`` are the
    :class:`~repro.codegen.kernel.Kernel`'s; the boards are the shared
    heartbeat / stream-counter boards of a run that spans interpreters
    (``None``: process-local ones).  ``on_sinks`` is called with the
    hosted sink processors once their threads have completed — unless
    the run was stopped first; the host then waits for ``stop``, which
    whoever gathers every host's ``on_sinks`` raises.

    A supervised or budgeted run puts one
    :class:`~repro.backends.policy_kernel.PolicyKernel` on the base
    kernel.  Returns the host's payload.  An exception raises the stop
    flag and propagates; either way the wrapper's service thread is
    stopped — a process must not exit with a daemon thread inside a
    shared semaphore, nor a beat straggle into the next run — and the
    remote channels reclaim what no receiver claimed (a ring's overflow
    segments would otherwise stay in ``/dev/shm``).
    """
    base = Kernel(
        hosts=hosts,
        placement=plan.placement,
        remote=remote,
        edge_aliases=plan.edge_aliases,
        fused_threads=plan.fused_threads,
        stop=stop,
        queue_size=plan.queue_size,
        epoch=epoch,
        record_spans=plan.record_spans,
    )
    stop = base.stop
    kernel: Any = base
    try:
        if plan.supervised or plan.budget is not None:
            kernel = PolicyKernel(
                base, faults=plan.fault_topology, plan=plan.fault_plan,
                policy=plan.fault_policy, health_board=health_board,
                stream=plan.stream_topology, budget=plan.budget,
                stream_board=stream_board,
            )
        base.blackboard.update(plan.seed)
        _threads, sinks = load_executive(plan.source)["build_executive"](
            kernel, plan.fns)
        local_sinks = [t for t in sinks if isinstance(t, threading.Thread)]
        if local_sinks and base.wait_finished(local_sinks):
            on_sinks(sorted(
                p for p in plan.sink_processors
                if base.hosts is None or p in base.hosts))
        stop.wait()
        # A StopFlag raised in another process calls nobody back here:
        # wake the threads asleep on in-process queues.
        base.wake_local()
        for thread in base.local_threads():
            thread.join(0.5)
    except Exception:
        stop.set()
        raise
    finally:
        if kernel is not base:
            kernel.shutdown()
        base.release()
    return {
        "blackboard": base.blackboard,
        "compute": base.compute_spans,
        "transfer": base.transfer_spans,
        "faults": (
            [] if kernel is base else kernel.fault_report.to_payload()),
        "realtime": None if plan.budget is None else kernel.payload(),
    }


class RunBarrier:
    """Two phases, no I/O: all sinks → stop → all done.

    ``hosts`` maps each host of the run (whatever the substrate calls
    it) to the processors it runs.  The driver feeds every control
    message — :meth:`sinks`, :meth:`done`, :meth:`failed`, :meth:`lost`
    — raises the run's stop flag once :attr:`stopping`, keeps feeding
    until :attr:`finished`, and takes :meth:`payloads`.

    The first error wins and nothing fed after the run finished counts.
    A lost host is survivable iff the run is supervised *and* it owns no
    sink processor, at any phase: the supervisor re-dispatches a lost
    worker's packets, but nobody completes another's sinks, and after
    they completed the owner's payload still holds the run's results.
    """

    def __init__(self, plan: RunPlan, hosts: Dict[Any, Iterable[str]]):
        self._supervised = plan.supervised
        self._waiting_sinks = set(plan.sink_processors)
        self._sinks_of = {
            host: sorted(plan.sink_processors.intersection(processors))
            for host, processors in hosts.items()
        }
        self._pending = set(hosts)
        self._payloads: List[Dict[str, Any]] = []
        self.error: Optional[Tuple[str, str]] = None

    @property
    def stopping(self) -> bool:
        """Phase one is over: time to raise the run's stop flag."""
        return self.error is not None or not self._waiting_sinks

    @property
    def finished(self) -> bool:
        return self.error is not None or not (
            self._waiting_sinks or self._pending)

    def sinks(self, processors: Iterable[str]) -> None:
        """The sink threads of ``processors`` have completed."""
        if not self.finished:
            self._waiting_sinks.difference_update(processors)

    def done(self, host: Any, payload: Dict[str, Any]) -> None:
        """``host`` unwound and reported its payload."""
        if not self.finished and host in self._pending:
            self._pending.discard(host)
            self._payloads.append(payload)

    def failed(self, where: str, detail: str) -> None:
        """The executive raised on a host (``detail``: its traceback)."""
        if not self.finished:
            self.error = (where, detail)

    def lost(self, host: Any, where: str, detail: str) -> None:
        """``host`` went away without a word (``detail`` says how)."""
        if self.finished or host not in self._pending:
            return
        if not self._supervised:
            self.error = (where, detail + "; enable fault supervision (a "
                          "FaultPlan) to survive the loss of a worker")
        elif self._sinks_of[host]:
            self.error = (where, detail + "; it hosted sink processor(s) "
                          + ", ".join(self._sinks_of[host])
                          + ", which cannot be re-dispatched")
        else:
            self._pending.discard(host)

    def payloads(self) -> List[Dict[str, Any]]:
        if self.error is not None:
            where, detail = self.error
            raise BackendError(f"executive failed on {where!r}:\n{detail}")
        return self._payloads


def merge_run(
    plan: RunPlan,
    payloads: Iterable[Dict[str, Any]],
    wall_us: float,
    backend: str,
) -> RunReport:
    """Merge the hosts' payloads into the run's report.

    The report always carries a :class:`~repro.machine.trace.Trace`:
    fault and realtime records are annotated on it as instants whether
    or not spans were recorded.
    """
    blackboard: Dict[str, Any] = {}
    trace = Trace()
    records: List[Dict] = []
    halves: Dict[str, Any] = {"admission": None, "delivery": None}
    for payload in payloads:
        blackboard.update(payload["blackboard"])
        trace.compute.extend(Span(*s) for s in payload["compute"])
        trace.transfer.extend(Span(*s) for s in payload["transfer"])
        records.extend(payload["faults"])
        for half, value in (payload["realtime"] or {}).items():
            if value is not None:
                halves[half] = value
    trace.compute.sort(key=lambda s: s.start)
    trace.transfer.sort(key=lambda s: s.start)
    fault_report = realtime_report = None
    if plan.supervised:
        fault_report = FaultReport.from_payload(records).sorted()
        fault_report.annotate_trace(trace)
    if plan.budget is not None:
        realtime_report = assemble_report(plan.budget, **halves)
        realtime_report.annotate_trace(trace)
    report = report_from_blackboard(
        blackboard, makespan=wall_us, backend=backend, trace=trace)
    report.faults = fault_report
    report.realtime = realtime_report
    return report
