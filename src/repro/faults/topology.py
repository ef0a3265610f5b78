"""Farm topology extraction: what the supervisor needs to know.

The generated executive is written purely against the kernel primitives
and never changes (the paper's portability claim).  Supervision
therefore hooks the *kernel*, and the kernel needs a map of the farm
protocol edges: which edges carry dispatched packets, which carry
results, and which worker each belongs to.  This module derives that map
once from the :class:`~repro.syndex.distribute.Mapping` — the same
structure the code generator consumed — so the supervisor in every
worker process agrees on edge roles without any runtime negotiation.

Edge names follow the generated code: ``e<i>`` indexes
``mapping.graph.edges``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..codegen.pygen import thread_name
from ..pnt.graph import ProcessKind
from ..syndex.distribute import Mapping

__all__ = ["FarmWorker", "Farm", "FaultTopology"]


@dataclass
class FarmWorker:
    """One worker of a supervised farm and its protocol edges."""

    pid: str  # process-graph id, e.g. "df0.worker1"
    index: int  # worker index within the farm (= master port - offset)
    processor: str
    slot: int  # heartbeat-board slot (unique across the whole program)
    dispatch_edge: str  # master/split -> (router ->) worker
    work_in_edge: str  # the edge the worker itself receives on
    work_out_edge: str  # the edge the worker itself sends results on
    collect_edge: str  # (router ->) master/merge


@dataclass
class Farm:
    """One farm (df/tf master-worker or scm split-merge) instance."""

    sid: str  # skeleton instance id, e.g. "df0"
    kind: str  # "farm" (df/tf master protocol) or "scm"
    owner_pid: str  # the supervising process: master, or the scm merge
    dispatcher_pid: str  # master, or the scm split
    workers: List[FarmWorker] = field(default_factory=list)
    #: False when supervision cannot cover this instance (scm whose split
    #: and merge map to different processors: the dispatcher's in-flight
    #: record would not be visible to the collector's OS process).
    supervised: bool = True

    @property
    def degree(self) -> int:
        return len(self.workers)


class FaultTopology:
    """Edge-role map of every farm in one mapped program."""

    def __init__(self, farms: List[Farm], thread_to_pid: Dict[str, str],
                 pid_to_processor: Dict[str, str], edge_src: Dict[str, str],
                 inputs: FrozenSet[str]):
        self.farms = farms
        self.thread_to_pid = thread_to_pid
        self.pid_to_processor = pid_to_processor
        #: Edge name -> the pid that sends on it.
        self.edge_src = edge_src
        #: The stream input pids (a frame grab is theirs).
        self.inputs = inputs
        self.n_slots = sum(f.degree for f in farms)
        # Role lookups over supervised farms only: unsupervised farms run
        # the plain un-enveloped protocol in every process.
        self.work_in_edges: Dict[str, Tuple[Farm, FarmWorker]] = {}
        self.work_out_edges: Dict[str, Tuple[Farm, FarmWorker]] = {}
        self.collect_edges: Dict[str, Tuple[Farm, FarmWorker]] = {}
        for farm in farms:
            if not farm.supervised:
                continue
            for worker in farm.workers:
                self.work_in_edges[worker.work_in_edge] = (farm, worker)
                self.work_out_edges[worker.work_out_edge] = (farm, worker)
                self.collect_edges[worker.collect_edge] = (farm, worker)

    def farm_of_collect_edges(self, edges) -> Optional[Farm]:
        """The single supervised farm owning *all* of ``edges``, if any."""
        farm: Optional[Farm] = None
        for edge in edges:
            entry = self.collect_edges.get(edge)
            if entry is None:
                return None
            if farm is None:
                farm = entry[0]
            elif entry[0] is not farm:
                return None
        return farm

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> "FaultTopology":
        graph = mapping.graph
        edge_name = {id(e): f"e{i}" for i, e in enumerate(graph.edges)}

        def edge_between(src: str, dst: str, *, src_port=None,
                         dst_port=None) -> str:
            for e in graph.edges:
                if e.src != src or e.dst != dst:
                    continue
                if src_port is not None and e.src_port != src_port:
                    continue
                if dst_port is not None and e.dst_port != dst_port:
                    continue
                return edge_name[id(e)]
            raise ValueError(f"no edge {src!r} -> {dst!r} in {graph.name!r}")

        farms: List[Farm] = []
        slot = 0
        skeletons = sorted({
            p.skeleton for p in graph.processes.values()
            if p.skeleton is not None
        })
        for sid in skeletons:
            members = graph.skeleton_processes(sid)
            workers = sorted(
                (p for p in members if p.kind == ProcessKind.WORKER),
                key=lambda p: p.params["index"],
            )
            if not workers:
                continue
            masters = [p for p in members if p.kind == ProcessKind.MASTER]
            if masters:
                master = masters[0]
                farm = Farm(sid=sid, kind="farm", owner_pid=master.id,
                            dispatcher_pid=master.id)
                for w in workers:
                    i = w.params["index"]
                    mw, wm = f"{sid}.mw{i}", f"{sid}.wm{i}"
                    farm.workers.append(FarmWorker(
                        pid=w.id, index=i,
                        processor=mapping.processor_of(w.id), slot=slot,
                        dispatch_edge=edge_between(master.id, mw),
                        work_in_edge=edge_between(mw, w.id),
                        work_out_edge=edge_between(w.id, wm),
                        collect_edge=edge_between(wm, master.id),
                    ))
                    slot += 1
            else:
                splits = [p for p in members if p.kind == ProcessKind.SPLIT]
                merges = [p for p in members if p.kind == ProcessKind.MERGE]
                if not splits or not merges:
                    continue
                split, merge = splits[0], merges[0]
                farm = Farm(
                    sid=sid, kind="scm", owner_pid=merge.id,
                    dispatcher_pid=split.id,
                    supervised=(mapping.processor_of(split.id)
                                == mapping.processor_of(merge.id)),
                )
                for w in workers:
                    i = w.params["index"]
                    in_edge = edge_between(split.id, w.id, src_port=i)
                    out_edge = edge_between(w.id, merge.id, dst_port=1 + i)
                    farm.workers.append(FarmWorker(
                        pid=w.id, index=i,
                        processor=mapping.processor_of(w.id), slot=slot,
                        dispatch_edge=in_edge, work_in_edge=in_edge,
                        work_out_edge=out_edge, collect_edge=out_edge,
                    ))
                    slot += 1
            farms.append(farm)

        thread_to_pid = {thread_name(pid): pid for pid in graph.processes}
        return cls(
            farms, thread_to_pid, dict(mapping.assignment),
            {edge_name[id(e)]: e.src for e in graph.edges},
            frozenset(p.id for p in graph.by_kind(ProcessKind.INPUT)
                      if p.func is not None))
