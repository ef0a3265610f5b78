"""The injector: what a fault plan does, decided once for every layer.

A :class:`~repro.faults.plan.FaultPlan` says what should go wrong; the
:class:`Injector` says when, and writes it down.  The simulator and the
policy kernel keep only the *mechanism* (charge a delay in virtual time
or sleep it, park a thread, swallow a message, raise ``WorkerCrash``)
and ask it every *decision*, so one plan tells one story everywhere.
Like :class:`~repro.faults.farm.FarmSupervisor` it is clock-free: each
question carries the caller's ``now`` in microseconds.  Every
``injected`` record of a run is written here, in one format: the target
(worker, edge or stream input), its processor (for an edge, the
sender's) and a note.
"""

from __future__ import annotations

import difflib
from typing import Dict, List, NamedTuple, Optional

from .plan import EDGE_KINDS, FaultPlan, FaultSpec, PlanError, PlanMatcher
from .report import FaultReport
from .topology import FaultTopology

__all__ = ["COMPUTE_KINDS", "GRAB_KINDS", "Verdict", "Injector", "check_plan"]

#: The kinds that fire on a farm worker's computation.
COMPUTE_KINDS = ("crash", "stall", "delay", "slow-worker", "limplock")

#: The kinds that fire on a stream grab.
GRAB_KINDS = ("burst", "input-surge")

#: The note each kind's record carries.
_NOTES = {
    "delay": "{spec.delay_us:.0f} us",
    "slow-worker": "{spec.delay_us:.0f} us",
    "limplock": "x{spec.factor:g} slowdown latched",
    "credit-starvation": "consumer stopped draining {worker.work_in_edge}",
    "drop": "sent by {sender}",
    "partial-partition": "sent by {sender} (link stalled one direction)",
    "burst": "back-to-back frame",
    "input-surge": "x{spec.factor:g} rate",
}


class Verdict(NamedTuple):
    """One computation's fate: ``delay_us`` more, its service time times
    ``factor`` (a latched limplock), and a ``fatal`` end: ``"crash"`` (it
    dies) or ``"stall"`` (it hangs, heartbeating, until teardown)."""

    delay_us: float
    factor: float
    fatal: Optional[str]


def check_plan(plan: FaultPlan, topology: FaultTopology) -> None:
    """Raise :class:`PlanError` for a spec whose target cannot fire.

    Compute and starvation faults fire on farm workers only, overload
    faults on the stream input (by process, or by a processor hosting
    one), edge faults on an ``e<i>`` of the graph.
    """
    workers = {w.pid: w.processor for f in topology.farms for w in f.workers}
    inputs = {pid: topology.pid_to_processor[pid] for pid in topology.inputs}
    for spec in plan.events:
        if spec.kind in EDGE_KINDS:
            names, what = set(topology.edge_src), "an edge of the graph"
        else:
            pids, what = ((inputs, "the stream input")
                          if spec.kind in GRAB_KINDS
                          else (workers, "a farm worker"))
            names = set(pids if spec.process else pids.values())
            if not spec.process:
                what = f"a processor hosting {what}"
        if spec.target not in names:
            close = difflib.get_close_matches(spec.target, sorted(names), n=1)
            raise PlanError(
                f"fault {spec.to_dict()} can never fire: {spec.target!r} is "
                f"not {what}"
                + (f" (did you mean {close[0]!r}?)" if close else ""))


class Injector:
    """The one reader of a fault plan during a run.

    ``compute_pids`` / ``starved_pids`` are the workers whose
    computations / packet receives the plan can touch, ``drop_edges``
    the edges it can drop on: a caller asks about nothing else.
    """

    def __init__(self, plan: FaultPlan, topology: FaultTopology,
                 report: FaultReport):
        self._matcher = PlanMatcher(plan)
        self._topology = topology
        self._report = report
        self._workers = {w.pid: w for f in topology.farms for w in f.workers}
        #: Latched limplock factors, per worker pid.
        self._limp: Dict[str, float] = {}

        def named(kinds) -> frozenset:
            specs = [s for s in plan.events if s.kind in kinds]
            return frozenset(
                pid for pid, w in self._workers.items()
                if any(s.process == pid or s.processor == w.processor
                       for s in specs))

        self.compute_pids = named(COMPUTE_KINDS)
        self.starved_pids = named(("credit-starvation",))
        self.drop_edges = frozenset(
            s.edge for s in plan.events if s.kind in EDGE_KINDS)

    def pending(self) -> List[FaultSpec]:
        """Specs that never fired."""
        return self._matcher.pending()

    def _fire(self, kinds, now_us: float, pid: Optional[str] = None,
              edge: Optional[str] = None) -> List[FaultSpec]:
        """The specs firing on this occurrence — of process ``pid``, or
        of a send on ``edge`` — each written down."""
        sender = self._topology.edge_src.get(edge, pid)
        processor = self._topology.pid_to_processor[sender]
        specs = self._matcher.fire(process=pid, processor=processor,
                                   edge=edge, kinds=kinds)
        for spec in specs:
            note = _NOTES.get(spec.kind, "").format(
                spec=spec, sender=sender, worker=self._workers.get(pid))
            self._report.add("injected", spec.kind, edge or pid, now_us,
                             processor=processor, note=note)
        return specs

    def compute(self, pid: str, now_us: float) -> Verdict:
        """One computation of farm worker ``pid``."""
        delay_us, fatal = 0.0, None
        for spec in self._fire(COMPUTE_KINDS, now_us, pid):
            if spec.kind == "limplock":
                self._limp[pid] = spec.factor
            elif spec.kind in ("delay", "slow-worker"):
                delay_us += spec.delay_us
            elif fatal is None:
                fatal = spec.kind
        return Verdict(delay_us, self._limp.get(pid, 1.0), fatal)

    def starve(self, pid: str, now_us: float) -> bool:
        """Farm worker ``pid`` received a packet: True when it stops
        draining its queue for good, holding that packet (its heartbeat
        goes on: BEAT fresh, COUNT flat)."""
        return bool(self._fire(("credit-starvation",), now_us, pid))

    def drop(self, edge: str, now_us: float) -> bool:
        """A non-Stop message goes out on ``edge``: True when it is
        lost."""
        return bool(self._fire(EDGE_KINDS, now_us, edge=edge))

    def grab(self, pid: str, now_us: float) -> float:
        """The stream input ``pid`` grabs a frame: the factor on its
        pacing period — 0 for a ``burst`` (released back-to-back),
        ``1 / factor`` for an ``input-surge``, else 1."""
        specs = self._fire(GRAB_KINDS, now_us, pid)
        if any(s.kind == "burst" for s in specs):
            return 0.0
        return 1.0 / max((s.factor for s in specs), default=1.0)
