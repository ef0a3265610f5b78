"""Deterministic fault-injection plans.

A :class:`FaultPlan` is a *seeded, reproducible* description of what
should go wrong during a run: crash/stall/delay/message-drop events
keyed by process id, processor, or edge, each firing at its n-th
matching occurrence.  The same plan file drives every execution layer
through one :class:`~repro.faults.inject.Injector` — the discrete-event
simulator charges its verdicts in virtual time, the threads and
processes kernels inject real crashes and stalls — so a scenario
debugged on the simulator reproduces bit-for-bit on real workers.

The occurrence rule is the same on every backend.  Compute kinds fire
on **farm workers only**, one occurrence per computation: a master,
split, merge, input or router has nobody to re-dispatch its work, so a
plan naming one is refused before the run.  ``credit-starvation``
counts a worker's packet receives (the starved worker holds the packet
that fired it), edge kinds the messages sent on the edge, overload
kinds the stream input's grabs — and a Stop is never an occurrence.

Plans serialise to a small JSON document (``repro run --faults
PLAN.json``)::

    {"version": 1,
     "events": [
        {"kind": "crash", "process": "df0.worker1", "occurrence": 0},
        {"kind": "delay", "processor": "P2", "delay_us": 5000},
        {"kind": "drop", "edge": "e7", "occurrence": 1}
     ]}
"""

from __future__ import annotations

import difflib
import json
import random
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = [
    "FAULT_KINDS",
    "OVERLOAD_KINDS",
    "EDGE_KINDS",
    "FaultSpec",
    "FaultPlan",
    "PlanMatcher",
    "PlanError",
]

#: The supported fault kinds.
#:
#: * ``crash`` — the target executive process dies mid-computation;
#: * ``stall`` — the target hangs (never returns) until teardown;
#: * ``delay`` — the target's computation takes ``delay_us`` longer;
#: * ``drop``  — one message on the target edge is silently lost.
#:
#: Overload kinds (the real-time fault model of :mod:`repro.realtime`):
#:
#: * ``slow-worker``  — the target's computation takes ``delay_us``
#:   longer on each of ``count`` consecutive firings (persistent
#:   slowness rather than a one-off hiccup);
#: * ``burst``        — the stream source releases ``count`` consecutive
#:   frames back-to-back, ignoring its pacing period;
#: * ``input-surge``  — the stream source runs at ``factor`` times its
#:   configured rate for ``count`` frames.
#:
#: Gray-failure kinds (the limplock model of :mod:`repro.health`):
#:
#: * ``limplock``          — from its ``occurrence``-th firing on, the
#:   target's every computation takes ``factor`` times longer, for the
#:   rest of the run (a slow-but-alive worker that keeps heartbeating);
#: * ``partial-partition`` — the target edge silently loses the
#:   ``count`` messages starting at ``occurrence`` (one direction of a
#:   link stalls; the reverse direction stays up);
#: * ``credit-starvation`` — from its ``occurrence``-th receive on, the
#:   target process stops consuming (and therefore stops returning flow
#:   -control credits), backing up every queue feeding it.
FAULT_KINDS = ("crash", "stall", "delay", "drop",
               "slow-worker", "burst", "input-surge",
               "limplock", "partial-partition", "credit-starvation")

#: Kinds that fire over a window of ``count`` occurrences (the classic
#: kinds keep their fire-exactly-once contract via the default count=1).
OVERLOAD_KINDS = ("slow-worker", "burst", "input-surge",
                  "partial-partition")

#: Kinds that target an edge rather than a process/processor.
EDGE_KINDS = ("drop", "partial-partition")


class PlanError(ValueError):
    """A fault plan could not be parsed or is inconsistent."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Exactly one of ``process`` (process-graph id, e.g. ``df0.worker1``),
    ``processor`` (architecture id, e.g. ``P2``) or ``edge`` (``e<i>``,
    the index into ``graph.edges``) selects the target.  ``occurrence``
    picks the n-th matching event (0-based): for compute faults the n-th
    firing of the target, for drops the n-th message on the edge — this
    is how a fault is keyed to a particular stream iteration.
    """

    kind: str
    process: Optional[str] = None
    processor: Optional[str] = None
    edge: Optional[str] = None
    occurrence: int = 0
    delay_us: float = 0.0
    #: How many consecutive occurrences the fault covers (window kinds:
    #: slow-worker/burst/input-surge; the classic kinds fire once).
    count: int = 1
    #: Rate multiplier for ``input-surge`` (source runs this much faster).
    factor: float = 2.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise PlanError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        for name in ("occurrence", "count"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise PlanError(
                    f"{name} must be an integer, got {value!r}"
                )
        for name in ("delay_us", "factor"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise PlanError(
                    f"{name} must be a number, got {value!r}"
                )
        targets = [t for t in (self.process, self.processor, self.edge) if t]
        if len(targets) != 1:
            raise PlanError(
                f"fault {self.kind!r} must name exactly one of process/"
                f"processor/edge, got {targets!r}"
            )
        if self.kind in EDGE_KINDS and self.edge is None:
            raise PlanError(f"{self.kind!r} faults target an edge")
        if self.kind not in EDGE_KINDS and self.edge is not None:
            raise PlanError(f"{self.kind!r} faults target a process/processor")
        if self.occurrence < 0:
            raise PlanError("occurrence must be >= 0")
        if self.count < 1:
            raise PlanError("count must be >= 1")
        if self.delay_us < 0:
            raise PlanError(
                f"delay_us must be >= 0, got {self.delay_us!r}"
            )
        if self.kind in ("delay", "slow-worker") and self.delay_us <= 0:
            raise PlanError(
                f"{self.kind!r} faults need a positive delay_us, got "
                f"{self.delay_us!r}"
            )
        if self.kind not in ("delay", "slow-worker") and self.delay_us > 0:
            raise PlanError(
                f"delay_us is meaningless for {self.kind!r} faults "
                f"(only 'delay' and 'slow-worker' use it)"
            )
        if self.factor <= 0:
            raise PlanError("factor must be positive")
        if self.kind == "limplock" and self.factor <= 1.0:
            raise PlanError(
                f"'limplock' needs a slowdown factor > 1, got "
                f"{self.factor!r}"
            )

    @property
    def target(self) -> str:
        return self.process or self.processor or self.edge or "?"

    def to_dict(self) -> Dict:
        out: Dict = {"kind": self.kind, "occurrence": self.occurrence}
        for key in ("process", "processor", "edge"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.kind in ("delay", "slow-worker"):
            out["delay_us"] = self.delay_us
        if self.count != 1:
            out["count"] = self.count
        if self.kind in ("input-surge", "limplock"):
            out["factor"] = self.factor
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultSpec":
        known = {"kind", "process", "processor", "edge", "occurrence",
                 "delay_us", "count", "factor"}
        unknown = set(data) - known
        if unknown:
            hints = []
            for name in sorted(unknown):
                close = difflib.get_close_matches(name, known, n=1)
                hints.append(f"{name!r}" + (f" (did you mean {close[0]!r}?)"
                                            if close else ""))
            raise PlanError(
                f"unknown fault-event field(s) {', '.join(hints)}; "
                f"known fields: {sorted(known)}"
            )
        if "kind" not in data:
            raise PlanError("fault event is missing 'kind'")
        return cls(**data)


@dataclass
class FaultPlan:
    """An ordered collection of planned faults (JSON round-trippable)."""

    events: List[FaultSpec] = field(default_factory=list)
    seed: Optional[int] = None

    def __bool__(self) -> bool:
        return bool(self.events)

    def __len__(self) -> int:
        return len(self.events)

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> Dict:
        out: Dict = {"version": 1,
                     "events": [e.to_dict() for e in self.events]}
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    def dumps(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.dumps() + "\n")

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise PlanError(f"fault plan must be an object, got "
                            f"{type(data).__name__}")
        version = data.get("version", 1)
        if version != 1:
            raise PlanError(f"unsupported fault-plan version {version!r}")
        events = data.get("events", [])
        if not isinstance(events, list):
            raise PlanError("'events' must be a list")
        return cls(
            events=[FaultSpec.from_dict(e) for e in events],
            seed=data.get("seed"),
        )

    @classmethod
    def loads(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise PlanError(f"fault plan is not valid JSON: {err}") from err
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path) as handle:
            return cls.loads(handle.read())

    # -- generation --------------------------------------------------------

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        workers: Sequence[str],
        kinds: Sequence[str] = ("crash",),
        n_events: int = 1,
        max_occurrence: int = 0,
        delay_us: float = 5_000.0,
        max_count: int = 1,
        factor: float = 2.0,
        edges: Optional[Sequence[str]] = None,
    ) -> "FaultPlan":
        """A deterministic seeded plan over the given worker processes.

        The same ``(seed, workers, kinds, n_events)`` always yields the
        same plan, so chaos scenarios are replayable from one integer.
        ``max_count`` bounds the window length drawn for overload kinds;
        edge-targeted kinds draw from ``edges`` (required if chosen).
        """
        rng = random.Random(seed)
        events = []
        for _ in range(n_events):
            kind = rng.choice(list(kinds))
            count = 1
            if kind in OVERLOAD_KINDS:
                count = rng.randint(1, max(1, max_count))
            target: Dict[str, str] = {}
            if kind in EDGE_KINDS:
                if not edges:
                    raise PlanError(
                        f"{kind!r} targets an edge: pass edges= to random()"
                    )
                target["edge"] = rng.choice(list(edges))
            else:
                target["process"] = rng.choice(list(workers))
            events.append(
                FaultSpec(
                    kind=kind,
                    occurrence=rng.randint(0, max_occurrence),
                    delay_us=delay_us if kind in ("delay", "slow-worker")
                    else 0.0,
                    count=count,
                    factor=max(factor, 1.5) if kind == "limplock"
                    else factor,
                    **target,
                )
            )
        return cls(events=events, seed=seed)


class PlanMatcher:
    """Stateful runtime matcher: counts occurrences, fires each window.

    The run's :class:`~repro.faults.inject.Injector` calls :meth:`fire`
    with the current event (the firing process, its processor, the edge
    sent on) and gets back the specs that trigger *now*.  Each spec keeps
    its own match counter and fires on occurrences ``occurrence ..
    occurrence + count - 1`` — once for the classic kinds (count=1), a
    consecutive window for the overload kinds — deterministic regardless
    of thread interleaving (the counter is guarded by a lock for the
    real backends).
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._counts = [0] * len(plan.events)
        self._fires = [0] * len(plan.events)
        self._lock = threading.Lock()

    def fire(
        self,
        *,
        process: Optional[str] = None,
        processor: Optional[str] = None,
        edge: Optional[str] = None,
        kinds: Optional[Sequence[str]] = None,
    ) -> List[FaultSpec]:
        """Specs triggering on this event (and consume their occurrence)."""
        triggered: List[FaultSpec] = []
        with self._lock:
            for i, spec in enumerate(self.plan.events):
                if (kinds is not None and spec.kind not in kinds) or (
                        spec.target != (edge if spec.edge else process
                                        if spec.process else processor)):
                    continue
                count = self._counts[i]
                self._counts[i] = count + 1
                if spec.occurrence <= count < spec.occurrence + spec.count:
                    self._fires[i] += 1
                    triggered.append(spec)
        return triggered

    def pending(self) -> List[FaultSpec]:
        """Specs that never fired (e.g. their target never ran)."""
        return [
            spec
            for spec, fires in zip(self.plan.events, self._fires)
            if fires == 0
        ]
