"""Chaos soak: hundreds of frames under mixed crash+overload chaos.

``repro soak`` drives a stream-of-farms program — each grabbed frame is
shattered into pieces, crunched by a ``df`` farm, and re-gathered — on a
real backend while a seeded :class:`~repro.faults.plan.FaultPlan` mixes
classic faults (worker crashes, stalls) with the overload fault model
(``slow-worker``, ``burst``, ``input-surge``), all under a
:class:`~repro.realtime.budget.LatencyBudget`.

The harness then *proves* the run survived:

* **frame conservation** — delivered + shed + failed == submitted
  (:func:`~repro.conformance.invariants.check_frame_conservation`);
* **value correctness** — every delivered frame carries exactly the
  value the fault-free sequential semantics assigns to its frame index
  (each frame's result is a pure function of the index, so shedding
  cannot hide corruption);
* **deadline accounting** — every over-budget delivery is flagged and
  evented.

Every sequential function is a module-level ``def`` so the table
survives pickling under the ``spawn`` start method.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..backends import BackendError, get_backend
from ..conformance.invariants import (
    check_deadline_accounting,
    check_frame_conservation,
)
from ..core import EndOfStream, FunctionTable, ProgramBuilder
from ..faults.demo import worker_pids
from ..faults.plan import FaultPlan, FaultSpec, PlanError
from ..faults.policy import FaultPolicy
from ..health import HealthPolicy
from ..machine import FAST_TEST
from ..sched.remap import RemapPolicy
from ..pnt import expand_program
from ..syndex import distribute, ring
from .budget import OVERLOAD_POLICIES, LatencyBudget
from .topology import StreamTopology

__all__ = ["make_soak", "soak_plan", "limplock_plan", "frame_value",
           "run_soak", "SoakResult", "main"]


# -- module-level sequential functions (spawn-picklable) ----------------------

_counter = {"i": 0}


def grab(source):
    """Grab the next frame: ``(index, pieces, work_us)``."""
    n_frames, pieces, work_us = source
    i = _counter["i"]
    _counter["i"] += 1
    if i >= n_frames:
        raise EndOfStream
    return (i, pieces, work_us)


def shatter(frame):
    """Break one frame into its farm packets ``(index, piece, work_us)``."""
    k, pieces, work_us = frame
    return [(k, j, work_us) for j in range(pieces)]


def crunch(piece):
    """Busy-wait ``work_us`` (the offered load), return a pure checksum."""
    k, j, work_us = piece
    if work_us > 0:
        t0 = time.perf_counter()
        while (time.perf_counter() - t0) * 1e6 < work_us:
            pass
    return (k * 2_654_435_761 + j * 40_503) % 100_003


def gather(acc, v):
    return acc + v


def pack(state, frame, total):
    """Next memory state and the delivered ``(index, checksum)`` pair."""
    return state + 1, (frame[0], total)


def emit(_y):
    return None


def frame_value(k: int, pieces: int) -> int:
    """The fault-free sequential result for frame ``k`` (the oracle)."""
    return sum((k * 2_654_435_761 + j * 40_503) % 100_003
               for j in range(pieces))


# -- the soak program ---------------------------------------------------------

def make_soak(nproc: int = 3, frames: int = 100, pieces: int = 6,
              work_us: float = 300.0, arch_size: int = 4):
    """Build the stream-of-farms soak program, fully mapped.

    Returns ``(program, table, mapping)``.  ``work_us`` of busy-wait per
    piece is the offered-load knob: raise it (or shrink the budget's
    frame period) to push the pipeline past saturation.
    """
    _counter["i"] = 0  # fresh stream per run (fork inherits, spawn reimports)
    table = FunctionTable()
    table.register("grab", ins=["unit"], outs=["frame"], cost=10.0)(grab)
    table.register("shatter", ins=["frame"], outs=["piece list"],
                   cost=10.0)(shatter)
    table.register("crunch", ins=["piece"], outs=["int"],
                   cost=lambda p: 20.0 + p[2])(crunch)
    table.register(
        "gather", ins=["int", "int"], outs=["int"], cost=5.0,
        properties=["commutative", "associative"],
    )(gather)
    table.register("pack", ins=["int", "frame", "int"],
                   outs=["int", "pair"], cost=10.0)(pack)
    table.register("emit", ins=["pair"], cost=5.0)(emit)
    b = ProgramBuilder("realtime_soak", table)
    state, frame = b.params("state", "frame")
    xs = b.apply("shatter", frame)
    total = b.df(nproc, comp="crunch", acc="gather", z=b.const(0), xs=xs)
    s2, y = b.apply("pack", state, frame, total)
    prog = b.stream(
        s2, y, inp="grab", out="emit", init_value=0,
        source=(frames, pieces, work_us),
    )
    mapping = distribute(expand_program(prog, table), ring(arch_size))
    return prog, table, mapping


def limplock_plan(mapping, *, worker: int = 0,
                  factor: float = 10.0) -> FaultPlan:
    """One persistent gray failure: the n-th farm worker limps forever.

    The canonical chaos-proof scenario — every computation by the chosen
    worker takes ``factor`` times longer from its first firing on, while
    its heartbeat stays perfectly fresh — used by the limplock soak leg
    and the hedging A/B comparisons (``--limplock`` vs ``--no-hedge``).
    """
    workers = worker_pids(mapping)
    target = workers[worker % len(workers)]
    return FaultPlan([FaultSpec(
        kind="limplock", process=target, occurrence=0, factor=factor,
    )])


def soak_plan(seed: int, mapping, *, n_faults: int = 6,
              slow_us: float = 2_000.0) -> FaultPlan:
    """A seeded mixed crash+overload plan for one soak run.

    Half the events target farm workers (``crash`` / ``slow-worker``),
    half the stream source (``burst`` / ``input-surge``) — the same
    ``(seed, mapping)`` always yields the same plan.
    """
    import random

    rng = random.Random(seed)
    workers = worker_pids(mapping)
    stream = StreamTopology.from_mapping(mapping)
    if stream is None:
        raise PlanError("soak_plan needs a stream mapping")
    events: List[FaultSpec] = []
    for i in range(n_faults):
        if i % 2 == 0:
            kind = rng.choice(("crash", "slow-worker"))
            events.append(FaultSpec(
                kind=kind,
                process=rng.choice(workers),
                occurrence=rng.randint(0, 20),
                delay_us=slow_us if kind == "slow-worker" else 0.0,
                count=rng.randint(2, 6) if kind == "slow-worker" else 1,
            ))
        else:
            kind = rng.choice(("burst", "input-surge"))
            events.append(FaultSpec(
                kind=kind,
                process=stream.input_pid,
                occurrence=rng.randint(0, 40),
                count=rng.randint(2, 8),
                factor=rng.choice((2.0, 3.0, 4.0)),
            ))
    return FaultPlan(events=events, seed=seed)


# -- the soak run -------------------------------------------------------------

@dataclass
class SoakResult:
    """Everything one soak run produced, plus its verdict."""

    report: object
    plan: FaultPlan
    budget: LatencyBudget
    pieces: int
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def ledger_payload(self) -> dict:
        """The frame ledger as one JSON document (the CI artifact)."""
        rt = self.report.realtime
        return {
            "plan": self.plan.to_dict(),
            "budget": self.budget.to_dict(),
            "realtime": rt.to_payload() if rt is not None else None,
            "violations": self.violations,
            "ok": self.ok,
        }


def _check_values(report, pieces: int) -> List[str]:
    """Every delivered (index, checksum) must match the pure oracle."""
    violations = []
    for k, value in report.outputs:
        want = frame_value(k, pieces)
        if value != want:
            violations.append(
                f"value correctness: frame {k} delivered {value}, the "
                f"sequential semantics says {want}"
            )
    rt = report.realtime
    if rt is not None:
        delivered = [f.frame for f in rt.ledger.delivered]
        produced = [k for k, _ in report.outputs]
        if delivered != produced:
            violations.append(
                f"value correctness: ledger delivered frames {delivered} "
                f"but the output stream carried {produced}"
            )
    return violations


def run_soak(
    backend: str = "threads",
    *,
    seed: int = 0,
    frames: int = 100,
    nproc: int = 3,
    pieces: int = 6,
    work_us: float = 300.0,
    deadline_ms: float = 50.0,
    policy: str = "shed-oldest",
    max_in_flight: int = 3,
    frame_period_ms: float = 2.0,
    n_faults: int = 6,
    chaos: bool = True,
    plan: Optional[FaultPlan] = None,
    health: Optional[HealthPolicy] = None,
    remap: Optional[RemapPolicy] = None,
    timeout: float = 120.0,
    **options,
) -> SoakResult:
    """One chaos-soak run; the returned result carries its verdict.

    ``plan`` overrides the seeded chaos mix with an explicit fault plan
    (e.g. :func:`limplock_plan`); ``health`` overrides the gray-failure
    defense knobs — pass ``HealthPolicy(hedge_enabled=False)`` for the
    unhedged arm of an A/B comparison, ``HealthPolicy(enabled=False)``
    to switch the whole defense layer off.  ``remap`` arms the online
    re-mapper (count-based migration off confirmed-limping workers);
    ``None`` leaves it off, matching the pre-re-mapping behaviour.
    """
    prog, table, mapping = make_soak(
        nproc=nproc, frames=frames, pieces=pieces, work_us=work_us,
    )
    if plan is None:
        plan = soak_plan(seed, mapping, n_faults=n_faults) if chaos \
            else FaultPlan(seed=seed)
    budget = LatencyBudget(
        deadline_ms=deadline_ms, policy=policy,
        max_in_flight=max_in_flight, frame_period_ms=frame_period_ms,
    )
    fault_policy = FaultPolicy(
        packet_timeout_s=0.3, heartbeat_timeout_s=0.15,
        probe_after_s=0.2, health=health, remap=remap,
    )
    report = get_backend(backend).run(
        mapping, table, program=prog, costs=FAST_TEST,
        timeout=timeout, budget=budget,
        fault_plan=plan if plan else None,
        fault_policy=fault_policy if plan else None,
        **options,
    )
    violations = (
        check_frame_conservation(report)
        + check_deadline_accounting(report)
        + _check_values(report, pieces)
    )
    return SoakResult(report=report, plan=plan, budget=budget,
                      pieces=pieces, violations=violations)


# -- CLI ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro soak",
        description="chaos-soak a stream of farm frames under a latency "
                    "budget and prove frame conservation",
    )
    parser.add_argument("--backend", default="threads",
                        choices=("threads", "processes", "tcp"),
                        help="execution backend (default: threads)")
    parser.add_argument("--seed", type=int, default=0,
                        help="chaos seed (default: 0)")
    parser.add_argument("--frames", type=int, default=100,
                        help="frames to stream (default: 100)")
    parser.add_argument("--nproc", type=int, default=3,
                        help="farm degree (default: 3)")
    parser.add_argument("--pieces", type=int, default=6,
                        help="packets per frame (default: 6)")
    parser.add_argument("--work-us", type=float, default=300.0,
                        help="busy-work per packet in us (default: 300)")
    parser.add_argument("--deadline-ms", type=float, default=50.0,
                        help="per-frame latency budget (default: 50)")
    parser.add_argument("--overload-policy", default="shed-oldest",
                        choices=OVERLOAD_POLICIES, dest="policy",
                        help="admission overload policy "
                             "(default: shed-oldest)")
    parser.add_argument("--max-in-flight", type=int, default=3,
                        help="frames in flight bound (default: 3)")
    parser.add_argument("--frame-period-ms", type=float, default=2.0,
                        help="source pacing period (default: 2)")
    parser.add_argument("--faults", type=int, default=6, dest="n_faults",
                        help="chaos events in the seeded plan (default: 6)")
    parser.add_argument("--no-chaos", action="store_true",
                        help="run the same load without injected faults")
    parser.add_argument("--limplock", type=float, default=None,
                        metavar="FACTOR",
                        help="replace the chaos mix with one persistent "
                             "limplock: the worker named by --limp-worker "
                             "runs FACTOR times slower for the whole run")
    parser.add_argument("--limp-worker", type=int, default=0, metavar="N",
                        help="worker index the --limplock fault targets "
                             "(default: 0)")
    parser.add_argument("--no-hedge", action="store_true",
                        help="disable hedged re-dispatch (the unhedged arm "
                             "of a limplock A/B comparison)")
    parser.add_argument("--no-health", action="store_true",
                        help="disable the whole gray-failure defense layer "
                             "(scoring, demotion and hedging)")
    parser.add_argument("--remap", action="store_true",
                        help="arm the online re-mapper: migrate the farm "
                             "share of confirmed-limping workers to healthy "
                             "survivors mid-stream")
    parser.add_argument("--ledger", metavar="FILE", default=None,
                        help="write the frame ledger JSON to FILE")
    parser.add_argument("--start-method", default=None,
                        choices=("fork", "spawn", "forkserver"),
                        help="multiprocessing start method "
                             "(processes backend)")
    args = parser.parse_args(argv)

    options = {}
    if args.start_method:
        options["start_method"] = args.start_method
    health = None
    if args.no_health:
        health = HealthPolicy(enabled=False)
    elif args.no_hedge:
        health = HealthPolicy(hedge_enabled=False)
    plan = None
    if args.limplock is not None:
        prog, table, mapping = make_soak(
            nproc=args.nproc, frames=args.frames, pieces=args.pieces,
            work_us=args.work_us,
        )
        plan = limplock_plan(mapping, worker=args.limp_worker,
                             factor=args.limplock)
    try:
        result = run_soak(
            args.backend, seed=args.seed, frames=args.frames,
            nproc=args.nproc, pieces=args.pieces, work_us=args.work_us,
            deadline_ms=args.deadline_ms, policy=args.policy,
            max_in_flight=args.max_in_flight,
            frame_period_ms=args.frame_period_ms,
            n_faults=args.n_faults, chaos=not args.no_chaos,
            plan=plan, health=health,
            remap=RemapPolicy() if args.remap else None,
            **options,
        )
    except (BackendError, PlanError, ValueError) as err:
        raise SystemExit(f"error: {err}")

    report = result.report
    print(f"soak    : {args.frames} frames x {args.pieces} pieces on "
          f"{args.backend} (seed {args.seed})")
    for event in result.plan.events:
        extra = ""
        if event.kind in ("delay", "slow-worker"):
            extra = f" (+{event.delay_us:.0f} us x{event.count})"
        elif event.kind == "limplock":
            extra = f" (x{event.factor:g} for the rest of the run)"
        elif event.kind == "input-surge":
            extra = f" (x{event.factor:g} rate for {event.count})"
        elif event.kind == "burst":
            extra = f" ({event.count} back-to-back)"
        print(f"fault   : {event.kind} on {event.target} "
              f"(occurrence {event.occurrence}){extra}")
    print()
    print(report.summary())
    if args.ledger:
        from ..cli import ensure_parent_dir

        ensure_parent_dir(args.ledger)
        with open(args.ledger, "w") as handle:
            json.dump(result.ledger_payload(), handle, indent=2)
            handle.write("\n")
        print(f"ledger written to {args.ledger}")
    print()
    if result.ok:
        print("soak verdict: PASS — every frame accounted for, every "
              "delivered value exact")
        return 0
    print("soak verdict: FAIL")
    for violation in result.violations:
        print(f"  - {violation}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
