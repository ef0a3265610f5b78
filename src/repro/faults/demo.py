"""Self-contained fault-tolerance demonstration (``repro faults``).

Builds a small farm program, derives (or loads) a deterministic
:class:`~repro.faults.plan.FaultPlan`, executes it on the chosen
backend with supervision enabled, and prints the fault story next to
the fault-free sequential reference — the quickest way to watch a
worker die and the farm recover.

Every sequential function is a module-level ``def`` so the table
survives pickling under the ``spawn`` start method.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..backends import BackendError, get_backend
from ..core import FunctionTable, ProgramBuilder, TaskOutcome
from ..machine import FAST_TEST
from ..pnt import ProcessKind, expand_program
from ..syndex import distribute, ring
from .plan import FaultPlan, PlanError
from .policy import FaultPolicy
from .topology import FaultTopology

__all__ = ["main", "make_demo", "worker_pids"]


# -- module-level sequential functions (spawn-picklable) ----------------------

def chunk(n, xs):
    base, extra = divmod(len(xs), n)
    out, start = [], 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        if size:
            out.append(xs[start:start + size])
        start += size
    return out


def sumsq(chunk_):
    return sum(x * x for x in chunk_)


def total(_orig, parts):
    return sum(parts)


def square(x):
    return x * x


def add(a, b):
    return a + b


def halve(x):
    if abs(x) <= 1:
        return TaskOutcome(results=[x])
    return TaskOutcome(subtasks=[x // 2, x - x // 2])


# -- demo programs ------------------------------------------------------------

def make_scm():
    table = FunctionTable()
    table.register("chunk", ins=["int", "int list"], outs=["int list list"])(chunk)
    table.register("sumsq", ins=["int list"], outs=["int"], cost=50.0)(sumsq)
    table.register("total", ins=["int list", "int list"], outs=["int"], cost=20.0)(total)
    b = ProgramBuilder("faults_scm", table)
    (xs,) = b.params("xs")
    r = b.scm(3, split="chunk", comp="sumsq", merge="total", x=xs)
    return b.returns(r), table, (list(range(12)),)


def make_df():
    table = FunctionTable()
    table.register("square", ins=["int"], outs=["int"], cost=50.0)(square)
    table.register(
        "add", ins=["int", "int"], outs=["int"], cost=10.0,
        properties=["commutative", "associative"],
    )(add)
    b = ProgramBuilder("faults_df", table)
    (xs,) = b.params("xs")
    r = b.df(3, comp="square", acc="add", z=b.const(0), xs=xs)
    return b.returns(r), table, (list(range(10)),)


def make_tf():
    table = FunctionTable()
    table.register("halve", ins=["int"], outs=["outcome"], cost=30.0)(halve)
    table.register(
        "add", ins=["int", "int"], outs=["int"], cost=10.0,
        properties=["commutative", "associative"],
    )(add)
    b = ProgramBuilder("faults_tf", table)
    (xs,) = b.params("xs")
    r = b.tf(3, comp="halve", acc="add", z=b.const(0), xs=xs)
    return b.returns(r), table, ([13, 7, 21],)


RECIPES = {"scm": make_scm, "df": make_df, "tf": make_tf}


def make_demo(skeleton: str, arch_size: int = 4):
    """Build one demo program, fully mapped: (program, table, args, mapping)."""
    prog, table, args = RECIPES[skeleton]()
    mapping = distribute(expand_program(prog, table), ring(arch_size))
    return prog, table, args, mapping


def worker_pids(mapping) -> List[str]:
    """The farm-worker process ids of a mapping, in a stable order."""
    return sorted(
        p.id for p in mapping.graph.processes.values()
        if p.kind == ProcessKind.WORKER
    )


# -- the demo run -------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro faults",
        description="demonstrate fault injection and supervised recovery",
    )
    parser.add_argument(
        "--skeleton", choices=sorted(RECIPES), default="df",
        help="which farm skeleton to run (default: df)",
    )
    parser.add_argument(
        "--backend", choices=("simulate", "threads", "processes"),
        default="threads",
        help="execution backend (default: threads)",
    )
    parser.add_argument(
        "--kind",
        choices=("crash", "stall", "delay", "limplock",
                 "partial-partition", "credit-starvation"),
        default="crash",
        help="fault kind for the generated plan (default: crash)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="seed for the generated plan (default: 0)",
    )
    parser.add_argument(
        "--plan", metavar="FILE", default=None,
        help="load the fault plan from FILE instead of generating one",
    )
    parser.add_argument(
        "--save-plan", metavar="FILE", default=None,
        help="write the plan that was used to FILE (JSON)",
    )
    parser.add_argument(
        "--arch", type=int, default=4, metavar="N",
        help="ring size (default: 4)",
    )
    parser.add_argument(
        "--start-method", default=None,
        choices=("fork", "spawn", "forkserver"),
        help="multiprocessing start method (processes backend)",
    )
    args = parser.parse_args(argv)

    prog, table, run_args, mapping = make_demo(args.skeleton, args.arch)
    workers = worker_pids(mapping)

    if args.plan:
        try:
            plan = FaultPlan.load(args.plan)
        except (OSError, PlanError) as err:
            raise SystemExit(f"error: cannot load plan: {err}")
    else:
        edges = [w.dispatch_edge for farm in FaultTopology.from_mapping(
            mapping).farms for w in farm.workers]
        plan = FaultPlan.random(
            args.seed, workers=workers, kinds=(args.kind,),
            delay_us=5_000.0, max_count=3, factor=8.0, edges=edges,
        )
    if args.save_plan:
        plan.save(args.save_plan)
        print(f"plan written to {args.save_plan}")

    print(f"program : {args.skeleton} farm on ring:{args.arch} "
          f"({len(workers)} workers: {', '.join(workers)})")
    print(f"backend : {args.backend}")
    for event in plan.events:
        extra = ""
        if event.kind in ("delay", "slow-worker"):
            extra = f" (+{event.delay_us:.0f} us)"
        elif event.kind == "limplock":
            extra = f" (x{event.factor:g} for the rest of the run)"
        elif event.count > 1:
            extra = f" (window of {event.count})"
        print(f"fault   : {event.kind} on {event.target} "
              f"(occurrence {event.occurrence}){extra}")

    reference = get_backend("emulate").run(
        None, table, program=prog, costs=FAST_TEST, args=run_args,
    )

    # Short deadlines keep the demo snappy.  They are seconds on the
    # clock of whatever executes the run: the simulator's FAST_TEST
    # packets take ~50 virtual us, so there they shrink to match.
    if args.backend == "simulate":
        policy = FaultPolicy(packet_timeout_s=0.003,
                             heartbeat_timeout_s=0.0015)
    else:
        policy = FaultPolicy(packet_timeout_s=0.3, heartbeat_timeout_s=0.15)
    options = {}
    if args.start_method:
        options["start_method"] = args.start_method
    try:
        report = get_backend(args.backend).run(
            mapping, table, program=prog, costs=FAST_TEST, args=run_args,
            timeout=60.0, fault_plan=plan, fault_policy=policy, **options,
        )
    except (BackendError, ValueError) as err:
        raise SystemExit(f"error: {err}")

    print()
    print(report.summary())
    if report.faults is not None:
        for record in report.faults.sorted().records:
            line = (f"  [{record.category:<10}] {record.kind:<5} "
                    f"{record.target}")
            if record.latency_us:
                line += f"  latency {record.latency_us / 1000.0:.2f} ms"
            if record.note:
                line += f"  ({record.note})"
            print(line)

    got = (report.one_shot_results
           if report.one_shot_results is not None else report.outputs)
    want = (reference.one_shot_results
            if reference.one_shot_results is not None else reference.outputs)
    print()
    print(f"results   : {got!r}")
    print(f"reference : {want!r} (fault-free sequential emulation)")
    if got == want:
        print("recovered : yes — outputs identical despite the fault")
        return 0
    print("recovered : NO — outputs diverged from the reference")
    return 1


if __name__ == "__main__":
    sys.exit(main())
