"""Command-line driver for the SKiPPER environment.

The original system was driven by makefiles around the custom Caml
compiler and SynDEx; this module is the equivalent front door::

    python -m repro typecheck spec.ml --functions app:TABLE
    python -m repro compile   spec.ml --functions app:TABLE --arch ring:8 --emit summary
    python -m repro compile   spec.ml --functions app:TABLE --arch ring:8 --emit macro
    python -m repro emulate   spec.ml --functions app:TABLE --max-iterations 5
    python -m repro simulate  spec.ml --functions app:TABLE --arch ring:8 --gantt
    python -m repro run       spec.ml --functions app:TABLE --arch ring:8 --backend processes
    python -m repro run       spec.ml --functions app:TABLE --backend asyncio
    python -m repro emit      spec.ml --functions app:TABLE --arch ring:4 -o deploy/
    python -m repro run       spec.ml --functions app:TABLE --faults plan.json
    python -m repro run       spec.ml --functions app:TABLE --deadline-ms 40 --overload-policy shed-oldest
    python -m repro faults    --skeleton scm --backend processes
    python -m repro soak      --backend processes --frames 200 --seed 7
    python -m repro check     --backends simulate,threads --cases 50 --seed 7
    python -m repro worker    --connect 127.0.0.1:7070
    python -m repro run       spec.ml --functions app:TABLE --backend tcp --cluster 4
    python -m repro serve     --listen 127.0.0.1:7460 --cluster 4
    python -m repro submit    spec.ml --functions app:TABLE --connect 127.0.0.1:7460
    python -m repro ps        --connect 127.0.0.1:7460
    python -m repro stats     --connect 127.0.0.1:7460
    python -m repro backends

``--functions`` names the application's sequential-function table as
``module:attribute`` (the attribute may be a
:class:`~repro.core.functions.FunctionTable` or a zero-argument callable
returning one); the module is imported from the current directory like
any Python module.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import sys
from typing import List, Optional

from .backends import BACKENDS, BackendError
from .codegen.targets import TARGETS
from .core.artifacts import ensure_parent_dir
from .core.functions import FunctionTable
from .machine.executive import RunReport
from .minicaml.compile import compile_source, typecheck_source
from .minicaml.types import type_to_str
from .pipeline import build
from .realtime import OVERLOAD_POLICIES
from .shm import TRANSPORTS
from .syndex import arch as arch_mod

__all__ = ["main", "parse_architecture", "load_table"]


def parse_architecture(spec: str):
    """Parse ``ring:8``, ``now:4``, ``mesh:2x3``, ``full:5``, ``chain:3``."""
    try:
        kind, _, size = spec.partition(":")
        if kind == "mesh":
            rows, _, cols = size.partition("x")
            return arch_mod.mesh(int(rows), int(cols))
        builder = {
            "ring": arch_mod.ring,
            "chain": arch_mod.chain,
            "star": arch_mod.star,
            "full": arch_mod.fully_connected,
            "now": arch_mod.now,
        }[kind]
        return builder(int(size))
    except (KeyError, ValueError):
        raise SystemExit(
            f"error: bad architecture {spec!r} "
            "(expected ring:N, chain:N, star:N, full:N, now:N or mesh:RxC)"
        )


def load_table(spec: str) -> FunctionTable:
    """Import a function table from ``module:attribute``."""
    module_name, _, attr = spec.partition(":")
    if not module_name or not attr:
        raise SystemExit(
            f"error: bad --functions {spec!r} (expected module:attribute)"
        )
    sys.path.insert(0, ".")
    try:
        module = importlib.import_module(module_name)
    except ImportError as err:
        raise SystemExit(f"error: cannot import {module_name!r}: {err}")
    finally:
        # Repeated in-process calls must not accumulate path entries.
        try:
            sys.path.remove(".")
        except ValueError:
            pass
    try:
        value = getattr(module, attr)
    except AttributeError:
        raise SystemExit(f"error: {module_name!r} has no attribute {attr!r}")
    if callable(value) and not isinstance(value, FunctionTable):
        value = value()
    if not isinstance(value, FunctionTable):
        raise SystemExit(
            f"error: {spec!r} is not a FunctionTable (got {type(value).__name__})"
        )
    return value


def _read_source(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as err:
        raise SystemExit(f"error: cannot read {path!r}: {err}")


def _cmd_typecheck(args) -> int:
    source = _read_source(args.spec)
    table = load_table(args.functions)
    schemes = typecheck_source(source, table)
    for name, scheme in schemes.items():
        print(f"val {name} : {type_to_str(scheme.instantiate())}")
    return 0


def _cmd_compile(args) -> int:
    source = _read_source(args.spec)
    table = load_table(args.functions)
    built = build(
        source, table, parse_architecture(args.arch), entry=args.entry,
        profile_iterations=args.profile, scheduler=args.scheduler,
    )
    if args.emit == "summary":
        print(built.graph.summary())
        print(built.mapping.summary())
        print(built.deadlock.render())
    elif args.emit == "dot":
        print(built.graph.to_dot())
    else:
        # Any registered codegen target renders to stdout.
        from .codegen.targets import get_target

        print(get_target(args.emit).generate(built.mapping))
    return 0


def _cmd_emit(args) -> int:
    from .codegen.targets import EmitError, get_target

    try:
        target = get_target(args.target)
    except EmitError as err:
        raise SystemExit(f"error: {err}")
    source = _read_source(args.spec)
    table = load_table(args.functions)
    built = build(
        source, table, parse_architecture(args.arch), entry=args.entry,
        profile_iterations=args.profile, scheduler=args.scheduler,
    )
    try:
        files = target.emit(
            built.mapping, table, args.out,
            max_iterations=args.max_iterations,
        )
    except EmitError as err:
        raise SystemExit(f"error: cannot emit {args.target!r}: {err}")
    for rel in files:
        print(f"  {args.out}/{rel}")
    print(f"emitted {len(files)} file(s) ({args.target} target) "
          f"to {args.out}")
    return 0


def _cmd_map(args) -> int:
    """Score every registered scheduling policy's mapping of one program."""
    import json

    from .pipeline import expand, profile as profile_stage
    from .sched import SCHEDULERS, get_scheduler, predict

    source = _read_source(args.spec)
    table = load_table(args.functions)
    arch = parse_architecture(args.arch)
    compiled = compile_source(source, table, entry=args.entry)
    graph = expand(compiled.ir, table)
    durations = edge_bytes = None
    if args.profile:
        prof = profile_stage(graph, table, max_iterations=args.profile)
        durations, edge_bytes = prof.durations(), prof.edge_bytes
    criteria = dict(
        durations=durations, edge_bytes=edge_bytes, items_hint=args.items,
        latency_budget_us=args.latency_budget_us,
        throughput_target_hz=args.throughput_target_hz,
    )
    rows = []
    descriptions = SCHEDULERS.descriptions()
    for name in SCHEDULERS.names():
        mapping = get_scheduler(name).place(graph, arch, **criteria)
        estimate = predict(
            mapping, durations=durations, edge_bytes=edge_bytes,
            items_hint=args.items,
        )
        rows.append({
            "policy": name,
            "description": descriptions[name],
            "estimate": estimate.to_dict(),
            "assignment": dict(sorted(mapping.assignment.items())),
        })

    costs = "measured costs" if durations else "structural weights"
    print(f"candidate mappings of {graph.name!r} onto {arch.name!r} "
          f"({costs}, items hint {args.items}):")
    print(f"  {'policy':<12} {'latency':>12} {'period':>12} "
          f"{'throughput':>12} {'reliability':>12}")
    for row in rows:
        e = row["estimate"]
        print(f"  {row['policy']:<12} {e['latency_us']:>10.1f}us "
              f"{e['period_us']:>10.1f}us {e['throughput_hz']:>10.1f}/s "
              f"{e['reliability']:>12.9f}")
    for label, key, best in (
        ("latency", "latency_us", min),
        ("throughput", "period_us", min),
        ("reliability", "reliability", max),
    ):
        winner = best(rows, key=lambda r: r["estimate"][key])
        print(f"  best {label}: {winner['policy']}")
    if args.json:
        ensure_parent_dir(args.json)
        with open(args.json, "w") as handle:
            json.dump({
                "program": graph.name,
                "arch": arch.name,
                "items_hint": args.items,
                "latency_budget_us": args.latency_budget_us,
                "throughput_target_hz": args.throughput_target_hz,
                "policies": rows,
            }, handle, indent=2)
            handle.write("\n")
        print(f"mappings written to {args.json}")
    return 0


def _cmd_emulate(args) -> int:
    source = _read_source(args.spec)
    table = load_table(args.functions)
    compiled = compile_source(source, table, entry=args.entry)
    result = compiled.emulate(max_iterations=args.max_iterations)
    print(f"final memory: {result!r}")
    return 0


def _write_trace(report: RunReport, path: str) -> None:
    if report.trace is None:
        print(f"warning: backend {report.backend!r} recorded no trace; "
              f"{path!r} not written", file=sys.stderr)
        return
    ensure_parent_dir(path)
    with open(path, "w") as handle:
        handle.write(report.trace.to_chrome_json(indent=2))
    print(f"trace written to {path} (chrome://tracing / Perfetto)")


def _print_report(report: RunReport, args) -> None:
    print(report.summary())
    if report.one_shot_results is not None:
        for idx, value in enumerate(report.one_shot_results):
            print(f"  result[{idx}] = {value!r}")
    elif report.outputs:
        shown = report.outputs[:8]
        tail = "" if len(report.outputs) <= 8 else f" ... ({len(report.outputs)} total)"
        print(f"  outputs: {shown!r}{tail}")
    for proc, frac in sorted(report.utilisation().items()):
        print(f"  {proc}: {100 * frac:5.1f}% busy")
    health_rows = (report.faults.health_rows()
                   if getattr(report.faults, "health_rows", None) else [])
    if health_rows:
        print(f"  {'worker':<24} {'state':<8} {'score':>9} "
              f"{'flagged':>7} {'restored':>8}")
        for row in health_rows:
            score = (f"{row['score_ms']:.2f}ms"
                     if row["score_ms"] is not None else "-")
            print(f"  {row['worker']:<24} {row['state']:<8} {score:>9} "
                  f"{row['flagged']:>7} {row['restored']:>8}")
    if getattr(args, "gantt", False) and report.trace is not None:
        from .machine.trace import render_gantt

        print(render_gantt(report.trace, width=args.gantt_width))
    if getattr(args, "trace_out", None):
        _write_trace(report, args.trace_out)


def _cmd_simulate(args) -> int:
    source = _read_source(args.spec)
    table = load_table(args.functions)
    built = build(
        source, table, parse_architecture(args.arch), entry=args.entry,
        profile_iterations=args.profile, scheduler=args.scheduler,
    )
    record = args.gantt or bool(args.trace_out)
    report = built.run(
        backend=args.backend,
        max_iterations=args.max_iterations,
        real_time=args.real_time,
        args=_parse_run_args(args.arg),
        record_trace=record,
        **_load_fault_plan(args),
        **_load_budget(args),
    )
    _print_report(report, args)
    return 0


def _add_fault_options(p) -> None:
    p.add_argument("--faults", metavar="PLAN.json", default=None,
                   help="inject faults from a FaultPlan JSON file and "
                        "enable farm supervision")
    p.add_argument("--fault-timeout", type=float, default=None, metavar="S",
                   help="per-packet dispatch deadline in seconds "
                        "(real backends; heartbeat deadline is S/2)")
    p.add_argument("--no-hedge", action="store_true",
                   help="disable hedged re-dispatch (keep limplock "
                        "detection and health-weighted dispatch) — for "
                        "A/B runs against the gray-failure defense")
    p.add_argument("--no-health", action="store_true",
                   help="disable the whole gray-failure defense layer "
                        "(limplock detection, demotion and hedging)")


def _add_realtime_options(p) -> None:
    p.add_argument("--deadline-ms", type=float, default=None, metavar="MS",
                   help="per-frame latency budget; attaches the realtime "
                        "layer to stream runs (deadline watchdog, bounded "
                        "admission, frame ledger)")
    p.add_argument("--overload-policy", choices=OVERLOAD_POLICIES,
                   default="block",
                   help="what to do when the admission buffer overflows "
                        "(default: block)")
    p.add_argument("--max-in-flight", type=int, default=4, metavar="N",
                   help="frames allowed between admission and delivery "
                        "(default: 4)")
    p.add_argument("--frame-period-ms", type=float, default=0.0,
                   metavar="MS",
                   help="pace the stream source to one frame per MS "
                        "(default: free-running)")


def _load_budget(args) -> dict:
    """Backend options implementing ``--deadline-ms`` and friends."""
    if getattr(args, "deadline_ms", None) is None:
        return {}
    from .realtime import LatencyBudget

    try:
        budget = LatencyBudget(
            deadline_ms=args.deadline_ms,
            policy=args.overload_policy,
            max_in_flight=args.max_in_flight,
            frame_period_ms=args.frame_period_ms,
        )
    except ValueError as err:
        raise SystemExit(f"error: bad latency budget: {err}")
    return {"budget": budget}


def _load_fault_plan(args) -> dict:
    """Backend options implementing ``--faults PLAN.json``."""
    if not getattr(args, "faults", None):
        return {}
    from .faults import FaultPlan, FaultPolicy, PlanError

    try:
        plan = FaultPlan.load(args.faults)
    except (OSError, PlanError) as err:
        raise SystemExit(f"error: cannot load fault plan: {err}")
    options = {"fault_plan": plan}
    policy_kwargs = {}
    if getattr(args, "fault_timeout", None):
        policy_kwargs.update(
            packet_timeout_s=args.fault_timeout,
            heartbeat_timeout_s=args.fault_timeout / 2,
        )
    if getattr(args, "no_health", False):
        from .health import HealthPolicy
        policy_kwargs["health"] = HealthPolicy(enabled=False)
    elif getattr(args, "no_hedge", False):
        from .health import HealthPolicy
        policy_kwargs["health"] = HealthPolicy(hedge_enabled=False)
    if policy_kwargs:
        options["fault_policy"] = FaultPolicy(**policy_kwargs)
    return options


def _parse_run_args(values: List[str]) -> Optional[tuple]:
    if not values:
        return None
    parsed = []
    for text in values:
        try:
            parsed.append(ast.literal_eval(text))
        except (SyntaxError, ValueError):
            parsed.append(text)  # bare words pass through as strings
    return tuple(parsed)


def _cmd_run(args) -> int:
    source = _read_source(args.spec)
    table = load_table(args.functions)
    built = build(
        source, table, parse_architecture(args.arch), entry=args.entry,
        profile_iterations=args.profile, scheduler=args.scheduler,
    )
    record = args.gantt or bool(args.trace_out)
    options = _load_fault_plan(args)
    options.update(_load_budget(args))
    if args.backend == "tcp" and args.scheduler:
        # The same policy also drives the coordinator's processor->worker
        # assignment half.
        options["scheduler"] = args.scheduler
    if args.start_method:
        options["start_method"] = args.start_method
    if getattr(args, "transport", None):
        options["transport"] = args.transport
    if getattr(args, "cluster", None):
        options["cluster_size"] = args.cluster
    if getattr(args, "listen", None):
        options["listen"] = args.listen
    try:
        report = built.run(
            backend=args.backend,
            max_iterations=args.max_iterations,
            args=_parse_run_args(args.arg),
            record_trace=record,
            timeout=args.timeout,
            **options,
        )
    except (BackendError, ValueError) as err:
        raise SystemExit(f"error: {err}")
    _print_report(report, args)
    return 0


def _cmd_check(args) -> int:
    from .conformance import run_conformance

    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    if not backends:
        raise SystemExit("error: --backends names no backend")
    unknown = sorted(set(backends) - set(BACKENDS.names()))
    if unknown:
        raise SystemExit(
            f"error: unknown backend(s) {', '.join(unknown)} "
            f"(available: {', '.join(BACKENDS.names())})"
        )
    report = run_conformance(
        backends=backends,
        cases=args.cases,
        seed=args.seed,
        faults=args.faults,
        corpus_dir=args.corpus,
        shrink=not args.no_shrink,
        timeout=args.timeout,
        log=print,
    )
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_faults(args) -> int:
    from .faults.demo import main as demo_main

    return demo_main([])


def _cmd_soak(args) -> int:
    from .realtime.soak import main as soak_main

    return soak_main([])


def _cmd_worker(args) -> int:
    from .net.worker import worker_main

    return worker_main(
        args.connect,
        retries=args.retries,
        backoff_s=args.backoff_ms / 1000.0,
    )


def _cmd_serve(args) -> int:
    from .serve.server import serve_main

    return serve_main(
        args.listen,
        cluster_size=args.cluster,
        workers_per_run=args.workers_per_run,
        cache_entries=args.cache_size,
        max_concurrent=args.max_concurrent,
        ready_file=args.ready_file,
    )


def _tenant_policy(args):
    if getattr(args, "tenant_policy", None) is None:
        return None
    from .realtime import LatencyBudget

    try:
        return LatencyBudget(
            deadline_ms=args.tenant_deadline_ms,
            policy=args.tenant_policy,
            max_in_flight=args.tenant_max_in_flight,
            queue_depth=args.tenant_queue_depth,
        )
    except ValueError as err:
        raise SystemExit(f"error: bad tenant policy: {err}")


def _cmd_submit(args) -> int:
    from .serve.client import ServeClient

    source = _read_source(args.spec)
    table = load_table(args.functions)
    arch = parse_architecture(args.arch)
    options = _load_fault_plan(args)
    options.update(_load_budget(args))
    with ServeClient(
        args.connect, tenant=args.tenant, tenant_policy=_tenant_policy(args),
    ) as client:
        outcomes = [
            client.submit(
                source, table, arch,
                entry=args.entry,
                max_iterations=args.max_iterations,
                args=_parse_run_args(args.arg),
                timeout=args.timeout,
                **options,
            )
            for _ in range(args.count)
        ]
        failures = 0
        for idx, outcome in enumerate(outcomes):
            doc = outcome.wait(args.timeout + 60.0)
            label = f"[{idx}] " if args.count > 1 else ""
            warm = "warm" if doc.get("cache_hit") else "cold"
            if doc["status"] == "ok":
                print(f"{label}ok ({warm} cache)")
                _print_report(doc["report"], args)
            else:
                failures += 1
                detail = doc.get("error", "").strip().splitlines()
                print(f"{label}{doc['status']}"
                      f"{': ' + detail[-1] if detail else ''}")
    return 1 if failures else 0


def _cmd_ps(args) -> int:
    from .serve.client import ServeClient

    with ServeClient(args.connect) as client:
        doc = client.ps_doc()
    rows = doc.get("runs", [])
    if not rows:
        print("no live requests")
    else:
        print(f"  {'id':>5} {'tenant':<12} {'state':<8} {'cache':<6} age")
        for row in rows:
            print(f"  {row['id']:>5} {row['tenant']:<12} {row['state']:<8} "
                  f"{'warm' if row['cache_hit'] else 'cold':<6} "
                  f"{row['age_s']:.1f}s")
    health = doc.get("health", {})
    if health:
        print("worker health (last supervised run per tenant):")
        print(f"  {'tenant':<12} {'worker':<24} {'state':<8} "
              f"{'score':>9} {'flagged':>7}")
        for tenant, entries in sorted(health.items()):
            for row in entries:
                score = (f"{row['score_ms']:.2f}ms"
                         if row.get("score_ms") is not None else "-")
                print(f"  {tenant:<12} {row['worker']:<24} "
                      f"{row['state']:<8} {score:>9} {row['flagged']:>7}")
    return 0


def _cmd_stats(args) -> int:
    import json

    from .serve.client import ServeClient

    with ServeClient(args.connect) as client:
        print(json.dumps(client.stats(), indent=2, sort_keys=True))
    return 0


def _cmd_capabilities(args) -> int:
    """Print one registry's capability table (``repro backends`` etc.)."""
    registry = args.registry
    headers = [header for header, _ in registry.columns]
    widths = [10] + [max(len(header), 4) + 1 for header in headers]

    def row(cells, text):
        padded = " ".join(f"{c:<{w}}" for c, w in zip(cells, widths))
        return f"  {padded} {text}"

    print(row([registry.kind, *headers], "description"))
    descriptions = registry.descriptions()
    for name, caps in registry.capabilities().items():
        flags = ["yes" if on else "-" for on in caps.values()]
        print(row([name, *flags], descriptions[name]))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # ``faults`` owns its whole option surface (argparse.REMAINDER cannot
    # pass through leading ``--option`` tokens), so hand over early.
    if argv[:1] == ["faults"]:
        from .faults.demo import main as demo_main

        return demo_main(argv[1:])
    if argv[:1] == ["soak"]:
        from .realtime.soak import main as soak_main

        return soak_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SKiPPER: skeleton-based parallel programming environment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, arch=False):
        p.add_argument("spec", help="the .ml specification file")
        p.add_argument(
            "--functions", required=True,
            help="sequential-function table as module:attribute",
        )
        p.add_argument("--entry", default="main", help="entry binding")
        if arch:
            p.add_argument(
                "--arch", default="ring:8",
                help="target architecture (ring:N, now:N, mesh:RxC, ...)",
            )
            p.add_argument(
                "--profile", type=int, default=0, metavar="N",
                help="profile N iterations on one processor and use the "
                     "measured costs for placement (AAA adequation); "
                     "note: consumes N stream items",
            )
            p.add_argument(
                "--scheduler", default=None, metavar="POLICY",
                help="placement policy (round-robin, aaa, bicriteria; "
                     "default: the AAA heuristic — see `repro map`)",
            )

    p = sub.add_parser("typecheck", help="infer and print top-level types")
    common(p)
    p.set_defaults(fn=_cmd_typecheck)

    p = sub.add_parser("compile", help="compile, map, and emit artefacts")
    common(p, arch=True)
    p.add_argument(
        "--emit",
        choices=("summary", "dot", *TARGETS.names()),
        default="summary",
    )
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser(
        "emit",
        help="emit a deployable program directory (repro emit -o dir/)",
    )
    common(p, arch=True)
    p.add_argument("-o", "--out", required=True, metavar="DIR",
                   help="output directory (created if missing)")
    p.add_argument("--target", default="standalone",
                   help="codegen target (default: standalone — a "
                        "self-contained program with no repro import)")
    p.add_argument("--max-iterations", type=int, default=None,
                   help="bake a stream bound into the emitted executive")
    p.set_defaults(fn=_cmd_emit)

    p = sub.add_parser(
        "map",
        help="score every scheduling policy's mapping (latency / "
             "throughput / reliability)",
    )
    common(p, arch=True)
    p.add_argument("--items", type=int, default=8,
                   help="items per farm iteration the cost model assumes "
                        "(default: 8)")
    p.add_argument("--latency-budget-us", type=float, default=None,
                   metavar="US",
                   help="bi-criteria mode: maximise throughput subject to "
                        "this latency budget")
    p.add_argument("--throughput-target-hz", type=float, default=None,
                   metavar="HZ",
                   help="bi-criteria mode: minimise latency subject to "
                        "this throughput target")
    p.add_argument("--json", metavar="FILE", default=None,
                   help="write the candidate mappings as JSON to FILE")
    p.set_defaults(fn=_cmd_map)

    p = sub.add_parser("emulate", help="run the sequential emulation")
    common(p)
    p.add_argument("--max-iterations", type=int, default=None)
    p.set_defaults(fn=_cmd_emulate)

    p = sub.add_parser("simulate", help="run on the simulated machine")
    common(p, arch=True)
    p.add_argument("--max-iterations", type=int, default=None)
    p.add_argument("--arg", action="append", default=[], metavar="VALUE",
                   help="one-shot input value (Python literal; repeatable)")
    p.add_argument("--real-time", action="store_true",
                   help="25 Hz frame timing with frame skipping")
    p.add_argument("--backend", choices=BACKENDS.names(), default="simulate",
                   help="execution backend (default: simulate)")
    p.add_argument("--gantt", action="store_true",
                   help="print a text Gantt chart of the run")
    p.add_argument("--gantt-width", type=int, default=72)
    p.add_argument("--trace-out", metavar="FILE", default=None,
                   help="write the trace as Chrome trace-event JSON")
    _add_fault_options(p)
    _add_realtime_options(p)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser(
        "run", help="execute on a real backend (threads/processes)",
    )
    common(p, arch=True)
    p.add_argument("--backend", choices=BACKENDS.names(), default="threads",
                   help="execution backend (default: threads)")
    p.add_argument("--max-iterations", type=int, default=None)
    p.add_argument("--arg", action="append", default=[], metavar="VALUE",
                   help="one-shot input value (Python literal; repeatable)")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="abort a (deadlocked) run after SECONDS")
    p.add_argument("--start-method", default=None,
                   choices=("fork", "spawn", "forkserver"),
                   help="multiprocessing start method (processes backend)")
    p.add_argument("--transport", default=None, metavar="NAME",
                   help="intra-host transport for the processes backend "
                        "(queue|ring; default from REPRO_TRANSPORT)")
    p.add_argument("--cluster", type=int, default=None, metavar="N",
                   help="tcp backend: spawn a private localhost cluster "
                        "of N workers (default: shared 4-worker cluster)")
    p.add_argument("--listen", metavar="HOST:PORT", default=None,
                   help="tcp backend: bind there and wait for externally "
                        "started `repro worker --connect` processes "
                        "(--cluster gives the count to wait for)")
    p.add_argument("--gantt", action="store_true",
                   help="print a text Gantt chart of the run")
    p.add_argument("--gantt-width", type=int, default=72)
    p.add_argument("--trace-out", metavar="FILE", default=None,
                   help="write the trace as Chrome trace-event JSON")
    _add_fault_options(p)
    _add_realtime_options(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser(
        "check",
        help="cross-backend conformance fuzzing (differential + trace "
             "invariants)",
    )
    p.add_argument("--backends", default="simulate,threads",
                   help="comma-separated backends to check against the "
                        "emulation reference (default: simulate,threads)")
    p.add_argument("--cases", type=int, default=25, metavar="N",
                   help="number of generated cases (default: 25)")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed of the case stream (default: 0)")
    p.add_argument("--faults", action="store_true",
                   help="also generate seeded fault plans (crash/delay on "
                        "farm workers)")
    p.add_argument("--corpus", metavar="DIR", default=None,
                   help="replay this reproducer corpus first and write "
                        "shrunk failures into it")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="per-run deadline in seconds (real backends)")
    p.add_argument("--no-shrink", action="store_true",
                   help="keep failing cases unshrunk (faster triage loop)")
    p.set_defaults(fn=_cmd_check)

    # Listed for --help only; main() dispatches to the demo before parsing.
    p = sub.add_parser(
        "faults",
        help="demonstrate fault injection and supervised recovery",
        add_help=False,
    )
    p.set_defaults(fn=_cmd_faults)

    p = sub.add_parser(
        "soak",
        help="chaos-soak a stream under a latency budget (frame "
             "conservation proof)",
        add_help=False,
    )
    p.set_defaults(fn=_cmd_soak)

    p = sub.add_parser(
        "worker",
        help="serve a tcp-backend coordinator as a cluster worker",
    )
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="the coordinator's listening address")
    p.add_argument("--retries", type=int, default=8,
                   help="consecutive failed dials before giving up "
                        "(default: 8)")
    p.add_argument("--backoff-ms", type=float, default=50.0,
                   help="initial reconnect backoff, doubled per failure "
                        "(default: 50)")
    p.set_defaults(fn=_cmd_worker)

    p = sub.add_parser(
        "serve",
        help="run the compile-once/run-many service daemon",
    )
    p.add_argument("--listen", metavar="HOST:PORT", default="127.0.0.1:7460",
                   help="bind the client-facing endpoint there "
                        "(default: 127.0.0.1:7460; port 0 picks a free one)")
    p.add_argument("--cluster", type=int, default=4, metavar="N",
                   help="size of the persistent worker pool (default: 4)")
    p.add_argument("--workers-per-run", type=int, default=1, metavar="N",
                   help="workers checked out per run (default: 1)")
    p.add_argument("--cache-size", type=int, default=64, metavar="N",
                   help="compiled-artefact cache budget (default: 64)")
    p.add_argument("--max-concurrent", type=int, default=None, metavar="N",
                   help="run slots (default: pool size / workers-per-run)")
    p.add_argument("--ready-file", metavar="FILE", default=None,
                   help="write the bound address there once listening "
                        "(for scripts)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a program to a running `repro serve` daemon",
    )
    common(p, arch=True)
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="the daemon's client endpoint")
    p.add_argument("--tenant", default="default",
                   help="tenant name for admission control and accounting")
    p.add_argument("--count", type=int, default=1, metavar="N",
                   help="submit the request N times concurrently")
    p.add_argument("--max-iterations", type=int, default=None)
    p.add_argument("--arg", action="append", default=[], metavar="VALUE",
                   help="one-shot input value (Python literal; repeatable)")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="per-run deadline in seconds on the daemon")
    p.add_argument("--tenant-policy", default=None, choices=OVERLOAD_POLICIES,
                   help="admission policy when this tenant's request "
                        "queue is full (default: the daemon's)")
    p.add_argument("--tenant-deadline-ms", type=float, default=60_000.0,
                   help="submit-to-result turnaround budget (default: 60s)")
    p.add_argument("--tenant-queue-depth", type=int, default=8)
    p.add_argument("--tenant-max-in-flight", type=int, default=2)
    _add_fault_options(p)
    _add_realtime_options(p)
    p.set_defaults(fn=_cmd_submit)

    p = sub.add_parser(
        "ps", help="list a serve daemon's live requests",
    )
    p.add_argument("--connect", required=True, metavar="HOST:PORT")
    p.set_defaults(fn=_cmd_ps)

    p = sub.add_parser(
        "stats",
        help="print a serve daemon's cache/tenant/pool statistics",
    )
    p.add_argument("--connect", required=True, metavar="HOST:PORT")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser(
        "backends",
        help="list the execution backends and their capability matrix",
    )
    p.set_defaults(fn=_cmd_capabilities, registry=BACKENDS)

    p = sub.add_parser(
        "transports",
        help="list the intra-host transports of the processes backend",
    )
    p.set_defaults(fn=_cmd_capabilities, registry=TRANSPORTS)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
