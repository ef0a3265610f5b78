"""The perf ledger: one command, four workloads, every metric by name.

Two ways in, one measurement underneath:

``python benchmarks/ledger/run.py [--seed N] [--json OUT] [--record]``
    the whole ledger — all four workloads (end-to-end metrics plus the
    per-workload layer metrics from a traced run) and the
    workload-independent layer probes, printed as tables.

``... run.py --workload W --seed N --seconds S --trace 0|1``
    one workload, for a harness that drives runs itself: the last line
    of stdout is one JSON object ``{correct, attempted, failed,
    metrics}`` carrying the end-to-end metrics (``--trace 0``) or every
    per-layer metric (``--trace 1``).

``... run.py --compare A.json B.json`` judges B against A.

The driver never imports the program under test; the frame bank, its
oracle and all timing happen in child interpreters (see ``child.py``).
README.md defines every workload and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
HISTORY = os.path.join(HERE, "history.jsonl")
WORK = os.path.join(HERE, ".work")

import hygiene                                            # noqa: E402
from stats import compare, median                         # noqa: E402

#: Frame counts at the nominal ``--seconds``; other lengths scale them.
NOMINAL_SECONDS = 40
#: Per workload: saturation runs x frames (the first ``sat_skip``
#: deliveries of a run are warm-in, the rest is cut into ``sat_windows``
#: rate samples) and paced runs x frames (the first ``paced_skip`` frames
#: are warm-in, the rest is read as ``paced_segments`` stretches).  Sized
#: so the measured runs of a gated workload last about NOMINAL_SECONDS on
#: 2 cores (the two ledger-only ones take ~25 s).  ``track_ring`` crawls through the first ~68 frames of almost
#: every run (~100 ms/frame) before its steady state, so it gets one long
#: run per phase instead of three short ones and skips past the crawl;
#: later it stalls for ~5 frames (and recovers over ~8 more) every hundred
#: or two, so both phases are cut into many short pieces: a stall spoils
#: one or two of them and the median steps over those.  Read as one
#: piece, its p90 would flip with whether the stalled share of the run is
#: above or below a tenth.
SHAPES = {
    "track":      {"sat_runs": 5, "sat_frames": 300, "sat_skip": 50,
                   "sat_windows": 2, "paced_runs": 5, "paced_frames": 120,
                   "paced_skip": 20},
    "track_ring": {"sat_runs": 1, "sat_frames": 360, "sat_skip": 80,
                   "sat_windows": 14, "paced_runs": 1, "paced_frames": 330,
                   "paced_skip": 80, "paced_segments": 10,
                   "warmup_frames": 10},
    "farm":       {"sat_runs": 5, "sat_frames": 200, "sat_skip": 40,
                   "sat_windows": 2, "paced_runs": 5, "paced_frames": 120,
                   "paced_skip": 20},
    # Whole 50-frame requests, one rate sample per request.  All
    # saturation requests come first and the paced frames are one
    # request, read as three stretches: the service is measured as
    # started (see EXTRA_WORKLOADS).
    "farm_serve": {"sat_runs": 3, "sat_frames": 150, "sat_skip": 0,
                   "sat_windows": 3, "paced_runs": 1, "paced_frames": 320,
                   "paced_skip": 20, "paced_segments": 3},
}
#: Run by the ledger, left out of ``BENCHMARK.json``: a workload a
#: harness gates on must repeat, and each of these has two states.
#: ``track_ring``: the saturated rate of a whole run sits near 85 or near
#: 105 frames/s, whichever the host's timer slack favours that minute,
#: on top of the crawl and stalls SHAPES steps over.  ``farm_serve``: a
#: ``repro.serve`` service runs each request inside *one* cluster worker
#: process, threads under one GIL, and that executive streams the
#: zero-work farm either at ~55 frames/s or, for some requests after a
#: paced or idle spell, at ~120 frames/s with half the CPU per frame.
EXTRA_WORKLOADS = [
    {"name": "track_ring",
     "why": "The same frames and program on transport=ring: large ndarray "
            "payloads take repro.shm slots/overflow, so a shm change shows "
            "here and leaves track unmoved."},
    {"name": "farm_serve",
     "why": "The same farm submitted through one ServeClient socket: adds "
            "serve wire/cache/scheduler, net codec, NetKernel and the "
            "coordinator hop, amortised over 50-frame requests."},
]
WARMUP_FRAMES = 30
SETUP_REPEATS = 5
#: A cold start lasts about a second; one that hangs is started again.
SETUP_TIMEOUT_S = 20.0
SETUP_ATTEMPTS = 3
CHILD_TIMEOUT_S = 170.0
#: One-workload mode must end, result or not, within 180 s of starting.
CONTRACT_BUDGET_S = 165.0
TRACKED = ("track", "track_ring")


def load_contract() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def ledger_workloads(contract: Dict) -> List[Dict]:
    """The contract's workloads, then the ones only the ledger runs."""
    return list(contract["workloads"]) + EXTRA_WORKLOADS


def frame_plan(workload: str, seconds: float, *, quick: bool,
               trace_only: bool) -> Dict:
    """How many frames each phase of one workload run streams.

    Counts depend on ``--seconds`` only, never on measured speed, so two
    commits always stream identical work.  The warm-in skips are not
    scaled: they are as long as the transients they step over.
    """
    shape = dict(SHAPES[workload])
    shape.setdefault("paced_segments", 1)
    if quick:
        seconds = NOMINAL_SECONDS / 10.0
        shape["sat_skip"] = min(shape["sat_skip"], 5)
        shape["paced_skip"] = min(shape["paced_skip"], 5)
    if quick or trace_only:
        # The traced sweep shares its invocation with the layer probes;
        # one run per phase is enough for metrics that carry no bound.
        shape["sat_runs"] = shape["paced_runs"] = 1
    scale = seconds / NOMINAL_SECONDS
    # Scale in steps that keep windows and 50-frame requests whole.
    step = 50 if workload == "farm_serve" else 10
    for phase, segments in (("sat", shape["sat_windows"]),
                            ("paced", shape["paced_segments"])):
        skip = shape[f"{phase}_skip"]
        measured = (shape[f"{phase}_frames"] - skip) * scale
        shape[f"{phase}_frames"] = max(
            step, round((skip + max(measured, 5 * segments)) / step) * step)
    shape["warmup_frames"] = (10 if quick else
                              shape.get("warmup_frames", WARMUP_FRAMES))
    return shape


def bank_frames(plans: List[Dict]) -> int:
    """Frames the bank must hold for the given plans."""
    return max(plan[phase] for plan in plans for phase in
               ("warmup_frames", "sat_frames", "paced_frames"))


# -- children -----------------------------------------------------------------


class Workspace:
    """The driver's scratch directory inside the benchmark's own tree,
    and the deadline (if any) all of its children share."""

    def __init__(self, budget_s: Optional[float] = None) -> None:
        self.path = os.path.join(WORK, f"{os.getpid()}")
        os.makedirs(self.path, exist_ok=True)
        self._serial = 0
        self._deadline = (None if budget_s is None
                          else time.monotonic() + budget_s)

    def child_timeout(self) -> float:
        if self._deadline is None:
            return CHILD_TIMEOUT_S
        return max(1.0, min(CHILD_TIMEOUT_S,
                            self._deadline - time.monotonic()))

    def out_file(self) -> str:
        self._serial += 1
        return os.path.join(self.path, f"result-{self._serial}.json")

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


def run_child(work: Workspace, job: Dict,
              timeout_s: float = CHILD_TIMEOUT_S) -> Dict:
    """Run one job in a fresh interpreter; account for what it leaves.

    Returns ``{"result": ... | None, "wall_s", "leaks", "error"}``.  The
    child leads its own session so every descendant can be found — and,
    if it outlives the child, named and killed.
    """
    job = dict(job, workdir=work.path, out=work.out_file())
    before = hygiene.Snapshot()
    timeout = min(timeout_s, work.child_timeout())
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(job)],
        start_new_session=True, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True,
    )
    error = ""
    try:
        _out, err = child.communicate(timeout=timeout)
        if child.returncode != 0:
            error = f"exit code {child.returncode}: {err.strip()[-2000:]}"
    except subprocess.TimeoutExpired:
        error = f"no result within {timeout:.0f} s"
        hygiene.reap_session(child.pid, grace_s=0.5)
        child.communicate()
    wall = time.perf_counter() - start
    # multiprocessing's resource tracker exits a beat after its parent.
    deadline = time.monotonic() + 2.0
    while hygiene.session_survivors(child.pid) \
            and time.monotonic() < deadline:
        time.sleep(0.02)
    leaks = before.leaks(child.pid)
    hygiene.reap_session(child.pid)
    result = None
    if not error:
        with open(job["out"]) as handle:
            result = json.load(handle)
    return {"result": result, "wall_s": wall, "leaks": leaks,
            "error": error}


def prepare_bank(work: Workspace, seed: int, frames: int) -> Dict:
    """Render the seeded scene and its oracle once, for every child.

    Done in a child too: a driver that held the bank would hand its
    resident size to every interpreter it starts (``ru_maxrss`` survives
    exec), and ``peak_rss_mb`` would read the generator, not the program.
    """
    made = run_child(work, {"kind": "bank", "seed": seed, "frames": frames})
    if made["result"] is None:
        raise SystemExit(f"error: could not render the frame bank: "
                         f"{made['error']}")
    return made["result"]


# -- one workload -------------------------------------------------------------


def measure_workload(work: Workspace, workload: str, plan: Dict, *,
                     trace: bool, setup_repeats: int) -> Dict:
    """Run one workload (and its cold-start probes); name what failed.

    ``aborted`` names the runs and cold starts that hung and were done
    again (see ``workloads.SAT_TIMEOUT_S``); they are no failures.
    """
    run = run_child(work, {"kind": "workload", "workload": workload,
                           "plan": plan, "trace": trace})
    leaks = list(run["leaks"])
    problems: List[str] = []
    raw = run["result"]
    if raw is None:
        problems.append(f"workload child: {run['error']}")
        attempted = failed = (
            plan["warmup_frames"]
            + (plan["sat_runs"] + (1 if trace else 0)) * plan["sat_frames"]
            + plan["paced_runs"] * plan["paced_frames"])
        raw = {}
    else:
        attempted = raw["submitted"]
        failed = raw["submitted"] - raw["good"]
        problems += raw["errors"]
    aborted = list(raw.get("aborted", []))
    setups = []
    for _ in range(setup_repeats):
        attempted += 1
        for _attempt in range(SETUP_ATTEMPTS):
            probe = run_child(work, {"kind": "setup", "workload": workload},
                              SETUP_TIMEOUT_S)
            leaks += probe["leaks"]
            if probe["result"] is not None:
                break
            aborted.append(f"cold start: {probe['error']}")
        if probe["result"] is None or probe["result"]["good"] != 1:
            failed += 1
            problems.append(f"cold start: {probe['error'] or 'wrong output'}")
        else:
            setups.append(probe["wall_s"])
    # Every leak is a failure of its own, on top of any frame it cost.
    failed += len(leaks)
    return {"raw": raw, "setups_s": setups, "attempted": attempted,
            "failed": min(failed, attempted), "problems": leaks + problems,
            "aborted": aborted}


def end_to_end(measured: Dict) -> Dict[str, float]:
    """The end-to-end metric values one workload run supports: medians
    over the saturation windows, the paced runs and the cold starts."""
    raw, out = measured["raw"], {}
    if raw.get("sat_rates"):
        out["frames_per_s"] = median(raw["sat_rates"])
    paced = raw.get("paced")
    if paced:
        for name in ("latency_p50_ms", "latency_p90_ms", "cpu_ms_per_frame"):
            out[name] = median([run[name] for run in paced])
    if measured["setups_s"]:
        out["setup_s"] = median(measured["setups_s"])
    if "peak_rss_mb" in raw:
        out["peak_rss_mb"] = raw["peak_rss_mb"]
    out["failed_share"] = measured["failed"] / measured["attempted"]
    return out


def workload_layers(measured: Dict) -> Dict[str, float]:
    """Per-workload layer metrics: realtime.*, trace.*, sched.*."""
    raw = measured["raw"]
    out: Dict[str, float] = {"backends.aborted_runs":
                             len(measured["aborted"])}
    paced = raw.get("paced")
    if paced:
        def mid(name):
            return median([run[name] for run in paced])

        out["realtime.pacing_lag_p95_ms"] = mid("pacing_lag_p95_ms")
        out["realtime.deadline_miss_share"] = mid("deadline_miss_share")
        # The worst run or stretch: the tail must not be voted away.
        out["realtime.latency_p99_ms"] = max(run["latency_p99_ms"]
                                             for run in paced)
        out["realtime.max_backlog"] = max(run["max_backlog"]
                                          for run in paced)
    for name, value in raw.get("trace", {}).items():
        out[f"trace.{name}"] = value
    predicted = raw.get("predicted")
    if predicted and paced and raw.get("sat_rates"):
        period_us = 1e6 / median(raw["sat_rates"])
        latency_us = mid("latency_p50_ms") * 1000.0
        out["sched.period_pred_error"] = (
            abs(predicted["period_us"] - period_us) / period_us)
        out["sched.latency_pred_error"] = (
            abs(predicted["latency_us"] - latency_us) / latency_us)
    return out


# -- contract mode: one workload, one JSON line -------------------------------


def run_contract(args, contract: Dict) -> int:
    workloads = [w["name"] for w in ledger_workloads(contract)]
    if args.workload not in workloads:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"expected one of {workloads}")
    trace = bool(args.trace)
    plan = frame_plan(args.workload, args.seconds, quick=args.quick,
                      trace_only=trace)
    work = Workspace(CONTRACT_BUDGET_S)
    try:
        values: Dict[str, float] = {}
        if trace or args.workload in TRACKED:
            banked = prepare_bank(work, args.seed, bank_frames([plan]))
            values["core.emulate_frames_per_s"] = (
                banked["emulate_frames_per_s"])
        measured = measure_workload(
            work, args.workload, plan, trace=trace,
            setup_repeats=0 if trace else (1 if args.quick
                                           else SETUP_REPEATS))
        problems = list(measured["problems"])
        aborted = list(measured["aborted"])
        if trace:
            values.update(workload_layers(measured))
            sweep = run_child(work, {
                "kind": "layers", "repeats": 1,
                "scale": 0.1 if args.quick
                else 0.5 * args.seconds / NOMINAL_SECONDS})
            problems += sweep["leaks"]
            if sweep["result"] is None:
                problems.append(f"layer sweep: {sweep['error']}")
            else:
                aborted += sweep["result"].pop("aborted")
                values.update(sweep["result"])
                values["backends.aborted_runs"] = len(aborted)
        else:
            values = end_to_end(measured)
    finally:
        work.close()
    wanted = contract["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    for name, item in metrics.items():
        print(f"{args.workload:>11}  {name:<40} "
              f"{item['value']:>14.4f} {item['unit']}")
    for note in aborted:
        print(f"ABORTED AND REPEATED: {note}", file=sys.stderr)
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    # A problem found outside the workload run (layer sweep, a metric
    # that could not be measured) is one more failed operation.
    failed = measured["failed"] + len(problems) - len(measured["problems"])
    print(json.dumps({
        "correct": not problems,
        "attempted": measured["attempted"],
        "failed": min(failed, measured["attempted"]),
        "metrics": metrics,
    }))
    return 0


# -- ledger mode: everything, as tables ---------------------------------------


def host_facts() -> Dict:
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
    }


def run_ledger(args, contract: Dict) -> int:
    specs = list(contract["end_to_end"]) + [
        {"name": "failed_share", "unit": "ratio", "better": "lower",
         "bound": 0.0}]
    doc: Dict[str, Any] = {
        "schema": 1,
        "host": host_facts(),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "runs": args.runs,
        "contract": {"end_to_end": specs,
                     "workloads": ledger_workloads(contract)},
        "workloads": {},
    }
    names = [w["name"] for w in ledger_workloads(contract)]
    plans = {n: frame_plan(n, args.seconds, quick=args.quick,
                           trace_only=False) for n in names}
    work = Workspace()
    try:
        banked = prepare_bank(work, args.seed,
                              bank_frames([plans[n] for n in TRACKED]))
        doc["bank_s"] = banked["bank_s"]
        doc["host"]["start_method"] = banked["start_method"]
        units = {m["name"]: m["unit"]
                 for m in specs + contract["per_layer"]}
        layers = {"core.emulate_frames_per_s":
                  banked["emulate_frames_per_s"]}
        for name in names:
            entry: Dict[str, Any] = {"end_to_end": {}, "per_layer": {},
                                     "attempted": 0, "failed": 0,
                                     "problems": [], "aborted": []}
            for i in range(args.runs):
                print(f"[ledger] {name}: run {i + 1}/{args.runs} ...",
                      file=sys.stderr)
                measured = measure_workload(
                    work, name, plans[name], trace=True,
                    setup_repeats=1 if args.quick else SETUP_REPEATS)
                for metric, value in end_to_end(measured).items():
                    entry["end_to_end"].setdefault(metric, []).append(value)
                entry["per_layer"] = {      # the latest run's trace
                    k: {"value": v, "unit": units[k]}
                    for k, v in workload_layers(measured).items()}
                entry["attempted"] += measured["attempted"]
                entry["failed"] += measured["failed"]
                entry["problems"] += measured["problems"]
                entry["aborted"] += measured["aborted"]
            entry["end_to_end"] = {
                metric: {"value": median(values), "unit": units[metric],
                         "values": values}
                for metric, values in entry["end_to_end"].items()}
            doc["workloads"][name] = entry
        print("[ledger] layer probes ...", file=sys.stderr)
        sweep = run_child(work, {"kind": "layers",
                                 "repeats": 1 if args.quick else 3,
                                 "scale": 0.1 if args.quick else
                                 args.seconds / NOMINAL_SECONDS})
        doc["layer_problems"] = sweep["leaks"] + (
            [sweep["error"]] if sweep["result"] is None else [])
        doc["layer_aborted"] = (sweep["result"] or {}).pop("aborted", [])
        layers.update(sweep["result"] or {})
        doc["layers"] = {k: {"value": v, "unit": units[k]}
                         for k, v in layers.items()}
    finally:
        work.close()
    render(doc)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(doc, handle, indent=1)
            handle.write("\n")
    if args.record:
        with open(HISTORY, "a") as handle:
            handle.write(json.dumps(history_row(doc)) + "\n")
    dirty = any(w["problems"] for w in doc["workloads"].values()) \
        or doc["layer_problems"]
    return 1 if dirty else 0


def history_row(doc: Dict) -> Dict:
    """One compact line of the in-tree trajectory."""
    return {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": doc["host"], "seed": doc["seed"],
        "seconds": doc["seconds"], "quick": doc["quick"],
        "workloads": {
            name: {
                **{m: v["value"] for m, v in w["end_to_end"].items()},
                **{m: v["value"] for m, v in w["per_layer"].items()},
            }
            for name, w in doc["workloads"].items()},
        "layers": {k: v["value"] for k, v in doc["layers"].items()},
    }


def _fmt(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1000 else f"{value:.1f}"


def render(doc: Dict) -> None:
    host = doc["host"]
    print(f"perf ledger  sha {host['git_sha']}  seed {doc['seed']}  "
          f"nproc {host['nproc']}  python {host['python']}  "
          f"start method {host['start_method']}  "
          f"{doc['seconds']} s/workload  bank_s {doc['bank_s']:.2f}")
    names = list(doc["workloads"])
    print("\nEnd to end" + "".join(f"{n:>14}" for n in names))
    for spec in doc["contract"]["end_to_end"]:
        cells = []
        for n in names:
            item = doc["workloads"][n]["end_to_end"].get(spec["name"])
            cells.append(f"{_fmt(item['value']) if item else '-':>14}")
        print(f"{spec['name'] + ' [' + spec['unit'] + ']':<28}"[:28]
              + "".join(cells))
    layer_names = sorted({k for n in names
                          for k in doc["workloads"][n]["per_layer"]})
    print("\nPer workload layers" + "".join(f"{n:>14}" for n in names))
    for key in layer_names:
        cells = []
        for n in names:
            item = doc["workloads"][n]["per_layer"].get(key)
            cells.append(f"{_fmt(item['value']) if item else '-':>14}")
        unit = next(doc["workloads"][n]["per_layer"][key]["unit"]
                    for n in names if key in doc["workloads"][n]["per_layer"])
        print(f"{key + ' [' + unit + ']':<36}" + "".join(cells))
    print("\nLayer probes")
    for key, item in sorted(doc["layers"].items()):
        print(f"  {key:<42} {_fmt(item['value']):>12} {item['unit']}")
    for n in names:
        for note in doc["workloads"][n]["aborted"]:
            print(f"ABORTED AND REPEATED [{n}]: {note}")
        for problem in doc["workloads"][n]["problems"]:
            print(f"PROBLEM [{n}]: {problem}")
    for note in doc["layer_aborted"]:
        print(f"ABORTED AND REPEATED [layers]: {note}")
    for problem in doc["layer_problems"]:
        print(f"PROBLEM [layers]: {problem}")


def run_compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        doc_a, doc_b = json.load(fa), json.load(fb)
    rows = compare(doc_a, doc_b)
    print(f"base {path_a} (sha {doc_a['host']['git_sha']}, seed "
          f"{doc_a['seed']})  vs  new {path_b} (sha "
          f"{doc_b['host']['git_sha']}, seed {doc_b['seed']})")
    for workload in doc_a["workloads"]:
        print(f"\n{workload}")
        for row in (r for r in rows if r["workload"] == workload):
            if row["verdict"] == "missing":
                print(f"  {row['metric']:<18} missing")
                continue
            ratio = (f"{row['ratio']:.3f}x" if row["ratio"] is not None
                     else "n/a")
            print(f"  {row['metric']:<18} {row['verdict']:<10} "
                  f"{_fmt(row['new']):>10} vs base {_fmt(row['base']):>10} "
                  f"{row['unit']:<9} ratio {ratio:>8}  spread "
                  f"{row['spread']:.3f}  bound {row['bound']:.2f}")
    bad = [r for r in rows if r["verdict"] in ("regressed", "missing")]
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--workload", default=None,
                        help="run one workload and end with one JSON line")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny frame counts (smoke test; numbers are "
                             "not comparable)")
    parser.add_argument("--runs", type=int, default=1,
                        help="ledger mode: runs per workload (the spread "
                             "--compare needs)")
    parser.add_argument("--json", metavar="OUT", default=None)
    parser.add_argument("--record", action="store_true",
                        help="append this run to history.jsonl")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return run_compare(*args.compare)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program under test is missing: {SRC}/repro",
              file=sys.stderr)
        return 2
    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.workload:
        return run_contract(args, contract)
    return run_ledger(args, contract)


if __name__ == "__main__":
    sys.exit(main())
