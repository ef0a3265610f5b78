"""The four named workloads and the phases each one runs (child side).

Everything here executes inside a fresh child interpreter started by
``run.py``; the program under test is reached only through its public
entry points.  See README.md for why each workload exists.
"""

from __future__ import annotations

import os
import resource
import threading
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from repro.backends import get_backend
from repro.codegen.pygen import thread_name
from repro.machine import FAST_TEST
from repro.net.harness import ClusterHarness
from repro.pnt.graph import ProcessKind
from repro.realtime import LatencyBudget
from repro.realtime.soak import frame_value, make_soak
from repro.sched import predict
from repro.serve.client import ServeClient
from repro.serve.server import ServeServer
from repro.serve.service import SkipperService
from repro.serve.soak import soak_source, soak_table
from repro.syndex import ring

import hygiene
from bank import FARM_DEGREE, load_bank, tracking_app
from stats import median, percentile

__all__ = ["FRAME_PERIOD_MS", "PIECES", "processors", "open_runner",
           "farm_oracle", "run_workload", "run_setup", "trace_metrics"]

#: The paper's 25 Hz video contract.
FRAME_PERIOD_MS = 40.0
#: Packets per frame of the zero-work farm.
PIECES = 64
#: Frames per request of the ``farm_serve`` saturation phase.
SERVE_REQUEST_FRAMES = 50
#: A run that does not finish is abandoned and run again.  About one
#: ``processes`` run in a hundred never starts streaming: the workers'
#: threads attach ``repro.shm.StopFlag`` lazily and unguarded, one of
#: them dies on a released buffer and the executive starves until its
#: timeout.  A healthy saturation run lasts under 15 s and a paced run
#: its 40 ms a frame; a hung one must not eat the 180 s the one-workload
#: mode has in total.
SAT_TIMEOUT_S = 30.0
PACED_SLACK_S = 20.0
RUN_ATTEMPTS = 3
#: The paced CPU reading is sampled this often (see :class:`CpuSampler`).
CPU_SAMPLE_S = 0.1


def processors() -> int:
    """Processors every workload is mapped onto: ``max(2, min(4, nproc))``."""
    return max(2, min(4, len(os.sched_getaffinity(0))))


def sat_budget() -> LatencyBudget:
    """Closed loop: free-running grabber, two frames in flight."""
    return LatencyBudget(deadline_ms=FRAME_PERIOD_MS, policy="block",
                         max_in_flight=2, frame_period_ms=0.0)


def paced_budget() -> LatencyBudget:
    """Open loop at 25 Hz; ``block`` turns a stall into later latency."""
    return LatencyBudget(deadline_ms=FRAME_PERIOD_MS, policy="block",
                         max_in_flight=2, frame_period_ms=FRAME_PERIOD_MS)


# -- runners: one stream run of a workload through its public entry point -----


class _Runner:
    """``run(frames, budget)`` → RunReport; ``expected(frames)`` → oracle."""

    mapping: Any = None

    def run(self, frames: int, budget: Optional[LatencyBudget], *,
            traced: bool = False, timeout: float = SAT_TIMEOUT_S):
        raise NotImplementedError

    def expected(self, frames: int) -> List:
        raise NotImplementedError

    def saturate(self, frames: int, skip: int, windows: int, *,
                 traced: bool = False) -> Dict:
        """One closed-loop run: steady-state frames/s per window.

        The first ``skip`` deliveries (spawn, pipeline fill, transport
        warm-in) are left out; the rest is cut into ``windows`` equal
        spans of deliveries, each one rate sample.
        """
        report = self.run(frames, sat_budget(), traced=traced)
        stamps = [f.delivered_us for f in report.realtime.ledger.delivered]
        size = (len(stamps) - skip) // windows
        edges = [skip - 1 + i * size for i in range(windows + 1)]
        return {
            "rates": [size / ((stamps[b] - stamps[a]) / 1e6)
                      for a, b in zip(edges, edges[1:])],
            "good": count_good(report.outputs, self.expected(frames)),
            "reports": [report],
        }

    def close(self) -> None:
        pass


class TrackRunner(_Runner):
    """§4 tracker on ``processes``, replaying the prerendered bank."""

    def __init__(self, workdir: str, transport: str):
        scene, self._expected = load_bank(workdir)
        self.transport = transport
        self.app, built = tracking_app(scene, len(scene.bank), processors())
        self.built = built
        self.mapping = built.mapping

    def run(self, frames, budget, *, traced=False, timeout=SAT_TIMEOUT_S):
        self.app.video.n_frames = frames
        self.app.rewind()
        return self.built.run(
            backend="processes", budget=budget, transport=self.transport,
            record_trace=traced, timeout=timeout,
        )

    def expected(self, frames):
        return self._expected[:frames]


class FarmRunner(_Runner):
    """Zero-work stream-of-farms on ``processes``/``queue``."""

    def __init__(self):
        self.mapping = self.make(1)[2]

    @staticmethod
    def make(frames: int):
        return make_soak(nproc=FARM_DEGREE, frames=frames, pieces=PIECES,
                         work_us=0, arch_size=processors())

    def run(self, frames, budget, *, traced=False, timeout=SAT_TIMEOUT_S):
        program, table, mapping = self.make(frames)
        return get_backend("processes").run(
            mapping, table, program=program, costs=FAST_TEST,
            budget=budget, record_trace=traced, timeout=timeout,
        )

    def expected(self, frames):
        return farm_oracle(frames)


class ServeRunner(_Runner):
    """The same farm as mini-ML text through one ``ServeClient`` socket."""

    def __init__(self, cluster: Optional[ClusterHarness] = None):
        self.table = soak_table()
        self.arch = ring(processors())
        self.service = (SkipperService(cluster=cluster) if cluster
                        else SkipperService(cluster_size=processors()))
        self.server = ServeServer(self.service)
        self.client = ServeClient(self.server.address)
        self.mapping = self.service.cache.build(
            self.source(SERVE_REQUEST_FRAMES), self.table, self.arch,
        ).mapping
        self.request_walls_s: List[Tuple[float, float]] = []

    @staticmethod
    def source(frames: int) -> str:
        return soak_source(nproc=FARM_DEGREE, frames=frames, pieces=PIECES,
                           work_us=0)

    def run(self, frames, budget, *, traced=False, timeout=SAT_TIMEOUT_S):
        start = time.perf_counter()
        report = self.client.run(
            self.source(frames), self.table, self.arch, budget=budget,
            timeout=timeout, wait_timeout=timeout + 30.0,
        )
        wall = time.perf_counter() - start
        ledger = report.realtime.ledger
        span = (ledger.delivered[-1].delivered_us
                - ledger.frames[0].admitted_us) / 1e6
        self.request_walls_s.append((wall, span))
        return report

    def expected(self, frames):
        return farm_oracle(frames)

    def saturate(self, frames, skip, windows, *, traced=False):
        """Back-to-back warm requests, one rate sample each: frames over
        the request's wall time, so per-request serve/net overhead is
        part of the number (``skip``/``windows`` do not apply)."""
        requests = frames // SERVE_REQUEST_FRAMES
        good, reports, rates = 0, [], []
        for _ in range(requests):
            report = self.run(SERVE_REQUEST_FRAMES, sat_budget(),
                              traced=traced)
            rates.append(SERVE_REQUEST_FRAMES / self.request_walls_s[-1][0])
            good += count_good(report.outputs,
                               self.expected(SERVE_REQUEST_FRAMES))
            reports.append(report)
        return {"rates": rates, "good": good, "reports": reports}

    def cache_hit_share(self) -> float:
        cache = self.client.stats()["cache"]
        return cache["hits"] / max(1, cache["hits"] + cache["misses"])

    def close(self):
        self.client.close()
        self.server.close()
        self.service.close()


def open_runner(workload: str, workdir: str) -> _Runner:
    if workload == "track":
        return TrackRunner(workdir, "queue")
    if workload == "track_ring":
        return TrackRunner(workdir, "ring")
    if workload == "farm":
        return FarmRunner()
    if workload == "farm_serve":
        return ServeRunner()
    raise ValueError(f"unknown workload {workload!r}")


def farm_oracle(frames: int) -> List:
    """What the sequential semantics delivers for the zero-work farm."""
    return [(k, frame_value(k, PIECES)) for k in range(frames)]


def count_good(outputs: List, expected: List) -> int:
    """Delivered outputs equal to the oracle's, position by position."""
    return sum(1 for got, want in zip(outputs, expected) if got == want)


# -- phases -------------------------------------------------------------------


def _tree_cpu_s() -> float:
    """CPU seconds of this process, everything it reaped, and every
    descendant still alive (cluster workers outlive a request)."""
    own = sum(
        usage.ru_utime + usage.ru_stime
        for usage in (resource.getrusage(resource.RUSAGE_SELF),
                      resource.getrusage(resource.RUSAGE_CHILDREN)))
    return own + hygiene.cpu_seconds(hygiene.descendants(os.getpid()))


class CpuSampler:
    """CPU seconds of the process tree, sampled while a run is going.

    A paced run is read from its ``skip``-th frame on, so its CPU has to
    be known *at* that frame: a thread notes ``(perf_counter,
    _tree_cpu_s)`` every :data:`CPU_SAMPLE_S` and :meth:`at` interpolates.
    Only paced runs carry one (the cores are half idle then).
    """

    def __init__(self) -> None:
        self._samples: List[Tuple[float, float]] = []
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _note(self) -> None:
        self._samples.append((time.perf_counter(), _tree_cpu_s()))

    def _loop(self) -> None:
        while not self._done.wait(CPU_SAMPLE_S):
            self._note()

    def __enter__(self) -> "CpuSampler":
        self._note()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._done.set()
        self._thread.join()
        self._note()

    def at(self, when: float) -> float:
        """CPU seconds burnt up to ``when`` (a ``perf_counter`` time)."""
        before = self._samples[0]
        for sample in self._samples:
            if sample[0] >= when:
                span = sample[0] - before[0]
                share = (when - before[0]) / span if span > 0 else 0.0
                return before[1] + (sample[1] - before[1]) * max(0.0, share)
            before = sample
        return before[1]


def paced_phase(runner: _Runner, frames: int, segments: int,
                skip: int) -> Dict:
    """One open-loop run at 25 Hz, latency counted from the due time.

    The first ``skip`` frames are warm-in (spawn, pipeline fill, and on
    ``ring`` the start-up crawl); the rest is read as ``segments`` equal
    stretches, each with its own schedule origin (the admission of its
    first frame), so one stall — which ``block`` turns into lateness of
    every later frame — is charged to the stretch it happened in.
    Returns one row per segment.
    """
    with CpuSampler() as cpu:
        report = runner.run(frames, paced_budget(),
                            timeout=frames * FRAME_PERIOD_MS / 1000.0
                            + PACED_SLACK_S)
        returned = time.perf_counter()
    ledger = report.realtime.ledger
    # Ledger times count from the run's epoch, taken just before the
    # workers start; ``makespan`` is read just before the run returns.
    epoch = returned - report.makespan / 1e6
    period_us = FRAME_PERIOD_MS * 1000.0
    size = (len(ledger.frames) - skip) // segments
    rows = []
    for i in range(segments):
        span = ledger.frames[skip + i * size:skip + (i + 1) * size]
        origin, first = span[0].admitted_us, span[0].frame
        delivered = [f for f in span if f.delivered_us is not None]
        latencies = [
            (f.delivered_us - (origin + (f.frame - first) * period_us))
            / 1000.0 for f in delivered]
        lags = [(f.admitted_us - (origin + (f.frame - first) * period_us))
                / 1000.0 for f in span]
        events = sorted([(f.admitted_us, 1) for f in span]
                        + [(f.delivered_us, -1) for f in delivered])
        backlog = peak = 0
        for _when, step in events:
            backlog += step
            peak = max(peak, backlog)
        burnt = (cpu.at(epoch + delivered[-1].delivered_us / 1e6)
                 - cpu.at(epoch + origin / 1e6))
        rows.append({
            "latency_p50_ms": percentile(latencies, 50),
            "latency_p90_ms": percentile(latencies, 90),
            "latency_p99_ms": percentile(latencies, 99),
            "cpu_ms_per_frame": burnt * 1000.0 / len(delivered),
            "pacing_lag_p95_ms": percentile(lags, 95),
            "deadline_miss_share": (
                sum(f.deadline_missed for f in span) / len(span)),
            "max_backlog": peak,
        })
    return {"good": count_good(report.outputs, runner.expected(frames)),
            "rows": rows}


def trace_metrics(reports: List, mapping: Any, frames: int) -> Dict:
    """Aggregate the compute/transfer spans of a traced run per frame.

    Span owners are executive thread names; the process graph says which
    of them are farm workers, farm masters or plain sequential functions.
    Also returns the mean compute span per process (the ``durations``
    the cost model is checked against).
    """
    owners = {thread_name(pid): (pid, process.kind)
              for pid, process in mapping.graph.processes.items()}
    busy = {"worker": 0.0, "master": 0.0, "fn": 0.0}
    per_process: Dict[str, List[float]] = {}
    transfer = makespan = 0.0
    packets = 0
    for report in reports:
        for span in report.trace.compute:
            pid, kind = owners.get(span.owner, (None, None))
            if kind == ProcessKind.WORKER:
                busy["worker"] += span.duration
                packets += 1
            elif kind == ProcessKind.MASTER:
                busy["master"] += span.duration
            else:
                busy["fn"] += span.duration
            if pid is not None:
                per_process.setdefault(pid, []).append(span.duration)
        transfer += sum(s.duration for s in report.trace.transfer)
        makespan += report.makespan
    slots = len(mapping.arch.processor_ids())
    return {
        "worker_busy_ms_per_frame": busy["worker"] / 1000.0 / frames,
        "master_busy_ms_per_frame": busy["master"] / 1000.0 / frames,
        "fn_busy_ms_per_frame": busy["fn"] / 1000.0 / frames,
        "transfer_ms_per_frame": transfer / 1000.0 / frames,
        "packets_per_frame": packets / frames,
        "idle_share": 1.0 - sum(busy.values()) / (slots * makespan),
        "durations": {pid: sum(v) / len(v) for pid, v in per_process.items()},
    }


def run_workload(job: Dict) -> Dict:
    """Warm-up, then saturation runs interleaved with paced runs (so a
    slow spell of the host lands on both) and optionally one traced
    saturation run; returns raw measurements for the driver.

    A run that raises (in practice: the start-up hang described at
    :data:`SAT_TIMEOUT_S`) is abandoned, named in ``aborted`` and run
    again; only a run that fails :data:`RUN_ATTEMPTS` times in a row
    counts its frames as failed."""
    plan = job["plan"]
    out: Dict[str, Any] = {"errors": [], "aborted": [], "submitted": 0,
                           "good": 0, "sat_rates": [], "paced": []}
    runner = open_runner(job["workload"], job["workdir"])

    def attempt(label: str, frames: int, fn):
        for _ in range(RUN_ATTEMPTS):
            try:
                result = fn()
            except Exception:
                out["aborted"].append(
                    f"{label}: {traceback.format_exc(limit=3).strip()}")
                continue
            out["submitted"] += frames
            out["good"] += result["good"]
            return result
        out["submitted"] += frames
        out["errors"].append(f"{label}: no attempt out of {RUN_ATTEMPTS} "
                             f"finished; last: {out['aborted'][-1]}")
        return None

    def saturate(label: str, traced: bool = False):
        return attempt(label, plan["sat_frames"], lambda: runner.saturate(
            plan["sat_frames"], plan["sat_skip"], plan["sat_windows"],
            traced=traced))

    def warm_up():
        report = runner.run(plan["warmup_frames"], sat_budget())
        return {"good": count_good(report.outputs,
                                   runner.expected(plan["warmup_frames"]))}

    try:
        attempt("warm-up", plan["warmup_frames"], warm_up)   # not timed
        # Right-aligned interleave: sat, paced, sat, paced, ... — or, with
        # fewer paced runs, every sat run first (``farm_serve`` needs it).
        # The traced run is one more sat run, after the last of them.
        rounds = max(plan["sat_runs"], plan["paced_runs"])
        traced = None
        for i in range(rounds):
            if i >= rounds - plan["sat_runs"]:
                sat = saturate(f"sat[{i}]")
                if sat:
                    out["sat_rates"] += sat["rates"]
            if job["trace"] and i == rounds - 1:
                traced = saturate("traced", traced=True)
            if i >= rounds - plan["paced_runs"]:
                paced = attempt(
                    f"paced[{i}]", plan["paced_frames"],
                    lambda: paced_phase(runner, plan["paced_frames"],
                                        plan["paced_segments"],
                                        plan["paced_skip"]))
                if paced:
                    out["paced"] += paced["rows"]
        if traced and out["sat_rates"]:
            spans = trace_metrics(traced["reports"], runner.mapping,
                                  plan["sat_frames"])
            durations = spans.pop("durations")
            spans["overhead_ratio"] = (
                median(out["sat_rates"]) / median(traced["rates"]))
            out["trace"] = spans
            estimate = predict(
                runner.mapping, durations=durations,
                items_hint=max(1, round(spans["packets_per_frame"])),
            )
            out["predicted"] = {"period_us": estimate.period_us,
                                "latency_us": estimate.latency_us}
    finally:
        runner.close()
    usage = max(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    out["peak_rss_mb"] = usage / 1024.0
    return out


def run_setup(job: Dict) -> Dict:
    """Cold path of one workload: build, start, one frame, tear down.

    The driver times this whole interpreter from the outside (and starts
    another one if this one hangs)."""
    runner = open_runner(job["workload"], job["workdir"])
    try:
        report = runner.run(1, sat_budget(), timeout=10.0)
        good = count_good(report.outputs, runner.expected(1))
    finally:
        runner.close()
    return {"good": good}
