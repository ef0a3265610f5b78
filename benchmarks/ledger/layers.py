"""Per-layer probes: what each module costs, measured from outside.

Every metric is named ``<module>.<what>`` after the ``repro`` module it
charges.  Two kinds of probe:

* direct timings of public functions with fixed iteration counts
  (compile path, codec, pumps, vision and tracking kernels);
* differential runs of one reference farm — ``make_soak(nproc=4,
  pieces=64, work_us=0)`` — adding one wrapper per row, so the layer
  tax table is a column of µs/packet (``report.makespan`` over
  ``frames x 64`` packets, spawn and teardown amortised in every row
  alike).
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro import pipeline
from repro.backends import get_backend
from repro.backends.base import BackendError
from repro.backends.process_backend import default_start_method
from repro.codegen.pygen import generate_python
from repro.faults.plan import FaultPlan
from repro.faults.policy import FaultPolicy
from repro.machine import FAST_TEST
from repro.minicaml.compile import compile_source
from repro.net import codec
from repro.net.harness import ClusterHarness
from repro.sched import get_scheduler
from repro.serve.cache import CompileCache
from repro.serve.soak import soak_table
from repro.shm import BatchPolicy, RingChannel
from repro.syndex import check_deadlock_freedom, distribute, ring
from repro.tracking.app import build_tracking_app
from repro.tracking.tracker import initial_state, plan_windows, update_tracks
from repro.vision.features import extract_marks

from bank import FARM_DEGREE, BankScene, load_bank
from stats import median
from workloads import (PIECES, RUN_ATTEMPTS, SAT_TIMEOUT_S, FarmRunner,
                       ServeRunner, farm_oracle, processors, sat_budget)

__all__ = ["run_layers"]

#: A typical df dispatch: a tag, a sequence number, a small value.
SMALL_PACKET = ("pkt", 1234, [1, 2, 3])
PUMP_STOP = ("stop",)
#: Reference-farm runs that hung and were done again (see
#: ``workloads.SAT_TIMEOUT_S``), named for the driver.
ABORTED: List[str] = []


def _median_ms(fn: Callable[[], Any], repeats: int) -> Tuple[float, Any]:
    """Median wall time of ``fn`` in ms, and its last result."""
    times, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append((time.perf_counter() - start) * 1000.0)
    return median(times), result


# -- compile path -------------------------------------------------------------


def compile_path(scene: BankScene, repeats: int) -> Dict[str, float]:
    """Each compile stage on the ``track`` spec, stage by stage."""
    app = build_tracking_app(nproc=FARM_DEGREE, n_frames=1, scene=scene)
    arch = ring(processors())
    out: Dict[str, float] = {}
    ms, compiled = _median_ms(
        lambda: compile_source(app.source, app.table), repeats)
    out["minicaml.compile_ms"] = ms
    ms, graph = _median_ms(
        lambda: pipeline.expand(compiled.ir, app.table), repeats)
    out["pnt.expand_ms"] = ms
    out["pnt.processes"] = len(graph.processes)
    out["pnt.edges"] = len(graph.edges)
    ms, mapping = _median_ms(lambda: distribute(graph, arch), repeats)
    out["syndex.distribute_ms"] = ms
    ms, _ = _median_ms(lambda: check_deadlock_freedom(mapping), repeats)
    out["syndex.deadlock_check_ms"] = ms
    ms, _ = _median_ms(
        lambda: get_scheduler("bicriteria").place(graph, arch), repeats)
    out["sched.bicriteria_place_ms"] = ms
    ms, _ = _median_ms(lambda: generate_python(mapping), repeats)
    out["codegen.generate_ms"] = ms
    return out


def serve_cache(repeats: int) -> Dict[str, float]:
    """``CompileCache.build`` cold (fresh cache) and warm (second call)."""
    source = ServeRunner.source(50)
    table, arch = soak_table(), ring(processors())
    cold, warm = [], []
    for _ in range(repeats):
        cache = CompileCache()
        for bucket in (cold, warm):
            start = time.perf_counter()
            cache.build(source, table, arch)
            bucket.append((time.perf_counter() - start) * 1000.0)
    return {"serve.build_cold_ms": median(cold),
            "serve.build_warm_ms": median(warm)}


# -- the layer-tax table ------------------------------------------------------


def _farm_row(frames: int, repeats: int, backend: str = "processes",
              **options) -> Tuple[float, Any]:
    """µs/packet of the reference farm on one configuration."""
    costs, report = [], None
    for _ in range(repeats):
        program, table, mapping = FarmRunner.make(frames)
        for attempt in range(RUN_ATTEMPTS):
            try:
                report = get_backend(backend).run(
                    mapping, table, program=program, costs=FAST_TEST,
                    timeout=SAT_TIMEOUT_S, **options,
                )
                break
            except BackendError as error:
                if attempt == RUN_ATTEMPTS - 1:
                    raise
                ABORTED.append(f"reference farm on {backend} "
                               f"{sorted(options)}: {error}")
        if report.outputs != farm_oracle(frames):
            raise RuntimeError(
                f"reference farm on {backend} {sorted(options)} delivered "
                "outputs that differ from the sequential oracle")
        costs.append(report.makespan / (frames * PIECES))
    return median(costs), report


def layer_tax(frames: int, repeats: int) -> Dict[str, float]:
    out: Dict[str, float] = {}
    # The first multiprocess run of an interpreter is markedly faster
    # than every later one; discard it so all rows sit in one regime.
    _farm_row(max(10, frames // 4), 1)
    out["codegen.thread_farm_us_per_packet"] = _farm_row(
        frames, repeats, "threads")[0]
    out["backends.process_farm_us_per_packet"] = _farm_row(
        frames, repeats)[0]
    out["shm.ring_farm_us_per_packet"] = _farm_row(
        frames, repeats, transport="ring")[0]
    out["realtime.budget_farm_us_per_packet"] = _farm_row(
        frames, repeats, budget=sat_budget())[0]
    cost, report = _farm_row(frames, repeats, fault_plan=FaultPlan(seed=0),
                             fault_policy=FaultPolicy())
    out["faults.supervised_farm_us_per_packet"] = cost
    faults = report.faults
    out["faults.redispatches"] = faults.redispatches
    out["health.hedges"] = faults.hedges
    out["health.limping_flags"] = len(faults.limping)
    with ClusterHarness(size=processors()) as cluster:
        out["net.tcp_farm_us_per_packet"] = _farm_row(
            frames, repeats, "tcp", cluster=cluster)[0]
        out.update(serve_submit(cluster, max(10, frames // 2),
                                2 * repeats + 1))
    return out


def serve_submit(cluster: ClusterHarness, frames: int,
                 requests: int) -> Dict[str, float]:
    """Warm-request overhead: client wall time minus the run's own span."""
    runner = ServeRunner(cluster=cluster)
    try:
        runner.run(frames, sat_budget())           # cold submit, discarded
        runner.request_walls_s.clear()
        for _ in range(requests):
            runner.run(frames, sat_budget())
        overheads = [(wall - span) * 1000.0
                     for wall, span in runner.request_walls_s]
        hit_share = runner.cache_hit_share()
    finally:
        runner.close()
    return {"serve.submit_overhead_ms": median(overheads),
            "serve.cache_hit_share": hit_share}


# -- transports and codec -----------------------------------------------------


def _pump_queue(channel, ready, go, packets):
    ready.set()
    go.wait()
    for _ in range(packets):
        channel.put(SMALL_PACKET)
    channel.put(PUMP_STOP)


def _pump_ring(channel, ready, go, packets):
    ready.set()
    go.wait()
    for _ in range(packets):
        channel.put(SMALL_PACKET, timeout=60.0)
    channel.put(PUMP_STOP, timeout=60.0)
    while channel.has_pending and not channel.try_flush():
        time.sleep(0.0002)
    channel.close()


def pump_kpps(kind: str, packets: int) -> float:
    """Thousand small packets/s one producer process streams to us."""
    ctx = multiprocessing.get_context(default_start_method())
    ready, go = ctx.Event(), ctx.Event()
    if kind == "queue":
        channel: Any = ctx.Queue(maxsize=64)
        target = _pump_queue
    else:
        channel = RingChannel(slots=64, slot_bytes=16384,
                              policy=BatchPolicy(), label="ledger-pump")
        target = _pump_ring
    producer = ctx.Process(target=target,
                           args=(channel, ready, go, packets))
    producer.start()
    try:
        if not ready.wait(30.0):
            raise RuntimeError("pump producer never came up")
        go.set()
        start = time.perf_counter()
        got = 0
        while channel.get(timeout=30.0) != PUMP_STOP:
            got += 1
        elapsed = time.perf_counter() - start
    finally:
        producer.join(10.0)
        if producer.is_alive():
            producer.terminate()
            producer.join(5.0)
        if kind == "ring":
            channel.destroy()
    if got != packets:
        raise RuntimeError(f"{kind} pump lost packets: {got}/{packets}")
    return packets / elapsed / 1000.0


def ring_frame_us(frame: np.ndarray, repeats: int) -> float:
    """put+get of one full frame through a ring (the overflow path)."""
    channel = RingChannel(slots=8, slot_bytes=16384, label="ledger-frame")
    try:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            channel.put(frame, timeout=10.0)
            got = channel.get(timeout=10.0)
            times.append((time.perf_counter() - start) * 1e6)
        if not np.array_equal(got, frame):
            raise RuntimeError("ring returned a different frame")
    finally:
        channel.release()
        channel.destroy()
    return median(times)


def _roundtrip(value: Any) -> Any:
    return codec.decode(b"".join(bytes(b) for b in codec.encode(value)))


def codec_probe(frame: np.ndarray, repeats: int) -> Dict[str, float]:
    small_n = 200 * repeats
    start = time.perf_counter()
    for _ in range(small_n):
        _roundtrip(SMALL_PACKET)
    small_us = (time.perf_counter() - start) * 1e6 / small_n
    payload = (7, ("frame", frame))
    wire_mb = codec.encoded_size(codec.encode(payload)) / 1e6
    start = time.perf_counter()
    for _ in range(4 * repeats):
        _roundtrip(payload)
    frame_s = time.perf_counter() - start
    return {"net.codec_small_us": small_us,
            "net.codec_frame_mb_s": 4 * repeats * wire_mb / frame_s}


# -- user code: vision and tracking kernels -----------------------------------


def tracker_pass(scene: BankScene, expected: List,
                 frames: int) -> Dict[str, float]:
    """The tracker loop by hand over the bank, each kernel timed.

    Replays exactly what the mini-ML spec does per frame, so its outputs
    must equal the emulation oracle's; the phase counts are exact.
    """
    app = build_tracking_app(nproc=FARM_DEGREE, n_frames=frames, scene=scene)
    config = app.config
    state = initial_state(config)
    spent = {"plan": 0.0, "track": 0.0, "band": 0.0, "update": 0.0}
    calls = {"track": 0, "band": 0}
    reinit_frames = windows = 0
    clock = time.perf_counter
    for k in range(frames):
        image = scene.render(k)
        phase = "track" if state.tracking and state.tracks else "band"
        reinit_frames += phase == "band"
        t0 = clock()
        wins = plan_windows(FARM_DEGREE, state, image)
        t1 = clock()
        marks: List = []
        for w in wins:
            marks += extract_marks(
                w.pixels, level=config.threshold,
                min_pixels=config.min_mark_pixels, origin=w.origin)
        t2 = clock()
        marks.sort(key=lambda m: (m.row, m.col))
        display, state = update_tracks(state, marks)
        t3 = clock()
        if display != expected[k]:
            raise RuntimeError(
                f"hand-run tracker diverged from the oracle at frame {k}")
        spent["plan"] += t1 - t0
        spent[phase] += t2 - t1
        spent["update"] += t3 - t2
        calls[phase] += len(wins)
        windows += len(wins)
    us = 1e6
    return {
        "vision.extract_marks_track_us":
            spent["track"] * us / max(1, calls["track"]),
        "vision.extract_marks_band_us":
            spent["band"] * us / max(1, calls["band"]),
        "tracking.plan_windows_us": spent["plan"] * us / frames,
        "tracking.update_tracks_us": spent["update"] * us / frames,
        "tracking.reinit_frame_share": reinit_frames / frames,
        "tracking.windows_per_frame": windows / frames,
    }


def simulator(scene: BankScene, frames: int) -> Dict[str, float]:
    """The paper's headline on the simulated 8-Transputer ring.

    Latencies are virtual (exact for a given bank); only
    ``sim_frames_per_s`` is wall clock — how fast the simulator itself
    chews through video.
    """
    app = build_tracking_app(nproc=8, n_frames=frames, scene=scene)
    built = pipeline.build(app.source, app.table, ring(8),
                           profile_iterations=2, rewind=app.rewind)
    start = time.perf_counter()
    report = built.run(backend="simulate", real_time=True)
    wall = time.perf_counter() - start
    rounds = report.iterations
    stable = [r.latency for r in rounds[2:]] or [rounds[-1].latency]
    return {
        "machine.sim_frames_per_s": app.video.frames_served / wall,
        "machine.sim_track_latency_ms": sum(stable) / len(stable) / 1000.0,
        "machine.sim_reinit_latency_ms": rounds[0].latency / 1000.0,
    }


def run_layers(job: Dict) -> Dict:
    """Every workload-independent layer metric, by name (the units are
    BENCHMARK.json's)."""
    scale = job["scale"]
    repeats = job["repeats"]
    scene, expected = load_bank(job["workdir"])
    frame = np.ascontiguousarray(scene.bank[0])
    out: Dict[str, float] = {}
    out.update(compile_path(scene, 2 * repeats + 1))
    out.update(serve_cache(2 * repeats + 1))
    out.update(layer_tax(max(10, round(100 * scale)), repeats))
    packets = max(1000, round(20000 * scale))
    out["backends.queue_pump_kpps"] = pump_kpps("queue", packets)
    out["shm.ring_pump_kpps"] = pump_kpps("ring", packets)
    out["shm.ring_frame_us"] = ring_frame_us(frame, 10 * repeats)
    out.update(codec_probe(frame, 5 * repeats))
    # Stop short of the first occlusion for the simulator (its stable
    # rounds are the tracking-phase headline); cross it for the kernels.
    out.update(simulator(scene, min(len(scene.bank), 30)))
    out.update(tracker_pass(scene, expected,
                            min(len(scene.bank), max(50, round(120 * scale)))))
    out["aborted"] = ABORTED
    return out
