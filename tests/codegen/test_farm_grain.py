"""Guided farm dispatch: the grain rule and the chunked df/tf farm.

The df/tf master sends the next idle worker ``grain(remaining,
degree)`` items as one packet — ``max(1, remaining // (2 * degree))`` —
so a 64-item list at degree 4 is 27 round trips instead of 64, and a
list shorter than ``4 * degree`` is the paper's one-item-per-packet
farm, packet for packet.  Pinned here: the rule (property), the message
counts (a recording kernel), the results on every substrate and wire
(against sequential emulation), the same chunks under supervision and
chaos, and the ``repro emit`` round trip.

Every sequential function is a module-level ``def`` so the tables
survive the ``spawn`` start method and the tcp workers' re-import.
"""

import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.codegen import run_generated
from repro.codegen import kernel as kernel_module
from repro.codegen.kernel import Chunk, Kernel, grain
from repro.codegen.targets import get_target
from repro.codegen.targets.standalone_target import render_blackboard
from repro.conformance.functions import add, halve, sq as square
from repro.conformance.generator import CaseSpec, build_case
from repro.conformance.oracle import build_mapping
from repro.core import EndOfStream, FunctionTable, ProgramBuilder, TaskOutcome
from repro.faults import FaultPlan, FaultPolicy, FaultSpec
from repro.faults.topology import FaultTopology
from repro.machine import FAST_TEST
from repro.net import ClusterHarness
from repro.pnt import expand_program
from repro.realtime.soak import frame_value, limplock_plan, make_soak
from repro.syndex import distribute, ring

DEGREE = 3
#: Below, at and well above the ``4 * degree`` threshold.
SIZES = [0, 1, 4 * DEGREE - 1, 4 * DEGREE, 64, 1000]


def chunk_sizes(n_items, degree):
    """The packet sizes the master cuts a static list into."""
    sizes, pos = [], 0
    while pos < n_items:
        sizes.append(grain(n_items - pos, degree))
        pos += sizes[-1]
    return sizes


# -- (a) the rule -------------------------------------------------------------

class TestGrainRule:
    @given(st.integers(0, 2000), st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_chunks_partition_the_list_in_order(self, n_items, degree):
        work = list(range(n_items))
        sizes = chunk_sizes(n_items, degree)
        cut, pos = [], 0
        for n in sizes:
            cut.append(work[pos:pos + n])
            pos += n
        assert [x for piece in cut for x in piece] == work
        assert all(n >= 1 for n in sizes)
        assert sizes == sorted(sizes, reverse=True)   # sizes never grow
        assert all(n == 1 for n in sizes) == (n_items < 4 * degree)

    def test_the_issue_s_two_schedules(self):
        assert chunk_sizes(64, 4) == (
            [8, 7, 6, 5, 4, 4, 3, 3, 3, 2, 2, 2] + [1] * 15)
        assert len(chunk_sizes(64, 4)) == 27
        assert chunk_sizes(9, 4) == [1] * 9

    def test_grain_answers_the_one_rule(self):
        for remaining in (0, 1, 15, 16, 64, 1000):
            for degree in (1, 4, 8):
                want = max(1, remaining // (2 * degree))
                assert grain(remaining, degree) == want

    def test_a_chunk_is_a_list_but_a_list_is_no_chunk(self):
        assert isinstance(Chunk([1, 2]), list)
        assert not isinstance([1, 2], Chunk)
        assert Chunk([1, 2]) == [1, 2]


# -- sequential functions (module level: spawn, tcp re-import) ----------------

def double(a):
    return a * 2


def add_sum(acc, a):
    return acc + int(a.sum())


def split_array(a):
    if len(a) <= 2:
        return TaskOutcome(results=[a])
    return TaskOutcome(subtasks=[a[:len(a) // 2], a[len(a) // 2:]])


_frame = {"i": 0}


def next_size(_source):
    i = _frame["i"]
    _frame["i"] += 1
    if i >= len(SIZES):
        raise EndOfStream
    return (i, SIZES[i])


def int_items(frame):
    k, n = frame
    return [(7 * k + 5 * j) % 23 - 11 for j in range(n)]


def array_items(frame):
    k, n = frame
    return [np.arange(j % 5 + 1, dtype=np.int32) + k for j in range(n)]


def pack(state, frame, total):
    return state + 1, (frame[0], total)


def emit(_y):
    return None


def one_shot(kind):
    """``xs -> kind(4, square | halve, add, 0, xs)`` over ints."""
    table = FunctionTable()
    table.register("square", ins=["int"], outs=["int"], cost=50.0)(square)
    table.register("halve", ins=["int"], outs=["outcome"], cost=30.0)(halve)
    table.register(
        "add", ins=["int", "int"], outs=["int"], cost=10.0,
        properties=["commutative", "associative"],
    )(add)
    b = ProgramBuilder(f"{kind}_grain", table)
    (xs,) = b.params("xs")
    farm, comp = (b.df, "square") if kind == "df" else (b.tf, "halve")
    prog = b.returns(farm(4, comp=comp, acc="add", z=b.const(0), xs=xs))
    mapping = distribute(expand_program(prog, table), ring(4))
    return prog, table, mapping


def stream_of_lists(kind, items):
    """A stream whose i-th frame is a list of ``SIZES[i]`` items, farmed
    at ``DEGREE``: one run covers every size."""
    _frame["i"] = 0  # fresh stream per run (fork inherits, spawn reimports)
    table = FunctionTable()
    table.register("next_size", ins=["unit"], outs=["frame"])(next_size)
    table.register("int_items", ins=["frame"], outs=["int list"])(int_items)
    table.register("array_items", ins=["frame"],
                   outs=["array list"])(array_items)
    table.register("square", ins=["int"], outs=["int"], cost=50.0)(square)
    table.register("halve", ins=["int"], outs=["outcome"], cost=30.0)(halve)
    table.register("double", ins=["array"], outs=["array"], cost=50.0)(double)
    table.register("split_array", ins=["array"], outs=["outcome"],
                   cost=30.0)(split_array)
    for name, fn, item in (("add", add, "int"), ("add_sum", add_sum, "array")):
        table.register(
            name, ins=["int", item], outs=["int"], cost=10.0,
            properties=["commutative", "associative"],
        )(fn)
    table.register("pack", ins=["int", "frame", "int"],
                   outs=["int", "pair"])(pack)
    table.register("emit", ins=["pair"])(emit)
    comp, acc = {
        ("df", "int"): ("square", "add"),
        ("tf", "int"): ("halve", "add"),
        ("df", "array"): ("double", "add_sum"),
        ("tf", "array"): ("split_array", "add_sum"),
    }[kind, items]
    b = ProgramBuilder(f"{kind}_{items}_sizes", table)
    state, frame = b.params("state", "frame")
    xs = b.apply(f"{items}_items", frame)
    farm = b.df if kind == "df" else b.tf
    total = farm(DEGREE, comp=comp, acc=acc, z=b.const(0), xs=xs)
    s2, y = b.apply("pack", state, frame, total)
    prog = b.stream(s2, y, inp="next_size", out="emit", init_value=0,
                    source=None)
    mapping = distribute(expand_program(prog, table), ring(2))
    return prog, table, mapping


# -- (b) exact message counts -------------------------------------------------

class RecordingKernel(Kernel):
    """Records what the farm master sends on its dispatch edges and
    takes off its collect edges."""

    def __init__(self, mapping):
        super().__init__()
        (farm,) = FaultTopology.from_mapping(mapping).farms
        self._dispatch_edges = {w.dispatch_edge for w in farm.workers}
        self.dispatched, self.collected = [], []

    def send_(self, edge, value):
        if edge in self._dispatch_edges and not self.is_stop(value):
            self.dispatched.append(value)
        super().send_(edge, value)

    def alt_(self, edges):
        edge, value = super().alt_(edges)
        self.collected.append(value)
        return edge, value


def sizes_of(packets):
    return [len(p) if isinstance(p, Chunk) else 1 for p in packets]


class TestMessageCounts:
    def run(self, kind, xs):
        _prog, table, mapping = one_shot(kind)
        kernel = RecordingKernel(mapping)
        blackboard = run_generated(mapping, table, kernel=kernel, args=(xs,))
        return kernel, blackboard["result_0"]

    def test_64_items_at_degree_4_are_27_round_trips(self):
        xs = list(range(64))
        kernel, result = self.run("df", xs)
        assert result == sum(x * x for x in xs)
        assert len(kernel.dispatched) == len(kernel.collected) == 27
        assert sizes_of(kernel.dispatched) == chunk_sizes(64, 4)
        # In order, nothing lost: the chunks are the list.
        flat = [x for p in kernel.dispatched
                for x in (p if isinstance(p, Chunk) else [p])]
        assert flat == xs
        # A worker answers a chunk with a chunk of as many results.
        assert sorted(sizes_of(kernel.collected)) == sorted(
            chunk_sizes(64, 4))

    def test_9_items_at_degree_4_go_one_per_packet_as_ever(self):
        xs = list(range(9))
        kernel, result = self.run("df", xs)
        assert result == sum(x * x for x in xs)
        # The parent's sequence, value for value: the bare items.
        assert kernel.dispatched == xs
        assert sorted(kernel.collected) == sorted(x * x for x in xs)
        assert not any(isinstance(p, Chunk)
                       for p in kernel.dispatched + kernel.collected)

    def test_an_empty_list_sends_nothing(self):
        kernel, result = self.run("df", [])
        assert result == 0
        assert kernel.dispatched == kernel.collected == []

    def test_a_list_item_is_one_item(self):
        """A user item that is itself a list is never mistaken for a
        chunk: the worker sees it whole."""
        table = FunctionTable()
        table.register("total", ins=["int list"], outs=["int"])(sum)
        table.register(
            "add", ins=["int", "int"], outs=["int"],
            properties=["commutative", "associative"],
        )(add)
        b = ProgramBuilder("lists_of_lists", table)
        (xs,) = b.params("xs")
        prog = b.returns(b.df(2, comp="total", acc="add", z=b.const(0), xs=xs))
        mapping = distribute(expand_program(prog, table), ring(2))
        for n in (3, 40):
            xs = [[j, j + 1] for j in range(n)]
            blackboard = run_generated(mapping, table, args=(xs,))
            assert blackboard["result_0"] == sum(2 * j + 1 for j in range(n))

    def test_tf_subtasks_grow_the_work_list_mid_flight(self):
        xs = [37] * 64
        kernel, result = self.run("tf", xs)
        assert result == 37 * 64
        # 64 roots, each halved down to 37 unit leaves: 73 packets' worth
        # of items per root, and chunks carried most of them.
        items = sum(sizes_of(kernel.dispatched))
        assert items == 64 * 73
        assert len(kernel.dispatched) < items // 2
        assert len(kernel.dispatched) == len(kernel.collected)

    def test_tf_reengages_idle_workers_when_subtasks_arrive(self):
        """One root: the farm starts with a single busy worker, and the
        sub-tasks its answer brings go to the idle ones too."""
        _prog, table, mapping = one_shot("tf")
        (farm,) = FaultTopology.from_mapping(mapping).farms
        used = set()

        class Spy(Kernel):
            def send_(self, edge, value):
                if not self.is_stop(value):
                    used.add(edge)
                super().send_(edge, value)

        blackboard = run_generated(mapping, table, kernel=Spy(), args=([64],))
        assert blackboard["result_0"] == 64
        assert {w.dispatch_edge for w in farm.workers} <= used


# -- (c) every substrate, every wire ------------------------------------------

def start_methods():
    have = multiprocessing.get_all_start_methods()
    return [m for m in ("fork", "spawn") if m in have]


@pytest.fixture(scope="module")
def cluster():
    with ClusterHarness(size=2) as harness:
        yield harness


SUBSTRATES = (
    [("threads", {}), ("asyncio", {})]
    + [("processes", {"start_method": m}) for m in start_methods()]
    + [("processes", {"transport": "ring"}), ("tcp", {})]
)


@pytest.mark.parametrize("items", ["int", "array"])
@pytest.mark.parametrize("kind", ["df", "tf"])
@pytest.mark.parametrize(
    "backend,options", SUBSTRATES,
    ids=[b + "".join(f"-{v}" for v in o.values()) for b, o in SUBSTRATES],
)
def test_every_size_equals_sequential_emulation(
        backend, options, kind, items, cluster):
    prog, table, mapping = stream_of_lists(kind, items)
    expected = get_backend("emulate").run(
        None, table, program=prog, costs=FAST_TEST).outputs
    assert [k for k, _total in expected] == list(range(len(SIZES)))
    if backend == "tcp":
        # Round-robin puts p1 on another worker than the master's p0.
        options = {"cluster": cluster, "scheduler": "round-robin"}
    _frame["i"] = 0  # the emulation read the stream to its end
    report = get_backend(backend).run(
        mapping, table, program=prog, costs=FAST_TEST, timeout=90.0,
        **options,
    )
    assert report.outputs == expected


# -- (d) supervised farms chunk like every other farm -------------------------

POLICY = FaultPolicy(
    packet_timeout_s=0.3, heartbeat_timeout_s=0.15,
)


@pytest.fixture
def chunks_built(monkeypatch):
    """Counts every ``Chunk`` the generated executive builds."""
    built = []

    class CountedChunk(Chunk):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(kernel_module, "Chunk", CountedChunk)
    return built


class TestSupervisedGrain:
    """The supervisor times a chunk per item (``FarmSupervisor``), so it
    leaves the grain rule alone."""

    def test_an_unsupervised_run_of_the_same_farm_chunks(self, chunks_built):
        prog, table, mapping = make_soak(
            nproc=4, frames=2, pieces=64, work_us=0)
        report = get_backend("threads").run(
            mapping, table, program=prog, costs=FAST_TEST, timeout=60.0)
        assert report.outputs == [(k, frame_value(k, 64)) for k in range(2)]
        assert chunks_built

    @pytest.mark.parametrize("chaos", ["crash", "limplock"])
    def test_chaos_on_64_items_conserves_and_redispatches_chunks_whole(
            self, chaos, chunks_built):
        frames, pieces = 3, 64
        prog, table, mapping = make_soak(
            nproc=4, frames=frames, pieces=pieces, work_us=50.0)
        if chaos == "crash":
            plan = FaultPlan([FaultSpec(
                kind="crash", process="df0.worker1", occurrence=5)])
        else:
            plan = limplock_plan(mapping, worker=1, factor=6.0)
        report = get_backend("threads").run(
            mapping, table, program=prog, costs=FAST_TEST, timeout=60.0,
            fault_plan=plan, fault_policy=POLICY, record_trace=True,
        )
        assert report.outputs == [
            (k, frame_value(k, pieces)) for k in range(frames)]
        assert len(report.faults.injected) == 1
        assert chunks_built
        # Every item is computed at least once; a re-dispatched,
        # hedged or probed chunk recomputes its items whole.
        worker_spans = [s for s in report.trace.compute
                        if "_worker" in s.owner]
        assert len(worker_spans) >= frames * pieces
        if chaos == "crash":
            assert report.faults.redispatches >= 1


# -- (e) repro emit -----------------------------------------------------------

def test_emitted_64_item_farm_is_byte_identical_to_the_host_run(tmp_path):
    spec = CaseSpec(
        seed=0, kind="oneshot", arch=("ring", 4),
        input=[(5 * j) % 19 - 9 for j in range(64)], iterations=0,
        stages=[{"op": "df", "comp": "sq", "acc": "add", "degree": 4}],
    )
    built = build_case(spec)
    mapping = build_mapping(built)
    out = str(tmp_path / "deploy")
    get_target("standalone").emit(mapping, built.table, out)
    with open(os.path.join(out, "executive.py")) as handle:
        executive = handle.read()
    assert "grain(" in executive and "Chunk(" in executive
    host = run_generated(mapping, built.table, args=tuple(built.args))
    argv = [sys.executable, "main.py", "--timeout", "30"]
    for value in built.args:
        argv += ["--arg", repr(value)]
    proc = subprocess.run(
        argv, cwd=out, env=dict(os.environ, PYTHONPATH=""), timeout=60.0,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == render_blackboard(host)
