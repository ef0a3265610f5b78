"""Four-way backend equivalence: emulate ≡ simulate ≡ threads ≡ processes.

One program per skeleton (scm, df, tf, itermem), each executed on every
registered backend; all four must produce the sequential emulation's
outputs exactly.  Every sequential function is a module-level ``def`` so
the table survives pickling under the ``spawn`` start method (the CI
matrix forces it via ``REPRO_MP_START_METHOD``).
"""

import pytest

from repro.backends import get_backend
from repro.core import EndOfStream, FunctionTable, ProgramBuilder, TaskOutcome
from repro.machine import FAST_TEST
from repro.pnt import expand_program
from repro.syndex import distribute, ring

BACKENDS = ["emulate", "simulate", "threads", "processes"]


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


_counter = {"i": 0}


def read(_src):
    i = _counter["i"]
    _counter["i"] += 1
    if i >= 5:
        raise EndOfStream
    return i


def step(s, i):
    return s + i, s + i


def emit(_y):
    return None


# -- one program per skeleton -------------------------------------------------

def make_scm():
    table = FunctionTable()
    table.register("chunk", ins=["int", "int list"], outs=["int list list"])(chunk)
    table.register("sumsq", ins=["int list"], outs=["int"], cost=50.0)(sumsq)
    table.register("total", ins=["int list", "int list"], outs=["int"], cost=20.0)(total)
    b = ProgramBuilder("scm_sumsq", table)
    (xs,) = b.params("xs")
    r = b.scm(3, split="chunk", comp="sumsq", merge="total", x=xs)
    return b.returns(r), table, (list(range(10)),)


def make_df():
    table = FunctionTable()
    table.register("square", ins=["int"], outs=["int"], cost=50.0)(square)
    table.register(
        "add", ins=["int", "int"], outs=["int"], cost=10.0,
        properties=["commutative", "associative"],
    )(add)
    b = ProgramBuilder("df_sumsq", table)
    (xs,) = b.params("xs")
    r = b.df(3, comp="square", acc="add", z=b.const(0), xs=xs)
    return b.returns(r), table, (list(range(8)),)


def make_tf():
    table = FunctionTable()
    table.register("halve", ins=["int"], outs=["outcome"], cost=30.0)(halve)
    table.register(
        "add", ins=["int", "int"], outs=["int"], cost=10.0,
        properties=["commutative", "associative"],
    )(add)
    b = ProgramBuilder("tf_halve", table)
    (xs,) = b.params("xs")
    r = b.tf(3, comp="halve", acc="add", z=b.const(0), xs=xs)
    return b.returns(r), table, ([13, 7, 21],)


def make_itermem():
    _counter["i"] = 0  # fresh stream per run (fork inherits, spawn reimports)
    table = FunctionTable()
    table.register("read", ins=["unit"], outs=["int"], cost=10.0)(read)
    table.register("step", ins=["int", "int"], outs=["int", "int"], cost=10.0)(step)
    table.register("emit", ins=["int"], cost=5.0)(emit)
    b = ProgramBuilder("itermem_sum", table)
    state, item = b.params("state", "item")
    s2, y = b.apply("step", state, item)
    return b.stream(s2, y, inp="read", out="emit", init_value=0, source=None), table, None


RECIPES = {
    "scm": make_scm,
    "df": make_df,
    "tf": make_tf,
    "itermem": make_itermem,
}


def run_on(backend_name, factory, arch_size=4, **options):
    """Build the program fresh and execute it on one backend."""
    prog, table, args = factory()
    mapping = distribute(expand_program(prog, table), ring(arch_size))
    return get_backend(backend_name).run(
        mapping, table,
        program=prog,
        costs=FAST_TEST,
        args=args,
        timeout=60.0,
        **options,
    )


class TestFourWayEquivalence:
    @pytest.mark.parametrize("skeleton", sorted(RECIPES))
    def test_all_backends_agree(self, skeleton):
        factory = RECIPES[skeleton]
        reports = {name: run_on(name, factory) for name in BACKENDS}
        reference = reports["emulate"]
        for name in BACKENDS[1:]:
            report = reports[name]
            assert report.outputs == reference.outputs, (
                f"{skeleton}: backend {name!r} diverged from emulation"
            )
            assert report.final_state == reference.final_state
            if reference.one_shot_results is not None:
                assert report.one_shot_results == reference.one_shot_results

    @pytest.mark.parametrize("skeleton", ["df", "itermem"])
    def test_processes_on_one_processor(self, skeleton):
        """Degenerate mapping: the whole executive in a single worker."""
        reference = run_on("emulate", RECIPES[skeleton], arch_size=1)
        report = run_on("processes", RECIPES[skeleton], arch_size=1)
        assert report.outputs == reference.outputs

    def test_processes_reports_wall_clock(self):
        report = run_on("processes", make_df, record_trace=True)
        assert report.wall_clock
        assert report.backend == "processes"
        assert report.makespan > 0
        assert report.trace is not None
        assert report.trace.compute  # real spans were recorded
        assert report.trace.transfer

    def test_untraced_processes_run_records_no_spans(self):
        report = run_on("processes", make_df)
        assert not report.trace.compute
        assert not report.trace.transfer


class TestSpawnStartMethod:
    def test_df_under_spawn(self):
        report = run_on_spawn(make_df)
        reference = run_on("emulate", make_df)
        assert report.one_shot_results == reference.one_shot_results


def run_on_spawn(factory):
    prog, table, args = factory()
    mapping = distribute(expand_program(prog, table), ring(2))
    return get_backend("processes").run(
        mapping, table, args=args, timeout=90.0, start_method="spawn",
    )
