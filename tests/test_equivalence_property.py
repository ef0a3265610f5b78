"""Property-based equivalence of the three execution paths.

The paper's correctness story rests on the equivalence of each
skeleton's declarative and operational definitions.  Here hypothesis
generates random skeletal programs (random chains of function
applications and farms with random degrees over random inputs) and
checks that the discrete-event simulation reproduces the sequential
emulation exactly; a smaller sample also exercises the generated thread
executive.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FunctionTable,
    ProgramBuilder,
    TaskOutcome,
    emulate_once,
)
from repro.codegen import run_generated
from repro.machine import FAST_TEST, simulate
from repro.pnt import expand_program
from repro.syndex import chain, distribute, now, ring

# Pools of pure building blocks.  Accumulators are order-insensitive,
# as the df contract demands.
COMPS = {
    "inc": lambda x: x + 1,
    "dbl": lambda x: 2 * x,
    "sq": lambda x: x * x,
    "negabs": lambda x: -abs(x),
}
ACCS = {
    "add": lambda a, b: a + b,
    "mul": lambda a, b: a * b,
    "maxi": lambda a, b: max(a, b),
}


def make_table():
    table = FunctionTable()
    for name, fn in COMPS.items():
        table.register(name, ins=["int"], outs=["int"], cost=50.0)(fn)
    for name, fn in ACCS.items():
        table.register(
            name, ins=["int", "int"], outs=["int"], cost=10.0,
            properties=["commutative", "associative"],
        )(fn)
    table.register(
        "spread", ins=["int"], outs=["int list"], cost=20.0
    )(lambda x: [x + d for d in range(3)])
    table.register(
        "tolist", ins=["int", "int"], outs=["int list"], cost=10.0,
        properties=["append"],
    )(lambda acc, y: sorted([y] if isinstance(acc, int) else acc + [y]))

    def halve(x):
        # Leaf small values, but also cap the recursion for the huge
        # products a preceding 'mul' stage can produce — otherwise the
        # farm would process O(|x|) packets and the test never ends.
        if abs(x) <= 1 or abs(x) > 64:
            return TaskOutcome(results=[x])
        return TaskOutcome(subtasks=[x // 2, x - x // 2])

    table.register("halve", ins=["int"], outs=["outcome"], cost=30.0)(halve)
    return table


# A program recipe: list of stages applied to the running list value.
stage = st.one_of(
    st.tuples(
        st.just("df"),
        st.sampled_from(sorted(COMPS)),
        st.sampled_from(sorted(ACCS)),
        st.integers(1, 6),
    ),
    st.tuples(st.just("tf"), st.just("halve"), st.sampled_from(sorted(ACCS)),
              st.integers(1, 5)),
)

recipes = st.lists(stage, min_size=1, max_size=2)
inputs = st.lists(st.integers(-9, 9), max_size=8)
#: At most 8 inputs never reach a farm's chunking threshold (4 x degree)
#: above degree 2; these do, at every degree the recipes draw.
long_inputs = st.lists(st.integers(-9, 9), min_size=24, max_size=120)
arches = st.sampled_from(["ring1", "ring3", "ring7", "chain4", "now5"])


def build_program(table, recipe):
    """Chain farms: each stage folds the previous list into a scalar,
    then 'spread' re-expands it for the next stage."""
    b = ProgramBuilder("random_prog", table)
    (xs,) = b.params("xs")
    current = xs
    result = None
    for i, (kind, comp, acc, degree) in enumerate(recipe):
        if result is not None:
            current = b.apply("spread", result)
        if kind == "df":
            result = b.df(degree, comp=comp, acc=acc, z=b.const(1), xs=current)
        else:
            result = b.tf(degree, comp=comp, acc=acc, z=b.const(1), xs=current)
    return b.returns(result)


def make_arch(name):
    kind, n = name[:-1], int(name[-1])
    return {"ring": ring, "chain": chain, "now": now}[kind](n)


class TestSimulationEquivalence:
    @given(recipes, inputs, arches)
    @settings(max_examples=30, deadline=None)
    def test_simulation_matches_emulation(self, recipe, xs, arch_name):
        table = make_table()
        prog = build_program(table, recipe)
        expected = emulate_once(prog, table, xs)
        mapping = distribute(expand_program(prog, table), make_arch(arch_name))
        report = simulate(mapping, table, FAST_TEST, args=(xs,))
        assert report.one_shot_results == expected

    @given(recipes, inputs)
    @settings(max_examples=10, deadline=None)
    def test_result_independent_of_architecture(self, recipe, xs):
        table = make_table()
        prog = build_program(table, recipe)
        results = set()
        for arch_name in ("ring1", "ring3", "now5"):
            mapping = distribute(
                expand_program(prog, table), make_arch(arch_name)
            )
            report = simulate(mapping, table, FAST_TEST, args=(xs,))
            results.add(report.one_shot_results)
        assert len(results) == 1


class TestGeneratedCodeEquivalence:
    @given(recipes, inputs)
    @settings(max_examples=5, deadline=None)
    def test_generated_executive_matches_emulation(self, recipe, xs):
        table = make_table()
        prog = build_program(table, recipe)
        expected = emulate_once(prog, table, xs)
        mapping = distribute(expand_program(prog, table), ring(3))
        blackboard = run_generated(mapping, table, args=(xs,))
        assert blackboard["result_0"] == expected[0]

    @given(recipes, long_inputs, arches)
    @settings(max_examples=8, deadline=None)
    def test_chunked_farms_match_emulation_and_simulation(
        self, recipe, xs, arch_name
    ):
        """Lists long enough that the generated master hands out chunks
        (the simulator keeps modelling one item per packet): the three
        paths still agree."""
        table = make_table()
        prog = build_program(table, recipe)
        expected = emulate_once(prog, table, xs)
        mapping = distribute(expand_program(prog, table), make_arch(arch_name))
        report = simulate(mapping, table, FAST_TEST, args=(xs,))
        assert report.one_shot_results == expected
        blackboard = run_generated(mapping, table, args=(xs,))
        assert blackboard["result_0"] == expected[0]


class TestItermemAndScmEquivalence:
    """Strategies over the remaining skeletons — ``itermem`` stream
    wrappers and ``scm`` — built on the conformance generator's typed
    case grammar (its differential oracle *is* the equivalence check:
    every backend run diffs against sequential emulation)."""

    scm_stage = st.fixed_dictionaries({
        "op": st.just("scm"),
        "split": st.sampled_from(["chunk", "stride"]),
        "comp": st.sampled_from(["sumlist", "maxlist", "lenlist"]),
        "merge": st.sampled_from(["total", "peak"]),
        "degree": st.integers(1, 5),
    })
    farm_stage = st.one_of(
        scm_stage,
        st.fixed_dictionaries({
            "op": st.just("df"),
            "comp": st.sampled_from(["inc", "sq", "negabs"]),
            "acc": st.sampled_from(["add", "maxi"]),
            "degree": st.integers(1, 4),
        }),
        st.fixed_dictionaries({
            "op": st.just("tf"),
            "comp": st.sampled_from(["halve", "countdown"]),
            "acc": st.sampled_from(["add", "maxi"]),
            "degree": st.integers(1, 4),
        }),
    )
    expand_stage = st.fixed_dictionaries({
        "op": st.just("expand"),
        "fn": st.sampled_from(["spread", "rangeto"]),
    })

    @given(scm_stage, inputs, arches)
    @settings(max_examples=25, deadline=None)
    def test_scm_simulation_matches_emulation(self, stage, xs, arch_name):
        from repro.conformance import CaseSpec, run_case

        spec = CaseSpec(seed=0, kind="oneshot",
                        arch=(arch_name[:-1], int(arch_name[-1])),
                        input=xs, iterations=0, stages=[stage])
        failure = run_case(spec, ["simulate"])
        assert failure is None, failure.describe()

    @given(expand_stage, farm_stage, st.integers(1, 3), arches)
    @settings(max_examples=25, deadline=None)
    def test_itermem_wrapped_farms_match_emulation(
        self, expand, farm, iterations, arch_name
    ):
        """A stream loop around any farm: state threads through the
        ``itermem`` MEM process, the body re-expands each stream item."""
        from repro.conformance import CaseSpec, run_case

        spec = CaseSpec(seed=0, kind="stream",
                        arch=(arch_name[:-1], int(arch_name[-1])),
                        input=[], iterations=iterations,
                        stages=[expand, farm])
        failure = run_case(spec, ["simulate"])
        assert failure is None, failure.describe()

    @given(expand_stage, farm_stage, st.integers(1, 2))
    @settings(max_examples=8, deadline=None)
    def test_itermem_on_generated_thread_executive(
        self, expand, farm, iterations
    ):
        from repro.conformance import CaseSpec, run_case

        spec = CaseSpec(seed=0, kind="stream", arch=("ring", 3),
                        input=[], iterations=iterations,
                        stages=[expand, farm])
        failure = run_case(spec, ["threads"])
        assert failure is None, failure.describe()


@pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="lambda tables need the fork start method",
)
class TestProcessBackendEquivalence:
    """A few samples through the multiprocess backend (it is slow to
    spin up OS processes, so the bulk of the coverage stays on the
    simulated/threaded paths; the dedicated four-way suite is in
    tests/backends/)."""

    @given(recipes, inputs)
    @settings(max_examples=3, deadline=None)
    def test_process_backend_matches_emulation(self, recipe, xs):
        from repro.backends import get_backend

        table = make_table()
        prog = build_program(table, recipe)
        expected = emulate_once(prog, table, xs)
        mapping = distribute(expand_program(prog, table), ring(3))
        report = get_backend("processes").run(
            mapping, table, args=(xs,), timeout=60.0, start_method="fork",
        )
        assert report.one_shot_results == expected
