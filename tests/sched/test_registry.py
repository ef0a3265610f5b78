"""The scheduler policies, the REPRO_SCHEDULER knob, and LPT assignment."""

from repro.core import FunctionTable, ProgramBuilder
from repro.pnt import expand_program
from repro.sched import DEFAULT_SCHEDULER, SCHEDULERS, get_scheduler
from repro.sched.registry import _lpt_assign
from repro.syndex import distribute, ring


def farm_table():
    table = FunctionTable()
    table.register("feed", ins=["unit"], outs=["'a list"])(lambda _: [])
    table.register("comp", ins=["'a"], outs=["'b"])(lambda x: x)
    table.register("acc", ins=["'c", "'b"], outs=["'c"])(lambda c, y: c)
    table.register("step", ins=["'c", "'a list"], outs=["'c", "'d"])(
        lambda s, xs: (s, None)
    )
    table.register("emit", ins=["'d"])(lambda y: None)
    return table


def df_stream_graph(degree=4):
    table = farm_table()
    b = ProgramBuilder("app", table)
    state, item = b.params("state", "item")
    total = b.df(degree, comp="comp", acc="acc", z=state, xs=item)
    s2, y = b.apply("step", total, item)
    prog = b.stream(s2, y, inp="feed", out="emit", init_value=0, source=None)
    return expand_program(prog, table)


class TestRegistry:
    def test_resolve_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
        assert SCHEDULERS.resolve() == DEFAULT_SCHEDULER == "bicriteria"
        monkeypatch.setenv("REPRO_SCHEDULER", "round-robin")
        assert SCHEDULERS.resolve() == "round-robin"
        # An explicit name wins over the environment.
        assert SCHEDULERS.resolve("aaa") == "aaa"

    def test_every_policy_places_every_process(self):
        graph = df_stream_graph(4)
        for name in SCHEDULERS.names():
            mapping = get_scheduler(name).place(graph, ring(5))
            assert set(mapping.assignment) == set(graph.processes)
            mapping.validate()


class TestAssignment:
    def test_default_assign_is_round_robin(self):
        graph = df_stream_graph(2)
        mapping = distribute(graph, ring(3))
        workers = ["w0", "w1"]
        dealt = get_scheduler("round-robin").assign(
            mapping, ["p0", "p1", "p2"], workers
        )
        assert dealt == {"p0": "w0", "p1": "w1", "p2": "w0"}

    def test_lpt_separates_the_two_heaviest(self):
        from repro.sched.costmodel import processor_loads

        graph = df_stream_graph(4)
        mapping = distribute(graph, ring(4))
        durations = {"df0.master": 5.0}
        for index in range(4):
            durations[f"df0.worker{index}"] = 100.0 - index
        dealt = _lpt_assign(mapping, mapping.arch.processor_ids(),
                            ["w0", "w1"], durations)
        loads = processor_loads(mapping, durations=durations)
        top_two = sorted(loads, key=loads.get, reverse=True)[:2]
        # The first two LPT placements land on distinct empty workers.
        assert dealt[top_two[0]] != dealt[top_two[1]]

    def test_lpt_covers_every_processor(self):
        graph = df_stream_graph(4)
        mapping = distribute(graph, ring(4))
        dealt = get_scheduler("bicriteria").assign(
            mapping, mapping.arch.processor_ids(), ["w0", "w1", "w2"]
        )
        assert set(dealt) == set(mapping.arch.processor_ids())
