"""Tests for the asyncio execution backend and its realtime composition."""

import asyncio

import pytest

from repro.backends import BackendError, get_backend
from repro.conformance.functions import reset_stream
from repro.conformance.generator import build_case, generate_case
from repro.conformance.oracle import build_mapping
from repro.realtime.budget import LatencyBudget
from repro.realtime.soak import make_soak


def _case(seed):
    built = build_case(generate_case(seed))
    return built, build_mapping(built)


class TestAsyncioBackend:
    @pytest.mark.parametrize("seed", [0, 1, 2, 5, 9])
    def test_agrees_with_threads(self, seed):
        built, mapping = _case(seed)
        args = tuple(built.args) if built.args else None
        kw = dict(
            max_iterations=built.max_iterations, args=args, timeout=60.0
        )
        reset_stream()
        threads = get_backend("threads").run(mapping, built.table, **kw)
        reset_stream()
        coroutines = get_backend("asyncio").run(mapping, built.table, **kw)
        assert coroutines.outputs == threads.outputs
        assert coroutines.final_state == threads.final_state
        assert coroutines.one_shot_results == threads.one_shot_results
        assert coroutines.backend == "asyncio"
        assert coroutines.wall_clock or coroutines.makespan >= 0

    def test_needs_mapping(self):
        built, _ = _case(0)
        with pytest.raises(BackendError, match="mapping"):
            get_backend("asyncio").run(None, built.table)

    def test_fault_plan_rejected(self):
        built, mapping = _case(0)
        with pytest.raises(BackendError, match="fault"):
            get_backend("asyncio").run(
                mapping, built.table, fault_plan=object()
            )

    def test_records_trace_spans(self):
        built, mapping = _case(0)
        args = tuple(built.args) if built.args else None
        reset_stream()
        report = get_backend("asyncio").run(
            mapping, built.table,
            max_iterations=built.max_iterations, args=args,
            record_trace=True, timeout=60.0,
        )
        assert report.trace is not None
        assert report.trace.compute  # call_ attributed via task names


class TestAsyncioRealtime:
    def test_budget_composes_like_threads(self):
        program, table, mapping = make_soak(
            nproc=3, frames=30, pieces=4, work_us=50
        )
        budget = LatencyBudget(
            deadline_ms=200, frame_period_ms=1, max_in_flight=4,
            policy="block",
        )
        report = get_backend("asyncio").run(
            mapping, table, max_iterations=30, budget=budget, timeout=60.0
        )
        assert len(report.outputs) == 30
        ledger = report.realtime.ledger
        assert ledger.submitted == 30
        assert ledger.conserved()
        assert len(ledger.delivered) == 30

    def test_shed_policy_sheds_and_conserves(self):
        program, table, mapping = make_soak(
            nproc=2, frames=40, pieces=3, work_us=2000
        )
        budget = LatencyBudget(
            deadline_ms=10, frame_period_ms=0.2, max_in_flight=2,
            policy="shed-newest",
        )
        report = get_backend("asyncio").run(
            mapping, table, max_iterations=40, budget=budget, timeout=60.0
        )
        ledger = report.realtime.ledger
        assert ledger.submitted == 40
        assert ledger.conserved()
        assert ledger.shed  # the tight budget forced load-shedding
        assert len(report.outputs) == len(ledger.delivered)


class TestThousandStreamSoak:
    """The asyncio value proposition: 1000 concurrent admitted streams
    in one process, every one frame-conserving."""

    N_STREAMS = 1000
    FRAMES = 3

    def test_frame_ledger_conservation_across_1000_streams(self):
        from repro.codegen.async_kernel import AsyncioKernel
        from repro.codegen.pygen import load_executive
        from repro.codegen.targets import get_target
        from repro.core.functions import FunctionTable
        from repro.pipeline import build
        from repro.backends.policy_kernel import AsyncPolicyKernel
        from repro.realtime.topology import StreamTopology

        table = FunctionTable()
        table.register("grab", ins=["unit"], outs=["int"], cost=10.0)(
            _grab
        )
        table.register("step", ins=["int", "int"],
                       outs=["int", "int"], cost=10.0)(_step)
        table.register("show", ins=["int"], cost=5.0)(_show)
        source = (
            "let loop (s, i) = step s i;;\n"
            "let main = itermem grab loop show 0 ();;\n"
        )
        built = build(source, table, _tiny_arch())
        mapping = built.mapping
        topo = StreamTopology.from_mapping(mapping)
        assert topo is not None
        executive = load_executive(
            get_target("asyncio").generate(
                mapping, max_iterations=self.FRAMES
            )
        )
        budget = LatencyBudget(
            deadline_ms=5000, max_in_flight=2, policy="block",
        )

        async def one_stream():
            kernel = AsyncPolicyKernel(AsyncioKernel(), topo, budget)
            try:
                fns = {spec.name: spec.fn for spec in table}
                _tasks, sinks = await executive["build_executive"](
                    kernel, fns
                )
                await kernel.join_(sinks, timeout=120.0)
            finally:
                await kernel.ashutdown()
            return kernel.build_report()

        async def soak():
            return await asyncio.gather(
                *(one_stream() for _ in range(self.N_STREAMS))
            )

        reports = asyncio.run(soak())
        assert len(reports) == self.N_STREAMS
        total_delivered = 0
        for report in reports:
            ledger = report.ledger
            assert ledger.submitted == self.FRAMES
            assert ledger.conserved(), (
                f"unaccounted frames: {ledger.unaccounted()}"
            )
            total_delivered += len(ledger.delivered)
        assert total_delivered == self.N_STREAMS * self.FRAMES


# Module-level defs: shared by the soak's 1000 executives.
def _grab(_src):
    return 1


def _step(s, i):
    return (s + i, s + i)


def _show(y):
    return None


def _tiny_arch():
    from repro.syndex import ring

    return ring(2)
