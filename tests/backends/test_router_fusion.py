"""Router fusion on every kernel-hosted backend.

An identity router that the mapping put on its worker's processor is
fused at the kernel's channel table: no thread, no hop.  The table is
part of the run's plan, so ``threads``, ``processes`` and ``tcp`` all
run fused.  These tests pin what must not change because of it —
outputs (per skeleton and over the whole conformance corpus), the
generated executive, every fault-injection site — and what must: the
router threads are gone.
"""

import os

import pytest

from repro.backends import get_backend, hosting
from repro.backends.hosting import fused_routers
from repro.codegen.pygen import generate_python, thread_name
from repro.conformance import run_case
from repro.conformance.corpus import load_corpus
from repro.faults import FaultPlan, FaultPolicy, FaultSpec
from repro.faults.demo import make_demo
from repro.faults.topology import FaultTopology
from repro.machine import FAST_TEST
from repro.net import ClusterHarness
from repro.net.harness import _shutdown_shared
from repro.pnt import ProcessKind

from .test_backend_equivalence import RECIPES, run_on
from .test_process_kernel import make_kernel

CORPUS = load_corpus(os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "conformance", "corpus"))

POLICY = FaultPolicy(
    packet_timeout_s=0.3, heartbeat_timeout_s=0.15,
)


def no_fusion(mapping, fault_plan=None):
    return {}, frozenset()


@pytest.fixture
def unfused(monkeypatch):
    """Run with every router keeping its thread, as before fusion.  The
    table is computed once, in the plan, so this holds for any backend
    and start method."""
    monkeypatch.setattr(hosting, "fused_routers", no_fusion)


@pytest.fixture(scope="module")
def cluster():
    with ClusterHarness(size=2) as harness:
        yield harness


@pytest.fixture(scope="module")
def shared_tcp():
    """``run_case`` runs ``tcp`` on the process-wide cluster; do not
    leave it to the next test module."""
    yield
    _shutdown_shared()


HOSTED = ["threads", "processes", "tcp"]


def options_for(backend, cluster):
    # Round-robin puts p1 on another worker than the master's p0.
    return ({"cluster": cluster, "scheduler": "round-robin"}
            if backend == "tcp" else {})


def routers(mapping):
    graph = mapping.graph
    return (graph.by_kind(ProcessKind.ROUTER_MW)
            + graph.by_kind(ProcessKind.ROUTER_WM))


class TestFusionTable:
    def test_every_colocated_router_of_the_demo_farm_is_fused(self):
        _prog, _table, _args, mapping = make_demo("df")
        aliases, fused = fused_routers(mapping)
        assert fused == {thread_name(r.id) for r in routers(mapping)}
        assert len(aliases) == len(fused) == 6
        for farm in FaultTopology.from_mapping(mapping).farms:
            for worker in farm.workers:
                # The worker's own edges fold onto the far side of each
                # router: it receives straight off the dispatch edge and
                # sends straight onto the collect edge.
                assert aliases[worker.work_in_edge] == worker.dispatch_edge
                assert aliases[worker.work_out_edge] == worker.collect_edge

    def test_a_router_on_another_processor_than_its_worker_is_kept(self):
        _prog, _table, _args, mapping = make_demo("df")
        worker = FaultTopology.from_mapping(mapping).farms[0].workers[0]
        elsewhere = next(p for p in mapping.arch.processor_ids()
                         if p != worker.processor)
        mapping.assignment["df0.mw0"] = elsewhere
        aliases, fused = fused_routers(mapping)
        assert thread_name("df0.mw0") not in fused
        assert worker.work_in_edge not in aliases
        assert thread_name("df0.wm0") in fused

    @pytest.mark.parametrize("how", ["process", "in-edge", "out-edge"])
    def test_a_router_the_plan_names_keeps_its_thread(self, how):
        _prog, _table, _args, mapping = make_demo("df")
        worker = FaultTopology.from_mapping(mapping).farms[0].workers[1]
        spec = {
            "process": FaultSpec(kind="delay", process="df0.mw1",
                                 delay_us=10.0),
            "in-edge": FaultSpec(kind="drop", edge=worker.dispatch_edge),
            "out-edge": FaultSpec(kind="drop", edge=worker.work_in_edge),
        }[how]
        aliases, fused = fused_routers(mapping, FaultPlan([spec]))
        assert thread_name("df0.mw1") not in fused
        assert worker.work_in_edge not in aliases
        # Every other router is still fused.
        assert len(fused) == len(routers(mapping)) - 1

    def test_programs_without_farms_have_nothing_to_fuse(self):
        _prog, _table, _args, mapping = make_demo("scm")
        assert fused_routers(mapping) == ({}, frozenset())

    def test_generated_executive_still_spawns_the_routers(self):
        """Fusion lives in the kernel; the executive is untouched."""
        _prog, _table, _args, mapping = make_demo("df")
        source = generate_python(mapping)
        for router in routers(mapping):
            assert f"kernel.spawn_({thread_name(router.id)!r}" in source


class TestKernelSide:
    def test_fused_thread_is_answered_with_a_stub(self):
        kernel = make_kernel(fused_threads=frozenset({"proc_df0_mw0"}))
        ran = []
        stub = kernel.spawn_("proc_df0_mw0", lambda: ran.append("router"))
        stub.join()
        assert not stub.is_alive()
        assert ran == [] and kernel.local_threads() == []

    def test_aliased_edge_is_the_channel_on_the_far_side(self):
        kernel = make_kernel(edge_aliases={"e5": "e4"})
        assert kernel.channel("e5") is kernel.channel("e4")
        kernel.send_("e5", "to the worker")
        assert kernel.recv_("e4") == "to the worker"
        kernel.stop_("e4")
        assert kernel.is_stop(kernel.recv_("e5"))

    def test_wrapper_kernels_reach_the_same_channel_by_either_name(self):
        kernel = make_kernel(edge_aliases={"e5": "e4"}, queue_size=1)
        kernel.channel("e5").put_nowait("re-dispatch")
        assert kernel.try_recv_("e4") == "re-dispatch"


class SpyKernel(hosting.Kernel):
    """Keeps every instance, so a test can ask which threads started."""

    instances = []

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        SpyKernel.instances.append(self)


class TestRouterThreadsAreGone:
    """Per backend: a fused router's thread never starts; one the fault
    plan names keeps its thread."""

    NAMED = FaultPlan([
        FaultSpec(kind="delay", process="df0.wm0", delay_us=10.0)])

    def test_threads(self, monkeypatch):
        monkeypatch.setattr(hosting, "Kernel", SpyKernel)
        monkeypatch.setattr(SpyKernel, "instances", [])
        prog, table, args, mapping = make_demo("df")
        router_threads = {thread_name(r.id) for r in routers(mapping)}
        for plan, kept in ((None, set()), (self.NAMED, {"proc_df0_wm0"})):
            get_backend("threads").run(
                mapping, table, args=args, timeout=60.0,
                fault_plan=plan, fault_policy=POLICY,
            )
            started = {
                t.name for t in SpyKernel.instances[-1].local_threads()}
            assert started & router_threads == kept
            assert "proc_df0_worker0" in started

    @pytest.mark.parametrize("backend", ["processes", "tcp"])
    def test_across_interpreters(self, backend, cluster):
        """The payload's transfer spans name the thread that sent on an
        inter-processor edge: fused, the worker sends its own results
        to the master; a kept ``W->M`` router is the sender again."""
        prog, table, args, mapping = make_demo("df")
        router_threads = {thread_name(r.id) for r in routers(mapping)}
        for plan, kept in ((None, set()), (self.NAMED, {"proc_df0_wm0"})):
            report = get_backend(backend).run(
                mapping, table, args=args, timeout=60.0, record_trace=True,
                fault_plan=plan, fault_policy=POLICY,
                **options_for(backend, cluster),
            )
            senders = {s.owner for s in report.trace.transfer}
            assert senders & router_threads == kept
            assert ("proc_df0_worker0" in senders) == (not kept)


class TestEquivalence:
    @pytest.mark.parametrize("skeleton", sorted(RECIPES))
    def test_fused_and_unfused_outputs_are_identical(
            self, skeleton, cluster, monkeypatch):
        reference = run_on("emulate", RECIPES[skeleton])
        for backend in HOSTED:
            with monkeypatch.context() as patch:
                options = options_for(backend, cluster)
                fused = run_on(backend, RECIPES[skeleton],
                               record_trace=True, **options)
                patch.setattr(hosting, "fused_routers", no_fusion)
                plain = run_on(backend, RECIPES[skeleton],
                               record_trace=True, **options)
            for report in (fused, plain):
                assert report.outputs == reference.outputs
                assert report.final_state == reference.final_state
                assert report.one_shot_results == reference.one_shot_results

            def worker_spans(report):
                return sorted(s.owner for s in report.trace.compute
                              if "worker" in s.owner)

            # Same packets through the same workers, hop or no hop.
            assert len(worker_spans(fused)) == len(worker_spans(plain))

    @pytest.mark.parametrize(
        "path,spec,recorded", CORPUS,
        ids=[os.path.basename(p) for p, _s, _r in CORPUS],
    )
    def test_corpus_replays_fused(self, path, spec, recorded, shared_tcp):
        failure = run_case(spec, HOSTED)
        assert failure is None, failure.describe()

    @pytest.mark.parametrize(
        "path,spec,recorded", CORPUS,
        ids=[os.path.basename(p) for p, _s, _r in CORPUS],
    )
    def test_corpus_replays_unfused(self, path, spec, recorded, unfused):
        failure = run_case(spec, ["processes"])
        assert failure is None, failure.describe()


class TestInjectionSitesSurvive:
    @pytest.mark.parametrize("edge_of", ["work_in_edge", "collect_edge"])
    def test_drop_on_a_router_edge_still_fires(self, edge_of):
        """Both edges are *sent on* only by a router; fusing it would
        have removed the only place the fault can be injected."""
        prog, table, args, mapping = make_demo("df")
        worker = FaultTopology.from_mapping(mapping).farms[0].workers[1]
        edge = getattr(worker, edge_of)
        plan = FaultPlan([FaultSpec(kind="drop", edge=edge, occurrence=0)])
        report = get_backend("processes").run(
            mapping, table, program=prog, costs=FAST_TEST, args=args,
            timeout=60.0, fault_plan=plan, fault_policy=POLICY,
        )
        want = get_backend("emulate").run(
            None, table, program=prog, costs=FAST_TEST, args=args,
        )
        assert report.one_shot_results == want.one_shot_results
        injected = [r for r in report.faults.records
                    if r.category == "injected" and r.kind == "drop"]
        assert [r.target for r in injected] == [edge]
        assert report.faults.redispatches
