"""The tcp backend end to end on a localhost cluster.

Every test runs real ``repro worker`` subprocesses connected over real
sockets — the same path a network-of-workstations deployment uses, just
with every workstation on 127.0.0.1.
"""

import threading
import time

import pytest

from repro.backends import BACKENDS, get_backend
from repro.core import FunctionTable, ProgramBuilder
from repro.faults import FaultPlan, FaultPolicy
from repro.faults.topology import FaultTopology
from repro.machine import FAST_TEST
from repro.net import ClusterHarness
from repro.pnt import expand_program
from repro.syndex import distribute, ring

from tests.backends.test_backend_equivalence import RECIPES, run_on


@pytest.fixture(scope="module")
def cluster():
    with ClusterHarness(size=4) as harness:
        yield harness


def run_tcp(factory, cluster, arch_size=4, **options):
    prog, table, args = factory()
    mapping = distribute(expand_program(prog, table), ring(arch_size))
    return get_backend("tcp").run(
        mapping, table,
        program=prog,
        costs=FAST_TEST,
        args=args,
        timeout=60.0,
        cluster=cluster,
        **options,
    )


class TestDistributedEquivalence:
    @pytest.mark.parametrize("skeleton", sorted(RECIPES))
    def test_matches_emulation(self, skeleton, cluster):
        reference = run_on("emulate", RECIPES[skeleton])
        report = run_tcp(RECIPES[skeleton], cluster)
        assert report.outputs == reference.outputs, (
            f"{skeleton}: tcp diverged from emulation"
        )
        assert report.final_state == reference.final_state
        if reference.one_shot_results is not None:
            assert report.one_shot_results == reference.one_shot_results

    def test_more_processors_than_workers(self, cluster):
        """ring:8 on 4 workers: processors co-hosted round-robin."""
        reference = run_on("emulate", RECIPES["df"], arch_size=8)
        report = run_tcp(RECIPES["df"], cluster, arch_size=8)
        assert report.one_shot_results == reference.one_shot_results

    def test_reports_wall_clock_and_spans(self, cluster):
        report = run_tcp(RECIPES["df"], cluster, record_trace=True)
        assert report.wall_clock
        assert report.backend == "tcp"
        assert report.makespan > 0
        assert report.trace is not None
        assert report.trace.compute

    def test_untraced_run_records_no_spans(self, cluster):
        report = run_tcp(RECIPES["df"], cluster)
        assert not report.trace.compute
        assert not report.trace.transfer

    def test_runs_back_to_back_on_one_cluster(self, cluster):
        """Persistent workers must not leak state between runs."""
        first = run_tcp(RECIPES["itermem"], cluster)
        second = run_tcp(RECIPES["itermem"], cluster)
        assert first.outputs == second.outputs


def test_capability_matrix_reports_tcp_distributed():
    caps = BACKENDS.capabilities()
    assert caps["tcp"] == {
        "faults": True, "realtime": True, "distributed": True,
    }
    assert not caps["emulate"]["distributed"]
    assert not caps["processes"]["distributed"]


class TestConformanceOverTcp:
    """The differential oracle drives tcp exactly like any backend —
    ``run_case`` passes no options, so the shared localhost cluster
    serves every case."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_generated_cases_conform(self, seed):
        from repro.conformance import generate_case, run_case

        assert run_case(generate_case(seed), ["tcp"]) is None

    def test_faulted_case_conforms(self):
        from repro.conformance import generate_case, run_case

        for seed in range(30):
            spec = generate_case(seed, allow_faults=True)
            if spec.faults:
                assert run_case(spec, ["tcp"]) is None, spec.to_dict()
                return
        pytest.fail("no faulted case in the first 30 seeds")


# -- chaos: a worker's socket dies mid-run ------------------------------------

def crunch(x):
    time.sleep(0.1)
    return x * x


def add(a, b):
    return a + b


def make_slow_df():
    table = FunctionTable()
    table.register("crunch", ins=["int"], outs=["int"], cost=50.0)(crunch)
    table.register(
        "add", ins=["int", "int"], outs=["int"], cost=10.0,
        properties=["commutative", "associative"],
    )(add)
    b = ProgramBuilder("df_slow", table)
    (xs,) = b.params("xs")
    r = b.df(3, comp="crunch", acc="add", z=b.const(0), xs=xs)
    return b.returns(r), table, (list(range(10)),)


CHAOS_POLICY = FaultPolicy(
    packet_timeout_s=0.3,
    heartbeat_timeout_s=0.15,
    probe_after_s=10.0,  # a killed socket must stay quarantined
)


def test_survives_worker_socket_kill_mid_run():
    prog, table, args = make_slow_df()
    mapping = distribute(expand_program(prog, table), ring(4))
    participating = [
        p for p in mapping.arch.processor_ids() if mapping.processes_on(p)
    ]
    topology = FaultTopology.from_mapping(mapping)
    farms = [farm for farm in topology.farms if farm.supervised]
    assert farms, "expected a supervised farm"
    farm = farms[0]
    owner_proc = topology.pid_to_processor.get(farm.owner_pid)
    by_proc = {}
    for pid, proc in mapping.assignment.items():
        by_proc.setdefault(proc, []).append(pid)
    # A processor that hosts one farm worker (plus its relay processes)
    # and nothing else — killing it must not take down the master, the
    # stream input, or the sink.
    worker_procs = {w.processor for w in farm.workers}
    victims = [
        proc for proc in sorted(worker_procs)
        if proc != owner_proc
        and all(pid.startswith(f"{farm.sid}.") for pid in by_proc[proc])
    ]
    assert victims, "expected a processor hosting only farm-cell pids"
    victim = victims[0]

    timers = []

    def on_assign(assignment):
        # One worker per processor (cluster size == len(participating)),
        # so killing this socket kills exactly the victim processor.
        link = assignment[victim]
        timer = threading.Timer(0.25, link.link.close)
        timer.start()
        timers.append(timer)

    with ClusterHarness(size=len(participating)) as harness:
        try:
            report = get_backend("tcp").run(
                mapping, table,
                args=args,
                timeout=60.0,
                cluster=harness,
                fault_plan=FaultPlan(seed=0),
                fault_policy=CHAOS_POLICY,
                on_assign=on_assign,
            )
        finally:
            for timer in timers:
                timer.cancel()

    expected = sum(x * x for x in range(10))
    assert report.one_shot_results == (expected,)
    assert report.faults is not None
    categories = {r.category for r in report.faults.records}
    assert "detected" in categories
    assert "quarantine" in categories
    assert "redispatch" in categories
    # The fault instants carry the host tag of the worker that owned them.
    tagged = [
        i for i in report.trace.instants if i.name.startswith("fault:")
    ]
    assert tagged and all("[host " in i.detail for i in tagged)


def test_dead_worker_without_supervision_is_fatal():
    from repro.backends import BackendError

    prog, table, args = make_slow_df()
    mapping = distribute(expand_program(prog, table), ring(4))
    timers = []

    def on_assign(assignment):
        link = next(iter(assignment.values()))
        timer = threading.Timer(0.2, link.link.close)
        timer.start()
        timers.append(timer)

    with ClusterHarness(size=2) as harness:
        try:
            with pytest.raises(BackendError, match="connection lost"):
                get_backend("tcp").run(
                    mapping, table,
                    args=args,
                    timeout=30.0,
                    cluster=harness,
                    on_assign=on_assign,
                )
        finally:
            for timer in timers:
                timer.cancel()


async def _fetch(x):
    import asyncio

    await asyncio.sleep(0)
    return x + 1


def _add(a, b):
    return a + b


class TestAsyncNativeFunctions:
    @pytest.mark.parametrize("backend", ["threads", "processes", "tcp"])
    def test_call_awaits_a_coroutine_function(self, backend, cluster):
        """``call_`` drives an async-native table function to its result
        on every threaded substrate — one kernel, one ``call_``; where
        it did not, the un-awaited coroutine reached ``pickle``."""
        table = FunctionTable()
        table.register("fetch", ins=["int"], outs=["int"], cost=10.0)(_fetch)
        table.register(
            "add", ins=["int", "int"], outs=["int"], cost=5.0,
            properties=["commutative", "associative"],
        )(_add)
        b = ProgramBuilder("fetchsum", table)
        (xs,) = b.params("xs")
        prog = b.returns(
            b.df(3, comp="fetch", acc="add", z=b.const(0), xs=xs))
        mapping = distribute(expand_program(prog, table), ring(4))
        options = {"cluster": cluster} if backend == "tcp" else {}
        report = get_backend(backend).run(
            mapping, table, program=prog, costs=FAST_TEST,
            args=([1, 2, 3, 4, 5],), timeout=60.0, **options,
        )
        assert report.one_shot_results == (20,)
