"""The run driver (:mod:`repro.backends.hosting`): one plan, one host
loop, one barrier, one merge — whatever substrate carries the packets.

The barrier tests involve no process and no socket: it is a pure state
machine.  The contract test hosts a supervised + budgeted stream over a
local kernel.  The parity tests run the same call on every hosted
backend and expect the same answer.
"""

import dataclasses
import gc
import os
import queue
import signal
import threading

import pytest

from repro.backends import BackendError, get_backend
from repro.backends.hosting import RunBarrier, host_run, merge_run, plan_run
from repro.codegen.kernel import Latch
from repro.core import FunctionTable, ProgramBuilder
from repro.faults import FaultPlan, FaultPolicy, FaultSpec
from repro.faults.demo import add, make_demo
from repro.net import ClusterHarness, ConnectionClosed, Frame
from repro.pnt import expand_program
from repro.realtime import LatencyBudget
from repro.realtime.soak import frame_value, make_soak
from repro.syndex import distribute, ring

POLICY = FaultPolicy(
    packet_timeout_s=0.3, heartbeat_timeout_s=0.15,
)

HOSTED = ["threads", "processes", "tcp"]


@pytest.fixture(scope="module")
def cluster():
    with ClusterHarness(size=2) as harness:
        yield harness


def options_for(backend, cluster):
    return {"cluster": cluster} if backend == "tcp" else {}


def demo_plan(**options):
    _prog, table, args, mapping = make_demo("df")
    return plan_run(mapping, table, args=args, **options)


# One host per processor of the demo farm: p0 owns the only sink, p1..p3
# a farm worker each.
HOSTS = {p: (p,) for p in ("p0", "p1", "p2", "p3")}
PAYLOAD = {"blackboard": {}, "compute": [], "transfer": [], "faults": [],
           "realtime": None}


class TestRunBarrier:
    def supervised(self):
        return RunBarrier(demo_plan(fault_plan=FaultPlan(seed=0)), HOSTS)

    def test_sinks_then_stop_then_done(self):
        barrier = RunBarrier(demo_plan(), HOSTS)
        assert not barrier.stopping and not barrier.finished
        barrier.sinks(["p0"])
        assert barrier.stopping and not barrier.finished
        for host in HOSTS:
            assert not barrier.finished
            barrier.done(host, dict(PAYLOAD, blackboard={host: 1}))
        assert barrier.finished
        assert [p["blackboard"] for p in barrier.payloads()] == [
            {host: 1} for host in HOSTS]

    def test_a_lost_non_sink_host_under_supervision_is_not_awaited(self):
        barrier = self.supervised()
        barrier.lost("p2", "p2", "went away")
        barrier.sinks(["p0"])
        for host in ("p0", "p1", "p3"):
            barrier.done(host, PAYLOAD)
        assert barrier.finished
        assert len(barrier.payloads()) == 3

    def test_a_lost_host_without_supervision_raises(self):
        barrier = RunBarrier(demo_plan(), HOSTS)
        barrier.lost("p2", "p2", "went away")
        assert barrier.stopping and barrier.finished
        with pytest.raises(BackendError, match="went away.*supervision"):
            barrier.payloads()

    @pytest.mark.parametrize("reported", [False, True])
    def test_a_lost_sink_owner_raises_before_and_after_its_sinks(
            self, reported):
        """After SINKS the owner still holds the run's results: losing
        it then must fail the run, not return a report without outputs."""
        barrier = self.supervised()
        if reported:
            barrier.sinks(["p0"])
        barrier.lost("p0", "p0", "went away")
        assert barrier.finished
        with pytest.raises(BackendError, match="sink processor.*p0"):
            barrier.payloads()

    def test_a_host_lost_after_its_payload_is_no_loss(self):
        barrier = RunBarrier(demo_plan(), HOSTS)
        barrier.sinks(["p0"])
        barrier.done("p0", PAYLOAD)
        barrier.lost("p0", "p0", "went away")
        assert barrier.error is None and not barrier.finished

    def test_a_worker_error_beats_a_later_loss(self):
        barrier = RunBarrier(demo_plan(), HOSTS)
        barrier.failed("p1", "Traceback: boom")
        barrier.lost("p0", "p0", "went away")
        with pytest.raises(BackendError, match="'p1'(.|\n)*boom"):
            barrier.payloads()

    def test_messages_for_a_finished_run_are_ignored(self):
        barrier = RunBarrier(demo_plan(), HOSTS)
        barrier.sinks(["p0"])
        for host in HOSTS:
            barrier.done(host, PAYLOAD)
        barrier.failed("p1", "late")
        barrier.lost("p2", "p2", "late")
        barrier.done("p3", PAYLOAD)
        assert barrier.error is None
        assert len(barrier.payloads()) == len(HOSTS)


def square_unless_seven(x):
    """``square``, except that the worker process given 7 dies on the
    spot, without a word (module-level: spawn pickles it by name)."""
    if x == 7:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def test_a_sigkilled_worker_fails_an_unsupervised_processes_run():
    """The parent sleeps on the control channel and on every worker's
    sentinel at once, so a worker that dies without a word is a lost
    host — an error without supervision — long before the timeout."""
    table = FunctionTable()
    table.register("square", ins=["int"], outs=["int"], cost=50.0)(
        square_unless_seven)
    table.register("add", ins=["int", "int"], outs=["int"], cost=10.0,
                   properties=["commutative", "associative"])(add)
    builder = ProgramBuilder("killed_df", table)
    (xs,) = builder.params("xs")
    program = builder.returns(builder.df(
        3, comp="square", acc="add", z=builder.const(0), xs=xs))
    mapping = distribute(expand_program(program, table), ring(4))
    with pytest.raises(BackendError, match="died with exit code -9"):
        get_backend("processes").run(
            mapping, table, args=(list(range(10)),), timeout=120.0)


def test_tcp_losing_the_sink_owner_between_sinks_and_done_is_an_error(cluster):
    """The coordinator's STOPRUN to the sink owner — sent once every sink
    has reported — kills its socket instead: the worker is lost exactly
    between its SINKS and its DONE."""
    _prog, table, args, mapping = make_demo("df")

    def on_assign(assignment):
        victim = assignment["p0"].link
        send = victim.send

        def dying_send(kind, *buffers):
            if kind == Frame.STOPRUN:
                victim.close()
                raise ConnectionClosed("killed by the test")
            return send(kind, *buffers)

        victim.send = dying_send

    with pytest.raises(BackendError, match="sink processor"):
        get_backend("tcp").run(
            mapping, table, args=args, timeout=60.0, cluster=cluster,
            fault_plan=FaultPlan(seed=0), fault_policy=POLICY,
            on_assign=on_assign,
        )


class CountingChannel(queue.Queue):
    """A remote channel as the kernel sees one, counting ``release``."""

    released = 0

    def release(self):
        self.released += 1


SERVICE_THREADS = {"fault-heartbeat", "rt-watchdog"}


class TestHostRunContract:
    def host(self, source_suffix=""):
        _prog, table, mapping = make_soak(
            nproc=3, frames=4, pieces=4, work_us=100.0)
        plan = plan_run(
            mapping, table,
            fault_plan=FaultPlan(seed=0), fault_policy=POLICY,
            budget=LatencyBudget(deadline_ms=10_000.0, policy="block",
                                 max_in_flight=2),
        )
        plan = dataclasses.replace(plan, source=plan.source + source_suffix)
        channel = CountingChannel(maxsize=plan.queue_size)
        stop = Latch()
        reported = []

        def on_sinks(processors):
            reported.append(processors)
            stop.set()

        deadline = threading.Timer(60.0, stop.set)
        deadline.start()
        try:
            payload = host_run(
                plan, remote={plan.cross_edges[0][0]: channel},
                stop=stop, on_sinks=on_sinks,
            )
        finally:
            deadline.cancel()
            self.stop, self.channel, self.plan = stop, channel, plan
        return payload, reported

    def assert_cleaned_up(self):
        assert self.stop.is_set()
        assert self.channel.released == 1
        assert not SERVICE_THREADS & {
            t.name for t in threading.enumerate()}

    def test_supervised_budgeted_stream(self):
        payload, reported = self.host()
        assert set(payload) == {
            "blackboard", "compute", "transfer", "faults", "realtime"}
        assert reported == [sorted(self.plan.sink_processors)]
        assert set(payload["realtime"]) == {"admission", "delivery"}
        self.assert_cleaned_up()
        report = merge_run(self.plan, [payload], 1.0, "test")
        assert [v for _k, v in report.outputs] == [
            frame_value(k, 4) for k in range(4)]
        assert len(report.realtime.ledger.delivered) == 4

    def test_cleans_up_when_the_executive_raises(self):
        with pytest.raises(RuntimeError, match="boom"):
            self.host(
                "\n_build = build_executive\n"
                "def build_executive(kernel, table):\n"
                "    _build(kernel, table)\n"
                "    raise RuntimeError('boom')\n"
            )
        self.assert_cleaned_up()


def test_twenty_budgeted_process_runs_leak_no_descriptor_and_no_segment():
    """Every budgeted ``processes`` run builds a stop flag (a segment and
    a latch FIFO in ``/dev/shm``, a descriptor each) and a stream board
    (a doorbell pipe): all of it must be gone when the run returns."""
    def one_run():
        prog, table, mapping = make_soak(
            nproc=2, frames=3, pieces=2, work_us=0.0)
        report = get_backend("processes").run(
            mapping, table, program=prog, timeout=60.0,
            budget=LatencyBudget(deadline_ms=10_000.0, policy="block",
                                 max_in_flight=2))
        assert len(report.realtime.ledger.delivered) == 3

    def held():
        gc.collect()
        return (len(os.listdir("/proc/self/fd")),
                sorted(os.listdir("/dev/shm")))

    one_run()       # whatever the first run of an interpreter keeps
    before = held()
    for _ in range(20):
        one_run()
    assert held() == before


class TestSameAnswerOnEveryBackend:
    @pytest.mark.parametrize("backend", HOSTED + ["asyncio"])
    def test_wrong_arity_is_one_value_error_before_anything_starts(
            self, backend, cluster):
        _prog, table, _args, mapping = make_demo("df")
        before = threading.active_count()
        with pytest.raises(ValueError) as err:
            get_backend(backend).run(
                mapping, table, args=(), timeout=5.0,
                **options_for(backend, cluster),
            )
        assert str(err.value) == "program takes 1 argument(s), got 0"
        assert threading.active_count() == before

    @pytest.mark.parametrize("backend", HOSTED)
    def test_fault_instants_are_traced_without_record_trace(
            self, backend, cluster):
        _prog, table, args, mapping = make_demo("df")
        plan = FaultPlan([FaultSpec(
            kind="crash", process="df0.worker1", occurrence=0)])
        report = get_backend(backend).run(
            mapping, table, args=args, timeout=60.0,
            fault_plan=plan, fault_policy=POLICY,
            **options_for(backend, cluster),
        )
        assert report.one_shot_results == (sum(x * x for x in range(10)),)
        names = {i.name for i in report.trace.instants}
        assert {"fault:injected", "fault:detected",
                "fault:redispatch"} <= names
        assert report.trace.compute == [] and report.trace.transfer == []
