"""Unit tests for the supervision plumbing: health board, farm topology
extraction, fault reports, the policy's deadline schedule, the circuit
breaker, the cold-start and suspect rules (on the clock-free policy
core, with explicit instants), and the kernel's bounded re-dispatch
flush."""

import pytest

from repro.backends.policy_kernel import PolicyKernel
from repro.codegen.kernel import Kernel
from repro.faults import FaultPlan, FaultPolicy, FaultReport, FaultSpec
from repro.faults.demo import make_demo
from repro.faults.farm import FarmSupervisor, ReleaseStop, Send
from repro.faults.supervisor import HealthBoard, Packet, Result
from repro.faults.topology import FaultTopology
from repro.health import HealthPolicy
from repro.machine.trace import Trace
from repro.syndex.distribute import Mapping

#: An arbitrary instant, on nobody's clock.
T0 = 1000.0


def make_core(**policy_kwargs):
    """The policy core of the df demo farm (three workers)."""
    _prog, _table, _args, mapping = make_demo("df")
    (farm,) = FaultTopology.from_mapping(mapping).farms
    return FarmSupervisor(farm, FaultPolicy(**policy_kwargs), FaultReport())


def make_supervised(**policy_kwargs):
    """A PolicyKernel hosting the df demo farm, no threads started."""
    _prog, _table, _args, mapping = make_demo("df")
    topo = FaultTopology.from_mapping(mapping)
    kernel = PolicyKernel(
        Kernel(), faults=topo, policy=FaultPolicy(**policy_kwargs)
    )
    return kernel, kernel._hosted["df0"]


def takes_for_dead(beats, now, timeout):
    """Does the policy core, told of worker 0's ``beats``, take it for
    dead at ``now``?  Its packet is overdue since for ever and the stall
    deadline out of reach, so it is convicted — ``crash`` — exactly when
    its heartbeat is stale."""
    core = make_core(packet_timeout_s=1e-9, stall_factor=1e18,
                     heartbeat_timeout_s=timeout,
                     health=HealthPolicy(enabled=False))
    for at in beats:
        core.beat(0, at)
    core.dispatch(0, "held", now - 1.0)
    core.tick(now)
    return [r.kind for r in core.report.detected] == ["crash"]


class TestHealthBoard:
    """The board's stamps, as the policy core reads them."""

    def test_fresh_after_beat(self):
        board = HealthBoard.local(2)
        board.beat(0)
        now = board.last(0)
        assert not takes_for_dead([now], now + 0.01, timeout=0.1)

    def test_stale_after_timeout(self):
        board = HealthBoard.local(1)
        board.beat(0)
        last = board.last(0)
        assert takes_for_dead([last], last + 1.0, timeout=0.1)

    def test_never_beaten_slot_is_fresh_until_first_deadline(self):
        # A slot nobody has written reads 0.0 — "not started yet" — and
        # the kernel reports no beat for it.
        board = HealthBoard.local(1)
        assert board.last(0) == 0.0

    def test_never_beaten_slot_is_never_stale(self):
        # A worker that never started cannot have died: even an
        # arbitrarily late "now" must not convict it of a crash (the
        # stall path covers workers that never start).
        for now in (2.0, 1e9):
            assert not takes_for_dead([], now, timeout=0.1)

    def test_future_timestamp_is_not_stale(self):
        # Clock skew: a heartbeat stamped *after* the supervisor's "now"
        # (shared-memory boards cross processes; monotonic clocks need
        # not agree to the microsecond) yields a negative age, which must
        # read as fresh, not wrap into a huge staleness.
        board = HealthBoard.local(1)
        board.beat(0)
        last = board.last(0)
        assert not takes_for_dead([last], last - 5.0, timeout=0.1)


class TestEnvelopes:
    def test_packet_and_result_pickle(self):
        import pickle

        packet = pickle.loads(pickle.dumps(Packet(3, [1, 2])))
        assert (packet.seq, packet.value) == (3, [1, 2])
        result = pickle.loads(pickle.dumps(Result(3, 99)))
        assert (result.seq, result.value) == (3, 99)


class TestTopologyExtraction:
    def test_df_farm_roles(self):
        _prog, _table, _args, mapping = make_demo("df")
        topo = FaultTopology.from_mapping(mapping)
        (farm,) = topo.farms
        assert farm.kind == "farm"
        assert farm.sid == "df0"
        assert farm.owner_pid == farm.dispatcher_pid == "df0.master"
        assert farm.supervised
        assert farm.degree == 3
        # Every role edge is distinct and registered in the lookups.
        edges = [
            (w.dispatch_edge, w.work_in_edge, w.work_out_edge, w.collect_edge)
            for w in farm.workers
        ]
        flat = [e for quad in edges for e in quad]
        assert len(set(flat)) == len(flat)
        for w in farm.workers:
            assert topo.dispatch_edges[w.dispatch_edge] == (farm, w)
            assert topo.collect_edges[w.collect_edge] == (farm, w)

    def test_scm_farm_roles(self):
        _prog, _table, _args, mapping = make_demo("scm")
        topo = FaultTopology.from_mapping(mapping)
        (farm,) = topo.farms
        assert farm.kind == "scm"
        assert farm.owner_pid.endswith(".merge")
        assert farm.dispatcher_pid.endswith(".split")
        for w in farm.workers:
            # scm has no routers: the split->worker edge is both the
            # dispatch and the work-in edge.
            assert w.dispatch_edge == w.work_in_edge
            assert w.work_out_edge == w.collect_edge

    def test_slots_are_unique_and_dense(self):
        _prog, _table, _args, mapping = make_demo("tf")
        topo = FaultTopology.from_mapping(mapping)
        slots = [w.slot for f in topo.farms for w in f.workers]
        assert sorted(slots) == list(range(topo.n_slots))

    def test_worker_pids(self):
        _prog, _table, _args, mapping = make_demo("df")
        topo = FaultTopology.from_mapping(mapping)
        assert topo.worker_pids == [
            "df0.worker0", "df0.worker1", "df0.worker2",
        ]

    def test_farm_of_collect_edges(self):
        _prog, _table, _args, mapping = make_demo("df")
        topo = FaultTopology.from_mapping(mapping)
        (farm,) = topo.farms
        edges = [w.collect_edge for w in farm.workers]
        assert topo.farm_of_collect_edges(edges) is farm
        assert topo.farm_of_collect_edges(edges + ["e999"]) is None

    def test_scm_split_merge_apart_is_unsupervised(self):
        _prog, _table, _args, mapping = make_demo("scm")
        split = next(p for p in mapping.assignment if p.endswith(".split"))
        merge = next(p for p in mapping.assignment if p.endswith(".merge"))
        assignment = dict(mapping.assignment)
        procs = mapping.arch.processor_ids()
        assignment[split], assignment[merge] = procs[0], procs[-1]
        assert assignment[split] != assignment[merge]
        apart = Mapping(mapping.graph, mapping.arch, assignment)
        topo = FaultTopology.from_mapping(apart)
        (farm,) = topo.farms
        assert not farm.supervised
        assert farm.workers  # workers still enumerated for slot layout
        assert topo.dispatch_edges == {}  # but no supervised role lookups


class TestFaultReport:
    def test_categories_and_views(self):
        report = FaultReport()
        report.add("injected", "crash", "w1", 10.0)
        report.add("detected", "crash", "w1", 20.0, processor="p2")
        report.add("quarantine", "crash", "w1", 20.0, processor="p2")
        report.add("quarantine", "crash", "w1", 21.0, processor="p2")
        report.add("redispatch", "crash", "w2", 25.0, latency_us=15.0)
        assert len(report.injected) == 1
        assert len(report.detected) == 1
        assert report.redispatches == 1
        assert report.quarantined == ["w1@p2"]  # deduplicated
        assert report.recovery_latencies() == [15.0]
        summary = report.summary()
        assert "1 injected" in summary
        assert "1 re-dispatch" in summary
        assert "w1@p2" in summary

    def test_merge_and_sort(self):
        a = FaultReport()
        a.add("detected", "crash", "w", 30.0)
        b = FaultReport()
        b.add("injected", "crash", "w", 10.0)
        a.merge(b).merge(None)
        assert [r.category for r in a.sorted().records] == [
            "injected", "detected",
        ]

    def test_payload_round_trip(self):
        report = FaultReport()
        report.add("redispatch", "stall", "w", 5.0, seq=3, attempts=1,
                   latency_us=2.5, note="moved")
        again = FaultReport.from_payload(report.to_payload())
        (record,) = again.records
        assert record.seq == 3
        assert record.attempts == 1
        assert record.latency_us == 2.5
        assert record.note == "moved"

    def test_annotate_trace_emits_instants(self):
        report = FaultReport()
        report.add("detected", "crash", "w1", 12.0, processor="p2")
        trace = Trace()
        report.annotate_trace(trace)
        (instant,) = trace.instants
        assert instant.name == "fault:detected"
        assert instant.resource == "p2"
        assert instant.time == 12.0


class TestFaultPolicy:
    def test_deadline_backoff(self):
        policy = FaultPolicy(packet_timeout_s=1.0, backoff=2.0)
        assert policy.deadline_s(0) == 1.0
        assert policy.deadline_s(1) == 2.0
        assert policy.deadline_s(2) == 4.0

    def test_probe_backoff(self):
        policy = FaultPolicy(probe_after_s=0.5, probe_backoff=3.0)
        assert policy.probe_delay_s(0) == 0.5
        assert policy.probe_delay_s(1) == 1.5
        assert policy.probe_delay_s(2) == 4.5


class TestCircuitBreaker:
    """Quarantine, probation and re-admission."""

    def convict(self, core, index, at=T0):
        """Worker ``index`` sits on a packet, its beat long stale, until
        the scan at ``at`` convicts it; returns the packet's seq."""
        core.beat(index, at - 100.0)
        (sent,) = core.dispatch(index, f"lost{index}", at - 50.0)
        core.tick(at)
        assert index in core.quarantined
        return sent.seq

    def probes(self, core):
        return [r for r in core.report.records if r.category == "probe"]

    def test_quarantine_creates_breaker(self):
        core = make_core(probe_after_s=10.0)
        self.convict(core, 1)
        breaker = core.breakers[1]
        assert breaker.probes == 0
        assert breaker.next_probe_at == T0 + 10.0
        categories = [r.category for r in core.report.records]
        assert "quarantine" in categories

    def test_quarantine_is_idempotent(self):
        core = make_core()
        core.beat(0, T0 - 100.0)
        core.dispatch(0, "first", T0 - 50.0)
        core.dispatch(0, "second", T0 - 49.9)
        core.tick(T0 - 49.45)  # only the first is overdue yet
        breaker = core.breakers[0]
        core.tick(T0 - 49.3)  # the second conviction of the same worker
        assert core.breakers[0] is breaker  # not reset
        assert len(core.report.detected) == 2
        quarantines = [r for r in core.report.records
                       if r.category == "quarantine"]
        assert len(quarantines) == 1

    def test_probe_duplicates_oldest_inflight_packet(self):
        core = make_core(probe_after_s=0.5)
        lost = self.convict(core, 2)  # re-dispatched: still in flight
        (later,) = core.dispatch(0, "later", T0 + 0.1)
        assert later.seq > lost
        assert core.next_wake(T0 + 0.1) == pytest.approx(T0 + 0.5)
        (probe,) = core.tick(T0 + 0.6)
        assert probe == Send(2, lost, "lost2", "probe")
        breaker = core.breakers[2]
        assert breaker.probes == 1
        assert breaker.next_probe_at > T0 + 0.6
        (record,) = self.probes(core)
        assert record.seq == lost

    def test_probe_waits_for_its_deadline(self):
        core = make_core(probe_after_s=1000.0)
        self.convict(core, 0)
        assert core.tick(T0 + 1.0) == []
        assert core.breakers[0].probes == 0

    def test_max_probes_retires_the_worker(self):
        core = make_core(probe_after_s=0.0, max_probes=2)
        self.convict(core, 0)
        sent = []
        for step in range(1, 6):
            sent += core.tick(T0 + step * 1e-3)
        assert core.breakers[0].probes == 2  # stopped at max_probes
        assert [d.why for d in sent] == ["probe", "probe"]

    def test_no_probe_without_live_work(self):
        # Probes duplicate real in-flight packets; with nothing in
        # flight (or during teardown) there is nothing safe to send.
        core = make_core(probe_after_s=0.0)
        seq = self.convict(core, 0)
        survivor = core.inflight[seq].assigned
        assert core.result(survivor, seq, T0 + 0.001) == 0
        assert core.tick(T0 + 1.0) == []
        assert self.probes(core) == []

    def test_readmit_clears_quarantine_and_breaker(self):
        core = make_core()
        seq = self.convict(core, 1)
        # The "dead" worker answers after all: a stale original.
        assert core.result(1, seq, T0 + 0.001) == 1
        assert 1 not in core.quarantined
        assert 1 not in core.breakers
        categories = [r.category for r in core.report.records]
        assert "readmit" in categories

    def test_readmit_of_healthy_worker_is_a_no_op(self):
        core = make_core()
        (sent,) = core.dispatch(0, "v", T0)
        assert core.result(0, sent.seq, T0 + 0.001) == 0
        assert core.report.records == []


#: Hedging that engages after two completions, 3 x their 2 ms = 6 ms.
SNAPPY_HEDGE = dict(health=HealthPolicy(hedge_min_samples=2,
                                        hedge_floor_s=0.001))


def warm_up(core, workers=(1, 2)):
    """``workers`` come up at T0 and answer one packet each in 2 ms."""
    for index in workers:
        core.beat(index, T0)
        (sent,) = core.dispatch(index, "warm", T0)
        core.result(index, sent.seq, T0 + 0.002)
    assert core.hedge.threshold_s() == pytest.approx(0.006)


class TestStuckRuleColdStart:
    """The BEAT-fresh/COUNT-flat clock starts at the worker's first
    observed beat, never at dispatch: a worker whose OS process is
    still starting is not stuck — nor overdue, nor a suspect."""

    STUCK_AFTER_S = 0.25  # HealthPolicy default

    def stuck_records(self, core):
        return [r for r in core.report.records
                if r.category == "limping" and r.kind == "stuck"]

    def make(self):
        return make_core(heartbeat_timeout_s=1e6, packet_timeout_s=1e6)

    def test_worker_that_never_beat_is_not_stuck(self):
        core = self.make()
        core.dispatch(0, "payload", T0 - 100 * self.STUCK_AFTER_S)
        core.tick(T0)
        assert self.stuck_records(core) == []

    def test_clock_starts_at_first_beat_not_dispatch(self):
        core = self.make()
        # Dispatched long ago; the worker only just came up.
        core.dispatch(0, "payload", T0 - 100 * self.STUCK_AFTER_S)
        up_at = T0
        core.beat(0, up_at)
        assert core.next_wake(up_at) == pytest.approx(
            up_at + self.STUCK_AFTER_S)
        core.tick(up_at + 0.5 * self.STUCK_AFTER_S)
        assert self.stuck_records(core) == []
        # Later beats do not move the origin.
        core.beat(0, up_at + 1.4 * self.STUCK_AFTER_S)
        core.tick(up_at + 1.5 * self.STUCK_AFTER_S)
        (record,) = self.stuck_records(core)
        assert record.target == core.farm.workers[0].pid

    def test_warm_worker_is_timed_from_dispatch(self):
        core = self.make()
        core.beat(1, T0)
        sent_at = T0 + 10.0
        core.dispatch(1, "payload", sent_at)
        core.tick(sent_at + 0.5 * self.STUCK_AFTER_S)
        assert self.stuck_records(core) == []
        core.tick(sent_at + 1.5 * self.STUCK_AFTER_S)
        assert len(self.stuck_records(core)) == 1

    def test_cold_worker_is_not_hedged_away(self):
        """The false conviction under ``spawn``: the hedge rule used to
        time a packet from its dispatch, so a worker still importing
        the world was overdue, lost the race, became a suspect and was
        quarantined ``stall`` at Stop — its planned crash never fired."""
        core = make_core(**SNAPPY_HEDGE)
        warm_up(core)
        (cold,) = core.dispatch(0, "cold", T0)
        # Far past the threshold, but worker 0 has not produced a beat:
        # nothing to hedge, and only the stall deadline is armed.
        assert core.tick(T0 + 0.1) == []
        policy = core.policy
        assert core.next_wake(T0 + 0.1) == pytest.approx(
            T0 + policy.packet_timeout_s * policy.stall_factor)
        # It comes up: the hedge clock starts now, not at dispatch.
        core.beat(0, T0 + 0.1)
        assert core.tick(T0 + 0.105) == []
        assert core.tick(T0 + 0.107) == [
            Send(1, cold.seq, "cold", "hedge")]

    def test_worker_that_never_beat_is_no_suspect(self):
        # However a duplicate came to win against a worker nobody has
        # seen alive, Stop has nothing to convict it of.
        core = make_core(**SNAPPY_HEDGE)
        (cold,) = core.dispatch(0, "cold", T0)
        rec = core.inflight[cold.seq]
        rec.hedges, rec.sends[1] = 1, T0 + 0.01
        assert core.result(1, cold.seq, T0 + 0.02) == 0
        assert core.report.hedge_wins == 1
        assert core.suspects == {}
        assert core.stop(0, T0 + 0.03) == [ReleaseStop(0)]
        assert core.report.detected == []


class TestSuspectsGetNoNewWork:
    """A worker that lost a hedge race and has answered nothing since
    is routed around until it clears itself or is convicted: if it is
    dead, packets would pile up unread in its queue and the master's
    blocking send would park the only thread that can convict it."""

    def make(self):
        """Worker 0 sits on a packet; a peer wins the hedge race."""
        core = make_core(**SNAPPY_HEDGE)
        core.beat(0, T0)
        warm_up(core)
        (lost,) = core.dispatch(0, "lost", T0)
        (hedge,) = core.tick(T0 + 0.01)
        assert hedge.why == "hedge" and hedge.worker != 0
        assert core.result(hedge.worker, lost.seq, T0 + 0.012) == 0
        assert 0 in core.suspects
        return core, lost.seq

    def test_packet_for_a_suspect_goes_to_a_peer(self):
        core, _ = self.make()
        for i in range(8):  # more than its queue would hold
            (sent,) = core.dispatch(0, f"v{i}", T0 + 0.02)
            assert sent.worker != 0 and sent.why == "dispatch"
            assert core.inflight[sent.seq].origin_slot == 0  # its port

    def test_answering_clears_the_detour(self):
        core, lost = self.make()
        (rescued,) = core.dispatch(0, "rescued", T0 + 0.02)
        assert rescued.worker != 0
        # It speaks — the late loser of the race, a duplicate, but proof.
        assert core.result(0, lost, T0 + 0.03) is None
        assert 0 not in core.suspects
        (sent,) = core.dispatch(0, "next", T0 + 0.04)
        assert sent.worker == 0

    def test_a_lone_suspect_still_gets_the_packet(self):
        core, _ = self.make()
        core.quarantined.update({1, 2})
        (sent,) = core.dispatch(0, "no peer left", T0 + 0.02)
        assert sent.worker == 0


class TestFlushSendsOverflow:
    """Regression: the queue.Full fallback must stay bounded.  A queued
    re-send lives only while its packet is in flight: once the packet
    settles it is dropped with an ``overflow`` record instead of being
    retried forever (until then the core's timeouts cover a queue that
    never drains)."""

    def fill_queue(self, kernel, edge):
        channel = kernel._base.channel(edge)
        while True:
            try:
                channel.put_nowait("filler")
            except Exception:
                return

    def test_packet_dropped_once_it_settles(self):
        kernel, state = make_supervised()
        core = state.core
        (sent,) = core.dispatch(0, "v", T0)
        edge = state.farm.workers[1].dispatch_edge
        self.fill_queue(kernel, edge)
        state.pending_sends.append((edge, Packet(sent.seq, "v")))
        for _ in range(10):  # in flight: kept, however long it waits
            kernel._flush_sends(state)
            ((kept_edge, kept),) = state.pending_sends
            assert (kept_edge, kept.seq) == (edge, sent.seq)
        assert core.result(0, sent.seq, T0 + 0.01) == 0  # the original
        kernel._flush_sends(state)
        assert state.pending_sends == []
        (record,) = [r for r in kernel.fault_report.records
                     if r.category == "overflow"]
        assert record.seq == sent.seq
        assert record.target == edge

    def test_stop_tokens_are_never_dropped(self):
        kernel, state = make_supervised()
        edge = state.farm.workers[0].dispatch_edge
        self.fill_queue(kernel, edge)
        stop = kernel._base.stop_token
        state.pending_sends.append((edge, stop))
        for _ in range(10):
            kernel._flush_sends(state)
        (entry,) = state.pending_sends
        assert entry[0] == edge and entry[1] is stop

    def test_flush_delivers_once_space_frees(self):
        kernel, state = make_supervised()
        (sent,) = state.core.dispatch(1, "v", T0)
        edge = state.farm.workers[1].dispatch_edge
        self.fill_queue(kernel, edge)
        state.pending_sends.append((edge, Packet(sent.seq, "v")))
        kernel._flush_sends(state)
        assert state.pending_sends  # still waiting
        kernel._base.channel(edge).get_nowait()  # worker drains one
        kernel._flush_sends(state)
        assert state.pending_sends == []
        assert not [r for r in kernel.fault_report.records
                    if r.category == "overflow"]


class TestDropsSkipStops:
    """A planned drop counts messages, and a Stop is none: it is
    delivered, not counted, not reported, and the drop waits for the
    next real message."""

    #: The df demo's plain edge from the constant source to the master.
    EDGE = "e12"

    def make(self):
        _prog, _table, _args, mapping = make_demo("df")
        plan = FaultPlan([FaultSpec(kind="drop", edge=self.EDGE,
                                    occurrence=0)])
        return PolicyKernel(Kernel(), faults=FaultTopology.from_mapping(
            mapping), plan=plan)

    def test_a_stop_on_a_plain_edge_leaves_the_drop_pending(self):
        kernel = self.make()
        kernel.send_(self.EDGE, kernel.stop_token)
        assert kernel.is_stop(kernel._base.recv_(self.EDGE))
        assert kernel.fault_report.records == []
        assert [s.edge for s in kernel.matcher.pending()] == [self.EDGE]
        kernel.send_(self.EDGE, "dropped")
        kernel.send_(self.EDGE, "kept")
        assert kernel._base.recv_(self.EDGE) == "kept"
        assert [(r.category, r.kind, r.target)
                for r in kernel.fault_report.records] == [
            ("injected", "drop", self.EDGE)]

    def test_stop_primitive_is_not_counted_either(self):
        kernel = self.make()
        kernel.stop_(self.EDGE)
        assert kernel.is_stop(kernel._base.recv_(self.EDGE))
        assert kernel.fault_report.records == []
        assert kernel.matcher.pending()
