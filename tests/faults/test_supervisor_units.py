"""Unit tests for the supervision plumbing: health board, farm topology
extraction, fault reports, the policy's deadline schedule, the circuit
breaker, and the bounded re-dispatch flush."""

import time

from repro.codegen.kernel import Kernel
from repro.faults import FaultPolicy, FaultReport
from repro.faults.demo import make_demo
from repro.faults.supervisor import (
    HealthBoard,
    Packet,
    Result,
    SupervisedKernel,
    _InFlight,
    _Suspect,
)
from repro.faults.topology import FaultTopology
from repro.machine.trace import Trace
from repro.syndex.distribute import Mapping


def make_supervised(**policy_kwargs):
    """A SupervisedKernel over the df demo farm, no threads started."""
    _prog, _table, _args, mapping = make_demo("df")
    topo = FaultTopology.from_mapping(mapping)
    kernel = SupervisedKernel(
        Kernel(), topo, policy=FaultPolicy(**policy_kwargs)
    )
    return kernel, kernel._states["df0"]


class TestHealthBoard:
    def test_fresh_after_beat(self):
        board = HealthBoard.local(2)
        board.beat(0)
        now = board.last(0)
        assert not board.stale(0, now + 0.01, timeout=0.1)

    def test_stale_after_timeout(self):
        board = HealthBoard.local(1)
        board.beat(0)
        assert board.stale(0, board.last(0) + 1.0, timeout=0.1)

    def test_never_beaten_slot_is_fresh_until_first_deadline(self):
        # Slots start at "now" conceptually: last() is 0.0, so staleness
        # is measured from the epoch and the supervisor only consults it
        # once a packet is overdue.
        board = HealthBoard.local(1)
        assert board.last(0) == 0.0

    def test_never_beaten_slot_is_never_stale(self):
        # A worker that never started cannot have died: even an
        # arbitrarily late "now" must not flag the untouched slot (the
        # stall path covers workers that never start).
        board = HealthBoard.local(2)
        for now in (0.0, 1.0, 1e9):
            assert not board.stale(0, now, timeout=0.1)

    def test_future_timestamp_is_not_stale(self):
        # Clock skew: a heartbeat stamped *after* the supervisor's "now"
        # (shared-memory boards cross processes; monotonic clocks need
        # not agree to the microsecond) yields a negative age, which must
        # read as fresh, not wrap into a huge staleness.
        board = HealthBoard.local(1)
        board.beat(0)
        assert not board.stale(0, board.last(0) - 5.0, timeout=0.1)


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
    def test_quarantine_creates_breaker(self):
        kernel, state = make_supervised(probe_after_s=10.0)
        worker = state.farm.workers[1]
        kernel._quarantine(state, worker, "crash", seq=0)
        assert worker.index in state.quarantined
        breaker = state.breakers[worker.index]
        assert breaker.probes == 0
        assert breaker.next_probe_at > time.monotonic()
        categories = [r.category for r in kernel.fault_report.records]
        assert "quarantine" in categories

    def test_quarantine_is_idempotent(self):
        kernel, state = make_supervised()
        worker = state.farm.workers[0]
        kernel._quarantine(state, worker, "crash", seq=0)
        breaker = state.breakers[worker.index]
        kernel._quarantine(state, worker, "stall", seq=1)
        assert state.breakers[worker.index] is breaker  # not reset
        quarantines = [r for r in kernel.fault_report.records
                       if r.category == "quarantine"]
        assert len(quarantines) == 1

    def test_probe_duplicates_oldest_inflight_packet(self):
        kernel, state = make_supervised(probe_after_s=0.5)
        worker = state.farm.workers[2]
        kernel._quarantine(state, worker, "crash", seq=0)
        state.breakers[worker.index].next_probe_at = 0.0  # due now
        now = time.monotonic()
        state.inflight[7] = _InFlight(7, "payload", 0, 0, now)
        state.inflight[9] = _InFlight(9, "later", 1, 1, now)
        with state.lock:
            kernel._probe_quarantined(state, now)
        (entry,) = state.pending_sends
        edge, envelope, attempts = entry
        assert edge == worker.dispatch_edge
        assert isinstance(envelope, Packet)
        assert (envelope.seq, envelope.value) == (7, "payload")
        breaker = state.breakers[worker.index]
        assert breaker.probes == 1
        assert breaker.next_probe_at > now
        probes = [r for r in kernel.fault_report.records
                  if r.category == "probe"]
        assert len(probes) == 1 and probes[0].seq == 7

    def test_probe_waits_for_its_deadline(self):
        kernel, state = make_supervised(probe_after_s=1000.0)
        worker = state.farm.workers[0]
        kernel._quarantine(state, worker, "crash", seq=0)
        state.inflight[0] = _InFlight(0, "x", 0, 1, time.monotonic())
        with state.lock:
            kernel._probe_quarantined(state, time.monotonic())
        assert state.pending_sends == []
        assert state.breakers[worker.index].probes == 0

    def test_max_probes_retires_the_worker(self):
        kernel, state = make_supervised(probe_after_s=0.0, max_probes=2)
        worker = state.farm.workers[0]
        kernel._quarantine(state, worker, "crash", seq=0)
        state.inflight[0] = _InFlight(0, "x", 0, 1, time.monotonic())
        breaker = state.breakers[worker.index]
        for _ in range(5):
            breaker.next_probe_at = 0.0
            with state.lock:
                kernel._probe_quarantined(state, time.monotonic())
        assert breaker.probes == 2  # stopped at max_probes
        assert len(state.pending_sends) == 2

    def test_no_probe_without_live_work(self):
        # Probes duplicate real in-flight packets; with nothing in
        # flight (or during teardown) there is nothing safe to send.
        kernel, state = make_supervised(probe_after_s=0.0)
        worker = state.farm.workers[0]
        kernel._quarantine(state, worker, "crash", seq=0)
        state.breakers[worker.index].next_probe_at = 0.0
        with state.lock:
            kernel._probe_quarantined(state, time.monotonic())
        assert state.pending_sends == []

    def test_readmit_clears_quarantine_and_breaker(self):
        kernel, state = make_supervised()
        worker = state.farm.workers[1]
        kernel._quarantine(state, worker, "crash", seq=0)
        kernel._readmit(state, worker)
        assert worker.index not in state.quarantined
        assert worker.index not in state.breakers
        categories = [r.category for r in kernel.fault_report.records]
        assert "readmit" in categories

    def test_readmit_of_healthy_worker_is_a_no_op(self):
        kernel, state = make_supervised()
        kernel._readmit(state, state.farm.workers[0])
        assert kernel.fault_report.records == []


class TestStuckRuleColdStart:
    """The BEAT-fresh/COUNT-flat clock starts at the worker's first
    observed beat, never at dispatch: a worker whose OS process is
    still starting is not stuck."""

    STUCK_AFTER_S = 0.25  # HealthPolicy default

    def stuck_records(self, kernel):
        return [r for r in kernel.fault_report.records
                if r.category == "limping" and r.kind == "stuck"]

    def flag(self, kernel, state, rec, now):
        worker = state.farm.workers[rec.assigned]
        with state.lock:
            kernel._maybe_flag_stuck(state, rec, worker, now)

    def test_worker_that_never_beat_is_not_stuck(self):
        kernel, state = make_supervised(heartbeat_timeout_s=1e6)
        now = time.monotonic()
        rec = _InFlight(0, "payload", 0, 0, now - 100 * self.STUCK_AFTER_S)
        self.flag(kernel, state, rec, now)
        assert self.stuck_records(kernel) == []

    def test_clock_starts_at_first_beat_not_dispatch(self):
        kernel, state = make_supervised(heartbeat_timeout_s=1e6)
        worker = state.farm.workers[0]
        now = time.monotonic()
        # Dispatched long ago; the worker only just came up.
        rec = _InFlight(0, "payload", 0, 0, now - 100 * self.STUCK_AFTER_S)
        kernel._board.beat(worker.slot)
        up_at = kernel._board.last(worker.slot)
        self.flag(kernel, state, rec, up_at + 0.5 * self.STUCK_AFTER_S)
        assert self.stuck_records(kernel) == []
        # Later beats do not move the origin.
        kernel._board.beat(worker.slot)
        self.flag(kernel, state, rec, up_at + 1.5 * self.STUCK_AFTER_S)
        (record,) = self.stuck_records(kernel)
        assert record.target == worker.pid

    def test_warm_worker_is_timed_from_dispatch(self):
        kernel, state = make_supervised(heartbeat_timeout_s=1e6)
        worker = state.farm.workers[1]
        kernel._board.beat(worker.slot)
        sent_at = kernel._board.last(worker.slot) + 10.0
        rec = _InFlight(3, "payload", 1, 1, sent_at)
        self.flag(kernel, state, rec, sent_at + 0.5 * self.STUCK_AFTER_S)
        assert self.stuck_records(kernel) == []
        self.flag(kernel, state, rec, sent_at + 1.5 * self.STUCK_AFTER_S)
        assert len(self.stuck_records(kernel)) == 1


class TestSuspectsGetNoNewWork:
    """A worker that lost a hedge race and has answered nothing since
    is routed around until it clears itself or is convicted: if it is
    dead, packets would pile up unread in its queue and the master's
    blocking send would park the only thread that can convict it."""

    def dispatch(self, kernel, state, worker, value):
        kernel.send_(worker.dispatch_edge, value)
        (rec,) = [r for r in state.inflight.values() if r.value == value]
        return rec

    def queued(self, kernel, worker):
        return kernel._base.channel(worker.dispatch_edge).qsize()

    def test_packet_for_a_suspect_goes_to_a_peer(self):
        kernel, state = make_supervised()
        silent, peer = state.farm.workers[0], state.farm.workers[1]
        state.suspects[silent.index] = _Suspect(
            7, time.monotonic(), 100.0, peer)
        for i in range(8):  # more than its queue would hold
            rec = self.dispatch(kernel, state, silent, f"v{i}")
            assert rec.origin_slot == silent.index  # the master's port
            assert rec.assigned != silent.index
        assert self.queued(kernel, silent) == 0

    def test_answering_clears_the_detour(self):
        kernel, state = make_supervised()
        silent, peer = state.farm.workers[0], state.farm.workers[1]
        state.suspects[silent.index] = _Suspect(
            7, time.monotonic(), 100.0, peer)
        rec = self.dispatch(kernel, state, silent, "rescued")
        kernel._accept(state, Result(rec.seq, "r"), silent)  # it spoke
        assert silent.index not in state.suspects
        rec = self.dispatch(kernel, state, silent, "next")
        assert rec.assigned == silent.index
        assert self.queued(kernel, silent) == 1

    def test_a_lone_suspect_still_gets_the_packet(self):
        kernel, state = make_supervised()
        silent = state.farm.workers[0]
        for other in state.farm.workers[1:]:
            state.quarantined.add(other.index)
        state.suspects[silent.index] = _Suspect(
            7, time.monotonic(), 100.0, silent)
        rec = self.dispatch(kernel, state, silent, "no peer left")
        assert rec.assigned == silent.index


class TestFlushSendsOverflow:
    """Regression: the queue.Full fallback must stay bounded (a packet
    whose target queue never drains is dropped with an ``overflow``
    record instead of being retried forever)."""

    def fill_queue(self, kernel, edge):
        channel = kernel._base.channel(edge)
        while True:
            try:
                channel.put_nowait("filler")
            except Exception:
                return

    def test_packet_dropped_after_bounded_attempts(self):
        kernel, state = make_supervised(max_flush_attempts=3)
        edge = state.farm.workers[0].dispatch_edge
        self.fill_queue(kernel, edge)
        state.pending_sends.append((edge, Packet(5, "v"), 0))
        for scan in range(2):
            kernel._flush_sends(state)
            ((kept_edge, kept, attempts),) = state.pending_sends
            assert (kept_edge, kept.seq, attempts) == (edge, 5, scan + 1)
        kernel._flush_sends(state)  # third full scan: give up
        assert state.pending_sends == []
        (record,) = [r for r in kernel.fault_report.records
                     if r.category == "overflow"]
        assert record.seq == 5
        assert record.attempts == 3
        assert record.target == edge

    def test_stop_tokens_are_never_dropped(self):
        kernel, state = make_supervised(max_flush_attempts=2)
        edge = state.farm.workers[0].dispatch_edge
        self.fill_queue(kernel, edge)
        stop = kernel._base.stop_token
        state.pending_sends.append((edge, stop, 0))
        for _ in range(10):
            kernel._flush_sends(state)
        (entry,) = state.pending_sends
        assert entry[0] == edge and entry[1] is stop

    def test_flush_delivers_once_space_frees(self):
        kernel, state = make_supervised(max_flush_attempts=3)
        edge = state.farm.workers[1].dispatch_edge
        self.fill_queue(kernel, edge)
        state.pending_sends.append((edge, Packet(2, "v"), 0))
        kernel._flush_sends(state)
        assert state.pending_sends  # still waiting
        kernel._base.channel(edge).get_nowait()  # worker drains one
        kernel._flush_sends(state)
        assert state.pending_sends == []
        assert not [r for r in kernel.fault_report.records
                    if r.category == "overflow"]
