"""Satellite chaos test: SIGKILL a worker mid-ring-write.

An OS-level ``SIGKILL`` is the harshest producer death there is — no
cleanup, no flush, possibly *between the seqlock stamps* of a
half-written slot.  The publish-last protocol makes that slot invisible
(the tail store never happened), so the claims under test are:

1. the ``SupervisedKernel`` quarantines the killed worker on heartbeat
   staleness and the master re-dispatches its outstanding packets;
2. no survivor ever reads a torn slot (a ``TornRead`` anywhere would
   fail the run loudly);
3. the outputs still match the fault-free sequential emulation.
"""

import os
import signal
import threading
import time

import multiprocessing

import pytest

from repro.backends import get_backend
from repro.core import FunctionTable, ProgramBuilder
from repro.faults import FaultPlan, FaultPolicy
from repro.machine import FAST_TEST
from repro.pnt import ProcessKind, expand_program
from repro.syndex import distribute, ring

#: Fast detection (mirrors tests/faults): a SIGKILLed worker only looks
#: dead once its heartbeat goes stale.
POLICY = FaultPolicy(
    packet_timeout_s=0.3,
    heartbeat_timeout_s=0.15,
)


# -- module-level sequential functions (spawn-picklable) ----------------------

def slow_square(x):
    # Slow enough that the farm is mid-flight when the killer strikes,
    # fast enough that 12 items re-run on survivors in well under the
    # backend timeout.
    time.sleep(0.05)
    return x * x


def add(a, b):
    return a + b


def make_slow_df():
    table = FunctionTable()
    table.register("slow_square", ins=["int"], outs=["int"], cost=50.0)(
        slow_square
    )
    table.register(
        "add", ins=["int", "int"], outs=["int"], cost=10.0,
        properties=["commutative", "associative"],
    )(add)
    b = ProgramBuilder("chaos_df", table)
    (xs,) = b.params("xs")
    r = b.df(3, comp="slow_square", acc="add", z=b.const(0), xs=xs)
    return b.returns(r), table, (list(range(12)),)


def expendable_processor(mapping):
    """A processor hosting only farm workers (no sinks, no master)."""
    graph = mapping.graph
    sink_procs = {
        mapping.processor_of(p.id)
        for p in graph.processes.values()
        if p.kind == ProcessKind.MEM
        or (p.kind == ProcessKind.OUTPUT and not p.params.get("discard"))
    }
    for p in sorted(graph.processes.values(), key=lambda p: p.id):
        if p.kind == ProcessKind.WORKER:
            proc = mapping.processor_of(p.id)
            if proc not in sink_procs:
                return proc
    raise AssertionError("no expendable worker processor in this mapping")


def sigkill_worker(processor, killed, delay_s=0.15):
    """Wait for the worker process of ``processor``, then SIGKILL it."""
    name = f"repro-{processor}"
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline:
        for child in multiprocessing.active_children():
            if child.name == name and child.pid is not None:
                time.sleep(delay_s)  # let it get mid-flight
                try:
                    os.kill(child.pid, signal.SIGKILL)
                except ProcessLookupError:  # pragma: no cover
                    return
                killed.append(child.pid)
                return
        time.sleep(0.005)


class TestSigkillMidRingWrite:
    @pytest.mark.parametrize("transport", ["ring", "queue"])
    def test_farm_survives_a_sigkilled_worker(self, transport):
        prog, table, args = make_slow_df()
        mapping = distribute(expand_program(prog, table), ring(4))
        victim = expendable_processor(mapping)
        reference = get_backend("emulate").run(
            None, table, program=prog, costs=FAST_TEST, args=args,
        )

        killed: list = []
        killer = threading.Thread(
            target=sigkill_worker, args=(victim, killed), daemon=True,
        )
        killer.start()
        report = get_backend("processes").run(
            mapping, table, program=prog, costs=FAST_TEST, args=args,
            timeout=60.0, transport=transport,
            # Supervision with no injected plan: the "fault" is real.
            fault_plan=FaultPlan([]), fault_policy=POLICY,
        )
        killer.join(timeout=25.0)

        assert killed, "the killer thread never found the worker process"
        # (3) equivalence: a torn read or lost packet would break this.
        assert report.one_shot_results == reference.one_shot_results
        # (1) the supervisor saw the death and re-dispatched.
        assert report.faults is not None
        assert report.faults.redispatches >= 1
        assert report.faults.quarantined, report.faults.story()

    def test_sigkill_without_supervision_is_loud(self):
        """No supervisor, no tolerance: the run must fail, not hang."""
        from repro.backends import BackendError

        prog, table, args = make_slow_df()
        mapping = distribute(expand_program(prog, table), ring(4))
        victim = expendable_processor(mapping)
        killed: list = []
        killer = threading.Thread(
            target=sigkill_worker, args=(victim, killed), daemon=True,
        )
        killer.start()
        with pytest.raises(BackendError, match="died with exit code"):
            get_backend("processes").run(
                mapping, table, program=prog, costs=FAST_TEST, args=args,
                timeout=30.0, transport="ring",
            )
        killer.join(timeout=25.0)
