"""The lock-free shared-memory stop flag.

The whole point of :class:`repro.shm.flag.StopFlag` is surviving what
kills a ``multiprocessing.Event``: a process dying (even SIGKILLed)
at any instruction never blocks anyone else, because there is no lock.
The chaos suite proves the integrated claim; these are the unit facts.
"""

import multiprocessing
import os
import pickle
import signal
import threading
import time

import pytest

from repro.shm import StopFlag

START_METHODS = [
    m for m in ("fork", "spawn")
    if m in multiprocessing.get_all_start_methods()
]


def _set_and_exit(flag):
    flag.set()


def _spin_until_set(flag):
    while not flag.is_set():
        time.sleep(0.001)


class TestLocal:
    def test_starts_clear(self):
        flag = StopFlag()
        try:
            assert not flag.is_set()
        finally:
            flag.unlink()

    def test_set_is_sticky(self):
        flag = StopFlag()
        try:
            flag.set()
            assert flag.is_set()
            flag.set()  # idempotent
            assert flag.is_set()
        finally:
            flag.unlink()

    def test_wait_timeout_and_success(self):
        flag = StopFlag()
        try:
            assert flag.wait(timeout=0.01) is False
            flag.set()
            assert flag.wait(timeout=0.01) is True
            assert flag.wait() is True  # already set: returns at once
        finally:
            flag.unlink()

    def test_pickle_round_trip_attaches_same_byte(self):
        flag = StopFlag()
        try:
            clone = pickle.loads(pickle.dumps(flag))
            assert not clone.is_set()
            flag.set()
            assert clone.is_set()
        finally:
            flag.unlink()

    def test_unlink_is_idempotent_and_vanished_reads_as_set(self):
        flag = StopFlag()
        clone = pickle.loads(pickle.dumps(flag))
        flag.unlink()
        flag.unlink()
        # A vanished flag means the run is over: late pollers stop.
        assert clone.is_set()
        clone.set()  # and a late set() stays silent


class TestAcrossProcesses:
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_child_set_is_seen_by_parent(self, start_method):
        ctx = multiprocessing.get_context(start_method)
        flag = StopFlag()
        try:
            child = ctx.Process(target=_set_and_exit, args=(flag,))
            child.start()
            child.join(30.0)
            assert child.exitcode == 0
            assert flag.is_set()
        finally:
            flag.unlink()

    def test_parent_set_releases_spinning_child(self):
        ctx = multiprocessing.get_context()
        flag = StopFlag()
        try:
            child = ctx.Process(target=_spin_until_set, args=(flag,))
            child.start()
            time.sleep(0.05)
            flag.set()
            child.join(30.0)
            assert child.exitcode == 0
        finally:
            flag.unlink()

    def test_sigkilled_reader_never_wedges_set(self):
        """The scenario that deadlocks multiprocessing.Event."""
        ctx = multiprocessing.get_context()
        flag = StopFlag()
        try:
            child = ctx.Process(target=_spin_until_set, args=(flag,))
            child.start()
            time.sleep(0.05)  # child is mid-is_set() polling
            os.kill(child.pid, signal.SIGKILL)
            child.join(10.0)
            start = time.monotonic()
            flag.set()  # must not block on anything the child held
            assert time.monotonic() - start < 1.0
            assert flag.is_set()
        finally:
            flag.unlink()


def _hammer_from_many_threads(flag, n_threads, results):
    """Child body: ``n_threads`` threads reach the unattached flag at
    once (a worker's executive threads after fork/unpickle), then poll
    it like kernel primitives do.  Posts the exceptions they died of."""
    import sys
    import threading

    errors = []
    barrier = threading.Barrier(n_threads)

    def poll():
        try:
            barrier.wait(10.0)
            for _ in range(300):
                flag.is_set()
        except BaseException as err:  # noqa: BLE001 - reported to the parent
            errors.append(repr(err))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=poll) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    results.put(errors)


class TestManyThreadsOneFlag:
    """Regression: lazy attach was unguarded; two threads attached at
    once, the loser's mapping was collected under a third thread's
    buffer and that thread died on a released memoryview (~1 % of
    ``processes`` runs hung at start-up)."""

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_concurrent_first_use_never_loses_a_mapping(self, start_method):
        ctx = multiprocessing.get_context(start_method)
        flag = StopFlag()
        results = ctx.Queue()
        try:
            for _ in range(5):
                child = ctx.Process(
                    target=_hammer_from_many_threads,
                    args=(flag, 16, results),
                )
                child.start()
                errors = results.get(timeout=60.0)
                child.join(30.0)
                assert child.exitcode == 0
                assert errors == []
            assert not flag.is_set()
        finally:
            flag.unlink()

    def test_every_thread_of_a_process_shares_one_mapping(self):
        flag = StopFlag()
        try:
            clone = pickle.loads(pickle.dumps(flag))
            views = []
            barrier = threading.Barrier(8)

            def first_use():
                barrier.wait(10.0)
                views.append(clone._buf())

            threads = [threading.Thread(target=first_use) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10.0)
            assert len(views) == 8
            assert all(view is views[0] for view in views)
        finally:
            flag.unlink()


#: Liveness bound of the waits below: a latch that never trips fails
#: the test instead of hanging it.
WAIT = 30.0


def _wait_then_report(flag, started, results):
    started.put(os.getpid())
    results.put(flag.wait(WAIT))


def _count_getpid_calls(flag, results):
    """Child body: how often ``is_set`` asks for the pid, after its
    first call in this process."""
    real, calls = os.getpid, []

    def counting():
        calls.append(1)
        return real()

    flag.is_set()
    os.getpid = counting
    try:
        for _ in range(100):
            flag.is_set()
    finally:
        os.getpid = real
    results.put(len(calls))


class TestLatch:
    """``wait()`` blocks on a FIFO beside the segment: level-triggered,
    crossing processes by name, with no lock a dead waiter could hold."""

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_a_set_in_a_child_wakes_the_waiting_parent(self, start_method):
        ctx = multiprocessing.get_context(start_method)
        flag = StopFlag()
        try:
            child = ctx.Process(target=_set_and_exit, args=(flag,))
            child.start()
            assert flag.wait(WAIT) is True
            child.join(WAIT)
            assert child.exitcode == 0
        finally:
            flag.unlink()

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_a_killed_waiter_poisons_nothing(self, start_method):
        ctx = multiprocessing.get_context(start_method)
        flag = StopFlag()
        started, results = ctx.Queue(), ctx.Queue()
        try:
            waiters = [
                ctx.Process(target=_wait_then_report,
                            args=(flag, started, results))
                for _ in range(3)
            ]
            for waiter in waiters:
                waiter.start()
            pids = [started.get(timeout=WAIT) for _ in waiters]
            os.kill(pids[0], signal.SIGKILL)        # mid-wait, most likely
            flag.set()
            assert [results.get(timeout=WAIT) for _ in range(2)] == [
                True, True]
            for waiter in waiters:
                waiter.join(WAIT)
            assert sorted(w.exitcode for w in waiters) == [
                -signal.SIGKILL, 0, 0]
            # Level-triggered: still tripped for whoever looks next.
            assert flag.wait(0) is True
            assert pickle.loads(pickle.dumps(flag)).wait(0) is True
        finally:
            flag.unlink()

    def test_a_plain_pickle_clone_waits_on_the_same_latch(self):
        flag = StopFlag()
        try:
            clone = pickle.loads(pickle.dumps(flag))
            woke = []
            waiter = threading.Thread(
                target=lambda: woke.append(clone.wait(WAIT)))
            waiter.start()
            assert clone.wait(0) is False
            flag.set()
            waiter.join(WAIT)
            assert woke == [True]
            assert clone.fileno() != flag.fileno()
        finally:
            clone.close()
            flag.unlink()

    def test_unlink_removes_the_latch_and_is_idempotent(self):
        flag = StopFlag()
        latch = flag._latch_path
        assert os.path.exists(latch)
        before = len(os.listdir("/proc/self/fd"))
        flag.unlink()
        assert not os.path.exists(latch)
        assert len(os.listdir("/proc/self/fd")) < before
        flag.unlink()
        assert flag.wait(0) is True     # vanished: the run is over

    def test_a_waiter_on_a_vanishing_flag_returns(self):
        flag = StopFlag()
        clone = pickle.loads(pickle.dumps(flag))
        woke = []
        waiter = threading.Thread(
            target=lambda: woke.append(clone.wait(WAIT)))
        try:
            clone.fileno()              # attached, as a worker would be
            waiter.start()
            flag.unlink()               # nobody ever called set()
            waiter.join(WAIT)
            assert woke == [True]
        finally:
            clone.close()

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_is_set_asks_for_no_pid_after_its_first_call(self, start_method):
        ctx = multiprocessing.get_context(start_method)
        flag = StopFlag()
        results = ctx.Queue()
        try:
            child = ctx.Process(target=_count_getpid_calls,
                                args=(flag, results))
            child.start()
            assert results.get(timeout=WAIT) == 0
            child.join(WAIT)
            assert child.exitcode == 0
            assert not flag.is_set()
        finally:
            flag.unlink()
