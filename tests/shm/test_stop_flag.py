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
