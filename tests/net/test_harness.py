"""ClusterHarness pool behaviour: fail-fast checkout, safe teardown.

A service parks requests behind :meth:`ClusterHarness.checkout`, so the
pool must never block a caller forever (a dead cluster raises) and
shutdown must be safe to call from any number of racing threads.
"""

import os
import threading
import time

import pytest

from repro.backends import BackendError
from repro.net import ClusterHarness
from repro.net.harness import _shutdown_shared, shared_cluster


class TestCheckoutFailFast:
    def test_checkout_after_shutdown_raises_immediately(self):
        harness = ClusterHarness(size=1)
        harness.shutdown()
        t0 = time.monotonic()
        with pytest.raises(BackendError, match="shut down"):
            harness.checkout(1, timeout=30.0)
        assert time.monotonic() - t0 < 1.0, (
            "a shut-down cluster must refuse instantly, not wait out "
            "the timeout"
        )

    def test_checkout_timeout_on_empty_external_pool(self):
        """spawn=False and nobody dials in: the timeout is the bound."""
        with ClusterHarness(size=2, spawn=False) as harness:
            t0 = time.monotonic()
            with pytest.raises(BackendError, match="worker"):
                harness.checkout(1, timeout=0.5)
            elapsed = time.monotonic() - t0
            assert 0.4 <= elapsed < 5.0

    def test_checkout_hopeless_cluster_raises_before_timeout(self):
        """Every subprocess dead + respawn budget exhausted: the
        checkout must fail as soon as the deaths are observed, not
        after the full timeout."""
        harness = ClusterHarness(size=1, respawn_limit=0)
        try:
            links = harness.checkout(1, timeout=30.0)
            harness.release(links)
            for proc in list(harness._procs):
                proc.kill()
                proc.wait(timeout=5.0)
            t0 = time.monotonic()
            with pytest.raises(BackendError, match="respawn budget"):
                harness.checkout(1, timeout=60.0)
            assert time.monotonic() - t0 < 15.0, (
                "a provably dead cluster must not sit out the timeout"
            )
        finally:
            harness.shutdown()

    def test_checkout_release_cycle(self):
        with ClusterHarness(size=2) as harness:
            links = harness.checkout(2, timeout=30.0)
            assert len(links) == 2
            harness.release(links)
            again = harness.checkout(1, timeout=30.0)
            assert len(again) == 1
            harness.release(again)


class TestShutdownSafety:
    def test_shutdown_idempotent(self):
        harness = ClusterHarness(size=1)
        harness.shutdown()
        harness.shutdown()  # second call is a no-op, not an error
        assert not harness.alive

    def test_shutdown_concurrent_callers(self):
        harness = ClusterHarness(size=2)
        harness.checkout(2, timeout=30.0)  # teardown with links out
        errors = []
        barrier = threading.Barrier(8)

        def race():
            try:
                barrier.wait(10.0)
                harness.shutdown()
            except Exception as err:  # pragma: no cover
                errors.append(err)

        threads = [threading.Thread(target=race) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not errors
        assert not any(t.is_alive() for t in threads), (
            "every racing shutdown caller must return"
        )
        assert not harness.alive

    def test_shared_cluster_shutdown_idempotent_and_replaceable(self):
        first = shared_cluster(size=2)
        assert first.alive
        threads = [threading.Thread(target=_shutdown_shared)
                   for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not first.alive
        second = shared_cluster(size=2)
        try:
            assert second is not first
            assert second.alive
        finally:
            _shutdown_shared()


class TestNoWorkerLeak:
    def test_repeated_checkout_release_leaks_no_workers(self):
        """Checkout/release churn from many threads must neither grow
        the subprocess set nor strand links outside the pool."""
        with ClusterHarness(size=2) as harness:
            harness.checkout(2, timeout=30.0)  # wait for both to dial in
            harness.release(harness._out[:])
            baseline = {proc.pid for proc in harness._procs}
            errors = []

            def churn():
                try:
                    for _ in range(10):
                        links = harness.checkout(1, timeout=30.0)
                        time.sleep(0.005)
                        harness.release(links)
                except BackendError as err:  # pragma: no cover
                    errors.append(err)

            threads = [threading.Thread(target=churn) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
            assert not errors
            with harness._cond:
                assert len(harness._idle) == 2, (
                    "all links must be back in the pool"
                )
                assert not harness._out
                pids = {proc.pid for proc in harness._procs}
            assert pids == baseline, (
                f"churn respawned workers: {baseline} -> {pids}"
            )


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="platform without sched_setaffinity")
class TestSpawnedWorkersPinThemselves:
    def test_each_local_worker_takes_one_cpu_of_the_mask(self):
        allowed = os.sched_getaffinity(0)
        with ClusterHarness(size=3) as harness:
            links = harness.checkout(3, timeout=30.0)  # all dialled in
            harness.release(links)
            masks = [os.sched_getaffinity(proc.pid)
                     for proc in harness._procs]
        if len(allowed) == 1:
            assert masks == [allowed] * 3
            return
        cpus = sorted(allowed)
        # Spawn ordinal i -> cpus[i % len(cpus)]: the processes
        # backend's rule, wrapping when workers outnumber CPUs.
        assert masks == [{cpus[i % len(cpus)]} for i in range(3)]


class TestScaleTo:
    def test_scale_to_grows_a_live_pool(self):
        harness = ClusterHarness(size=2, spawn=False)
        try:
            assert harness.scale_to(4) == 4
            assert harness.scale_to(3) == 4  # up-only: shrink is a no-op
            assert harness.size == 4
        finally:
            harness.shutdown()
