"""One mapped processor, one core: worker processes pin themselves.

The helper's arithmetic is checked against a faked affinity mask (the
host running the tests may have any number of CPUs); the end-to-end leg
asks the workers of a real ``processes`` run where they ended up.
"""

import os

import pytest

from repro.backends import base, get_backend
from repro.backends.base import pin_to_cpu
from repro.core import FunctionTable, ProgramBuilder
from repro.machine import FAST_TEST
from repro.pnt import expand_program
from repro.syndex import distribute, ring

needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"),
    reason="platform without sched_setaffinity",
)


@pytest.fixture
def fake_mask(monkeypatch):
    """Replace the affinity syscalls; returns the list of masks set."""
    calls = []

    def install(cpus):
        monkeypatch.setattr(
            base.os, "sched_getaffinity", lambda pid: set(cpus),
            raising=False)
        monkeypatch.setattr(
            base.os, "sched_setaffinity",
            lambda pid, mask: calls.append((pid, set(mask))),
            raising=False)
        return calls

    return install


class TestPinToCpu:
    def test_mask_is_respected(self, fake_mask):
        calls = fake_mask({3, 5, 9})  # taskset / cgroup leftovers
        assert [pin_to_cpu(i) for i in range(3)] == [3, 5, 9]
        assert calls == [(0, {3}), (0, {5}), (0, {9})]

    def test_more_processors_than_cpus_wraps(self, fake_mask):
        fake_mask({0, 1})
        assert [pin_to_cpu(i) for i in range(5)] == [0, 1, 0, 1, 0]

    def test_one_cpu_mask_is_a_no_op(self, fake_mask):
        calls = fake_mask({4})
        assert pin_to_cpu(0) is None
        assert pin_to_cpu(7) is None
        assert calls == []

    def test_platform_without_sched_setaffinity(self, monkeypatch):
        monkeypatch.delattr(base.os, "sched_setaffinity", raising=False)
        assert pin_to_cpu(0) is None


def where_am_i(_x):
    return sorted(os.sched_getaffinity(0))


def gather(acc, cpus):
    return acc + [cpus]


@needs_affinity
class TestWorkersPinThemselves:
    def run_farm(self, arch_size=4, **options):
        table = FunctionTable()
        table.register("where", ins=["int"], outs=["int list"])(where_am_i)
        table.register(
            "gather", ins=["int list list", "int list"],
            outs=["int list list"],
        )(gather)
        b = ProgramBuilder("affinity", table)
        (xs,) = b.params("xs")
        r = b.df(4, comp="where", acc="gather", z=b.const([]), xs=xs)
        prog = b.returns(r)
        mapping = distribute(expand_program(prog, table), ring(arch_size))
        report = get_backend("processes").run(
            mapping, table, program=prog, costs=FAST_TEST,
            args=(list(range(16)),), timeout=60.0, **options,
        )
        return report.one_shot_results[0]

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_each_worker_runs_on_one_cpu_of_the_inherited_mask(self, method):
        allowed = os.sched_getaffinity(0)
        seen = self.run_farm(start_method=method)
        assert len(seen) == 16
        for cpus in seen:
            if len(allowed) == 1:
                assert cpus == sorted(allowed)  # nothing to choose
            else:
                assert len(cpus) == 1 and cpus[0] in allowed
        if len(allowed) > 1:
            # Four processors over the mask: more than one core in use.
            assert len({cpus[0] for cpus in seen}) > 1

    def test_the_parent_is_left_unpinned(self):
        before = os.sched_getaffinity(0)
        self.run_farm()
        assert os.sched_getaffinity(0) == before

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="needs two CPUs to restrict the mask")
    def test_a_restricted_mask_is_respected(self):
        before = os.sched_getaffinity(0)
        only = min(before)
        os.sched_setaffinity(0, {only})
        try:
            seen = self.run_farm()
        finally:
            os.sched_setaffinity(0, before)
        assert all(cpus == [only] for cpus in seen)
