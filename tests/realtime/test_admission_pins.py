"""Pinned admission decisions, row by row, for every overload policy.

Each row offers a fixed number of frames to an
:class:`~repro.realtime.admission.AdmissionCore` whose driver never
gets one into the network, and writes down every frame's fate in frame
order: ``q`` waiting, ``n`` shed-newest, ``o`` shed-oldest, ``d``
degraded; a trailing ``P`` is an offer the core parked, which has no
record.  The stream kernel and the serve tenant both drive this core,
so these rows hold for frames and for requests alike.
"""

import pytest

from repro.realtime import LatencyBudget
from repro.realtime.admission import PARK, AdmissionCore

CODE = {"shed-newest": "n", "shed-oldest": "o", "degraded": "d"}


def fates(records):
    return "".join(CODE[r.reason] if r.status == "shed" else "q"
                   for r in records)


def core_for(policy, depth, max_in_flight=1):
    return AdmissionCore(LatencyBudget(
        deadline_ms=60_000.0, policy=policy, max_in_flight=max_in_flight,
        queue_depth=depth))


#: (policy, queue depth, frames) -> fates.
ROWS = [
    ("shed-newest", 2, 5, "qqnnn"),
    ("shed-oldest", 2, 5, "oooqq"),
    ("block", 2, 4, "qqPP"),
    ("degrade", 1, 12, "oodododododq"),
    ("degrade", 2, 12, "ooodododqdqd"),
]


@pytest.mark.parametrize("policy,depth,frames,expected", ROWS)
def test_fates_into_a_network_that_never_accepts(
        policy, depth, frames, expected):
    core = core_for(policy, depth)
    parked = sum(core.offer(float(k)) == [PARK] for k in range(frames))
    assert fates(core.ledger.frames) + "P" * parked == expected


def test_degraded_exit():
    """Degraded after each of three offers (depth 2, two in flight at
    most), after both buffered frames are released, after one is
    delivered."""
    core = core_for("degrade", 2, max_in_flight=2)
    seen = ""
    for k in range(3):
        core.offer(float(k))
        seen += "T" if core.degraded else "F"
    core.released(1, 10.0)
    core.released(2, 10.0)
    seen += "T" if core.degraded else "F"
    core.delivered(1, 20.0)
    seen += "T" if core.degraded else "F"
    assert seen == "FFTTF"
