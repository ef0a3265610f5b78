"""Real-time robustness layer: deadlines, backpressure, degraded mode.

SKiPPER's target applications process live video under a per-frame
latency bound; this package makes that bound a runtime contract instead
of a post-hoc measurement:

* :class:`~repro.realtime.budget.LatencyBudget` — the per-frame
  deadline, the bounded in-flight window, and the overload policy
  (``block`` / ``shed-newest`` / ``shed-oldest`` / ``degrade``);
* :class:`~repro.realtime.admission.AdmissionCore` — the clock-free
  admission decisions, which
  :class:`~repro.backends.policy_kernel.PolicyKernel` drives behind the
  kernel primitives (admission, pacing, an in-flight deadline watchdog);
* :class:`~repro.realtime.board.StreamBoard` — the released/delivered
  counters and doorbell the admission and delivery sides share;
* :class:`~repro.realtime.ledger.FrameLedger` — the frame-conservation
  ledger (delivered + shed + failed == submitted) the chaos soak
  asserts;
* :mod:`~repro.realtime.soak` — the ``repro soak`` harness driving
  hundreds of frames of mixed crash+overload chaos.
"""

from .budget import OVERLOAD_POLICIES, LatencyBudget
from .board import StreamBoard
from .ledger import (
    FrameLedger,
    FrameRecord,
    RealtimeRecord,
    RealtimeReport,
    assemble_report,
)
from .topology import StreamTopology

__all__ = [
    "OVERLOAD_POLICIES",
    "LatencyBudget",
    "StreamBoard",
    "FrameLedger",
    "FrameRecord",
    "RealtimeRecord",
    "RealtimeReport",
    "assemble_report",
    "StreamTopology",
]
