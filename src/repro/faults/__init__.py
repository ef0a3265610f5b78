"""Fault injection and supervised fault-tolerant execution.

This package gives the reproduction a failure story, in two halves:

* **Injection** — :class:`FaultPlan` describes deterministic, seeded
  crash/stall/delay/drop events.  One clock-free injector
  (:mod:`repro.faults.inject`) decides them for the discrete-event
  simulator (virtual time) and the threads/processes backends (real
  injected failures) alike, so a chaos scenario replays everywhere.

* **Supervision** — one clock-free policy core per farm,
  :class:`~repro.faults.farm.FarmSupervisor`, decides re-dispatch,
  quarantine, demotion, hedging, migration and probing from events and
  the instants they carry.  Two drivers feed it:
  :class:`~repro.backends.policy_kernel.PolicyKernel` wraps the kernel
  primitives (the paper's "only platform-dependent part") with
  per-packet sequence envelopes and heartbeats and passes wall-clock
  readings; the simulator passes virtual time.  So ``df``/``tf``/``scm``
  farms survive worker loss the same way everywhere.  Everything
  observed lands in a :class:`FaultReport` attached to the
  :class:`~repro.machine.executive.RunReport`.

The generated executive code never changes: supervision lives entirely
behind the kernel-primitive interface.
"""

from .plan import FAULT_KINDS, FaultPlan, FaultSpec, PlanError, PlanMatcher
from .policy import FaultPolicy
from .report import FaultRecord, FaultReport
from .topology import Farm, FarmWorker, FaultTopology

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "PlanError",
    "PlanMatcher",
    "FaultPolicy",
    "FaultRecord",
    "FaultReport",
    "Farm",
    "FarmWorker",
    "FaultTopology",
]
