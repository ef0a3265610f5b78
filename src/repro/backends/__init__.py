"""Pluggable execution backends: one process-graph IR, many targets.

The seven built-in targets mirror the paper's Fig. 2 branches and
extend them to real hardware:

* ``emulate``    — sequential emulation of the program IR (the oracle);
* ``simulate``   — discrete-event simulation on the modelled machine;
* ``threads``    — generated executive on Python threads (GIL-bound);
* ``asyncio``    — generated coroutine executive on one event loop
  (cheap massive concurrency for I/O-bound graphs);
* ``processes``  — generated executive on pinned OS processes (true parallelism);
* ``tcp``        — generated executive on a TCP worker cluster
  (the paper's network-of-workstations target);
* ``standalone`` — emitted self-contained program (``repro emit``) run
  in a clean subprocess with no repro import.

Use :data:`BACKENDS` (or :func:`get_backend`) to resolve targets at run
time, or go through :func:`repro.pipeline.run` / the ``repro run`` CLI.
"""

from .base import (
    BACKENDS,
    Backend,
    BackendError,
    get_backend,
    report_from_blackboard,
)

# Importing the modules registers the built-in backends.
from .emulate_backend import EmulateBackend
from .simulate_backend import SimulateBackend
from .thread_backend import ThreadBackend
from .asyncio_backend import AsyncioBackend
from .process_backend import ProcessBackend, default_start_method, run_multiprocess
from .standalone_backend import StandaloneBackend, run_emitted

# A plain ``import`` (not ``from ... import``) registers the tcp backend
# without requiring the class name to exist yet: when the import cycle
# starts from ``repro.net`` itself, this module is reached while
# ``repro.net.coordinator`` is still half-executed, and the statement is
# then a sys.modules no-op — registration completes when the outer
# import does.  Resolve the class via ``get_backend("tcp")``.
import repro.net.coordinator  # noqa: E402,F401

__all__ = [
    "Backend",
    "BackendError",
    "BACKENDS",
    "get_backend",
    "report_from_blackboard",
    "EmulateBackend",
    "SimulateBackend",
    "ThreadBackend",
    "AsyncioBackend",
    "ProcessBackend",
    "StandaloneBackend",
    "run_emitted",
    "run_multiprocess",
    "default_start_method",
]
