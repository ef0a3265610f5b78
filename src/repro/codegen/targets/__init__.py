"""Pluggable codegen targets: every substrate is one registry entry.

The paper's portability claim — the kernel primitives are "the only
platform-dependent part of the programming environment" — made concrete
the way dace does it: emission is a registry of targets, and adding a
substrate means registering one :class:`CodegenTarget` (plus a kernel
implementing ``KERNEL_PRIMITIVES``) rather than forking ``pygen.py``.

Built-in targets:

``python``
    The reference thread executive (``threads``/``processes``/``tcp``
    backends run it).
``asyncio``
    The same skeleton bodies as coroutines on one event loop; runs on
    the ``asyncio`` execution backend.
``macro``
    SynDEx-style m4 macro-code, one program per processor (Fig. 2 of
    the paper); documentation, not runnable.
``standalone``
    A self-contained emitted program (``repro emit``): executive +
    inlined kernel primitives + inlined function table, no ``repro``
    import at runtime.
"""

from .registry import (
    MANIFEST_NAME,
    CodegenTarget,
    TARGETS,
    EmitError,
    build_manifest,
    get_target,
    write_emitted_file,
    write_emitted_set,
)

# Importing a target module registers it (the dace one-import-per-target
# idiom): each module ends in a @TARGETS.register class.
from . import python_target   # noqa: E402,F401  (registers "python")
from . import asyncio_target  # noqa: E402,F401  (registers "asyncio")
from . import macro_target    # noqa: E402,F401  (registers "macro")
from . import standalone_target  # noqa: E402,F401  (registers "standalone")

from .asyncio_target import AsyncioGenerator, AsyncioTarget
from .macro_target import MacroTarget
from .python_target import ExecutiveGenerator, PythonTarget, thread_name
from .standalone_target import StandaloneTarget, render_blackboard

__all__ = [
    "CodegenTarget",
    "EmitError",
    "MANIFEST_NAME",
    "TARGETS",
    "get_target",
    "build_manifest",
    "write_emitted_file",
    "write_emitted_set",
    "ExecutiveGenerator",
    "AsyncioGenerator",
    "PythonTarget",
    "AsyncioTarget",
    "MacroTarget",
    "StandaloneTarget",
    "thread_name",
    "render_blackboard",
]
