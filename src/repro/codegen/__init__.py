"""Code generation: macro-code emission and the executable executive.

Emission is organised as a registry of codegen targets
(:mod:`repro.codegen.targets`): ``python`` (thread executive),
``asyncio`` (coroutine executive), ``macro`` (SynDEx m4 story) and
``standalone`` (self-contained emitted program).  The historical
entry points below remain the stable API for the common case.
"""

from .async_kernel import AsyncioKernel, run_generated_async, run_generated_asyncio
from .kernel import (
    KERNEL_PRIMITIVES, NO_PIECE, Chunk, Kernel, NoPiece, Shutdown, Stop,
)
from .macro import emit_all, emit_macro
from .pygen import generate_python, load_executive, run_generated, thread_name
from .targets import (
    CodegenTarget,
    EmitError,
    TARGETS,
    get_target,
)

__all__ = [
    "KERNEL_PRIMITIVES",
    "Stop",
    "NoPiece",
    "NO_PIECE",
    "Chunk",
    "Shutdown",
    "Kernel",
    "AsyncioKernel",
    "thread_name",
    "emit_macro",
    "emit_all",
    "generate_python",
    "load_executive",
    "run_generated",
    "run_generated_async",
    "run_generated_asyncio",
    "CodegenTarget",
    "EmitError",
    "TARGETS",
    "get_target",
]
