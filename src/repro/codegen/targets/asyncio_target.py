"""The ``asyncio`` codegen target: coroutine executive, one event loop.

Same skeleton bodies as the ``python`` dialect — the generator only
turns every process body into ``async def`` and awaits each blocking
primitive (``send_``/``recv_``/``call_``/``alt_``/``stop_``), which is
the entire port surface the paper promises.  The emitted module runs on
:class:`~repro.codegen.async_kernel.AsyncioKernel` via the ``asyncio``
execution backend; because a spawned process is a Task rather than an
OS thread, thousands of concurrent stream executives fit in one
process for I/O-bound graphs.
"""

from __future__ import annotations

from typing import Optional

from ...syndex.distribute import Mapping
from .python_target import ExecutiveGenerator
from .registry import TARGETS, CodegenTarget

__all__ = ["AsyncioGenerator", "AsyncioTarget"]


class AsyncioGenerator(ExecutiveGenerator):
    """The coroutine dialect of the executive generator."""

    AWAIT = "await "
    DEF = "async def"
    UNITS = "tasks"
    UNIT_NOUN = "coroutine task"
    PROVENANCE = "repro.codegen.targets.asyncio"


@TARGETS.register
class AsyncioTarget(CodegenTarget):
    name = "asyncio"
    description = "coroutine executive on one event loop (asyncio backend)"
    backend = "asyncio"
    generator_class = AsyncioGenerator

    def generate(
        self, mapping: Mapping, *, max_iterations: Optional[int] = None
    ) -> str:
        return self.generator_class(mapping, max_iterations).generate()
