"""The ``macro`` codegen target: portable m4-style macro-code.

SynDEx's native output — "processor-independent programs (m4
macro-code, one per processor)" — rendered by
:mod:`repro.codegen.macro`.  The text is target-neutral documentation
of the executive, not a runnable module, so the target registers with
``runnable = False``; :meth:`emit` writes one ``<processor>.m4`` per
non-idle processor.
"""

from __future__ import annotations

from typing import List, Optional

from ...syndex.distribute import Mapping
from ..macro import emit_all, emit_macro
from .registry import TARGETS, CodegenTarget, write_emitted_set

__all__ = ["MacroTarget"]


@TARGETS.register
class MacroTarget(CodegenTarget):
    name = "macro"
    description = "m4-style macro-code, one program per processor (Fig. 2)"
    runnable = False

    def generate(
        self, mapping: Mapping, *, max_iterations: Optional[int] = None
    ) -> str:
        """All per-processor macro programs, concatenated with headers."""
        chunks = []
        for proc, text in emit_all(mapping).items():
            chunks.append(f"# ================ {proc} ================")
            chunks.append(text)
        return "\n".join(chunks)

    def emit(
        self,
        mapping: Mapping,
        table,
        out_dir: str,
        *,
        max_iterations: Optional[int] = None,
    ) -> List[str]:
        files = {
            f"{proc}.m4": emit_macro(mapping, proc)
            for proc in mapping.arch.processor_ids()
            if mapping.processes_on(proc)
        }
        return write_emitted_set(
            self, mapping, table, out_dir, files, max_iterations
        )
