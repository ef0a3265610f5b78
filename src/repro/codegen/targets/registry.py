"""Codegen-target registry: one mapped process graph, many emissions.

SynDEx emits "processor-independent programs (m4 macro-code, one per
processor) which are finally transformed into compilable code by simply
inlining a set of kernel primitives" — porting the environment means
reimplementing exactly that primitive set (§3).  This registry is the
seam where the claim is cashed, in the DaCe idiom of one registered
code generator per substrate: a :class:`CodegenTarget` owns the
transformation of a :class:`~repro.syndex.distribute.Mapping` into an
executive for one substrate, written purely against
:data:`~repro.codegen.kernel.KERNEL_PRIMITIVES`.

Targets register in the same :class:`~repro.core.registry.Registry` as
execution backends do — a codegen target is the *emission* half of what
an execution backend *runs*, and several targets (``python`` →
``threads``/``processes``, ``asyncio`` → ``asyncio``) name the backend
their executives are built for.  The ``standalone`` target goes one
step further and emits a directory that runs with no ``repro`` import
at all.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional

from ...core.registry import Registry
from ...syndex.distribute import Mapping

__all__ = [
    "CodegenTarget",
    "EmitError",
    "TARGETS",
    "get_target",
    "build_manifest",
    "write_emitted_file",
    "MANIFEST_NAME",
]

MANIFEST_NAME = "MANIFEST.json"


class EmitError(RuntimeError):
    """A target could not emit the mapped program."""


class CodegenTarget:
    """One code-generation target for mapped skeletal programs.

    Class attributes:
        name: registry key (``python``, ``asyncio``, ``standalone``,
            ``macro``).
        description: one-line summary of the emission.
        runnable: True when :meth:`generate` produces a module that
            :func:`~repro.codegen.pygen.load_executive` can load and a
            kernel can run; False for documentation-only emissions
            (the m4 macro-code).
        standalone: True when :meth:`emit` writes a program that runs
            without the ``repro`` package installed.
        backend: the execution-backend name this target's executives
            are built for (None when no registered backend runs them).
    """

    name: str = "?"
    description: str = ""
    runnable: bool = True
    standalone: bool = False
    backend: Optional[str] = None

    def generate(
        self, mapping: Mapping, *, max_iterations: Optional[int] = None
    ) -> str:
        """The executive source text for a mapped program."""
        raise NotImplementedError

    def emit(
        self,
        mapping: Mapping,
        table,
        out_dir: str,
        *,
        max_iterations: Optional[int] = None,
    ) -> List[str]:
        """Write the emitted artefact set under ``out_dir``.

        Returns the relative paths written (manifest last).  The default
        writes the generated source as ``executive.py`` plus a
        :data:`MANIFEST_NAME`; standalone targets override this to add
        the runtime files.
        """
        source = self.generate(mapping, max_iterations=max_iterations)
        files = {"executive.py": source}
        return write_emitted_set(
            self, mapping, table, out_dir, files, max_iterations
        )


#: Codegen targets by name.
TARGETS = Registry(
    "codegen target", EmitError,
    columns=(("runnable", "runnable"), ("standalone", "standalone"),
             ("backend", "backend")),
)
get_target = TARGETS.get


# -- emission helpers ---------------------------------------------------------


def write_emitted_file(out_dir: str, rel_path: str, content: str) -> str:
    """Write one emitted artefact, creating directories as needed."""
    from ...core.artifacts import ensure_parent_dir

    path = os.path.join(out_dir, rel_path)
    ensure_parent_dir(path)
    with open(path, "w") as handle:
        handle.write(content)
    return path


def build_manifest(
    target: CodegenTarget,
    mapping: Mapping,
    table,
    files: Dict[str, str],
    max_iterations: Optional[int],
) -> Dict[str, object]:
    """The ``MANIFEST.json`` document describing one emitted directory.

    Fingerprints reuse the serving plane's content hashes (bytecode for
    the table, processors+channels for the architecture), so a deployed
    directory can be matched back to the exact build that produced it.
    """
    from ... import __version__
    from ...serve.cache import arch_fingerprint, table_fingerprint

    return {
        "schema": 1,
        "target": target.name,
        "repro_version": __version__,
        "program": mapping.graph.name,
        "architecture": mapping.arch.name,
        "max_iterations": max_iterations,
        "fingerprints": {
            "table": table_fingerprint(table),
            "architecture": arch_fingerprint(mapping.arch),
        },
        "files": {
            rel: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for rel, text in sorted(files.items())
        },
    }


def write_emitted_set(
    target: CodegenTarget,
    mapping: Mapping,
    table,
    out_dir: str,
    files: Dict[str, str],
    max_iterations: Optional[int],
) -> List[str]:
    """Write ``files`` plus their manifest under ``out_dir``."""
    written: List[str] = []
    for rel in sorted(files):
        write_emitted_file(out_dir, rel, files[rel])
        written.append(rel)
    manifest = build_manifest(target, mapping, table, files, max_iterations)
    write_emitted_file(
        out_dir, MANIFEST_NAME, json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    written.append(MANIFEST_NAME)
    return written
