"""The ``standalone`` codegen target: deployment without the toolchain.

``repro emit -o dir/`` writes a directory that runs with **no** ``repro``
import at runtime — the paper's m4 story taken to its conclusion: the
generated macro-code is "transformed into compilable code by simply
inlining a set of kernel primitives", so an emitted application needs
only the primitive set, not the environment that produced it.

The directory contains:

* ``skipper_kernel.py`` — the kernel primitives: the source of
  :mod:`repro.codegen.kernel` verbatim, plus the runtime outcome types;
* ``executive.py`` — the generated executive, importing only
  ``skipper_kernel``;
* ``functions.py`` — the sequential-function table, rebuilt from
  :func:`repro.serve.wire.table_payload` spec rows with every function's
  *source* inlined (module-level ``def`` s only, the same constraint the
  ``spawn`` start method already imposes);
* ``main.py`` — argument parsing, an inline/fork/spawn runner, and
  canonical ``key=repr(value)`` result rendering;
* ``MANIFEST.json`` — target, fingerprints and repro version.

Byte-identical results: ``main.py`` prints the kernel blackboard through
:func:`render_blackboard`, and the ``standalone`` execution backend
parses exactly that rendering back, so the differential oracle compares
an emitted program against sequential emulation like any other backend.
"""

from __future__ import annotations

import ast
import builtins
import inspect
import textwrap
import types
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Set

from ...pnt.graph import ProcessKind
from ...syndex.distribute import Mapping
from .python_target import ExecutiveGenerator
from .registry import (
    CodegenTarget,
    TARGETS,
    EmitError,
    write_emitted_set,
)

__all__ = [
    "StandaloneTarget",
    "render_blackboard",
    "kernel_module_source",
    "functions_module_source",
]

#: Names the emitted ``functions.py`` resolves from ``skipper_kernel``.
RUNTIME_NAMES = frozenset(
    {"EndOfStream", "TaskOutcome", "NO_PIECE", "NoPiece", "Stop", "Shutdown"}
)


def render_blackboard(blackboard) -> str:
    """Canonical result rendering: sorted ``key=repr(value)`` lines.

    Only result keys (``result_<i>``, ``outputs``, ``final_state``) are
    rendered, so a standalone run compares byte-for-byte with the same
    program under ``repro run``.
    """
    lines = []
    for key in sorted(blackboard):
        if key.startswith("result_") or key in ("outputs", "final_state"):
            lines.append("%s=%r" % (key, blackboard[key]))
    return "".join(line + "\n" for line in lines)


def parse_blackboard(text: str) -> Dict[str, object]:
    """Invert :func:`render_blackboard` (the standalone backend's read)."""
    blackboard: Dict[str, object] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise EmitError(f"unparseable result line {line!r}")
        blackboard[key] = ast.literal_eval(value)
    return blackboard


# -- the inlined kernel module ------------------------------------------------


def kernel_module_source() -> str:
    """The ``skipper_kernel.py`` text: the in-tree kernel module,
    verbatim (it imports only the standard library), then the runtime
    types a function table may name and the *same* render function the
    host-side standalone backend uses to compare results."""
    from ...core.semantics import EndOfStream, TaskOutcome
    from .. import kernel

    return "\n\n".join([
        inspect.getsource(kernel),
        "# -- appended by `repro emit`: runtime types and result rendering --\n"
        "from dataclasses import dataclass\n"
        "from typing import Sequence",
        inspect.getsource(EndOfStream),
        inspect.getsource(TaskOutcome),
        inspect.getsource(render_blackboard),
    ])


# -- sequential-function inlining ---------------------------------------------


def _all_code_names(code) -> Set[str]:
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _all_code_names(const)
    return names


class _Inliner:
    """Collect the transitive source closure of a set of functions.

    Every inlined function must be a module-level ``def`` (the spawn
    start method already demands this of the table); referenced globals
    resolve to other inlinable functions, importable modules,
    repr-round-trippable data, or the runtime names provided by
    ``skipper_kernel``.  Anything else is an :class:`EmitError` with the
    offending name — better a loud emit failure than a broken deploy.
    """

    def __init__(self) -> None:
        self.functions: "OrderedDict[str, Optional[str]]" = OrderedDict()
        self.data: "OrderedDict[str, str]" = OrderedDict()
        self.modules: Dict[str, str] = {}  # local name -> module name
        self.runtime: Set[str] = set()
        self._by_id: Dict[int, str] = {}

    def add(self, fn, *, alias: str) -> str:
        """Inline ``fn`` (and its references); returns its def name."""
        if not inspect.isfunction(fn):
            raise EmitError(
                f"cannot inline {alias!r}: {fn!r} is not a module-level "
                "Python function"
            )
        return self._add_function(fn)

    def _add_function(self, fn) -> str:
        if id(fn) in self._by_id:
            return self._by_id[id(fn)]
        name = fn.__name__
        if name == "<lambda>":
            raise EmitError("cannot inline a lambda; use a named def")
        if fn.__closure__:
            raise EmitError(
                f"cannot inline {name!r}: closures do not survive emission"
            )
        try:
            source = textwrap.dedent(inspect.getsource(fn))
        except (OSError, TypeError) as err:
            raise EmitError(f"no source available for {name!r}: {err}")
        if source.lstrip().startswith("@"):
            raise EmitError(
                f"cannot inline {name!r}: decorated defs are not supported"
            )
        previous = self.functions.get(name, None)
        if name in self.functions and previous is not None and previous != source:
            raise EmitError(
                f"two different functions named {name!r} in one table"
            )
        self._by_id[id(fn)] = name
        if name in self.functions:
            return name
        self.functions[name] = None  # reserved: breaks reference cycles
        for ref in sorted(_all_code_names(fn.__code__)):
            self._resolve(ref, fn.__globals__)
        self.functions[name] = source
        return name

    def _resolve(self, ref: str, globals_: Dict) -> None:
        if ref in RUNTIME_NAMES:
            self.runtime.add(ref)
            return
        if ref in self.functions or ref in self.data or ref in self.modules:
            return
        if ref not in globals_:
            # Attribute accesses land in co_names too; builtins and
            # attributes need no emission.
            return
        value = globals_[ref]
        if inspect.isfunction(value):
            emitted = self._add_function(value)
            if emitted != ref:
                raise EmitError(
                    f"global {ref!r} aliases function {emitted!r}; "
                    "emit cannot preserve the rebinding"
                )
            return
        if inspect.ismodule(value):
            self.modules[ref] = value.__name__
            return
        if inspect.isclass(value) and value in vars(builtins).values():
            return
        text = repr(value)
        try:
            if ast.literal_eval(text) != value:
                raise ValueError
        except (ValueError, SyntaxError):
            raise EmitError(
                f"global {ref!r} = {value!r} is not repr-round-trippable; "
                "only literal module data can be inlined"
            ) from None
        self.data[ref] = f"{ref} = {text}"

    def render(self) -> List[str]:
        """The emission chunks: imports, data, then function defs."""
        chunks: List[str] = []
        if self.runtime:
            chunks.append(
                "from skipper_kernel import "
                + ", ".join(sorted(self.runtime))
            )
        for local, module in sorted(self.modules.items()):
            if local == module:
                chunks.append(f"import {module}")
            else:
                chunks.append(f"import {module} as {local}")
        chunks.extend(self.data.values())
        for name, source in self.functions.items():
            if source is None:  # pragma: no cover - reservation leak
                raise EmitError(f"unresolved function {name!r}")
            chunks.append(source.rstrip("\n"))
        return chunks


def functions_module_source(table) -> str:
    """The emitted ``functions.py``: spec rows with inlined sources.

    The table travels as :func:`repro.serve.wire.table_payload` rows —
    the same wire form a service submit uses — with each row's ``fn``
    replaced by its inlined def and the remaining metadata kept as
    ``TABLE_ROWS`` for provenance.
    """
    from ...serve.wire import table_payload

    rows = table_payload(table)
    inliner = _Inliner()
    names: "OrderedDict[str, str]" = OrderedDict()
    for row in rows:
        names[row["name"]] = inliner.add(row["fn"], alias=row["name"])

    lines: List[str] = [
        '"""Sequential-function table, inlined by `repro emit`.',
        "",
        "Rebuilt from the serve-wire spec rows of the host table; every",
        "function is a module-level def whose source was inlined here.",
        "Do not edit by hand.",
        '"""',
        "",
        "from __future__ import annotations",
        "",
    ]
    for chunk in inliner.render():
        lines.append(chunk)
        lines.append("")
        lines.append("")
    lines.append("#: spec-row name -> inlined implementation.")
    lines.append("TABLE = {")
    for alias, fn_name in names.items():
        lines.append(f"    {alias!r}: {fn_name},")
    lines.append("}")
    lines.append("")
    lines.append("#: The remaining spec-row metadata (provenance only).")
    lines.append("TABLE_ROWS = [")
    for row in rows:
        lines.append("    {")
        lines.append(f"        'name': {row['name']!r},")
        lines.append(f"        'ins': {tuple(row['ins'])!r},")
        lines.append(f"        'outs': {tuple(row['outs'])!r},")
        lines.append(f"        'properties': {tuple(row['properties'])!r},")
        lines.append(f"        'doc': {row['doc']!r},")
        lines.append("    },")
    lines.append("]")
    lines.append("")
    return "\n".join(lines)


# -- the entry point ----------------------------------------------------------

_MAIN_TEMPLATE = '''\
"""Entry point of an emitted SKiPPER program — no repro import needed.

Generated by `repro emit`; MANIFEST.json records the build provenance.
Results print as canonical sorted key=repr(value) lines, byte-identical
to what `repro run` reports for the same program and inputs.
"""

import argparse
import ast
import sys

import executive
from functions import TABLE
from skipper_kernel import Kernel, render_blackboard


def run_program(arg_values, max_iterations, timeout):
    """Build and run the executive; returns the kernel blackboard."""
    if max_iterations is not None:
        executive.MAX_ITERATIONS = max_iterations
    params = executive.PARAMS
    if len(arg_values) != len(params):
        raise SystemExit(
            "error: program takes %d argument(s), got %d"
            % (len(params), len(arg_values))
        )
    kernel = Kernel()
    for name, value in zip(params, arg_values):
        kernel.blackboard["arg_" + name] = value
    _threads, sinks = executive.build_executive(kernel, TABLE)
    kernel.join_(sinks, timeout)
    return kernel.blackboard


def _child_main(out_queue, arg_values, max_iterations, timeout):
    """Run the executive inside a multiprocessing child (fork/spawn)."""
    out_queue.put(run_program(arg_values, max_iterations, timeout))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--arg", action="append", default=[], metavar="VALUE",
                        help="one-shot input value (Python literal; "
                             "repeatable)")
    parser.add_argument("--max-iterations", type=int, default=None,
                        help="bound the stream (default: the emitted bound)")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="abort a deadlocked run after SECONDS")
    parser.add_argument("--start-method", default="inline",
                        choices=("inline", "fork", "spawn", "forkserver"),
                        help="run in this process (inline) or in a "
                             "multiprocessing child")
    args = parser.parse_args(argv)
    values = [ast.literal_eval(text) for text in args.arg]
    if args.start_method == "inline":
        blackboard = run_program(values, args.max_iterations, args.timeout)
    else:
        import multiprocessing

        ctx = multiprocessing.get_context(args.start_method)
        out_queue = ctx.Queue()
        child = ctx.Process(
            target=_child_main,
            args=(out_queue, values, args.max_iterations, args.timeout),
        )
        child.start()
        try:
            blackboard = out_queue.get(timeout=args.timeout + 30.0)
        finally:
            child.join(10.0)
            if child.is_alive():
                child.terminate()
    sys.stdout.write(render_blackboard(blackboard))
    return 0


if __name__ == "__main__":
    sys.exit(main())
'''


class StandaloneGenerator(ExecutiveGenerator):
    """Python dialect against the inlined ``skipper_kernel`` runtime."""

    PROVENANCE = "repro emit (standalone target)"
    PREAMBLE = (
        "from skipper_kernel import "
        "EndOfStream, TaskOutcome, NO_PIECE, Chunk, NoPiece, grain",
    )


@TARGETS.register
class StandaloneTarget(CodegenTarget):
    name = "standalone"
    description = "self-contained emitted program (runs without repro)"
    runnable = False  # imports skipper_kernel, not loadable in-process
    standalone = True
    backend = "standalone"
    generator_class = StandaloneGenerator

    def generate(
        self, mapping: Mapping, *, max_iterations: Optional[int] = None
    ) -> str:
        source = self.generator_class(mapping, max_iterations).generate()
        params: Sequence[str] = [
            str(p.params.get("param"))
            for p in mapping.graph.by_kind(ProcessKind.INPUT)
            if p.func is None
        ]
        return (
            source
            + "\n#: One-shot input parameter names, in declaration order.\n"
            + f"PARAMS = {list(params)!r}\n"
        )

    def emit(
        self,
        mapping: Mapping,
        table,
        out_dir: str,
        *,
        max_iterations: Optional[int] = None,
    ) -> List[str]:
        files = {
            "executive.py": self.generate(
                mapping, max_iterations=max_iterations
            ),
            "skipper_kernel.py": kernel_module_source(),
            "functions.py": functions_module_source(table),
            "main.py": _MAIN_TEMPLATE,
        }
        return write_emitted_set(
            self, mapping, table, out_dir, files, max_iterations
        )
