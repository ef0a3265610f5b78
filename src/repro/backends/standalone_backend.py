"""Standalone-executive backend: emit, then run with no repro import.

The differential-oracle leg for ``repro emit``: the mapped program is
emitted as a self-contained directory (``standalone`` codegen target),
executed as ``python main.py`` in a subprocess whose ``PYTHONPATH`` is
scrubbed — so the run proves the emitted artifact needs nothing from
the toolchain — and the canonical ``key=repr(value)`` result lines are
parsed back into a blackboard.  Anything the oracle would compare
(outputs, final state, one-shot results) therefore round-trips through
the exact bytes a deployed program would print.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from typing import Any, Optional, Tuple

from ..core.functions import FunctionTable
from ..core.ir import Program
from ..machine.costs import T9000, CostModel
from ..machine.executive import RunReport
from ..syndex.distribute import Mapping
from .base import BACKENDS, Backend, BackendError, report_from_blackboard

__all__ = ["StandaloneBackend", "run_emitted"]


def run_emitted(
    out_dir: str,
    *,
    args: Optional[Tuple] = None,
    max_iterations: Optional[int] = None,
    timeout: float = 120.0,
    start_method: str = "inline",
    python: Optional[str] = None,
) -> dict:
    """Run an emitted program directory; returns the parsed blackboard.

    The child's ``PYTHONPATH`` is emptied so an emitted program that
    silently depended on the repro source tree fails loudly here rather
    than on the deployment box.
    """
    from ..codegen.targets.standalone_target import parse_blackboard

    argv = [python or sys.executable, "main.py",
            "--start-method", start_method, "--timeout", str(timeout)]
    if max_iterations is not None:
        argv += ["--max-iterations", str(max_iterations)]
    for value in args or ():
        text = repr(value)
        try:
            ast.literal_eval(text)
        except (ValueError, SyntaxError):
            raise BackendError(
                f"standalone argument {value!r} is not a Python literal"
            ) from None
        argv += ["--arg", text]
    env = dict(os.environ, PYTHONPATH="")
    proc = subprocess.run(
        argv, cwd=out_dir, env=env, timeout=timeout + 30.0,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise BackendError(
            f"emitted program failed (exit {proc.returncode}):\n"
            f"{proc.stderr}"
        )
    return parse_blackboard(proc.stdout)


@BACKENDS.register
class StandaloneBackend(Backend):
    """Emit the program to a scratch directory and run it out-of-tree.

    Options: ``start_method`` (``inline``/``fork``/``spawn``) selects
    how ``main.py`` hosts the executive; ``keep_dir`` preserves the
    emitted directory (its path lands on the report as
    ``report.emitted_dir``) instead of deleting it.
    """

    name = "standalone"
    description = "emitted self-contained program in a clean subprocess"
    real = True
    supports_faults = False
    supports_realtime = False

    def run(
        self,
        mapping: Optional[Mapping],
        table: FunctionTable,
        *,
        program: Optional[Program] = None,
        costs: CostModel = T9000,
        max_iterations: Optional[int] = None,
        args: Optional[Tuple] = None,
        real_time: bool = False,
        record_trace: bool = False,
        timeout: float = 120.0,
        start_method: str = "inline",
        keep_dir: Optional[str] = None,
        fault_plan: Optional[Any] = None,
        budget: Optional[Any] = None,
        **options: Any,
    ) -> RunReport:
        from ..codegen.targets import get_target

        if mapping is None:
            raise BackendError("the standalone backend needs a mapping")
        if fault_plan is not None:
            raise BackendError(
                "the standalone backend does not support fault injection"
            )
        if budget is not None:
            raise BackendError(
                "the standalone backend does not support latency budgets"
            )
        target = get_target("standalone")
        import time

        start = time.perf_counter()
        if keep_dir is not None:
            target.emit(mapping, table, keep_dir,
                        max_iterations=max_iterations)
            blackboard = run_emitted(
                keep_dir, args=args, max_iterations=max_iterations,
                timeout=timeout, start_method=start_method,
            )
            emitted_dir: Optional[str] = keep_dir
        else:
            with tempfile.TemporaryDirectory(prefix="repro-emit-") as tmp:
                target.emit(mapping, table, tmp,
                            max_iterations=max_iterations)
                blackboard = run_emitted(
                    tmp, args=args, max_iterations=max_iterations,
                    timeout=timeout, start_method=start_method,
                )
            emitted_dir = None
        wall_us = (time.perf_counter() - start) * 1e6
        report = report_from_blackboard(
            blackboard, makespan=wall_us, backend=self.name, trace=None
        )
        report.emitted_dir = emitted_dir
        return report
