"""Executable code generation: mapped process graph → Python executive.

The SynDEx back end emits "processor-independent programs (m4
macro-code, one per processor) which are finally transformed into
compilable code by simply inlining a set of kernel primitives".  The
equivalent transformation for the Python target lives in
:mod:`repro.codegen.targets.python_target`; this module keeps the
historical entry points (:func:`generate_python`, :func:`load_executive`,
:func:`run_generated`, :func:`thread_name`) as thin veneers over the
target registry, plus the executive *loader* shared by every runnable
target.

The generated executive is functionally equivalent to both the
sequential emulation and the discrete-event simulation (the test suite
checks all three agree); unlike the simulator it really runs
concurrently, on Python threads.
"""

from __future__ import annotations

import hashlib
import sys
import threading
import types
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from ..pnt.graph import ProcessGraph, ProcessKind
from ..syndex.distribute import Mapping
from .targets.python_target import thread_name  # noqa: F401  (re-export)

__all__ = [
    "generate_python",
    "load_executive",
    "run_generated",
    "seed_arguments",
    "thread_name",
    "MODULE_CACHE_SIZE",
]

#: Generated executives kept registered in ``sys.modules`` at once.  A
#: long-lived serve daemon compiles many programs per process; without a
#: bound every compile leaked a module (source + code objects) for the
#: life of the interpreter.
MODULE_CACHE_SIZE = 32

_MODULE_PREFIX = "repro_executive_"
_modules_lock = threading.Lock()
_modules: "OrderedDict[str, types.ModuleType]" = OrderedDict()


def generate_python(mapping: Mapping, *, max_iterations: Optional[int] = None) -> str:
    """Generate the Python (thread-dialect) executive source."""
    from .targets import get_target

    return get_target("python").generate(mapping, max_iterations=max_iterations)


def executive_module_name(source: str) -> str:
    """The ``sys.modules`` name a generated source loads under."""
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]
    return _MODULE_PREFIX + digest


def load_executive(source: str):
    """Compile generated executive source; returns its module namespace.

    The source is executed as a real module registered in ``sys.modules``
    under a content-addressed name, so functions defined by the executive
    have a resolvable ``__module__`` (tracebacks, pickling by reference).
    Registrations are bounded: at most :data:`MODULE_CACHE_SIZE` stay
    registered (least-recently-loaded evicted first), and re-loading the
    same source evicts the stale module and executes a fresh one — the
    caller always gets pristine module globals, never a previous run's.
    """
    name = executive_module_name(source)
    module = types.ModuleType(name)
    module.__dict__["__file__"] = f"<generated-executive {name}>"
    exec(compile(source, f"<generated-executive {name}>", "exec"), module.__dict__)
    with _modules_lock:
        stale = _modules.pop(name, None)
        if stale is not None and sys.modules.get(name) is stale:
            del sys.modules[name]
        sys.modules[name] = module
        _modules[name] = module
        while len(_modules) > MODULE_CACHE_SIZE:
            old_name, old_module = _modules.popitem(last=False)
            if sys.modules.get(old_name) is old_module:
                del sys.modules[old_name]
    return module.__dict__


def seed_arguments(graph: ProcessGraph, args: Optional[Tuple]) -> Dict[str, Any]:
    """The blackboard entries (``arg_<param>``) a one-shot program reads
    its parameters from.

    Raises ``ValueError`` on an arity mismatch — also when ``args`` is
    omitted: an executive with unseeded parameters would block until the
    run's deadline.
    """
    inputs = [p for p in graph.by_kind(ProcessKind.INPUT) if p.func is None]
    if len(args or ()) != len(inputs):
        raise ValueError(
            f"program takes {len(inputs)} argument(s), got {len(args or ())}"
        )
    return {
        f"arg_{process.params.get('param')}": value
        for process, value in zip(inputs, args or ())
    }


def run_generated(
    mapping: Mapping,
    table,
    *,
    kernel=None,
    max_iterations: Optional[int] = None,
    args: Optional[Tuple] = None,
    timeout: float = 60.0,
) -> Dict[str, object]:
    """Generate, load and run the executive on a thread-style kernel.

    ``kernel`` defaults to a fresh :class:`~repro.codegen.kernel.Kernel`;
    any object implementing the in-process kernel primitives works.
    Returns the kernel blackboard: ``outputs`` / ``final_state`` for
    stream programs, ``result_<i>`` entries for one-shot programs.
    """
    from .kernel import Kernel

    source = generate_python(mapping, max_iterations=max_iterations)
    module = load_executive(source)
    if kernel is None:
        kernel = Kernel()
    kernel.blackboard.update(seed_arguments(mapping.graph, args))
    fns = {spec.name: spec.fn for spec in table}
    _threads, sinks = module["build_executive"](kernel, fns)
    kernel.join_(sinks, timeout)
    return kernel.blackboard
