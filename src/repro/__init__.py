"""SKiPPER reproduction: a skeleton-based parallel programming environment
for real-time image processing applications.

Reimplements the complete system of Serot, Ginhac & Derutin (PaCT-99):
the skeleton repertoire (scm, df, tf, itermem) with declarative and
operational definitions, the mini-ML front end with polymorphic type
checking, process-network-template expansion, SynDEx-style mapping, code
generation, and a discrete-event MIMD-DM machine simulator, plus the
vision substrate and the real-time vehicle-tracking case study.
"""

from . import backends, core, machine, minicaml, pipeline, pnt, syndex, tracking, vision
from .backends import BACKENDS, Backend, BackendError, get_backend
from .core import (
    EndOfStream,
    FunctionTable,
    ProgramBuilder,
    TaskOutcome,
    df,
    emulate,
    emulate_once,
    itermem,
    scm,
    tf,
)
from .machine import FAST_TEST, T9000, CostModel, Executive, RunReport, simulate
from .minicaml import CompiledProgram, compile_source, typecheck_source
from .pipeline import BuiltApplication, build
from .pnt import ProcessGraph, expand_program
from .syndex import Mapping, distribute, ring

__version__ = "0.1.0"

__all__ = [
    "core",
    "minicaml",
    "pnt",
    "syndex",
    "machine",
    "vision",
    "tracking",
    "pipeline",
    "backends",
    "BACKENDS",
    "Backend",
    "BackendError",
    "get_backend",
    "scm",
    "df",
    "tf",
    "itermem",
    "TaskOutcome",
    "EndOfStream",
    "FunctionTable",
    "ProgramBuilder",
    "emulate",
    "emulate_once",
    "compile_source",
    "typecheck_source",
    "CompiledProgram",
    "expand_program",
    "ProcessGraph",
    "ring",
    "distribute",
    "Mapping",
    "simulate",
    "Executive",
    "RunReport",
    "CostModel",
    "T9000",
    "FAST_TEST",
    "build",
    "BuiltApplication",
    "__version__",
]
