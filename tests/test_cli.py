"""Tests for the command-line driver."""

import sys
import textwrap

import pytest

from repro.cli import load_table, main, parse_architecture
from repro.codegen.targets import TARGETS


SPEC = """
let n = 3;;
let main xs = df n square add 0 xs;;
"""

STREAM_SPEC = """
let loop (s, i) = step s i;;
let main = itermem read loop emit 0 ();;
"""

TABLE_MODULE = '''
from repro.core import EndOfStream, FunctionTable

TABLE = FunctionTable()
TABLE.register("square", ins=["int"], outs=["int"], cost=100.0)(lambda x: x * x)
TABLE.register("add", ins=["int", "int"], outs=["int"], cost=10.0)(
    lambda a, b: a + b
)

_count = {"i": 0}


def _read(_src):
    i = _count["i"]
    _count["i"] += 1
    if i >= 4:
        raise EndOfStream
    return i


TABLE.register("read", ins=["unit"], outs=["int"], cost=10.0)(_read)
TABLE.register("step", ins=["int", "int"], outs=["int", "int"], cost=10.0)(
    lambda s, i: (s + i, s + i)
)
TABLE.register("emit", ins=["int"], cost=5.0)(lambda y: None)


def make_table():
    return TABLE
'''


@pytest.fixture()
def workspace(tmp_path, monkeypatch):
    (tmp_path / "spec.ml").write_text(SPEC)
    (tmp_path / "stream.ml").write_text(STREAM_SPEC)
    (tmp_path / "app_functions.py").write_text(TABLE_MODULE)
    monkeypatch.chdir(tmp_path)
    monkeypatch.syspath_prepend(str(tmp_path))
    sys.modules.pop("app_functions", None)
    yield tmp_path
    sys.modules.pop("app_functions", None)


class TestParsers:
    def test_parse_architecture(self):
        assert parse_architecture("ring:8").n_processors == 8
        assert parse_architecture("mesh:2x3").n_processors == 6
        assert parse_architecture("now:4").channels["bus"].shared

    def test_parse_architecture_errors(self):
        with pytest.raises(SystemExit):
            parse_architecture("torus:4")
        with pytest.raises(SystemExit):
            parse_architecture("ring:lots")

    def test_load_table_attribute(self, workspace):
        table = load_table("app_functions:TABLE")
        assert "square" in table

    def test_load_table_factory(self, workspace):
        table = load_table("app_functions:make_table")
        assert "add" in table

    def test_load_table_errors(self, workspace):
        with pytest.raises(SystemExit, match="cannot import"):
            load_table("no_such_module:TABLE")
        with pytest.raises(SystemExit, match="no attribute"):
            load_table("app_functions:MISSING")
        with pytest.raises(SystemExit, match="module:attribute"):
            load_table("justamodule")

    def test_load_table_does_not_leak_sys_path(self, workspace):
        before = sys.path.count(".")
        load_table("app_functions:TABLE")
        assert sys.path.count(".") == before
        # The cleanup must also run on the failure paths.
        with pytest.raises(SystemExit):
            load_table("no_such_module:TABLE")
        assert sys.path.count(".") == before


class TestCommands:
    def test_typecheck(self, workspace, capsys):
        assert main(["typecheck", "spec.ml", "--functions",
                     "app_functions:TABLE"]) == 0
        out = capsys.readouterr().out
        assert "val main : int list -> int" in out

    def test_compile_summary(self, workspace, capsys):
        assert main([
            "compile", "spec.ml", "--functions", "app_functions:TABLE",
            "--arch", "ring:3",
        ]) == 0
        out = capsys.readouterr().out
        assert "deadlock-free" in out
        assert "ring3" in out

    def test_compile_dot(self, workspace, capsys):
        main(["compile", "spec.ml", "--functions", "app_functions:TABLE",
              "--arch", "ring:3", "--emit", "dot"])
        out = capsys.readouterr().out
        assert out.startswith("digraph")

    def test_compile_macro(self, workspace, capsys):
        main(["compile", "spec.ml", "--functions", "app_functions:TABLE",
              "--arch", "ring:3", "--emit", "macro"])
        out = capsys.readouterr().out
        assert "define(`PROCESSOR', `p0')" in out

    def test_compile_python(self, workspace, capsys):
        main(["compile", "spec.ml", "--functions", "app_functions:TABLE",
              "--arch", "ring:3", "--emit", "python"])
        out = capsys.readouterr().out
        assert "def build_executive(kernel, table):" in out

    @pytest.mark.parametrize("target", TARGETS.names())
    def test_compile_emits_every_registered_target(
        self, target, workspace, capsys
    ):
        assert main(["compile", "spec.ml", "--functions",
                     "app_functions:TABLE", "--arch", "ring:3",
                     "--emit", target]) == 0
        assert capsys.readouterr().out.strip()

    def test_emulate_stream(self, workspace, capsys):
        assert main([
            "emulate", "stream.ml", "--functions", "app_functions:TABLE",
        ]) == 0
        out = capsys.readouterr().out
        assert "final memory: 6" in out  # 0+1+2+3

    def test_simulate_with_gantt(self, workspace, capsys):
        import app_functions

        app_functions._count["i"] = 0
        assert main([
            "simulate", "stream.ml", "--functions", "app_functions:TABLE",
            "--arch", "ring:2", "--gantt", "--gantt-width", "40",
        ]) == 0
        out = capsys.readouterr().out
        assert "iteration(s)" in out
        assert "% busy" in out
        assert "p0" in out

    def test_missing_spec_file(self, workspace):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["typecheck", "ghost.ml", "--functions",
                  "app_functions:TABLE"])


#: ``repro backends`` / ``repro transports`` output, pinned byte for byte.
GOLDEN_BACKENDS = """\
  backend    faults  realtime  distributed  description
  asyncio    -       yes       -            generated coroutine executive on one event loop
  emulate    -       -         -            sequential emulation of the program IR (reference output)
  processes  yes     yes       -            generated executive on pinned OS processes (true parallelism)
  simulate   yes     yes       -            discrete-event simulation on the modelled machine
  standalone -       -         -            emitted self-contained program in a clean subprocess
  tcp        yes     yes       yes          generated executive on a TCP worker cluster (distributed)
  threads    yes     yes       -            generated executive on Python threads (GIL-bound)
"""

GOLDEN_TRANSPORTS = """\
  transport  shm   batching  prealloc  description
  queue      -     -         -         bounded pipe channel per edge (pickle, no feeder thread)
  ring       yes   yes       yes       shared-memory seqlock ring, batched tag-codec slots
"""


class TestBackendSelection:
    @pytest.mark.parametrize("command, golden", [
        ("backends", GOLDEN_BACKENDS), ("transports", GOLDEN_TRANSPORTS),
    ])
    def test_capability_table_is_pinned(self, command, golden, capsys):
        assert main([command]) == 0
        assert capsys.readouterr().out == golden

    def test_backends_command(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("emulate", "simulate", "threads", "processes", "tcp"):
            assert name in out

    def test_backends_capability_matrix(self, capsys):
        assert main(["backends"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        header, rows = lines[0], lines[1:]
        for column in ("backend", "faults", "realtime", "distributed",
                       "description"):
            assert column in header
        by_name = {row.split()[0]: row.split() for row in rows}
        assert list(by_name) == sorted(by_name)  # stable, sorted
        assert by_name["emulate"][1:4] == ["-", "-", "-"]
        assert by_name["processes"][1:4] == ["yes", "yes", "-"]
        assert by_name["tcp"][1:4] == ["yes", "yes", "yes"]

    def test_run_threads_one_shot(self, workspace, capsys):
        assert main([
            "run", "spec.ml", "--functions", "app_functions:TABLE",
            "--arch", "ring:3", "--arg", "[1, 2, 3]",
        ]) == 0
        out = capsys.readouterr().out
        assert "backend threads" in out
        assert "result[0] = 14" in out  # 1 + 4 + 9

    def test_run_processes_stream(self, workspace, capsys):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("lambda tables need the fork start method")
        import app_functions

        app_functions._count["i"] = 0
        assert main([
            "run", "stream.ml", "--functions", "app_functions:TABLE",
            "--arch", "ring:2", "--backend", "processes",
            "--timeout", "60", "--start-method", "fork",
        ]) == 0
        out = capsys.readouterr().out
        assert "backend processes" in out
        assert "outputs: [0, 1, 3, 6]" in out

    def test_simulate_with_emulate_backend(self, workspace, capsys):
        import app_functions

        app_functions._count["i"] = 0
        assert main([
            "simulate", "stream.ml", "--functions", "app_functions:TABLE",
            "--arch", "ring:2", "--backend", "emulate",
        ]) == 0
        assert "outputs: [0, 1, 3, 6]" in capsys.readouterr().out

    def test_trace_out_writes_chrome_json(self, workspace, capsys):
        import json

        import app_functions

        app_functions._count["i"] = 0
        assert main([
            "simulate", "stream.ml", "--functions", "app_functions:TABLE",
            "--arch", "ring:2", "--trace-out", "trace.json",
        ]) == 0
        doc = json.loads((workspace / "trace.json").read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        assert "trace written" in capsys.readouterr().out

    def test_trace_out_creates_parent_dirs(self, workspace, capsys):
        import json

        import app_functions

        app_functions._count["i"] = 0
        assert main([
            "simulate", "stream.ml", "--functions", "app_functions:TABLE",
            "--arch", "ring:2",
            "--trace-out", "artifacts/traces/run1.json",
        ]) == 0
        path = workspace / "artifacts" / "traces" / "run1.json"
        assert json.loads(path.read_text())["traceEvents"]


class TestProfileFlag:
    def test_simulate_with_profile(self, workspace, capsys):
        import app_functions

        app_functions._count["i"] = 0
        assert main([
            "simulate", "stream.ml", "--functions", "app_functions:TABLE",
            "--arch", "ring:2", "--profile", "2",
        ]) == 0
        out = capsys.readouterr().out
        # Profiling consumed 2 frames and nothing rewinds the module-level
        # counter, so the run sees the remaining 2 of 4.
        assert "2 iteration(s)" in out

    def test_compile_with_profile(self, workspace, capsys):
        import app_functions

        app_functions._count["i"] = 0
        assert main([
            "compile", "stream.ml", "--functions", "app_functions:TABLE",
            "--arch", "ring:2", "--profile", "1",
        ]) == 0
        assert "deadlock-free" in capsys.readouterr().out


# -- the distributed backend through the CLI ----------------------------------

NET_TABLE_MODULE = '''
from repro.core import FunctionTable


def square(x):
    return x * x


def add(a, b):
    return a + b


TABLE = FunctionTable()
TABLE.register("square", ins=["int"], outs=["int"], cost=100.0)(square)
TABLE.register("add", ins=["int", "int"], outs=["int"], cost=10.0)(add)
'''


@pytest.fixture()
def net_workspace(tmp_path, monkeypatch):
    """A workspace whose table is module-level defs: tcp workers must be
    able to import (and pickle) every registered function."""
    (tmp_path / "spec.ml").write_text(SPEC)
    (tmp_path / "net_functions.py").write_text(NET_TABLE_MODULE)
    monkeypatch.chdir(tmp_path)
    monkeypatch.syspath_prepend(str(tmp_path))
    sys.modules.pop("net_functions", None)
    yield tmp_path
    sys.modules.pop("net_functions", None)


class TestDistributedCli:
    def test_run_tcp_private_cluster(self, net_workspace, capsys):
        assert main([
            "run", "spec.ml", "--functions", "net_functions:TABLE",
            "--arch", "ring:3", "--arg", "[1, 2, 3]",
            "--backend", "tcp", "--cluster", "2", "--timeout", "60",
        ]) == 0
        out = capsys.readouterr().out
        assert "backend tcp" in out
        assert "result[0] = 14" in out  # 1 + 4 + 9

    def test_worker_rejects_bad_address(self, capsys):
        assert main(["worker", "--connect", "7070"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err
