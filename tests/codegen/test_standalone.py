"""Tests for ``repro emit``: the standalone target and its backend."""

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from repro import __version__
from repro.backends import get_backend
from repro.backends.standalone_backend import run_emitted
from repro.codegen.targets import MANIFEST_NAME, EmitError, get_target
from repro.codegen.targets.standalone_target import (
    functions_module_source,
    parse_blackboard,
    render_blackboard,
)
from repro.conformance.functions import reset_stream
from repro.conformance.generator import build_case, generate_case
from repro.conformance.oracle import build_mapping
from repro.core.functions import FunctionTable


def _case(seed):
    built = build_case(generate_case(seed))
    return built, build_mapping(built)


def _emit(tmp_path, seed):
    built, mapping = _case(seed)
    reset_stream()
    out = str(tmp_path / f"deploy{seed}")
    files = get_target("standalone").emit(
        mapping, built.table, out, max_iterations=built.max_iterations
    )
    return built, mapping, out, files


class TestEmit:
    def test_emits_the_full_file_set(self, tmp_path):
        _, _, out, files = _emit(tmp_path, 0)
        assert files == [
            "executive.py", "functions.py", "main.py",
            "skipper_kernel.py", MANIFEST_NAME,
        ]
        for rel in files:
            assert os.path.exists(os.path.join(out, rel))

    def test_manifest_contents(self, tmp_path):
        built, mapping, out, files = _emit(tmp_path, 0)
        with open(os.path.join(out, MANIFEST_NAME)) as handle:
            manifest = json.load(handle)
        assert manifest["schema"] == 1
        assert manifest["target"] == "standalone"
        assert manifest["repro_version"] == __version__
        assert manifest["program"] == mapping.graph.name
        assert manifest["architecture"] == mapping.arch.name
        from repro.serve.cache import arch_fingerprint, table_fingerprint

        assert manifest["fingerprints"]["table"] == table_fingerprint(
            built.table
        )
        assert manifest["fingerprints"]["architecture"] == arch_fingerprint(
            mapping.arch
        )
        # Every emitted file (except the manifest itself) is hashed.
        assert sorted(manifest["files"]) == sorted(
            rel for rel in files if rel != MANIFEST_NAME
        )
        import hashlib

        for rel, digest in manifest["files"].items():
            with open(os.path.join(out, rel), "rb") as handle:
                assert hashlib.sha256(handle.read()).hexdigest() == digest

    def test_executive_imports_only_the_inlined_kernel(self, tmp_path):
        _, _, out, _ = _emit(tmp_path, 0)
        for rel in ("executive.py", "functions.py", "main.py",
                    "skipper_kernel.py"):
            with open(os.path.join(out, rel)) as handle:
                text = handle.read()
            assert "import repro" not in text
            assert "from repro" not in text

    def test_the_kernel_is_the_in_tree_module_verbatim(self, tmp_path):
        """No second copy to drift: ``skipper_kernel.py`` *is*
        ``repro/codegen/kernel.py``, followed by the runtime types."""
        import inspect

        from repro.codegen import kernel

        _, _, out, _ = _emit(tmp_path, 0)
        with open(os.path.join(out, "skipper_kernel.py")) as handle:
            emitted = handle.read()
        assert emitted.startswith(inspect.getsource(kernel))
        for name in ("EndOfStream", "TaskOutcome", "render_blackboard"):
            assert f"\nclass {name}" in emitted or f"\ndef {name}" in emitted

    def test_lambda_table_rejected(self):
        table = FunctionTable()
        table.register("sq", ins=["int"], outs=["int"])(lambda x: x * x)
        with pytest.raises(EmitError, match="lambda"):
            functions_module_source(table)

    def test_builtin_table_rejected(self):
        table = FunctionTable()
        table.register("ln", ins=["int"], outs=["int"])(len)
        with pytest.raises(EmitError, match="not a module-level"):
            functions_module_source(table)


class TestRenderBlackboard:
    def test_round_trip(self):
        blackboard = {
            "result_0": [1, 2, 3],
            "outputs": [None, "x"],
            "final_state": 7,
            "arg_xs": [9],       # seeds are not results: not rendered
            "_scratch": object(),
        }
        text = render_blackboard(blackboard)
        assert parse_blackboard(text) == {
            "result_0": [1, 2, 3],
            "outputs": [None, "x"],
            "final_state": 7,
        }

    def test_rejects_garbage(self):
        with pytest.raises(EmitError, match="unparseable"):
            parse_blackboard("not a result line\n")


class TestStandaloneRuns:
    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_byte_identical_to_run_generated(self, tmp_path, seed):
        """The acceptance bar: the emitted program's stdout equals the
        host-side rendering of a `repro run` blackboard, byte for byte,
        with no repro importable in the child."""
        from repro.codegen import run_generated

        built, mapping, out, _ = _emit(tmp_path, seed)
        args = tuple(built.args) if built.args else None
        reset_stream()
        host = run_generated(
            mapping, built.table,
            max_iterations=built.max_iterations, args=args, timeout=30.0,
        )
        expected = render_blackboard(host)

        argv = [sys.executable, "main.py", "--timeout", "30"]
        for value in args or ():
            argv += ["--arg", repr(value)]
        env = dict(os.environ, PYTHONPATH="")
        proc = subprocess.run(
            argv, cwd=out, env=env, timeout=60.0,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected

    def test_runs_isolated_with_repro_unimportable(self, tmp_path):
        """``python -I`` drops ``PYTHONPATH``, the user site and the
        working directory: only the emitted directory is importable."""
        built, mapping, out, _ = _emit(tmp_path, 1)
        args = tuple(built.args) if built.args else None
        reset_stream()
        expected = render_blackboard(run_emitted(
            out, args=args, max_iterations=built.max_iterations,
            timeout=60.0,
        ))
        argv = ["--timeout", "30"]
        for value in args or ():
            argv += ["--arg", repr(value)]
        code = (
            "import sys\n"
            f"sys.path.insert(0, {out!r})\n"
            "try:\n"
            "    import repro\n"
            "except ImportError:\n"
            "    import main\n"
            f"    sys.exit(main.main({argv!r}))\n"
            "sys.exit('repro is importable: the run proves nothing')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code], cwd=out, timeout=60.0,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_round_trip_under_start_method(self, tmp_path, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        built, mapping, out, _ = _emit(tmp_path, 1)
        args = tuple(built.args) if built.args else None
        reset_stream()
        inline = run_emitted(
            out, args=args, max_iterations=built.max_iterations,
            timeout=60.0, start_method="inline",
        )
        reset_stream()
        child = run_emitted(
            out, args=args, max_iterations=built.max_iterations,
            timeout=60.0, start_method=start_method,
        )
        assert child == inline


class TestStandaloneBackend:
    def test_backend_agrees_with_threads(self):
        built, mapping = _case(2)
        args = tuple(built.args) if built.args else None
        kw = dict(
            max_iterations=built.max_iterations, args=args, timeout=60.0
        )
        reset_stream()
        threads = get_backend("threads").run(mapping, built.table, **kw)
        reset_stream()
        standalone = get_backend("standalone").run(
            mapping, built.table, **kw
        )
        assert standalone.outputs == threads.outputs
        assert standalone.final_state == threads.final_state
        assert standalone.one_shot_results == threads.one_shot_results

    def test_keep_dir_preserves_the_emission(self, tmp_path):
        built, mapping = _case(0)
        args = tuple(built.args) if built.args else None
        out = str(tmp_path / "kept")
        reset_stream()
        report = get_backend("standalone").run(
            mapping, built.table,
            max_iterations=built.max_iterations, args=args,
            timeout=60.0, keep_dir=out,
        )
        assert report.emitted_dir == out
        assert os.path.exists(os.path.join(out, MANIFEST_NAME))

    def test_fault_plan_rejected(self):
        from repro.backends import BackendError

        built, mapping = _case(0)
        with pytest.raises(BackendError, match="fault"):
            get_backend("standalone").run(
                mapping, built.table, fault_plan=object()
            )
