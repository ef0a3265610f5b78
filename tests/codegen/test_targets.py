"""Tests for the codegen-target registry and the asyncio executive."""

import sys

import pytest

from repro.codegen import load_executive, run_generated
from repro.codegen.async_kernel import run_generated_asyncio
from repro.codegen.pygen import (
    MODULE_CACHE_SIZE,
    executive_module_name,
    generate_python,
)
from repro.codegen.targets import TARGETS, CodegenTarget, get_target
from repro.conformance.functions import reset_stream
from repro.conformance.generator import build_case, generate_case
from repro.conformance.oracle import build_mapping


def _case(seed):
    built = build_case(generate_case(seed))
    return built, build_mapping(built)


def _result_keys(blackboard):
    return {
        k: v for k, v in blackboard.items()
        if k.startswith("result_") or k in ("outputs", "final_state")
    }


class TestRegistry:
    def test_capability_matrix(self):
        caps = TARGETS.capabilities()
        assert caps["python"] == {
            "runnable": True, "standalone": False, "backend": "threads",
        }
        assert caps["asyncio"]["backend"] == "asyncio"
        assert not caps["macro"]["runnable"]
        assert caps["standalone"]["standalone"]

    def test_custom_target_round_trip(self, monkeypatch):
        monkeypatch.setattr(TARGETS, "_classes", dict(TARGETS._classes))

        @TARGETS.register
        class Custom(CodegenTarget):
            name = "test-custom"
            description = "python dialect under another name"

            def generate(self, mapping, *, max_iterations=None):
                return generate_python(
                    mapping, max_iterations=max_iterations
                )

        _, mapping = _case(0)
        assert get_target("test-custom").generate(mapping)


class TestPythonTarget:
    def test_matches_generate_python(self):
        """The ``python`` target *is* the legacy generator."""
        _, mapping = _case(0)
        assert (get_target("python").generate(mapping, max_iterations=3)
                == generate_python(mapping, max_iterations=3))

    def test_generated_shape_unchanged(self):
        _, mapping = _case(0)
        source = get_target("python").generate(mapping)
        assert "def build_executive(kernel, table):" in source
        assert "generated by repro.codegen.pygen" in source
        assert "async" not in source


class TestMacroTarget:
    def test_macro_concatenates_per_processor(self):
        from repro.codegen.macro import emit_all

        _, mapping = _case(0)
        text = get_target("macro").generate(mapping)
        for proc in emit_all(mapping):
            assert f"# ================ {proc} ================" in text


class TestAsyncioTarget:
    def test_dialect_awaits_every_blocking_primitive(self):
        _, mapping = _case(0)
        source = get_target("asyncio").generate(mapping)
        assert "async def build_executive(kernel, table):" in source
        for primitive in ("call_", "recv_", "send_", "stop_"):
            assert f"kernel.{primitive}(" in source
            assert f" kernel.{primitive}(" not in source.replace(
                f"await kernel.{primitive}(", ""
            ), f"unawaited {primitive}"

    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 11])
    def test_agrees_with_thread_executive(self, seed):
        built, mapping = _case(seed)
        args = tuple(built.args) if built.args else None
        kw = dict(
            max_iterations=built.max_iterations, args=args, timeout=30.0
        )
        reset_stream()
        threads = run_generated(mapping, built.table, **kw)
        reset_stream()
        coroutines = run_generated_asyncio(mapping, built.table, **kw)
        assert _result_keys(threads) == _result_keys(coroutines)

    def test_kernel_rejects_wrong_arg_count(self):
        built, mapping = _case(0)
        if not built.args:
            pytest.skip("case takes no one-shot arguments")
        with pytest.raises(ValueError, match="argument"):
            run_generated_asyncio(
                mapping, built.table,
                max_iterations=built.max_iterations, args=None,
            )


class TestAsyncNativeFunctions:
    """``call_`` resolves awaitable results on every executive: the
    thread kernel drives the coroutine on its own thread, the asyncio
    kernel awaits it on the shared loop."""

    def _build(self):
        from repro.core.functions import FunctionTable
        from repro.pipeline import build
        from repro.syndex import ring

        table = FunctionTable()
        table.register("fetch", ins=["int"], outs=["int"], cost=10.0)(
            _fetch
        )
        table.register(
            "add", ins=["int", "int"], outs=["int"], cost=5.0,
            properties=["commutative", "associative"],
        )(_add)
        source = "let main xs = df 3 fetch add 0 xs;;\n"
        return build(source, table, ring(4)), table

    def test_both_executives_resolve_and_agree(self):
        built, table = self._build()
        args = ([1, 2, 3, 4, 5],)
        threads = run_generated(built.mapping, table, args=args)
        coroutines = run_generated_asyncio(built.mapping, table, args=args)
        assert _result_keys(threads) == _result_keys(coroutines)
        assert threads["result_0"] == sum(x + 1 for x in [1, 2, 3, 4, 5])


async def _fetch(x):
    import asyncio

    await asyncio.sleep(0)
    return x + 1


def _add(a, b):
    return a + b


class TestLoadExecutive:
    def test_returns_namespace_with_build_executive(self):
        _, mapping = _case(0)
        module = load_executive(generate_python(mapping))
        assert callable(module["build_executive"])

    def test_registered_in_sys_modules(self):
        _, mapping = _case(0)
        source = generate_python(mapping)
        load_executive(source)
        name = executive_module_name(source)
        assert name in sys.modules
        assert sys.modules[name].__dict__["MAX_ITERATIONS"] is None

    def test_reload_evicts_stale_module(self):
        """Re-loading the same source must not leave the old module
        reachable: the caller always gets pristine globals."""
        _, mapping = _case(0)
        source = generate_python(mapping)
        first = load_executive(source)
        first["MAX_ITERATIONS"] = 99  # dirty the namespace
        second = load_executive(source)
        assert second["MAX_ITERATIONS"] is None
        name = executive_module_name(source)
        assert sys.modules[name].__dict__ is second

    def test_repeated_loads_are_bounded(self):
        """Regression: a serve daemon compiling many programs must not
        leak one sys.modules entry per compile."""
        _, mapping = _case(0)
        base = generate_python(mapping)
        names = []
        for i in range(MODULE_CACHE_SIZE + 10):
            source = base + f"\n# variant {i}\n"
            load_executive(source)
            names.append(executive_module_name(source))
        registered = [n for n in names if n in sys.modules]
        assert len(registered) <= MODULE_CACHE_SIZE
        # The most recent loads survive; the oldest were evicted.
        assert names[-1] in sys.modules
        assert names[0] not in sys.modules
