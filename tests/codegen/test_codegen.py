"""Tests for macro-code emission and the generated Python executive."""

import pytest

from repro.core import (
    EndOfStream,
    FunctionTable,
    ProgramBuilder,
    TaskOutcome,
    emulate,
    emulate_once,
)
from repro.codegen import (
    KERNEL_PRIMITIVES,
    Kernel,
    emit_all,
    emit_macro,
    generate_python,
    load_executive,
    run_generated,
)
from repro.codegen.kernel import Shutdown, Stop
from repro.pnt import expand_program
from repro.syndex import distribute, ring


def df_program(degree=3):
    table = FunctionTable()
    table.register("sq", ins=["int"], outs=["int"])(lambda x: x * x)
    table.register("add", ins=["int", "int"], outs=["int"])(lambda a, b: a + b)
    b = ProgramBuilder("sumsq", table)
    (xs,) = b.params("xs")
    r = b.df(degree, comp="sq", acc="add", z=b.const(0), xs=xs)
    prog = b.returns(r)
    mapping = distribute(expand_program(prog, table), ring(degree))
    return prog, table, mapping


class TestKernel:
    def test_send_recv_roundtrip(self):
        kernel = Kernel()
        kernel.send_("e0", 42)
        assert kernel.recv_("e0") == 42

    def test_alt_picks_ready_channel(self):
        kernel = Kernel()
        kernel.send_("b", "hello")
        edge, value = kernel.alt_(["a", "b"])
        assert (edge, value) == ("b", "hello")

    def test_stop_token(self):
        kernel = Kernel()
        kernel.stop_("e0")
        assert kernel.is_stop(kernel.recv_("e0"))
        assert not kernel.is_stop(42)

    def test_spawn_runs_body(self):
        kernel = Kernel()
        done = []
        t = kernel.spawn_("t", lambda: done.append(1))
        t.join(5)
        assert done == [1]

    def test_shutdown_unwinds_blocked_thread(self):
        kernel = Kernel()

        def blocked():
            kernel.recv_("never")

        t = kernel.spawn_("blocked", blocked)
        kernel.join_([], timeout=1)
        t.join(2)
        assert not t.is_alive()

    def test_primitive_set_documented(self):
        assert {"spawn_", "send_", "recv_", "call_", "alt_", "stop_", "join_"} <= set(
            KERNEL_PRIMITIVES
        )


class TestGeneratedSource:
    def test_source_compiles(self):
        _prog, _table, mapping = df_program()
        src = generate_python(mapping)
        module = load_executive(src)
        assert "build_executive" in module

    def test_source_groups_by_processor(self):
        _prog, _table, mapping = df_program()
        src = generate_python(mapping)
        for proc in mapping.arch.processor_ids():
            assert f"# ==== processor {proc} ====" in src

    def test_source_only_uses_kernel_primitives(self):
        """The generated code talks to the machine through the kernel only."""
        _prog, _table, mapping = df_program()
        src = generate_python(mapping)
        in_code = False
        for line in src.splitlines():
            if line.startswith("def build_executive"):
                in_code = True
            if in_code and "kernel." in line and '"""' not in line:
                import re

                call = re.match(r"\w+", line.split("kernel.")[1]).group(0)
                assert call in (
                    "send_", "recv_", "call_", "stop_", "alt_", "spawn_",
                    "is_stop", "blackboard",
                )

    def test_mentions_every_process(self):
        _prog, _table, mapping = df_program()
        src = generate_python(mapping)
        for pid in mapping.graph.processes:
            assert pid.replace(".", "_") in src


class TestGeneratedExecution:
    def test_df_one_shot(self):
        prog, table, mapping = df_program()
        bb = run_generated(mapping, table, args=([1, 2, 3, 4],))
        assert bb["result_0"] == 30
        assert bb["result_0"] == emulate_once(prog, table, [1, 2, 3, 4])[0]

    def test_df_empty_list(self):
        _prog, table, mapping = df_program()
        bb = run_generated(mapping, table, args=([],))
        assert bb["result_0"] == 0

    def test_scm_with_short_split(self):
        table = FunctionTable()

        def chunk(n, xs):
            out = [xs[i::n] for i in range(n)]
            return [c for c in out if c]

        table.register("chunk", ins=["int", "int list"], outs=["int list list"])(chunk)
        table.register("sumlist", ins=["int list"], outs=["int"])(sum)
        table.register("total", ins=["int list", "int list"], outs=["int"])(
            lambda _o, parts: sum(parts)
        )
        b = ProgramBuilder("p", table)
        (xs,) = b.params("xs")
        r = b.scm(6, split="chunk", comp="sumlist", merge="total", x=xs)
        prog = b.returns(r)
        mapping = distribute(expand_program(prog, table), ring(3))
        bb = run_generated(mapping, table, args=([1, 2, 3],))
        assert bb["result_0"] == 6

    def test_tf_divide_and_conquer(self):
        table = FunctionTable()

        def divide(iv):
            lo, hi = iv
            if hi - lo <= 3:
                return TaskOutcome(results=list(range(lo, hi)))
            mid = (lo + hi) // 2
            return TaskOutcome(subtasks=[(lo, mid), (mid, hi)])

        table.register("divide", ins=["iv"], outs=["outcome"])(divide)
        table.register("add", ins=["int", "int"], outs=["int"])(lambda a, b: a + b)
        b = ProgramBuilder("p", table)
        (xs,) = b.params("xs")
        r = b.tf(4, comp="divide", acc="add", z=b.const(0), xs=xs)
        prog = b.returns(r)
        mapping = distribute(expand_program(prog, table), ring(4))
        bb = run_generated(mapping, table, args=([(0, 40)],))
        assert bb["result_0"] == sum(range(40))

    def test_stream_program(self):
        table = FunctionTable()
        frames = {"i": 0}

        @table.register("read", ins=["unit"], outs=["int"])
        def read(_src):
            i = frames["i"]
            frames["i"] += 1
            if i >= 5:
                raise EndOfStream
            return i

        table.register("step", ins=["int", "int"], outs=["int", "int"])(
            lambda s, i: (s + i, s + i)
        )
        table.register("emit", ins=["int"])(lambda y: None)
        b = ProgramBuilder("p", table)
        state, item = b.params("state", "item")
        s2, y = b.apply("step", state, item)
        prog = b.stream(s2, y, inp="read", out="emit", init_value=0, source=None)
        mapping = distribute(expand_program(prog, table), ring(2))
        bb = run_generated(mapping, table)
        assert bb["outputs"] == [0, 1, 3, 6, 10]
        assert bb["final_state"] == 10

    def test_stream_equals_emulation(self):
        def make():
            table = FunctionTable()
            frames = {"i": 0}

            @table.register("read", ins=["unit"], outs=["int list"])
            def read(_src):
                i = frames["i"]
                frames["i"] += 1
                if i >= 4:
                    raise EndOfStream
                return list(range(i + 1))

            table.register("neg", ins=["int"], outs=["int"])(lambda x: -x)
            table.register("add", ins=["int", "int"], outs=["int"])(
                lambda a, b: a + b
            )
            table.register("step", ins=["int", "int"], outs=["int", "int"])(
                lambda s, t: (s + t, t)
            )
            table.register("emit", ins=["int"])(lambda y: None)
            b = ProgramBuilder("p", table)
            state, item = b.params("state", "item")
            t = b.df(2, comp="neg", acc="add", z=b.const(0), xs=item)
            s2, y = b.apply("step", state, t)
            prog = b.stream(
                s2, y, inp="read", out="emit", init_value=0, source=None
            )
            return prog, table

        prog1, table1 = make()
        seq = emulate(prog1, table1, call_sink=False)
        prog2, table2 = make()
        mapping = distribute(expand_program(prog2, table2), ring(3))
        bb = run_generated(mapping, table2)
        assert bb["outputs"] == seq.outputs
        assert bb["final_state"] == seq.final_state

    def test_max_iterations(self):
        table = FunctionTable()
        table.register("read", ins=["unit"], outs=["int"])(lambda _s: 1)
        table.register("step", ins=["int", "int"], outs=["int", "int"])(
            lambda s, i: (s + i, s + i)
        )
        table.register("emit", ins=["int"])(lambda y: None)
        b = ProgramBuilder("p", table)
        state, item = b.params("state", "item")
        s2, y = b.apply("step", state, item)
        prog = b.stream(s2, y, inp="read", out="emit", init_value=0, source=None)
        mapping = distribute(expand_program(prog, table), ring(1))
        bb = run_generated(mapping, table, max_iterations=3)
        assert bb["outputs"] == [1, 2, 3]
        assert bb["final_state"] == 3

    def test_wrong_arg_count(self):
        _prog, table, mapping = df_program()
        with pytest.raises(ValueError, match="argument"):
            run_generated(mapping, table, args=())


class TestNestedSkeletonRoundTrip:
    """Codegen round-trip on a *nested* program: an ``itermem`` stream
    loop whose body chains an scm and a df farm (the flat-program tests
    above never exercise MEM + two farm protocols in one executive)."""

    SPEC = {
        "version": 1, "seed": 0, "kind": "stream", "arch": ["ring", 4],
        "input": [], "iterations": 3,
        "stages": [
            {"op": "expand", "fn": "spread"},
            {"op": "scm", "split": "chunk", "comp": "sumlist",
             "merge": "total", "degree": 3},
            {"op": "expand", "fn": "rangeto"},
            {"op": "df", "comp": "sq", "acc": "add", "degree": 2},
        ],
    }

    def _build(self):
        from repro.conformance import CaseSpec, build_case
        from repro.conformance.functions import reset_stream
        from repro.conformance.generator import make_arch

        built = build_case(CaseSpec.from_dict(self.SPEC))
        reset_stream()
        mapping = distribute(
            expand_program(built.program, built.table), make_arch(built.spec)
        )
        return built, mapping

    def test_generated_python_matches_emulation(self):
        from repro.conformance.functions import reset_stream

        built, mapping = self._build()
        seq = emulate(built.program, built.table,
                      max_iterations=built.max_iterations)
        reset_stream()
        bb = run_generated(mapping, built.table,
                           max_iterations=built.max_iterations)
        assert bb["outputs"] == seq.outputs
        assert bb["final_state"] == seq.final_state

    def test_generated_source_contains_both_farm_protocols(self):
        built, mapping = self._build()
        src = generate_python(mapping)
        module = load_executive(src)
        assert "build_executive" in module
        # both skeleton instances and the stream memory made it to code
        assert "scm0_split" in src and "scm0_merge" in src
        assert "df1_master" in src
        assert "mem" in src

    def test_macro_emission_covers_nested_processes(self):
        built, mapping = self._build()
        combined = "\n".join(emit_all(mapping).values())
        for pid in mapping.graph.processes:
            if mapping.graph[pid].kind in ("master", "split", "merge", "mem"):
                # macros name threads by raw pid, python code by mangled id
                assert pid in combined or pid.replace(".", "_") in combined, pid


class TestMacroEmission:
    def test_every_busy_processor_has_macro(self):
        _prog, _table, mapping = df_program()
        macros = emit_all(mapping)
        for proc, text in macros.items():
            assert f"define(`PROCESSOR', `{proc}')" in text
            assert "loop_" in text

    def test_macro_mentions_kernel_ops(self):
        _prog, _table, mapping = df_program()
        text = emit_macro(mapping, mapping.arch.io_processor())
        assert "alt_" in text  # the master lives on the I/O processor
        assert "call_" in text
        assert "send_" in text

    def test_remote_edges_annotated(self):
        _prog, _table, mapping = df_program()
        combined = "\n".join(emit_all(mapping).values())
        assert "local" in combined
        assert "->" in combined  # at least one remote edge annotation
