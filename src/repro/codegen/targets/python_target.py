"""The ``python`` codegen target: mapped process graph → thread executive.

The SynDEx back end emits "processor-independent programs (m4
macro-code, one per processor) which are finally transformed into
compilable code by simply inlining a set of kernel primitives".  The
:class:`ExecutiveGenerator` here performs the equivalent transformation:
it *generates Python source text* — one ``proc_<id>_<process>`` thread
body per process, grouped per processor — written purely against the
kernel primitives of :mod:`repro.codegen.kernel`.  The generated module
is self-contained: compile it with
:func:`~repro.codegen.pygen.load_executive` and run it with any kernel
implementation.

The generator is dialect-parameterised so other targets reuse the same
per-skeleton bodies: the ``asyncio`` target prefixes every blocking
primitive with ``await`` and spawns coroutines, the ``standalone``
target swaps the runtime preamble for the inlined kernel module.  The
``python`` dialect is the identity — its output is byte-identical to
what ``repro.codegen.pygen`` historically produced, which is what keeps
the content-addressed compile cache stable across this refactor.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ...pnt.graph import ProcessGraph, ProcessKind
from ...syndex.distribute import Mapping
from .registry import TARGETS, CodegenTarget

__all__ = ["ExecutiveGenerator", "PythonTarget", "thread_name"]


def thread_name(pid: str) -> str:
    """The executive thread name generated for process ``pid``."""
    return "proc_" + pid.replace(".", "_").replace("-", "_")


def _in_edges(graph: ProcessGraph, pid: str) -> List[Tuple[int, int]]:
    """(dst_port, edge_index) pairs, sorted by port."""
    out = []
    for idx, e in enumerate(graph.edges):
        if e.dst == pid:
            out.append((e.dst_port, idx))
    out.sort()
    return out


def _out_edges(graph: ProcessGraph, pid: str, port: int) -> List[int]:
    return [
        idx
        for idx, e in enumerate(graph.edges)
        if e.src == pid and e.src_port == port
    ]


class ExecutiveGenerator:
    """Generate the executive for one dialect of the kernel primitives.

    Dialect knobs (class attributes, overridden by subclasses):
        AWAIT: prefix of every blocking primitive call (``"await "`` for
            coroutine dialects, empty for threads).
        DEF: how a process body is declared.
        UNITS: the name of the spawned-unit list in ``build_executive``.
        UNIT_NOUN: what one spawned unit is called in docstrings.
        PROVENANCE: the generator named in the emitted module docstring.
        PREAMBLE: the runtime-support import lines.
    """

    AWAIT = ""
    DEF = "def"
    UNITS = "threads"
    UNIT_NOUN = "thread"
    PROVENANCE = "repro.codegen.pygen"
    PREAMBLE = (
        "from repro.core.semantics import EndOfStream, TaskOutcome",
        "from repro.codegen.kernel import NO_PIECE, Chunk, NoPiece, grain",
    )

    def __init__(self, mapping: Mapping, max_iterations: Optional[int]):
        self.mapping = mapping
        self.graph = mapping.graph
        self.max_iterations = max_iterations

    # -- dialect-aware send/stop helpers ------------------------------------

    def _send_all(self, indices: List[int], value_expr: str, indent: str) -> str:
        return "".join(
            f"{indent}{self.AWAIT}kernel.send_('e{idx}', {value_expr})\n"
            for idx in indices
        )

    def _stop_all(self, pid: str, indent: str) -> str:
        lines = ""
        proc = self.graph[pid]
        for port in range(proc.n_out):
            for idx in _out_edges(self.graph, pid, port):
                lines += f"{indent}{self.AWAIT}kernel.stop_('e{idx}')\n"
        return lines

    # -- per-kind bodies ----------------------------------------------------

    def gen_input(self, pid: str) -> str:
        proc = self.graph[pid]
        outs = _out_edges(self.graph, pid, 0)
        if proc.func is None:  # one-shot parameter
            param = proc.params.get("param", pid)
            body = f"    value = kernel.blackboard['arg_{param}']\n"
            body += self._send_all(outs, "value", "    ")
            body += self._stop_all(pid, "    ")
            return body
        source = repr(proc.params.get("source"))
        body = "    iterations = 0\n"
        body += "    while MAX_ITERATIONS is None or iterations < MAX_ITERATIONS:\n"
        body += "        try:\n"
        body += (
            f"            value = {self.AWAIT}kernel.call_"
            f"(table[{proc.func!r}], {source})\n"
        )
        body += "        except EndOfStream:\n"
        body += "            break\n"
        body += self._send_all(outs, "value", "        ")
        body += "        iterations += 1\n"
        body += self._stop_all(pid, "    ")
        return body

    def gen_const(self, pid: str) -> str:
        proc = self.graph[pid]
        outs = _out_edges(self.graph, pid, 0)
        body = f"    value = {proc.params['value']!r}\n"
        body += "    while True:\n"
        body += self._send_all(outs, "value", "        ")
        return body

    def gen_mem(self, pid: str) -> str:
        proc = self.graph[pid]
        outs = _out_edges(self.graph, pid, 0)
        loop_in = _in_edges(self.graph, pid)[0][1]
        if "init_func" in proc.params:
            init = (
                f"{self.AWAIT}kernel.call_"
                f"(table[{proc.params['init_func']!r}])"
            )
        else:
            init = repr(proc.params["init_value"])
        body = f"    state = {init}\n"
        body += "    while True:\n"
        body += self._send_all(outs, "state", "        ")
        body += f"        new = {self.AWAIT}kernel.recv_('e{loop_in}')\n"
        body += "        if kernel.is_stop(new):\n"
        body += "            kernel.blackboard['final_state'] = state\n"
        body += "            break\n"
        body += "        state = new\n"
        return body

    def gen_apply(self, pid: str) -> str:
        proc = self.graph[pid]
        ins = _in_edges(self.graph, pid)
        body = "    while True:\n"
        for port, idx in ins:
            body += f"        in{port} = {self.AWAIT}kernel.recv_('e{idx}')\n"
        if ins:
            stops = " or ".join(f"kernel.is_stop(in{port})" for port, _ in ins)
            body += f"        if {stops}:\n"
            body += self._stop_all(pid, "            ")
            body += "            break\n"
        # Nullary functions fire every iteration, throttled by the bounded
        # channels (like constant sources); shutdown unwinds them.
        args = ", ".join(f"in{port}" for port, _ in ins)
        body += (
            f"        result = {self.AWAIT}kernel.call_"
            f"(table[{proc.func!r}], {args})\n"
        )
        if proc.n_out == 1:
            body += self._send_all(
                _out_edges(self.graph, pid, 0), "result", "        "
            )
        else:
            for port in range(proc.n_out):
                body += self._send_all(
                    _out_edges(self.graph, pid, port), f"result[{port}]", "        "
                )
        return body

    def gen_worker(self, pid: str) -> str:
        proc = self.graph[pid]
        (_, in_idx), = _in_edges(self.graph, pid)
        outs = _out_edges(self.graph, pid, 0)
        body = "    while True:\n"
        body += f"        x = {self.AWAIT}kernel.recv_('e{in_idx}')\n"
        body += "        if kernel.is_stop(x):\n"
        body += self._stop_all(pid, "            ")
        body += "            break\n"
        body += "        if is_no_piece(x):\n"
        body += self._send_all(outs, "NO_PIECE", "            ")
        body += "            continue\n"
        call = f"{self.AWAIT}kernel.call_(table[{proc.func!r}]"
        body += "        if isinstance(x, Chunk):\n"
        body += "            y = Chunk()\n"
        body += "            for item in x:\n"
        body += f"                y.append({call}, item))\n"
        body += "        else:\n"
        body += f"            y = {call}, x)\n"
        body += self._send_all(outs, "y", "        ")
        return body

    def gen_router(self, pid: str) -> str:
        (_, in_idx), = _in_edges(self.graph, pid)
        outs = _out_edges(self.graph, pid, 0)
        body = "    while True:\n"
        body += f"        x = {self.AWAIT}kernel.recv_('e{in_idx}')\n"
        body += "        if kernel.is_stop(x):\n"
        body += self._stop_all(pid, "            ")
        body += "            break\n"
        body += self._send_all(outs, "x", "        ")
        return body

    def gen_split(self, pid: str) -> str:
        proc = self.graph[pid]
        degree = proc.params["degree"]
        (_, in_idx), = _in_edges(self.graph, pid)
        body = "    while True:\n"
        body += f"        x = {self.AWAIT}kernel.recv_('e{in_idx}')\n"
        body += "        if kernel.is_stop(x):\n"
        body += self._stop_all(pid, "            ")
        body += "            break\n"
        body += (
            f"        pieces = {self.AWAIT}kernel.call_"
            f"(table[{proc.func!r}], {degree}, x)\n"
        )
        for i in range(degree):
            piece = f"pieces[{i}] if {i} < len(pieces) else NO_PIECE"
            body += self._send_all(
                _out_edges(self.graph, pid, i), f"({piece})", "        "
            )
        return body

    def gen_merge(self, pid: str) -> str:
        proc = self.graph[pid]
        degree = proc.params["degree"]
        ins = dict((port, idx) for port, idx in _in_edges(self.graph, pid))
        body = "    while True:\n"
        body += f"        x = {self.AWAIT}kernel.recv_('e{ins[0]}')\n"
        body += "        parts = []\n"
        for i in range(degree):
            body += (
                f"        parts.append({self.AWAIT}kernel.recv_"
                f"('e{ins[1 + i]}'))\n"
            )
        body += (
            "        if kernel.is_stop(x) or any(kernel.is_stop(p) for p in parts):\n"
        )
        body += self._stop_all(pid, "            ")
        body += "            break\n"
        body += "        parts = [p for p in parts if not is_no_piece(p)]\n"
        body += (
            f"        y = {self.AWAIT}kernel.call_"
            f"(table[{proc.func!r}], x, parts)\n"
        )
        body += self._send_all(_out_edges(self.graph, pid, 0), "y", "        ")
        return body

    def gen_master(self, pid: str) -> str:
        proc = self.graph[pid]
        degree = proc.params["degree"]
        kind = proc.params["farm_kind"]
        ins = dict(_in_edges(self.graph, pid))
        # Port layout: in 0=z, 1=xs, 2+i=collect(i); out 0=result, 1+i=dispatch(i).
        z_idx, xs_idx = ins[0], ins[1]
        collect = [f"e{ins[2 + i]}" for i in range(degree)]
        dispatch = [
            f"e{_out_edges(self.graph, pid, 1 + i)[0]}" for i in range(degree)
        ]
        result_edges = _out_edges(self.graph, pid, 0)
        # The unit of dispatch is a chunk whose size the data decides
        # (the kernel module's ``grain``); a chunk of one is the bare
        # item, so a short list is the paper's one-item-per-packet farm.
        body = f"    collect = {collect!r}\n"
        body += f"    dispatch = {dict(zip(collect, dispatch))!r}\n"
        body += "    while True:\n"
        body += f"        z = {self.AWAIT}kernel.recv_('e{z_idx}')\n"
        body += f"        xs = {self.AWAIT}kernel.recv_('e{xs_idx}')\n"
        body += "        if kernel.is_stop(z) or kernel.is_stop(xs):\n"
        body += self._stop_all(pid, "            ")
        body += "            break\n"
        body += "        acc = z\n"
        body += "        work = list(xs)\n"
        body += "        pos = 0\n"
        body += "        idle = collect[::-1]\n"
        body += "        while True:\n"
        body += "            while idle and pos < len(work):\n"
        body += (
            f"                n = grain(len(work) - pos, {degree})\n"
        )
        body += (
            f"                {self.AWAIT}kernel.send_(dispatch[idle.pop()], "
            "work[pos] if n == 1 else Chunk(work[pos:pos + n]))\n"
        )
        body += "                pos += n\n"
        body += f"            if len(idle) == {degree}:\n"
        body += "                break\n"
        body += f"            edge, got = {self.AWAIT}kernel.alt_(collect)\n"
        body += "            if kernel.is_stop(got):\n"
        body += self._stop_all(pid, "                ")
        body += "                return\n"
        body += "            idle.append(edge)\n"
        body += (
            "            for y in got if isinstance(got, Chunk) else (got,):\n"
        )
        if kind == "tf":
            body += "                outcome = normalize_outcome(y)\n"
            body += "                for r in outcome.results:\n"
            body += (
                f"                    acc = {self.AWAIT}kernel.call_"
                f"(table[{proc.func!r}], acc, r)\n"
            )
            body += "                work.extend(outcome.subtasks)\n"
        else:
            body += (
                f"                acc = {self.AWAIT}kernel.call_"
                f"(table[{proc.func!r}], acc, y)\n"
            )
        body += self._send_all(result_edges, "acc", "        ")
        return body

    def gen_output(self, pid: str) -> str:
        proc = self.graph[pid]
        (_, in_idx), = _in_edges(self.graph, pid)
        body = "    while True:\n"
        body += f"        y = {self.AWAIT}kernel.recv_('e{in_idx}')\n"
        body += "        if kernel.is_stop(y):\n"
        body += "            break\n"
        if proc.params.get("discard"):
            body += "        pass\n"
        elif proc.func is not None:
            body += (
                f"        {self.AWAIT}kernel.call_(table[{proc.func!r}], y)\n"
            )
            body += (
                "        kernel.blackboard.setdefault('outputs', []).append(y)\n"
            )
        else:
            index = proc.params.get("index", 0)
            body += f"        kernel.blackboard['result_{index}'] = y\n"
            body += "        break\n"
        return body

    # -- assembly ------------------------------------------------------------

    _GENERATORS = {
        ProcessKind.INPUT: gen_input,
        ProcessKind.CONST: gen_const,
        ProcessKind.MEM: gen_mem,
        ProcessKind.APPLY: gen_apply,
        ProcessKind.WORKER: gen_worker,
        ProcessKind.ROUTER_MW: gen_router,
        ProcessKind.ROUTER_WM: gen_router,
        ProcessKind.SPLIT: gen_split,
        ProcessKind.MERGE: gen_merge,
        ProcessKind.MASTER: gen_master,
        ProcessKind.OUTPUT: gen_output,
    }

    thread_name = staticmethod(thread_name)

    def generate(self) -> str:
        graph, mapping = self.graph, self.mapping
        units, noun = self.UNITS, self.UNIT_NOUN
        lines = [
            f'"""Distributed executive generated by {self.PROVENANCE}.',
            "",
            f"Program: {graph.name!r}",
            f"Architecture: {mapping.arch.name!r}",
            "",
            "Written against the kernel primitives only (see",
            "repro.codegen.kernel.KERNEL_PRIMITIVES); do not edit by hand.",
            '"""',
            "",
            *self.PREAMBLE,
            "",
            f"MAX_ITERATIONS = {self.max_iterations!r}",
            "",
            "",
            "def is_no_piece(x):",
            "    # isinstance, not identity: tokens may cross OS processes.",
            "    return isinstance(x, NoPiece)",
            "",
            "",
            "def normalize_outcome(y):",
            "    if isinstance(y, TaskOutcome):",
            "        return y",
            "    results, subtasks = y",
            "    return TaskOutcome(results=list(results), subtasks=list(subtasks))",
            "",
            "",
            f"{self.DEF} build_executive(kernel, table):",
            f'    """Spawn every executive {noun}; returns ({units}, sinks)."""',
            f"    {units} = []",
            "    sinks = []",
        ]
        # Group processes per processor, as the m4 story demands.
        for proc_id in mapping.arch.processor_ids():
            members = mapping.processes_on(proc_id)
            if not members:
                continue
            lines.append("")
            lines.append(f"    # ==== processor {proc_id} ====")
            for pid in members:
                process = graph[pid]
                gen = self._GENERATORS[process.kind]
                body = gen(self, pid)
                name = self.thread_name(pid)
                lines.append("")
                lines.append(f"    {self.DEF} {name}():")
                lines.append(f'        """{process.kind} process {pid!r}."""')
                lines.extend(
                    ("    " + line) if line.strip() else line
                    for line in body.rstrip("\n").split("\n")
                )
                lines.append(f"    _t = kernel.spawn_({name.__repr__()}, {name})")
                lines.append(f"    {units}.append(_t)")
                is_sink = process.kind == ProcessKind.OUTPUT and not process.params.get(
                    "discard"
                )
                if is_sink or process.kind == ProcessKind.MEM:
                    lines.append("    sinks.append(_t)")
        lines.append("")
        lines.append(f"    return {units}, sinks")
        lines.append("")
        return "\n".join(lines)


@TARGETS.register
class PythonTarget(CodegenTarget):
    """Threaded Python executive — the reference dialect.

    The same module runs on :class:`~repro.codegen.kernel.Kernel`
    everywhere — hosting every processor (the ``threads`` backend), one
    per OS process (``processes``) or a set per worker of the tcp
    cluster — it is the one dialect every threaded substrate shares.
    """

    name = "python"
    description = "Python thread executive (threads/processes/tcp backends)"
    backend = "threads"
    generator_class = ExecutiveGenerator

    def generate(
        self, mapping: Mapping, *, max_iterations: Optional[int] = None
    ) -> str:
        return self.generator_class(mapping, max_iterations).generate()
