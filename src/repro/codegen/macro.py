"""Portable macro-code emission (the ``.m4`` layer of Fig. 2).

SynDEx's output is "processor-independent programs (m4 macro-code, one
per processor)".  This module renders the same information for our
executive: for each processor, a macro program listing its threads and,
per thread, the sequence of kernel-primitive macros (``recv_``,
``call_``, ``send_``, ``alt_`` ...) it executes each iteration.  The
text is target-neutral documentation of the executive — the Python
back end (:mod:`repro.codegen.pygen`) is one expansion of it, a C
back end would be another.
"""

from __future__ import annotations

from typing import Dict, List

from ..pnt.graph import ProcessGraph, ProcessKind
from ..syndex.distribute import Mapping

__all__ = ["emit_macro", "emit_all"]


def _edge_macro(graph: ProcessGraph, mapping: Mapping, idx: int) -> str:
    e = graph.edges[idx]
    src_p = mapping.processor_of(e.src)
    dst_p = mapping.processor_of(e.dst)
    where = "local" if src_p == dst_p else f"{src_p}->{dst_p}"
    return f"e{idx}({where}, {e.type})"


def _thread_ops(graph: ProcessGraph, mapping: Mapping, pid: str) -> List[str]:
    """The per-iteration kernel-macro sequence of one process."""
    proc = graph[pid]
    ins = sorted(
        (e.dst_port, i) for i, e in enumerate(graph.edges) if e.dst == pid
    )
    outs = [
        (e.src_port, i) for i, e in enumerate(graph.edges) if e.src == pid
    ]
    ops: List[str] = []

    def recv(port: int) -> None:
        for p, i in ins:
            if p == port:
                ops.append(f"recv_({_edge_macro(graph, mapping, i)})")

    def send(port: int, what: str) -> None:
        for p, i in outs:
            if p == port:
                ops.append(f"send_({_edge_macro(graph, mapping, i)}, {what})")

    kind = proc.kind
    if kind == ProcessKind.INPUT:
        if proc.func:
            ops.append(f"call_({proc.func}, {proc.params.get('source')!r})")
        send(0, "item")
    elif kind == ProcessKind.CONST:
        send(0, repr(proc.params.get("value")))
    elif kind == ProcessKind.MEM:
        send(0, "state")
        recv(0)
        ops.append("update_(state)")
    elif kind == ProcessKind.APPLY:
        for port in range(proc.n_in):
            recv(port)
        ops.append(f"call_({proc.func}, in0..in{proc.n_in - 1})")
        for port in range(proc.n_out):
            send(port, f"out{port}")
    elif kind == ProcessKind.WORKER:
        recv(0)
        ops.append(f"call_({proc.func}, packet)")
        send(0, "result")
    elif kind in (ProcessKind.ROUTER_MW, ProcessKind.ROUTER_WM):
        recv(0)
        send(0, "message")
    elif kind == ProcessKind.SPLIT:
        recv(0)
        ops.append(f"call_({proc.func}, {proc.params['degree']}, x)")
        for port in range(proc.n_out):
            send(port, f"piece{port}")
    elif kind == ProcessKind.MERGE:
        for port in range(proc.n_in):
            recv(port)
        ops.append(f"call_({proc.func}, x, parts)")
        send(0, "merged")
    elif kind == ProcessKind.MASTER:
        recv(0)
        recv(1)
        degree = proc.params["degree"]
        ops.append(f"grain(remaining, {degree})  ; items per packet")
        for i in range(degree):
            send(1 + i, f"packet{i}")
        collect = [
            _edge_macro(graph, mapping, idx)
            for p, idx in ins
            if p >= 2
        ]
        ops.append(f"alt_([{', '.join(collect)}])")
        ops.append(f"call_({proc.func}, acc, result)  ; repeat until drained")
        send(0, "acc")
    elif kind == ProcessKind.OUTPUT:
        recv(0)
        if proc.params.get("discard"):
            ops.append("discard_()")
        elif proc.func:
            ops.append(f"call_({proc.func}, y)")
    return ops


def emit_macro(mapping: Mapping, processor: str) -> str:
    """Render the macro program of one processor."""
    graph = mapping.graph
    lines = [
        f"define(`PROCESSOR', `{processor}')",
        f"define(`PROGRAM', `{graph.name}')",
        f"define(`ARCHITECTURE', `{mapping.arch.name}')",
        "",
    ]
    for pid in mapping.processes_on(processor):
        proc = graph[pid]
        lines.append(f"thread_(`{pid}', `{proc.kind}')dnl")
        lines.append("loop_")
        for op in _thread_ops(graph, mapping, pid):
            lines.append(f"  {op}")
        lines.append("endloop_")
        lines.append("")
    return "\n".join(lines)


def emit_all(mapping: Mapping) -> Dict[str, str]:
    """Macro programs for every (non-idle) processor."""
    return {
        proc: emit_macro(mapping, proc)
        for proc in mapping.arch.processor_ids()
        if mapping.processes_on(proc)
    }
