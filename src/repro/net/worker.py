"""The ``repro worker`` entrypoint: one node of a distributed cluster.

A worker dials the coordinator (``repro worker --connect host:port``),
announces itself with HELLO, and then serves runs for the life of the
connection: each ASSIGN carries the generated executive source, this
worker's slice of the processor set, and the wire plumbing parameters;
the worker builds a :class:`~repro.codegen.kernel.Kernel` over its
network channels (wrapped by the fault supervisor and the realtime layer
exactly as on the processes backend), runs its executive threads, and
reports SINKS/DONE/ERROR back up the same socket.

Workers are *persistent* — they serve many runs — so two things keep
state from leaking between runs: every run-scoped frame carries the run
id (stragglers from a finished run are dropped), and ASSIGN names the
modules that define the application's sequential functions, which the
worker re-imports before unpickling the table.  That reproduces the
``spawn`` start method's fresh-interpreter semantics: module-level
stream state (frame counters and the like) starts from scratch each run.

A lost connection aborts the active run locally (the coordinator saw the
same dead socket and is already re-dispatching in-flight work to
survivors) and the worker re-dials with bounded exponential backoff, so
a restarted coordinator picks its cluster back up without operator help.
"""

from __future__ import annotations

import importlib
import os
import pickle
import socket
import struct
import sys
import threading
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from ..backends.base import pin_to_cpu
from ..codegen.kernel import Kernel
from ..codegen.pygen import load_executive
from . import codec
from .kernel import (
    NetHealthBoard, NetStopEvent, NetStreamBoard, net_channels,
)
from .protocol import ConnectionClosed, Frame, Link, pack_run, split_edge, split_run

__all__ = ["WorkerSession", "worker_main", "parse_hostport"]

_U32 = struct.Struct("!I")
_DD = struct.Struct("!dd")

#: Modules never re-imported between runs (no stable import name).
_NO_REFRESH = ("builtins", "__main__", "__mp_main__")


def parse_hostport(text: str, *, default_host: str = "127.0.0.1") -> Tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return host or default_host, int(port)


def _refresh_modules(names: List[str]) -> None:
    """Re-import the modules whose functions the next run will unpickle.

    Unpickling a function resolves it by module + name at load time, so
    re-importing *first* means the run binds to fresh module globals —
    the persistent-worker equivalent of spawn's clean interpreter.
    """
    for name in names:
        if name in _NO_REFRESH:
            continue
        module = sys.modules.get(name)
        if module is None:
            importlib.import_module(name)
        else:
            importlib.reload(module)


class _Run:
    """Everything one ASSIGN set up (the active run of a session)."""

    def __init__(self, run_id: int, base: Kernel, stop: NetStopEvent,
                 out: Dict[str, Any], inboxes: Dict[str, Any]):
        self.run_id = run_id
        self.base = base
        self.top: Any = base     # base, possibly wrapped (faults/realtime)
        self.stop = stop
        self.out = out           # network edges leaving this worker
        self.inboxes = inboxes   # network edges arriving here
        self.health: Optional[NetHealthBoard] = None
        self.stream_board: Optional[NetStreamBoard] = None
        self.rt_kernel: Optional[Any] = None
        self.wrapped = False     # True when top != base (needs shutdown())
        self.source = ""
        self.fns: Dict[str, Any] = {}
        self.seed: Dict[str, Any] = {}
        self.my_sinks: List[str] = []
        self.thread: Optional[threading.Thread] = None


class WorkerSession:
    """One connection's lifetime: HELLO, then serve runs until BYE/EOF."""

    def __init__(self, link: Link):
        self.link = link
        self.ctx: Optional[_Run] = None

    def serve(self) -> str:
        """Returns ``"bye"`` on a clean BYE; raises ConnectionClosed."""
        self.link.send(Frame.HELLO, *codec.encode({
            "host": socket.gethostname(),
            "pid": os.getpid(),
            "version": 1,
        }))
        try:
            while True:
                kind, body = self.link.recv()
                if kind == Frame.BYE:
                    return "bye"
                self._dispatch(kind, body)
        finally:
            # Whatever ended the session, unwind the active run locally.
            ctx = self.ctx
            if ctx is not None:
                ctx.stop.set_local()

    # -- frame dispatch (the single reader thread) -------------------------

    def _dispatch(self, kind: int, body: memoryview) -> None:
        if kind == Frame.ASSIGN:
            return self._assign(body)
        ctx = self.ctx
        if ctx is None:
            return
        run, rest = split_run(body)
        if run != ctx.run_id:
            return  # straggler from a finished run
        if kind == Frame.DATA:
            edge, payload = split_edge(rest)
            inbox = ctx.inboxes.get(edge)
            if inbox is not None:
                inbox.push(payload)
        elif kind == Frame.CREDIT:
            edge, counter = split_edge(rest)
            channel = ctx.out.get(edge)
            if channel is not None:
                channel.add_credit(_U32.unpack(counter)[0])
        elif kind == Frame.BEAT:
            if ctx.health is not None:
                ctx.health.apply(rest)
        elif kind == Frame.COUNT:
            if ctx.stream_board is not None:
                ctx.stream_board.apply(rest)
        elif kind == Frame.STOPRUN:
            ctx.stop.set_local()
        elif kind == Frame.RUNEND:
            ctx.stop.set_local()
            self.ctx = None

    # -- run setup (synchronous: later DATA needs the inboxes) -------------

    def _assign(self, body: memoryview) -> None:
        run, rest = split_run(body)
        try:
            ctx = self._build_run(run, rest)
        except Exception:
            try:
                self.link.send(Frame.ERROR, pack_run(run), *codec.encode({
                    "processor": "?",
                    "traceback": traceback.format_exc(),
                }))
            except ConnectionClosed:
                pass
            return
        old, self.ctx = self.ctx, ctx
        if old is not None:
            old.stop.set_local()
            if old.thread is not None:
                old.thread.join(1.0)
        ctx.thread = threading.Thread(
            target=self._execute, args=(ctx,),
            name=f"net-run-{run}", daemon=True,
        )
        ctx.thread.start()

    def _build_run(self, run: int, rest: memoryview) -> _Run:
        coord_now, coord_epoch = _DD.unpack(rest[:16])
        mlen = _U32.unpack(rest[16:20])[0]
        modules = codec.decode(rest[20:20 + mlen])
        local_now = time.perf_counter()
        # perf_counter is CLOCK_MONOTONIC (system-wide on Linux), so on
        # one host this offset is near-exact; across hosts it absorbs
        # only the ASSIGN's flight time — well inside the span-bound
        # slack the conformance invariants allow wall-clock backends.
        epoch = local_now - (coord_now - coord_epoch)
        _refresh_modules(modules)
        payload = pickle.loads(rest[20 + mlen:])

        stop = NetStopEvent(self.link, run)
        out, inboxes = net_channels(
            payload["processors"], payload["edges"], self.link, run,
            payload["queue_size"],
        )
        base = Kernel(
            hosts=payload["processors"],
            placement=payload["placement"],
            remote={**out, **inboxes},
            stop=stop,
            queue_size=payload["queue_size"],
            poll_s=payload["poll_s"],
            epoch=epoch,
            record_spans=payload["record_spans"],
        )
        ctx = _Run(run, base, stop, out, inboxes)
        kernel: Any = base
        faults = payload.get("faults")
        if faults is not None:
            from ..faults.report import FaultReport
            from ..faults.supervisor import SupervisedKernel

            ctx.health = NetHealthBoard(
                faults["topology"].n_slots, self.link, run
            )
            kernel = SupervisedKernel(
                base,
                faults["topology"],
                plan=faults["plan"],
                policy=faults["policy"],
                report=FaultReport(),
                board=ctx.health,
                processor=base.hosts,
            )
            ctx.wrapped = True
        realtime = payload.get("realtime")
        if realtime is not None:
            from ..realtime.kernel import RealtimeKernel

            ctx.stream_board = NetStreamBoard(self.link, run)
            kernel = ctx.rt_kernel = RealtimeKernel(
                kernel,
                realtime["topology"],
                realtime["budget"],
                board=ctx.stream_board,
                processor=base.hosts,
            )
            ctx.wrapped = True
        ctx.top = kernel
        ctx.source = payload["source"]
        ctx.fns = payload["fns"]
        ctx.seed = payload["seed"]
        ctx.my_sinks = sorted(
            p for p in payload["sink_procs"] if p in base.hosts
        )
        return ctx

    # -- the run thread ----------------------------------------------------

    def _execute(self, ctx: _Run) -> None:
        link = self.link
        try:
            module = load_executive(ctx.source)
            ctx.top.blackboard.update(ctx.seed)
            _threads, sinks = module["build_executive"](ctx.top, ctx.fns)
            local_sinks = [t for t in sinks if isinstance(t, threading.Thread)]
            for thread in local_sinks:
                while thread.is_alive() and not ctx.stop.is_set():
                    thread.join(0.1)
            if local_sinks and not ctx.stop.is_set():
                link.send(
                    Frame.SINKS, pack_run(ctx.run_id),
                    *codec.encode(ctx.my_sinks),
                )
            ctx.stop.wait()
            for thread in ctx.base.local_threads():
                thread.join(0.5)
            if ctx.wrapped:
                # Stop the service threads (heartbeat, realtime watchdog)
                # before reporting: a beat sent after DONE would be a
                # straggler the next run must not see.
                ctx.top.shutdown()
            fault_payload: List = []
            if ctx.wrapped and hasattr(ctx.top, "fault_report"):
                fault_payload = ctx.top.fault_report.to_payload()
            rt_payload = None
            if ctx.rt_kernel is not None:
                rt_payload = {
                    "admission": ctx.rt_kernel.admission_payload(),
                    "delivery": ctx.rt_kernel.delivery_payload(),
                }
            blob = pickle.dumps({
                "blackboard": ctx.base.blackboard,
                "compute": ctx.base.compute_spans,
                "transfer": ctx.base.transfer_spans,
                "faults": fault_payload,
                "realtime": rt_payload,
            })
            link.send(Frame.DONE, pack_run(ctx.run_id), blob)
        except ConnectionClosed:
            ctx.stop.set_local()
        except Exception:
            ctx.stop.set_local()
            try:
                link.send(Frame.ERROR, pack_run(ctx.run_id), *codec.encode({
                    "processor": ctx.base.processor,
                    "traceback": traceback.format_exc(),
                }))
            except ConnectionClosed:
                pass


def worker_main(
    connect: str,
    *,
    retries: int = 8,
    backoff_s: float = 0.05,
    max_backoff_s: float = 2.0,
    cpu_index: Optional[int] = None,
) -> int:
    """Serve a coordinator until BYE; reconnect on connection loss.

    ``retries`` bounds *consecutive* failed dials; a successful
    connection resets the budget, so a long-lived worker survives any
    number of coordinator restarts but gives up promptly when the
    coordinator is gone for good.  ``cpu_index`` is this worker's
    ordinal in a locally spawned cluster (:class:`ClusterHarness` passes
    it): the worker pins itself to that CPU of its inherited mask before
    it starts any thread.  A worker started by hand on another host is
    placed by whoever started it and is left alone.
    """
    if cpu_index is not None:
        pin_to_cpu(cpu_index)
    try:
        host, port = parse_hostport(connect)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    failures = 0
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
        except OSError as err:
            failures += 1
            if failures > retries:
                print(
                    f"error: cannot reach coordinator at {host}:{port} "
                    f"after {retries} attempts: {err}",
                    file=sys.stderr,
                )
                return 1
            time.sleep(min(backoff_s * (2 ** (failures - 1)), max_backoff_s))
            continue
        failures = 0
        sock.settimeout(None)
        session = WorkerSession(Link(sock))
        try:
            if session.serve() == "bye":
                return 0
        except ConnectionClosed:
            continue  # re-dial with a fresh backoff budget
