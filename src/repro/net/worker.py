"""The ``repro worker`` entrypoint: one node of a distributed cluster.

A worker dials the coordinator (``repro worker --connect host:port``),
announces itself with HELLO, and then serves runs for the life of the
connection: each ASSIGN carries the run's
:class:`~repro.backends.hosting.RunPlan` and this worker's slice of the
processor set; the worker builds its network channels, stop flag and
boards, hands them to :func:`~repro.backends.hosting.host_run` — the
driver every kernel-hosted backend runs — and reports SINKS/DONE/ERROR
back up the same socket.

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
from typing import List, Optional, Tuple

from ..backends.base import pin_to_cpu
from ..backends.hosting import RunPlan, host_run
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
    """The active run of a session: where the link reader's frames go,
    and what the run thread hands :func:`host_run`."""

    def __init__(self, run_id: int, plan: RunPlan, processors: List[str],
                 epoch: float, link: Link):
        self.run_id = run_id
        self.plan = plan
        self.processors = processors
        self.epoch = epoch
        self.stop = NetStopEvent(link, run_id)
        #: Network edges leaving this worker / arriving here.
        self.out, self.inboxes = net_channels(
            processors, {e[0]: (e[3], e[4]) for e in plan.cross_edges},
            link, run_id, plan.queue_size,
        )
        self.health = (
            NetHealthBoard(plan.fault_topology.n_slots, link, run_id)
            if plan.supervised else None)
        self.stream_board = (
            NetStreamBoard(link, run_id) if plan.budget is not None else None)
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
            self._report_error(run, "?")
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
        job = pickle.loads(rest[20 + mlen:])
        return _Run(run, job["plan"], job["processors"], epoch, self.link)

    # -- the run thread ----------------------------------------------------

    def _execute(self, ctx: _Run) -> None:
        link = self.link
        header = pack_run(ctx.run_id)
        try:
            payload = host_run(
                ctx.plan,
                hosts=ctx.processors,
                remote={**ctx.out, **ctx.inboxes},
                stop=ctx.stop,
                epoch=ctx.epoch,
                health_board=ctx.health,
                stream_board=ctx.stream_board,
                on_sinks=lambda sinks: link.send(
                    Frame.SINKS, header, *codec.encode(sinks)),
            )
            link.send(Frame.DONE, header, pickle.dumps(payload))
        except ConnectionClosed:
            pass  # the coordinator saw the same dead socket
        except Exception:
            self._report_error(ctx.run_id, "+".join(sorted(ctx.processors)))

    def _report_error(self, run: int, where: str) -> None:
        """ERROR with the traceback of the exception being handled."""
        try:
            self.link.send(Frame.ERROR, pack_run(run), *codec.encode({
                "processor": where,
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
