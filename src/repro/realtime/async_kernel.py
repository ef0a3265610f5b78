"""Coroutine dialect of the realtime wrapper (asyncio backend).

:class:`AsyncRealtimeKernel` is :class:`~repro.realtime.kernel.RealtimeKernel`
with its waiting re-expressed for one event loop: the blocking
primitives become coroutines, the doorbell and the admission condition
become :class:`asyncio.Event` s, and the watchdog runs as a loop task
instead of an OS thread — an OS thread must never touch the
loop-confined :class:`asyncio.Queue` channels of an
:class:`~repro.codegen.async_kernel.AsyncioKernel`.

All admission *logic* — shed/degrade policy, the pump, the ledger, the
deadline scan, the rule for how long the watchdog may sleep — is
inherited unchanged; only the substrate-specific waiting differs, which
is exactly the paper's porting contract applied to the realtime layer
itself.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Optional

from ..codegen.kernel import Shutdown
from .budget import LatencyBudget
from .kernel import RealtimeKernel, StreamBoard
from .topology import StreamTopology

__all__ = ["AsyncRealtimeKernel"]


class _Room(asyncio.Event):
    """The admission condition on a loop: the pump ``notify_all()`` s
    it, the parked grabber task awaits it."""

    notify_all = asyncio.Event.set

    async def park(self) -> None:
        # No await between the caller's check and this clear(): on one
        # loop nothing can pop the head in between.
        self.clear()
        await self.wait()


class AsyncRealtimeKernel(RealtimeKernel):
    """Budget enforcement for a coroutine executive on one event loop.

    Construct, then call :meth:`start` from inside the running loop
    (the watchdog is a task, not a thread), run the executive, and
    finish with :meth:`ashutdown`.
    """

    def __init__(
        self,
        inner: Any,
        topology: StreamTopology,
        budget: LatencyBudget,
    ):
        super().__init__(
            inner, topology, budget, start_watchdog=False,
            board=StreamBoard([0.0, 0.0], asyncio.Event()))
        self._room = _Room()
        self._watch_task: Optional[asyncio.Task] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start the watchdog task (call inside the running loop)."""
        if self._admission_active and self._watch_task is None:
            loop = asyncio.get_running_loop()
            self._watch_task = loop.create_task(self._watch_async())
            self._watch_task.set_name("rt-watchdog")

    async def _watch_async(self) -> None:
        bell = self._board.bell
        loop = asyncio.get_running_loop()
        while True:
            # The timeout rings the same bell a delivery does.
            timer = loop.call_later(self._watch_tick(), bell.set)
            try:
                await bell.wait()
            finally:
                timer.cancel()
            bell.clear()

    async def ashutdown(self) -> None:
        """Cancel the watchdog task; stop the wrapped kernel's services."""
        self._closing = True
        self._room.notify_all()
        if self._watch_task is not None:
            self._watch_task.cancel()
            await asyncio.gather(self._watch_task, return_exceptions=True)
            self._watch_task = None
        inner_shutdown = getattr(self._inner, "shutdown", None)
        if inner_shutdown is not None:
            inner_shutdown()

    # -- pacing (the grabber task) -----------------------------------------

    @staticmethod
    def _task_name() -> str:
        task = asyncio.current_task()
        return task.get_name() if task is not None else "main"

    async def call_(self, func: Callable, *args: Any) -> Any:
        if (self._admission_active
                and self._task_name() == self._input_thread):
            await self._pace_async()
        return await self._inner.call_(func, *args)

    async def _pace_async(self) -> None:
        period = self._pace_setup()
        if period is None:
            return
        # One sleep to the due time; teardown cancels the task.
        wait = self._next_due - time.perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
        if self.stop.is_set():
            raise Shutdown
        self._pace_advance(period)

    # -- admission (the grabber task) --------------------------------------

    async def send_(self, edge: str, value: Any) -> None:
        if (not self._admission_active or edge not in self._edge_set
                or self._inner.is_stop(value)):
            return await self._inner.send_(edge, value)
        if edge == self._topo.primary_edge:
            return await self._admit_async(value)
        with self._lock:
            if self._last_shed:
                return None  # the rest of a shed frame's fan-out
            if self._pending:
                entry = self._pending[-1]
                if edge not in entry.values:
                    entry.values[edge] = value
                    self._kick()
                    return None
        # No pending entry can take it (flush raced us): send directly.
        return await self._inner.send_(edge, value)

    async def _admit_async(self, value: Any) -> None:
        while self._must_park():
            await self._room.park()
        return self._admit_locked(value)

    # -- teardown (the grabber task, via generated stop_) ------------------

    async def stop_(self, edge: str) -> None:
        if self._admission_active and edge in self._edge_set:
            await self._flush_async()
        return await self._inner.stop_(edge)

    async def _flush_async(self) -> None:
        with self._lock:
            flushing = self._begin_flush()
        while flushing:
            with self._lock:
                if self._flush_step():
                    return
            await self._room.park()

    # -- delivery (the output task) ----------------------------------------

    async def recv_(self, edge: str) -> Any:
        value = await self._inner.recv_(edge)
        if (self._delivery_active and edge == self._topo.delivery_edge
                and not self._inner.is_stop(value)):
            self._stamps.append(self.now_us())
            self._board.note_delivered()
        return value
