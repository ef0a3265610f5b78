"""Asyncio implementation of the kernel primitives.

The paper's portability claim — the kernel primitives are "the only
platform-dependent part of the programming environment" — means a new
substrate is exactly one class: this one.  :class:`AsyncioKernel` maps
executive threads to coroutine tasks and Transputer channels to bounded
:class:`asyncio.Queue` instances, all multiplexed on one event loop.
Nothing here preempts anything, so thousands of stream executives can
share a process with per-"thread" cost of one Task object — the
I/O-bound regime where OS threads and their stacks are the bottleneck.

The generated executive for this kernel comes from the ``asyncio``
codegen target (:mod:`repro.codegen.targets.asyncio_target`): the same
skeleton bodies as the ``python`` dialect with every blocking primitive
awaited.  Semantics match :class:`~repro.codegen.kernel.Kernel`
primitive for primitive: bounded channels throttle constant sources,
``Shutdown`` (or task cancellation) unwinds bodies at teardown, and
``call_`` records trace spans attributed via the task name.
"""

from __future__ import annotations

import asyncio
import inspect
import queue
import time
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, List, Optional, Tuple

from ..syndex.distribute import Mapping
from .kernel import Shutdown, Stop, grain

if TYPE_CHECKING:  # pragma: no cover
    from ..machine.trace import Trace

__all__ = ["AsyncioKernel", "run_generated_async", "run_generated_asyncio"]


class _StopFlag:
    """Loop-agnostic stop flag with the ``threading.Event`` query API.

    ``asyncio.Event`` binds an event loop on Python 3.9 at construction
    time; the kernel only ever *polls* the flag (never awaits it), so a
    plain boolean with ``is_set``/``set`` keeps the wrapper kernels'
    ``stop`` contract without any loop affinity.
    """

    __slots__ = ("_flag",)

    def __init__(self) -> None:
        self._flag = False

    def is_set(self) -> bool:
        return self._flag

    def set(self) -> None:
        self._flag = True


class AsyncioKernel:
    """Coroutines-and-queues implementation of the kernel primitives.

    Construct it (and run the executive) inside a running event loop:
    channels are :class:`asyncio.Queue` instances created on first use,
    which on Python 3.9 must happen with the loop already running.

    The blocking primitives poll the stop flag every ``poll_s`` (like
    :class:`~repro.codegen.kernel.Kernel`) but park on the queue
    between polls, so an idle executive costs no CPU; teardown both
    sets the flag and cancels the remaining tasks.
    """

    def __init__(
        self,
        *,
        queue_size: int = 4,
        poll_s: float = 0.05,
        trace: Optional["Trace"] = None,
        placement: Optional[Dict[str, str]] = None,
    ):
        self._channels: Dict[str, asyncio.Queue] = {}
        self._tasks: List[asyncio.Task] = []
        self.stop = _StopFlag()
        self._queue_size = queue_size
        self._poll_s = poll_s
        self.stop_token = Stop()
        self.trace = trace
        self.placement: Dict[str, str] = placement or {}
        self._epoch = time.perf_counter()
        #: Extra ALT arrivals parked until the next alt_ call asks.
        self._alt_stash: Dict[str, Deque[Any]] = {}
        #: Scratch space the generated code uses for final results.
        self.blackboard: Dict[str, Any] = {}

    def now_us(self) -> float:
        """Microseconds since kernel construction (the trace's clock)."""
        return (time.perf_counter() - self._epoch) * 1e6

    # -- primitives ------------------------------------------------------------

    def channel(self, edge: str) -> asyncio.Queue:
        if edge not in self._channels:
            self._channels[edge] = asyncio.Queue(maxsize=self._queue_size)
        return self._channels[edge]

    def spawn_(self, name: str, body: Callable) -> "asyncio.Task":
        async def runner() -> None:
            try:
                await body()
            except (Shutdown, asyncio.CancelledError):
                pass

        task = asyncio.get_running_loop().create_task(runner())
        task.set_name(name)
        self._tasks.append(task)
        return task

    async def send_(self, edge: str, value: Any) -> None:
        channel = self.channel(edge)
        while True:
            if self.stop.is_set():
                raise Shutdown
            try:
                channel.put_nowait(value)
                return
            except asyncio.QueueFull:
                pass
            try:
                await asyncio.wait_for(channel.put(value), self._poll_s)
                return
            except asyncio.TimeoutError:
                continue

    async def recv_(self, edge: str) -> Any:
        channel = self.channel(edge)
        while True:
            if self.stop.is_set():
                raise Shutdown
            try:
                return channel.get_nowait()
            except asyncio.QueueEmpty:
                pass
            try:
                return await asyncio.wait_for(channel.get(), self._poll_s)
            except asyncio.TimeoutError:
                continue

    def try_send_(self, edge: str, value: Any) -> None:
        """Non-blocking send; raises ``queue.Full`` with the value not
        enqueued (the exception the thread kernel's callers expect)."""
        try:
            self.channel(edge).put_nowait(value)
        except asyncio.QueueFull:
            raise queue.Full from None

    async def stop_(self, edge: str) -> None:
        await self.send_(edge, self.stop_token)

    async def alt_(self, edges: List[str]) -> Tuple[str, Any]:
        """Wait for a message on any of ``edges`` (the Transputer ALT).

        Several ``Queue.get`` coroutines race under ``asyncio.wait``;
        when more than one wins the same tick every extra arrival is
        parked in a per-edge stash and handed out by a later call, so no
        packet is ever dropped by the race.
        """
        while True:
            if self.stop.is_set():
                raise Shutdown
            for edge in edges:
                stash = self._alt_stash.get(edge)
                if stash:
                    return edge, stash.popleft()
                channel = self.channel(edge)
                try:
                    return edge, channel.get_nowait()
                except asyncio.QueueEmpty:
                    continue
            getters = {
                asyncio.ensure_future(self.channel(edge).get()): edge
                for edge in edges
            }
            try:
                await asyncio.wait(
                    list(getters),
                    timeout=self._poll_s,
                    return_when=asyncio.FIRST_COMPLETED,
                )
            except asyncio.CancelledError:
                for task in getters:
                    task.cancel()
                raise
            for task in getters:
                if not task.done():
                    task.cancel()
            results = await asyncio.gather(
                *getters, return_exceptions=True
            )
            for task, value in zip(getters, results):
                if isinstance(value, BaseException):
                    continue
                self._alt_stash.setdefault(
                    getters[task], deque()
                ).append(value)
            # Loop around: the stash (or a fresh queue item) answers.

    async def call_(self, func: Callable, *args: Any) -> Any:
        if self.trace is None:
            result = func(*args)
            if inspect.isawaitable(result):
                result = await result
            return result
        start = time.perf_counter()
        try:
            result = func(*args)
            if inspect.isawaitable(result):
                # Async-native table functions overlap their awaited I/O
                # across every task on this one event loop.
                result = await result
            return result
        finally:
            end = time.perf_counter()
            task = asyncio.current_task()
            name = task.get_name() if task is not None else "main"
            self.trace.add_compute(
                self.placement.get(name, "?"),
                name,
                (start - self._epoch) * 1e6,
                (end - self._epoch) * 1e6,
            )

    async def join_(
        self, sinks: List["asyncio.Task"], timeout: float = 60.0
    ) -> None:
        """Wait for the sink tasks, then tear everything down."""
        try:
            for task in sinks:
                try:
                    await asyncio.wait_for(asyncio.shield(task), timeout)
                except asyncio.TimeoutError:
                    self.stop.set()
                    raise RuntimeError(
                        f"executive task {task.get_name()!r} did not terminate"
                    ) from None
        finally:
            self.stop.set()
            for task in self._tasks:
                if not task.done():
                    task.cancel()
            await asyncio.gather(*self._tasks, return_exceptions=True)

    def is_stop(self, value: Any) -> bool:
        return isinstance(value, Stop)

    grain_ = staticmethod(grain)


async def run_generated_async(
    mapping: Mapping,
    table,
    *,
    kernel=None,
    max_iterations: Optional[int] = None,
    args: Optional[Tuple] = None,
    timeout: float = 60.0,
) -> Dict[str, object]:
    """Generate, load and run the asyncio executive inside a running loop.

    The coroutine counterpart of :func:`repro.codegen.pygen.run_generated`:
    ``kernel`` defaults to a fresh :class:`AsyncioKernel`, and any object
    implementing the awaitable kernel primitives (for instance an
    :class:`~repro.realtime.async_kernel.AsyncRealtimeKernel` wrapper)
    works.  Returns the kernel blackboard.
    """
    from .pygen import load_executive, seed_arguments
    from .targets import get_target

    source = get_target("asyncio").generate(
        mapping, max_iterations=max_iterations
    )
    module = load_executive(source)
    if kernel is None:
        kernel = AsyncioKernel()
    kernel.blackboard.update(seed_arguments(mapping.graph, args))
    fns = {spec.name: spec.fn for spec in table}
    _tasks, sinks = await module["build_executive"](kernel, fns)
    await kernel.join_(sinks, timeout)
    return kernel.blackboard


def run_generated_asyncio(
    mapping: Mapping,
    table,
    *,
    max_iterations: Optional[int] = None,
    args: Optional[Tuple] = None,
    timeout: float = 60.0,
) -> Dict[str, object]:
    """Blocking convenience wrapper: one executive on a private loop."""
    return asyncio.run(
        run_generated_async(
            mapping, table,
            max_iterations=max_iterations, args=args, timeout=timeout,
        )
    )
