"""Localhost worker cluster for tests, CI, and the out-of-the-box path.

``ClusterHarness`` binds a listening socket, optionally spawns N
``repro worker --connect`` subprocesses pointed at it, and pools the
resulting :class:`~repro.net.coordinator.WorkerLink` objects so many
runs (a whole conformance fuzz campaign, a soak) reuse one cluster.
Spawned workers inherit the parent's ``sys.path`` as ``PYTHONPATH`` so
they can unpickle function tables defined in test modules.

The pool self-heals: ``checkout`` prunes links whose sockets died and
respawns subprocesses up to a bounded budget — chaos tests kill worker
sockets on purpose, and the worker side's reconnect loop usually beats
the respawn anyway (a killed *socket* leaves the process alive, and it
dials right back in).

``shared_cluster`` keeps one process-wide 4-worker harness alive (torn
down atexit): it is what ``--backend tcp`` uses when given no cluster
options, which also makes the conformance runner's zero-option
``get_backend("tcp").run(...)`` calls work unchanged.
"""

from __future__ import annotations

import atexit
import os
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from ..backends.base import BackendError
from . import codec
from .coordinator import WorkerLink
from .protocol import ConnectionClosed, Frame, Link

__all__ = ["ClusterHarness", "shared_cluster"]


_SPAWNED_WORKER = (
    "import sys; from repro.net.worker import worker_main; "
    "sys.exit(worker_main(sys.argv[1], cpu_index=int(sys.argv[2])))"
)


class ClusterHarness:
    """Accepts worker connections; optionally owns worker subprocesses."""

    def __init__(
        self,
        size: int = 4,
        *,
        spawn: bool = True,
        host: str = "127.0.0.1",
        port: int = 0,
        respawn_limit: Optional[int] = None,
    ):
        self.size = size
        self._spawn = spawn
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        self.host, self.port = self._listener.getsockname()[:2]
        self._cond = threading.Condition()
        self._idle: List[WorkerLink] = []
        self._out: List[WorkerLink] = []
        self._procs: List[subprocess.Popen] = []
        #: Workers spawned so far; each one's ordinal picks its CPU.
        self._spawned = 0
        self._respawns_left = (
            respawn_limit if respawn_limit is not None else 2 * size
        )
        self._closing = False
        self._closed = threading.Event()
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="cluster-accept", daemon=True
        )
        self._acceptor.start()
        if spawn:
            for _ in range(size):
                self._spawn_worker()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def alive(self) -> bool:
        return not self._closing

    # -- accepting -------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                sock, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(
                target=self._handshake, args=(sock,),
                name="cluster-handshake", daemon=True,
            ).start()

    def _handshake(self, sock: socket.socket) -> None:
        try:
            sock.settimeout(5.0)
            link = Link(sock)
            kind, body = link.recv()
            if kind != Frame.HELLO:
                link.close()
                return
            meta = codec.decode(body)
            sock.settimeout(None)
        except (ConnectionClosed, codec.CodecError, OSError):
            try:
                sock.close()
            except OSError:
                pass
            return
        worker = WorkerLink(link, meta if isinstance(meta, dict) else {})
        with self._cond:
            if self._closing:
                worker.close()
                return
            self._idle.append(worker)
            self._cond.notify_all()

    # -- spawning --------------------------------------------------------------

    def _spawn_worker(self) -> None:
        env = os.environ.copy()
        # The worker must import repro *and* the modules that define the
        # application's sequential functions (often test modules): hand
        # it our whole import path.
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        # ``repro worker --connect`` plus this worker's ordinal: a
        # worker of a local cluster is one processor of one machine and
        # pins itself to one core, like a ``processes`` worker does.
        self._procs.append(subprocess.Popen(
            [sys.executable, "-c", _SPAWNED_WORKER,
             self.address, str(self._spawned)],
            env=env,
        ))
        self._spawned += 1

    def _heal_locked(self) -> None:
        self._idle = [w for w in self._idle if w.alive]
        if not self._spawn:
            return
        live = []
        for proc in self._procs:
            if proc.poll() is None:
                live.append(proc)
        self._procs = live
        while len(self._procs) < self.size and self._respawns_left > 0:
            self._respawns_left -= 1
            self._spawn_worker()

    def scale_to(self, n: int) -> int:
        """Grow the pool to ``n`` workers (up-only).

        Spawns the extra subprocesses immediately (when the harness owns
        its workers) and extends the respawn budget proportionally, so a
        scaled-up cluster self-heals at its new size.  Shrinking is
        deliberately unsupported — tearing workers down mid-stream would
        re-create the latency spike the extra capacity absorbs — so a
        target at or below the current size is a no-op.  Returns the
        (new) size.
        """
        with self._cond:
            if self._closing:
                raise BackendError(
                    f"cluster at {self.address} is shut down"
                )
            grown = n - self.size
            if grown <= 0:
                return self.size
            self.size = n
            self._respawns_left += 2 * grown
            if self._spawn:
                for _ in range(grown):
                    self._spawn_worker()
            self._cond.notify_all()
            return self.size

    # -- the pool --------------------------------------------------------------

    def checkout(
        self, n: Optional[int] = None, timeout: float = 30.0
    ) -> List[WorkerLink]:
        """Take ``n`` (default: all) live workers out of the pool.

        Raises :class:`BackendError` when the request cannot be
        satisfied — immediately when the cluster is shut down or has
        provably no way to produce ``want`` workers (every subprocess
        dead and the respawn budget exhausted), and after ``timeout``
        otherwise, so a caller can never block forever on a cluster
        that died underneath it.
        """
        want = n if n is not None else self.size
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                if self._closing:
                    raise BackendError(
                        f"cluster at {self.address} is shut down"
                    )
                self._heal_locked()
                if len(self._idle) >= want:
                    taken, self._idle = self._idle[:want], self._idle[want:]
                    self._out.extend(taken)
                    return taken
                if self._hopeless_locked(want):
                    raise BackendError(
                        f"cluster at {self.address} cannot supply {want} "
                        f"worker(s): {len(self._idle)} idle, "
                        f"{len(self._out)} checked out, every worker "
                        "subprocess dead and the respawn budget exhausted"
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise BackendError(
                        f"cluster at {self.address}: only "
                        f"{len(self._idle)}/{want} worker(s) connected "
                        f"after {timeout:.0f}s"
                    )
                self._cond.wait(min(0.2, remaining))

    def _hopeless_locked(self, want: int) -> bool:
        """No future event can ever satisfy a checkout of ``want``.

        Only a spawning harness can be hopeless: with externally started
        workers (``spawn=False``) a new connection may always arrive.
        ``_heal_locked`` ran just before, so ``_procs`` holds only live
        subprocesses and the idle list only live links; checked-out
        links may still be released back, so they count as potential.
        """
        if not self._spawn or self._respawns_left > 0:
            return False
        live_out = sum(1 for w in self._out if w.alive)
        return len(self._idle) + live_out + len(self._procs) < want

    def release(self, links: List[WorkerLink]) -> None:
        with self._cond:
            for worker in links:
                if worker in self._out:
                    self._out.remove(worker)
                worker.clear_routes()
                if worker.alive:
                    self._idle.append(worker)
            self._cond.notify_all()

    # -- teardown --------------------------------------------------------------

    def shutdown(self) -> None:
        """Tear the cluster down.  Idempotent and concurrency-safe: the
        first caller does the work, every other caller (including one
        racing the first) blocks until teardown is complete and then
        returns — nobody ever observes a half-closed cluster."""
        with self._cond:
            if self._closing:
                self._cond.notify_all()
                already = True
            else:
                self._closing = True
                already = False
            everyone = self._idle + self._out
            self._idle = []
            self._out = []
            self._cond.notify_all()
        if already:
            self._closed.wait()
            return
        for worker in everyone:
            try:
                worker.link.send(Frame.BYE)
            except ConnectionClosed:
                pass
        try:
            self._listener.close()
        except OSError:
            pass
        for proc in self._procs:
            try:
                proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=1.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    proc.kill()
        for worker in everyone:
            worker.close()
        self._closed.set()

    def __enter__(self) -> "ClusterHarness":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()


_shared: Optional[ClusterHarness] = None
_shared_lock = threading.Lock()


def _shutdown_shared() -> None:
    """Tear down the process-wide cluster.  Safe to call repeatedly and
    from concurrent threads: the reference is swapped out under the lock
    (so a racing ``shared_cluster`` never hands out a dying harness) and
    ``ClusterHarness.shutdown`` itself is idempotent."""
    global _shared
    with _shared_lock:
        harness, _shared = _shared, None
    if harness is not None:
        harness.shutdown()


def shared_cluster(size: int = 4) -> ClusterHarness:
    """The process-wide localhost cluster ``--backend tcp`` defaults to."""
    global _shared
    with _shared_lock:
        if _shared is None or not _shared.alive:
            _shared = ClusterHarness(size=size)
            atexit.register(_shutdown_shared)
        return _shared
