"""What a workload child leaves behind, and what its process tree burns.

Linux ``/proc`` readers only (no psutil in the image): surviving
processes of a session, ``/dev/shm`` entries, listening TCP sockets, and
the CPU seconds of live descendants.  Where ``/proc`` or ``/dev/shm`` is
unreadable the corresponding check reports nothing rather than failing.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Dict, List, Set

__all__ = ["Snapshot", "session_survivors", "reap_session",
           "descendants", "cpu_seconds"]

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[str]:
    """``/proc/<pid>/stat`` fields after the ``(comm)`` column."""
    with open(f"/proc/{pid}/stat") as handle:
        text = handle.read()
    return text[text.rindex(")") + 2:].split()


def _pids() -> List[int]:
    try:
        return [int(name) for name in os.listdir("/proc") if name.isdigit()]
    except OSError:
        return []


def _shm_entries() -> Set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _listeners() -> Set[str]:
    """``addr:port/inode`` of every listening TCP socket."""
    found: Set[str] = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as handle:
                rows = handle.read().splitlines()[1:]
        except OSError:
            continue
        for row in rows:
            cols = row.split()
            if len(cols) > 9 and cols[3] == "0A":
                found.add(f"{cols[1]}/{cols[9]}")
    return found


class Snapshot:
    """Host state before a child runs; :meth:`leaks` diffs it after."""

    def __init__(self) -> None:
        self.shm = _shm_entries()
        self.listeners = _listeners()

    def leaks(self, session: int) -> List[str]:
        """Human-readable names of everything the session left behind."""
        out = [f"process {pid} survived" for pid in
               session_survivors(session)]
        out += [f"/dev/shm/{name} left behind"
                for name in sorted(_shm_entries() - self.shm)]
        out += [f"listening socket {sock} left open"
                for sock in sorted(_listeners() - self.listeners)]
        return out


def session_survivors(session: int) -> List[int]:
    """Live (non-zombie) processes whose session id is ``session``.

    Children are started with ``start_new_session=True``, so the
    session id follows every descendant even after its parent died and
    it was re-parented.
    """
    alive = []
    for pid in _pids():
        try:
            fields = _stat_fields(pid)
        except (OSError, ValueError):
            continue
        # fields[0] = state, fields[3] = session id
        if int(fields[3]) == session and fields[0] != "Z":
            alive.append(pid)
    return alive


def reap_session(session: int, grace_s: float = 2.0) -> None:
    """Kill whatever is left of a session and wait until it is gone."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        survivors = session_survivors(session)
        if not survivors:
            return
        for pid in survivors:
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        deadline = time.monotonic() + grace_s
        while session_survivors(session) and time.monotonic() < deadline:
            time.sleep(0.05)


def descendants(root: int) -> List[int]:
    """Every live process below ``root`` in the parent/child tree."""
    parents: Dict[int, int] = {}
    for pid in _pids():
        try:
            parents[pid] = int(_stat_fields(pid)[1])
        except (OSError, ValueError):
            continue
    found, frontier = [], [root]
    while frontier:
        parent = frontier.pop()
        kids = [pid for pid, ppid in parents.items() if ppid == parent]
        found.extend(kids)
        frontier.extend(kids)
    return found


def cpu_seconds(pids: List[int]) -> float:
    """User + system CPU consumed so far by the given live processes."""
    total = 0.0
    for pid in pids:
        try:
            fields = _stat_fields(pid)
        except (OSError, ValueError):
            continue
        total += (int(fields[11]) + int(fields[12])) / _TICK
    return total
