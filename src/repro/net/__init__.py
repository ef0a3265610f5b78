"""Distributed execution over TCP: the network-of-workstations target.

The paper runs its MIMD-DM executive on two platforms: the Transputer
ring and "networks of workstations".  :mod:`repro.net` is the second
one — a coordinator (the ``tcp`` backend) that deals mapped processors
over connected ``repro worker`` processes, a pickle-free wire codec for
the data plane, credit-controlled network channels for the kernel
(:func:`~repro.net.kernel.net_channels`), and a localhost
:class:`~repro.net.harness.ClusterHarness` so tests and CI get a real
multi-process cluster with zero configuration.
"""

from .codec import CodecError, decode, encode, encoded_size
from .coordinator import TcpBackend, WorkerLink, run_distributed
from .harness import ClusterHarness, shared_cluster
from .kernel import NetHealthBoard, NetStopEvent, NetStreamBoard, net_channels
from .protocol import ConnectionClosed, Frame, Link
from .worker import WorkerSession, worker_main

__all__ = [
    "CodecError", "decode", "encode", "encoded_size",
    "TcpBackend", "WorkerLink", "run_distributed",
    "ClusterHarness", "shared_cluster",
    "NetHealthBoard", "NetStopEvent", "NetStreamBoard", "net_channels",
    "ConnectionClosed", "Frame", "Link",
    "WorkerSession", "worker_main",
]
