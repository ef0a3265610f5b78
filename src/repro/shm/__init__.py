"""repro.shm — preallocated shared-memory ring channels with batching.

The intra-host data plane of the ``processes`` backend: the default
bounded pipe channel (:mod:`repro.shm.pipe`), seqlock-style SPSC rings
(:mod:`repro.shm.ring`), packet batching (:mod:`repro.shm.batch`), the
queue-compatible channel over both (:mod:`repro.shm.channel`), and the
transport registry that lets the
backend pick a channel implementation per edge
(:mod:`repro.shm.registry` / :mod:`repro.shm.transports`).
"""

from .batch import BatchError, BatchPolicy, frame_entries, split_entries
from .channel import (
    F_BATCH,
    F_CODEC,
    F_OVERFLOW,
    F_PICKLE,
    ChannelError,
    RingChannel,
)
from .flag import StopFlag
from .pipe import PipeChannel
from .registry import (
    DEFAULT_TRANSPORT,
    TRANSPORTS,
    ChannelSet,
    EdgeSpec,
    Transport,
    TransportError,
    build_channels,
    get_transport,
)
from .ring import (
    DEFAULT_SLOT_BYTES,
    DEFAULT_SLOTS,
    Ring,
    RingError,
    RingHandle,
    TornRead,
    create_ring,
)
from . import transports as _builtin_transports  # noqa: F401  (registers)

__all__ = [
    "BatchError",
    "BatchPolicy",
    "frame_entries",
    "split_entries",
    "F_BATCH",
    "F_CODEC",
    "F_OVERFLOW",
    "F_PICKLE",
    "ChannelError",
    "RingChannel",
    "PipeChannel",
    "StopFlag",
    "DEFAULT_TRANSPORT",
    "TRANSPORTS",
    "ChannelSet",
    "EdgeSpec",
    "Transport",
    "TransportError",
    "build_channels",
    "get_transport",
    "Ring",
    "RingError",
    "RingHandle",
    "TornRead",
    "create_ring",
    "DEFAULT_SLOTS",
    "DEFAULT_SLOT_BYTES",
]
