"""Built-in transports: the ``queue`` fallback and the ``ring`` data plane."""

from __future__ import annotations

from typing import Any, Dict, Optional

from .batch import BatchPolicy
from .channel import RingChannel
from .pipe import PipeChannel
from .registry import TRANSPORTS, EdgeSpec, Transport

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

__all__ = ["QueueTransport", "RingTransport"]


@TRANSPORTS.register
class QueueTransport(Transport):
    """The default path: one bounded pipe channel per edge.

    A :class:`~repro.shm.pipe.PipeChannel` is what a
    ``multiprocessing.Queue`` is underneath — a pipe of pickles behind
    a counting semaphore — without the feeder thread and the locks a
    single-producer/single-consumer edge never needed.  Accepts every
    edge and every picklable payload; this is the catch-all the
    fallback chain bottoms out on.
    """

    name = "queue"
    description = "bounded pipe channel per edge (pickle, no feeder thread)"

    def channel_for(
        self, spec: EdgeSpec, ctx: Any, *,
        queue_size: int, options: Dict[str, Any],
    ) -> Optional[Any]:
        return PipeChannel(ctx, queue_size)


@TRANSPORTS.register
class RingTransport(Transport):
    """Preallocated shared-memory ring with packet batching per edge.

    Options (all optional, read from the backend's ``options`` dict):

    * ``ring_slots`` — power-of-two slot count (default 64);
    * ``ring_slot_bytes`` — payload bytes per slot (default 16384);
    * ``batch_policy`` — a :class:`~repro.shm.batch.BatchPolicy`; the
      backend passes an *eager* policy when a latency budget is
      attached, so batching never delays a deadline.
    """

    name = "ring"
    description = "shared-memory seqlock ring, batched tag-codec slots"
    shared_memory = True
    batching = True
    preallocated = True

    @classmethod
    def available(cls) -> bool:
        return _shared_memory is not None

    def channel_for(
        self, spec: EdgeSpec, ctx: Any, *,
        queue_size: int, options: Dict[str, Any],
    ) -> Optional[Any]:
        slots = int(options.get("ring_slots", 64))
        slot_bytes = int(options.get("ring_slot_bytes", 16384))
        policy = options.get("batch_policy")
        if policy is not None and not isinstance(policy, BatchPolicy):
            raise TypeError(
                f"batch_policy must be a BatchPolicy, got {type(policy)!r}"
            )
        return RingChannel(
            slots=slots,
            slot_bytes=slot_bytes,
            policy=policy,
            label=f"{spec.src}->{spec.dst}",
        )
