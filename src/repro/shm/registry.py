"""Transport registry: one intra-host channel story per registered name.

One :class:`~repro.core.registry.Registry`, like execution backends and
codegen targets: a :class:`Transport` subclass registers itself under a
short name with ``@TRANSPORTS.register``, the processes backend resolves
the requested name at run time, and channel selection happens *per
edge* — a transport may decline an edge (return ``None`` from
:meth:`Transport.channel_for`), in which case the edge falls back down
the chain, ultimately to the ``queue`` transport, which accepts every
edge and every picklable payload.  Adding a transport therefore never
touches the kernel or the backend: register a class, and every
intra-host edge can ride it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from ..core.registry import Registry

__all__ = [
    "EdgeSpec",
    "Transport",
    "TransportError",
    "ChannelSet",
    "TRANSPORTS",
    "get_transport",
    "build_channels",
    "DEFAULT_TRANSPORT",
]

DEFAULT_TRANSPORT = "queue"


class TransportError(RuntimeError):
    """Unknown or unavailable transport."""


@dataclass(frozen=True)
class EdgeSpec:
    """What a transport may inspect when claiming an edge."""

    edge: str              # channel key in the generated executive (e7)
    src: str               # source process id
    dst: str               # destination process id
    src_processor: str
    dst_processor: str


class Transport:
    """One way to move packets across an intra-host processor boundary.

    Subclasses register with ``@TRANSPORTS.register`` and implement
    :meth:`channel_for`, returning a queue-compatible channel object
    (``put``/``put_nowait``/``get``/``get_nowait`` with ``queue.Full``/
    ``queue.Empty`` semantics, picklable across the start method) — or
    ``None`` to decline the edge and let the fallback chain handle it.

    A channel that also exposes ``fileno()`` — a descriptor readable
    whenever ``get_nowait`` can make progress — can be *waited on*: the
    process kernel's ``alt_`` blocks on it instead of polling.  One
    that does not (the ring) puts every ALT it takes part in back on a
    bounded polling tick.
    """

    name: str = "?"
    description: str = ""
    #: Capability flags surfaced by ``repro transports``.
    shared_memory = False
    batching = False
    preallocated = False

    @classmethod
    def available(cls) -> bool:
        return True

    def channel_for(
        self, spec: EdgeSpec, ctx: Any, *,
        queue_size: int, options: Dict[str, Any],
    ) -> Optional[Any]:
        raise NotImplementedError


#: Intra-host transports by name; ``repro transports`` prints the columns.
#: ``REPRO_TRANSPORT`` overrides the processes backend's choice (same
#: idiom as ``REPRO_MP_START_METHOD``): CI legs set ``REPRO_TRANSPORT=ring``
#: to certify the ring data plane everywhere.
TRANSPORTS = Registry(
    "transport", TransportError,
    columns=(("shm", "shared_memory"), ("batching", "batching"),
             ("prealloc", "preallocated")),
    env="REPRO_TRANSPORT", default=DEFAULT_TRANSPORT,
)
get_transport = TRANSPORTS.get


class ChannelSet:
    """The channels of one run, with creator-side teardown.

    ``channels`` maps edge keys to channel objects; ``by_transport``
    records which transport claimed each edge (introspection + tests).
    :meth:`destroy` unlinks whatever the transports preallocated — the
    parent calls it after the workers have joined.
    """

    def __init__(self) -> None:
        self.channels: Dict[str, Any] = {}
        self.by_transport: Dict[str, str] = {}

    def add(self, spec: EdgeSpec, transport_name: str, channel: Any) -> None:
        self.channels[spec.edge] = channel
        self.by_transport[spec.edge] = transport_name

    def destroy(self) -> None:
        for channel in self.channels.values():
            destroy = getattr(channel, "destroy", None)
            if destroy is not None:
                try:
                    destroy()
                except Exception:  # pragma: no cover - teardown best effort
                    pass


def build_channels(
    name: str,
    specs: Sequence[EdgeSpec],
    ctx: Any,
    *,
    queue_size: int = 4,
    options: Optional[Dict[str, Any]] = None,
) -> ChannelSet:
    """Create one channel per edge via the ``name`` transport.

    Edges the requested transport declines fall back to the ``queue``
    transport (the catch-all for unsized/exotic payloads), so a run
    always gets a complete channel map.
    """
    options = dict(options or {})
    chain = [get_transport(name)]
    if name != DEFAULT_TRANSPORT:
        chain.append(get_transport(DEFAULT_TRANSPORT))
    out = ChannelSet()
    for spec in specs:
        for transport in chain:
            channel = transport.channel_for(
                spec, ctx, queue_size=queue_size, options=options
            )
            if channel is not None:
                out.add(spec, transport.name, channel)
                break
        else:  # pragma: no cover - queue accepts everything
            raise TransportError(
                f"no transport accepted edge {spec.edge!r} "
                f"({spec.src} -> {spec.dst})"
            )
    return out
