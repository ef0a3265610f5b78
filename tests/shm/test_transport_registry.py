"""The transport registry: lookup, capabilities, per-edge fallback."""

import multiprocessing

import pytest

from repro.shm import (
    TRANSPORTS,
    ChannelSet,
    EdgeSpec,
    RingChannel,
    Transport,
    build_channels,
)


def spec(edge="e0", src="a", dst="b"):
    return EdgeSpec(edge, src, dst, "p0", "p1")


class TestRegistry:
    def test_capabilities_matrix(self):
        caps = TRANSPORTS.capabilities()
        assert not caps["queue"]["shm"]
        assert caps["ring"] == {
            "shm": True, "batching": True, "prealloc": True,
        }


class TestBuildChannels:
    def test_queue_transport_builds_queues(self):
        ctx = multiprocessing.get_context()
        built = build_channels("queue", [spec("e0"), spec("e1")], ctx)
        assert set(built.channels) == {"e0", "e1"}
        assert built.by_transport == {"e0": "queue", "e1": "queue"}
        built.destroy()

    def test_ring_transport_builds_rings(self):
        ctx = multiprocessing.get_context()
        built = build_channels(
            "ring", [spec("e0")], ctx,
            options={"ring_slots": 4, "ring_slot_bytes": 128},
        )
        try:
            channel = built.channels["e0"]
            assert isinstance(channel, RingChannel)
            assert channel.handle.slots == 4
            assert channel.handle.slot_bytes == 128
            assert built.by_transport["e0"] == "ring"
        finally:
            built.destroy()

    def test_declined_edges_fall_back_to_queue(self, monkeypatch):
        """A transport may refuse an edge; the chain must complete it."""
        monkeypatch.setattr(
            TRANSPORTS, "_classes", dict(TRANSPORTS._classes))

        @TRANSPORTS.register
        class Picky(Transport):
            name = "picky-test-transport"
            description = "declines every edge except e1"

            def channel_for(self, spec, ctx, *, queue_size, options):
                if spec.edge != "e1":
                    return None
                return ctx.Queue(maxsize=queue_size)

        ctx = multiprocessing.get_context()
        built = build_channels(
            "picky-test-transport", [spec("e0"), spec("e1")], ctx
        )
        assert built.by_transport == {
            "e0": "queue", "e1": "picky-test-transport",
        }
        built.destroy()

    def test_channel_set_destroy_unlinks_rings(self):
        ctx = multiprocessing.get_context()
        built = build_channels("ring", [spec("e0")], ctx)
        handle = built.channels["e0"].handle
        built.destroy()
        # A second destroy (and a stale unlink) must stay silent.
        built.destroy()
        handle.unlink()

    def test_bad_batch_policy_option_is_loud(self):
        ctx = multiprocessing.get_context()
        with pytest.raises(TypeError, match="BatchPolicy"):
            build_channels(
                "ring", [spec("e0")], ctx,
                options={"batch_policy": "eager"},
            )

    def test_empty_edge_list(self):
        ctx = multiprocessing.get_context()
        built = build_channels("ring", [], ctx)
        assert isinstance(built, ChannelSet)
        assert built.channels == {}
