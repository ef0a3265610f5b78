"""Satellite: the tag codec round-tripping through fixed-size ring slots.

The codec was certified against a byte stream (``tests/net``); a ring
slot is a *bounded* container, so the interesting inputs are the sizes
the stream never cared about: 0-d arrays, size-0 arrays, and payloads
landing exactly at — and one byte over — the slot boundary (the latter
must take the overflow side-channel and still round-trip).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.codec import encode, encoded_size
from repro.shm import BatchPolicy, RingChannel
from repro.codegen.kernel import Chunk
from repro.shm.channel import F_CODEC, F_OVERFLOW, F_PICKLE

SLOT = 256


@pytest.fixture
def channel():
    ch = RingChannel(slots=8, slot_bytes=SLOT,
                     policy=BatchPolicy(small_max=64, eager=True))
    yield ch
    ch.close()
    ch.destroy()


def through(channel, value):
    channel.put(value, timeout=5.0)
    assert channel.try_flush()
    return channel.get(timeout=5.0)


def assert_array_roundtrip(channel, arr):
    got = through(channel, arr)
    assert got.shape == arr.shape
    assert got.dtype == arr.dtype
    np.testing.assert_array_equal(got, arr)


class TestDegenerateArrays:
    def test_zero_d_array(self, channel):
        assert_array_roundtrip(channel, np.array(3.25))

    def test_zero_d_int_array(self, channel):
        assert_array_roundtrip(channel, np.array(7, dtype=np.int16))

    def test_size_zero_array(self, channel):
        assert_array_roundtrip(channel, np.zeros(0, dtype=np.int32))

    def test_size_zero_2d_array(self, channel):
        assert_array_roundtrip(channel, np.zeros((0, 5), dtype=np.float64))

    @given(st.sampled_from(["u1", "i2", "i4", "i8", "f4", "f8", "bool"]))
    @settings(max_examples=20, deadline=None)
    def test_zero_d_every_dtype(self, dtype):
        ch = RingChannel(slots=4, slot_bytes=SLOT)
        try:
            assert_array_roundtrip(ch, np.zeros((), dtype=dtype))
        finally:
            ch.close()
            ch.destroy()


class TestFarmChunks:
    """A farm chunk of arrays keeps the codec's zero-copy path, like the
    list it is; a chunk of scalars keeps pickle, like a list of them."""

    def test_array_chunk_takes_the_codec_path(self, channel):
        arrs = [np.arange(n + 1, dtype=np.int32) for n in range(3)]
        for wrap in (Chunk, list):
            flags, _buffers, _size = channel._encode(wrap(arrs))
            assert flags == F_CODEC
        got = through(channel, Chunk(arrs))
        assert type(got) is Chunk
        for out, arr in zip(got, arrs):
            np.testing.assert_array_equal(out, arr)

    def test_scalar_chunk_takes_the_pickle_path(self, channel):
        for wrap in (Chunk, list):
            flags, _buffers, _size = channel._encode(wrap([1, 2, 3]))
            assert flags == F_PICKLE
        got = through(channel, Chunk([1, 2, 3]))
        assert type(got) is Chunk and got == [1, 2, 3]


def bytes_payload_of_encoded_size(target: int) -> bytes:
    """A bytes value whose codec frame is exactly ``target`` bytes."""
    probe = encoded_size(encode(b""))
    return b"\xA5" * (target - probe)


class TestSlotBoundary:
    def test_payload_exactly_at_slot_size(self, channel):
        value = bytes_payload_of_encoded_size(SLOT)
        assert encoded_size(encode(value)) == SLOT
        assert through(channel, value) == value
        assert channel.sent_overflows == 0  # in-slot, no side-channel

    def test_payload_one_byte_over_takes_overflow(self, channel):
        value = bytes_payload_of_encoded_size(SLOT + 1)
        assert encoded_size(encode(value)) == SLOT + 1
        channel.put(value, timeout=5.0)
        assert channel.sent_overflows == 1
        assert channel.ring.read_slot(channel.ring.head)[2] & F_OVERFLOW
        assert channel.get(timeout=5.0) == value

    def test_large_array_takes_overflow_and_roundtrips(self, channel):
        arr = np.arange(5000, dtype=np.int64).reshape(50, 100)
        channel.put(arr, timeout=5.0)
        assert channel.sent_overflows == 1
        np.testing.assert_array_equal(channel.get(timeout=5.0), arr)

    @given(st.integers(-3, 3))
    @settings(max_examples=7, deadline=None)
    def test_every_size_around_the_boundary(self, delta):
        ch = RingChannel(slots=4, slot_bytes=SLOT)
        try:
            value = bytes_payload_of_encoded_size(SLOT + delta)
            ch.put(value, timeout=5.0)
            ch.try_flush()
            assert ch.get(timeout=5.0) == value
            assert ch.sent_overflows == (1 if delta > 0 else 0)
        finally:
            ch.close()
            ch.destroy()


class TestExoticValuesFallBackToPickle:
    def test_set_roundtrips_via_pickle_flag(self, channel):
        # Sets are not in the codec grammar; parity with mp.Queue
        # demands they still cross.
        assert through(channel, {1, 2, 3}) == {1, 2, 3}

    def test_executive_tokens_roundtrip(self, channel):
        from repro.codegen.kernel import Stop
        from repro.faults.supervisor import Packet

        got = through(channel, Packet(seq=4, value=(1, 2)))
        assert (got.seq, got.value) == (4, (1, 2))
        assert channel.ring is not None  # channel still healthy
        assert isinstance(through(channel, Stop()), Stop)
