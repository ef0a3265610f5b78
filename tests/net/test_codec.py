"""Property and example tests for the pickle-free wire codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen.kernel import Chunk, NoPiece, Stop
from repro.core.semantics import TaskOutcome
from repro.faults.supervisor import Packet, Result
from repro.net import CodecError, decode, encode, encoded_size


def roundtrip(value):
    buffers = encode(value)
    blob = b"".join(
        bytes(b) if isinstance(b, memoryview) else b for b in buffers
    )
    assert encoded_size(buffers) == len(blob)
    return decode(blob)


# -- hypothesis strategies ----------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),  # includes > 64-bit values (the bigint path)
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=20,
)

DTYPES = ["u1", "i2", "i4", "i8", "f4", "f8", "c8", "bool"]

arrays = st.builds(
    lambda dtype, shape, seed: (
        np.random.default_rng(seed)
        .integers(0, 100, size=shape)
        .astype(dtype)
    ),
    st.sampled_from(DTYPES),
    st.lists(st.integers(0, 4), min_size=0, max_size=3).map(tuple),
    st.integers(0, 2**32 - 1),
)


@given(values)
@settings(max_examples=200, deadline=None)
def test_python_values_roundtrip(value):
    assert roundtrip(value) == value


@given(arrays)
@settings(max_examples=100, deadline=None)
def test_arrays_roundtrip(arr):
    out = roundtrip(arr)
    assert out.dtype == arr.dtype
    assert out.shape == arr.shape
    np.testing.assert_array_equal(out, arr)


@given(st.floats(allow_nan=True, allow_infinity=True))
@settings(deadline=None)
def test_floats_roundtrip_bitexact(x):
    out = roundtrip(x)
    assert np.isnan(out) if np.isnan(x) else out == x


def test_none_bearing_frames():
    frame = (None, [None, (1, None)], {"k": None})
    assert roundtrip(frame) == frame


def test_nested_tuple_with_array_payload():
    arr = np.arange(12, dtype=np.float32).reshape(3, 4)
    seq, payload = roundtrip((7, ("frame", arr)))
    assert seq == 7
    assert payload[0] == "frame"
    np.testing.assert_array_equal(payload[1], arr)


def test_noncontiguous_array_roundtrips():
    arr = np.arange(24, dtype=np.int64).reshape(4, 6)[::2, ::3]
    assert not arr.flags["C_CONTIGUOUS"]
    np.testing.assert_array_equal(roundtrip(arr), arr)


def test_zero_copy_send_path():
    """A contiguous array's own buffer rides the frame uncopied."""
    arr = np.arange(1000, dtype=np.float64)
    buffers = encode(arr)
    views = [b for b in buffers if isinstance(b, memoryview)]
    assert len(views) == 1
    assert views[0].obj is arr or views[0].nbytes == arr.nbytes


def test_numpy_scalars_roundtrip():
    for value in (np.int32(-7), np.float64(2.5), np.uint8(255)):
        out = roundtrip(value)
        assert out == value
        assert out.dtype == value.dtype


def test_executive_tokens_roundtrip():
    assert isinstance(roundtrip(Stop()), Stop)
    assert isinstance(roundtrip(NoPiece()), NoPiece)
    packet = roundtrip(Packet(3, (1, 2)))
    assert (packet.seq, packet.value) == (3, (1, 2))
    result = roundtrip(Result(9, [4, 5]))
    assert (result.seq, result.value) == (9, [4, 5])
    outcome = roundtrip(TaskOutcome(results=[1], subtasks=[2, 3]))
    assert list(outcome.results) == [1]
    assert list(outcome.subtasks) == [2, 3]


# -- the farm's Chunk token ---------------------------------------------------

chunks = st.lists(
    st.one_of(values, st.lists(scalars, max_size=3).map(tuple)),
    min_size=2, max_size=8,
).map(Chunk)


def blob_of(value):
    return b"".join(bytes(b) for b in encode(value))


def assert_same_shape(got, want):
    """Equal, and a list is a Chunk exactly where it was one."""
    assert type(got) is type(want)
    if isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_shape(g, w)
    elif isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            assert_same_shape(got[key], want[key])
    else:
        assert got == want


@given(chunks, st.integers(0, 2**40))
@settings(max_examples=150, deadline=None)
def test_chunks_roundtrip_bare_and_in_envelopes(chunk, seq):
    assert_same_shape(roundtrip(chunk), chunk)
    packet = roundtrip(Packet(seq, chunk))
    assert type(packet) is Packet and packet.seq == seq
    assert_same_shape(packet.value, chunk)
    result = roundtrip(Result(seq, chunk))
    assert type(result) is Result and result.seq == seq
    assert_same_shape(result.value, chunk)


@given(st.lists(arrays, min_size=2, max_size=4))
@settings(max_examples=50, deadline=None)
def test_chunks_of_arrays_roundtrip(arrs):
    out = roundtrip(Chunk(arrs))
    assert type(out) is Chunk and len(out) == len(arrs)
    for got, want in zip(out, arrs):
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)


@given(values)
@settings(max_examples=100, deadline=None)
def test_a_plain_list_never_decodes_to_a_chunk(value):
    def no_chunk(v):
        assert not isinstance(v, Chunk)
        if isinstance(v, (list, tuple)):
            for item in v:
                no_chunk(item)
        elif isinstance(v, dict):
            for item in v.values():
                no_chunk(item)

    no_chunk(roundtrip(value))
    no_chunk(roundtrip([value, [value]]))


def test_chunk_of_task_outcomes_roundtrips():
    out = roundtrip(Chunk([
        TaskOutcome(results=[1], subtasks=[2, 3]), ([4], [5]),
    ]))
    assert type(out) is Chunk
    assert list(out[0].results) == [1] and list(out[0].subtasks) == [2, 3]
    assert out[1] == ([4], [5])


@given(chunks)
@settings(max_examples=60, deadline=None)
def test_truncated_and_overlong_chunks_rejected(chunk):
    blob = blob_of(chunk)
    for cut in range(len(blob)):
        with pytest.raises(CodecError):
            decode(blob[:cut])
    with pytest.raises(CodecError, match="trailing"):
        decode(blob + blob_of(chunk[0]))
    # A count that promises one item more than the frame holds.
    count = int.from_bytes(blob[1:5], "big")
    assert count == len(chunk)
    with pytest.raises(CodecError, match="truncated"):
        decode(blob[:1] + (count + 1).to_bytes(4, "big") + blob[5:])


def test_bool_not_confused_with_int():
    out = roundtrip((True, 1, False, 0))
    assert [type(v) for v in out] == [bool, int, bool, int]


@given(values)
@settings(max_examples=100, deadline=None)
def test_truncated_frames_rejected(value):
    blob = b"".join(
        bytes(b) if isinstance(b, memoryview) else b for b in encode(value)
    )
    for cut in range(len(blob)):
        with pytest.raises(CodecError):
            decode(blob[:cut])


def test_trailing_garbage_rejected():
    blob = b"".join(bytes(b) for b in encode(42)) + b"\x00"
    with pytest.raises(CodecError, match="trailing"):
        decode(blob)


def test_unknown_tag_rejected():
    with pytest.raises(CodecError, match="unknown wire tag"):
        decode(b"Z")


def test_object_dtype_rejected():
    arr = np.array([object()], dtype=object)
    with pytest.raises(CodecError, match="object-dtype"):
        encode(arr)


def test_unencodable_type_rejected():
    class Exotic:
        pass

    with pytest.raises(CodecError, match="not wire-encodable"):
        encode(Exotic())


def test_inconsistent_array_header_rejected():
    arr = np.arange(4, dtype=np.int32)
    blob = bytearray(b"".join(bytes(b) for b in encode(arr)))
    # Corrupt the nbytes field (last 4 header bytes before the payload).
    offset = len(blob) - arr.nbytes - 4
    blob[offset:offset + 4] = (999).to_bytes(4, "big")
    with pytest.raises(CodecError):
        decode(bytes(blob))
