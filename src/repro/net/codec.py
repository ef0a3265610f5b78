"""Pickle-free wire codec for executive payloads.

Values crossing inter-processor edges on the ``tcp`` backend are encoded
with a small tag-based binary format instead of pickle: the *data plane*
of a distributed run must not execute arbitrary code on receipt, and the
dominant payloads (numpy frames, tuples of scalars) deserve a zero-copy
path.  :func:`encode` returns a list of buffers suitable for
``socket.sendmsg`` — a C-contiguous ndarray contributes its own
``memoryview``, so a 10 MB frame is never copied into the frame body —
and :func:`decode` materialises the value from one ``memoryview``,
copying array bytes exactly once (out of the receive buffer).

The encodable universe is deliberately closed: the Python scalars, str/
bytes, tuples/lists/dicts, numpy arrays and scalars, and the executive's
own tokens (``Stop``, ``NoPiece``, the farm's ``Chunk``, the supervisor's
``Packet``/``Result`` envelopes, ``TaskOutcome``).  Anything else raises
:class:`CodecError` — an application that needs an exotic type on a
distributed edge should convert it to arrays/tuples at the edge, exactly
as the paper's CFG/DFG interface demands.  Truncated or trailing-garbage
frames also raise :class:`CodecError`; the property tests in
``tests/net/test_codec.py`` fuzz both directions.
"""

from __future__ import annotations

import struct
from typing import Any, List

from ..codegen.kernel import Chunk, NoPiece, Stop
from ..core.semantics import TaskOutcome
from ..faults.supervisor import Packet, Result

try:  # numpy is a hard dependency of the repo, but stay import-safe.
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = ["CodecError", "encode", "decode", "encoded_size"]


class CodecError(ValueError):
    """A value cannot be wire-encoded, or a frame cannot be decoded."""


_U8 = struct.Struct("!B")
_U32 = struct.Struct("!I")
_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")

#: int values outside this range take the arbitrary-precision path.
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1

# Tags (one byte each).
_T_NONE = b"N"
_T_TRUE = b"T"
_T_FALSE = b"F"
_T_INT = b"i"        # fixed 64-bit
_T_BIGINT = b"I"     # length-prefixed two's-complement
_T_FLOAT = b"f"
_T_STR = b"s"
_T_BYTES = b"b"
_T_TUPLE = b"t"
_T_LIST = b"l"
_T_DICT = b"d"
_T_ARRAY = b"a"
_T_NPSCALAR = b"x"
_T_STOP = b"S"
_T_NOPIECE = b"p"
_T_PACKET = b"P"
_T_RESULT = b"R"
_T_OUTCOME = b"O"
_T_CHUNK = b"C"


class _Writer:
    """Accumulates literal bytes, flushing around zero-copy buffers."""

    __slots__ = ("parts", "_acc")

    def __init__(self) -> None:
        self.parts: List[Any] = []
        self._acc = bytearray()

    def lit(self, data: bytes) -> None:
        self._acc += data

    def raw(self, view: memoryview) -> None:
        """Append a buffer without copying it into the accumulator."""
        if self._acc:
            self.parts.append(bytes(self._acc))
            self._acc = bytearray()
        self.parts.append(view)

    def finish(self) -> List[Any]:
        if self._acc:
            self.parts.append(bytes(self._acc))
            self._acc = bytearray()
        return self.parts


def _encode_into(value: Any, w: _Writer) -> None:
    # Exact type checks where subclassing would change the wire meaning
    # (bool is an int subclass; numpy scalars are not Python floats).
    if value is None:
        w.lit(_T_NONE)
    elif value is True:
        w.lit(_T_TRUE)
    elif value is False:
        w.lit(_T_FALSE)
    elif type(value) is int:
        if _I64_MIN <= value <= _I64_MAX:
            w.lit(_T_INT + _I64.pack(value))
        else:
            blob = value.to_bytes(
                (value.bit_length() + 8) // 8, "big", signed=True
            )
            w.lit(_T_BIGINT + _U32.pack(len(blob)) + blob)
    elif type(value) is float:
        w.lit(_T_FLOAT + _F64.pack(value))
    elif type(value) is str:
        blob = value.encode("utf-8")
        w.lit(_T_STR + _U32.pack(len(blob)) + blob)
    elif type(value) in (bytes, bytearray):
        w.lit(_T_BYTES + _U32.pack(len(value)))
        w.lit(bytes(value))
    elif type(value) is tuple:
        w.lit(_T_TUPLE + _U32.pack(len(value)))
        for item in value:
            _encode_into(item, w)
    elif type(value) is list:
        w.lit(_T_LIST + _U32.pack(len(value)))
        for item in value:
            _encode_into(item, w)
    elif type(value) is dict:
        w.lit(_T_DICT + _U32.pack(len(value)))
        for key, item in value.items():
            _encode_into(key, w)
            _encode_into(item, w)
    elif isinstance(value, Stop):
        w.lit(_T_STOP)
    elif isinstance(value, NoPiece):
        w.lit(_T_NOPIECE)
    elif isinstance(value, Chunk):
        w.lit(_T_CHUNK + _U32.pack(len(value)))
        for item in value:
            _encode_into(item, w)
    elif isinstance(value, Packet):
        w.lit(_T_PACKET + _I64.pack(value.seq))
        _encode_into(value.value, w)
    elif isinstance(value, Result):
        w.lit(_T_RESULT + _I64.pack(value.seq))
        _encode_into(value.value, w)
    elif isinstance(value, TaskOutcome):
        w.lit(_T_OUTCOME)
        _encode_into(list(value.results), w)
        _encode_into(list(value.subtasks), w)
    elif _np is not None and isinstance(value, _np.ndarray):
        if value.dtype.hasobject:
            raise CodecError(
                "object-dtype arrays cannot cross a network edge"
            )
        arr = _np.ascontiguousarray(value)
        if arr.shape != value.shape:
            # ascontiguousarray promotes 0-d arrays to shape (1,).
            arr = arr.reshape(value.shape)
        dtype = arr.dtype.str.encode("ascii")
        w.lit(_T_ARRAY + _U8.pack(len(dtype)) + dtype)
        w.lit(_U8.pack(arr.ndim))
        for dim in arr.shape:
            w.lit(_U32.pack(dim))
        w.lit(_U32.pack(arr.nbytes))
        if arr.nbytes == 0:
            pass  # size-0 arrays ship header-only
        elif arr.ndim == 0:
            w.lit(arr.tobytes())  # 0-d views cannot be cast to "B"
        else:
            # Zero-copy send path: the array's own buffer rides the frame.
            w.raw(memoryview(arr).cast("B"))
    elif _np is not None and isinstance(value, _np.generic):
        if value.dtype.hasobject:  # pragma: no cover - no such scalars
            raise CodecError("object-dtype scalars cannot be encoded")
        dtype = value.dtype.str.encode("ascii")
        blob = value.tobytes()
        w.lit(_T_NPSCALAR + _U8.pack(len(dtype)) + dtype
              + _U32.pack(len(blob)) + blob)
    else:
        raise CodecError(
            f"type {type(value).__name__!r} is not wire-encodable; "
            "distributed edges carry scalars, str/bytes, tuples/lists/"
            "dicts, numpy arrays and executive tokens only"
        )


def encode(value: Any) -> List[Any]:
    """Encode ``value`` as a list of buffers (gather-send ready)."""
    w = _Writer()
    _encode_into(value, w)
    return w.finish()


def encoded_size(buffers: List[Any]) -> int:
    """Total byte length of an :func:`encode` result."""
    return sum(len(b) if isinstance(b, (bytes, bytearray)) else b.nbytes
               for b in buffers)


class _Reader:
    __slots__ = ("view", "pos")

    def __init__(self, view: memoryview):
        self.view = view
        self.pos = 0

    def take(self, n: int) -> memoryview:
        end = self.pos + n
        if end > len(self.view):
            raise CodecError(
                f"truncated frame: wanted {n} byte(s) at offset "
                f"{self.pos}, only {len(self.view) - self.pos} left"
            )
        out = self.view[self.pos:end]
        self.pos = end
        return out

    def u8(self) -> int:
        return _U8.unpack(self.take(1))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def i64(self) -> int:
        return _I64.unpack(self.take(8))[0]


def _decode_from(r: _Reader) -> Any:
    tag = bytes(r.take(1))
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        return r.i64()
    if tag == _T_BIGINT:
        return int.from_bytes(r.take(r.u32()), "big", signed=True)
    if tag == _T_FLOAT:
        return _F64.unpack(r.take(8))[0]
    if tag == _T_STR:
        return str(r.take(r.u32()), "utf-8")
    if tag == _T_BYTES:
        return bytes(r.take(r.u32()))
    if tag == _T_TUPLE:
        return tuple(_decode_from(r) for _ in range(r.u32()))
    if tag == _T_LIST:
        return [_decode_from(r) for _ in range(r.u32())]
    if tag == _T_CHUNK:
        return Chunk(_decode_from(r) for _ in range(r.u32()))
    if tag == _T_DICT:
        n = r.u32()
        out = {}
        for _ in range(n):
            key = _decode_from(r)
            out[key] = _decode_from(r)
        return out
    if tag == _T_STOP:
        return Stop()
    if tag == _T_NOPIECE:
        return NoPiece()
    if tag == _T_PACKET:
        seq = r.i64()
        return Packet(seq, _decode_from(r))
    if tag == _T_RESULT:
        seq = r.i64()
        return Result(seq, _decode_from(r))
    if tag == _T_OUTCOME:
        results = _decode_from(r)
        subtasks = _decode_from(r)
        return TaskOutcome(results=results, subtasks=subtasks)
    if tag == _T_ARRAY:
        if _np is None:  # pragma: no cover - numpy is baked in
            raise CodecError("numpy unavailable: cannot decode an array")
        dtype = _np.dtype(str(r.take(r.u8()), "ascii"))
        shape = tuple(r.u32() for _ in range(r.u8()))
        nbytes = r.u32()
        expected = dtype.itemsize
        for dim in shape:
            expected *= dim
        if nbytes != expected:
            raise CodecError(
                f"array header inconsistent: {nbytes} payload byte(s) "
                f"for {dtype}{list(shape)}"
            )
        raw = r.take(nbytes)
        # Copy once, out of the receive buffer, so the frame can be freed.
        return _np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    if tag == _T_NPSCALAR:
        if _np is None:  # pragma: no cover
            raise CodecError("numpy unavailable: cannot decode a scalar")
        dtype = _np.dtype(str(r.take(r.u8()), "ascii"))
        blob = r.take(r.u32())
        return _np.frombuffer(blob, dtype=dtype)[0]
    raise CodecError(f"unknown wire tag {tag!r} at offset {r.pos - 1}")


def decode(data: Any) -> Any:
    """Decode one value from ``data`` (bytes or memoryview).

    The value must span the buffer exactly: trailing bytes mean a
    framing bug upstream and raise :class:`CodecError`.
    """
    view = data if isinstance(data, memoryview) else memoryview(data)
    r = _Reader(view)
    value = _decode_from(r)
    if r.pos != len(view):
        raise CodecError(
            f"trailing garbage: {len(view) - r.pos} byte(s) after the "
            "decoded value"
        )
    return value
