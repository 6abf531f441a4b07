"""Length-prefixed binary codec for client/server traffic.

Frame layout (all integers little-endian):

    u32 length | u8 tag | body (length - 1 bytes)

Client update tags carry an envelope ``u32 client_id | u32 round`` before the
payload.  Payload bodies:

    PROJECTED  u8 version | u32 partition_id | u64 seed |
               repeated { u32 n | f32 * n }          (one group per block)
    SCALAR     u64 seed | u32 n | f64 * n
    RAW        u32 n | f64 * n

Server-side control tags: ROUND (u32 round | u32 n | f64 * n, the global
parameter snapshot), DONE (u32 rounds completed), SHUTDOWN (empty from the
server; from a failing worker, u32 client_id | u32 iteration | utf-8 text).

The in-process engine routes every payload through this codec too, so the
socket demo and the simulator see byte-identical numbers.

The codec copies each frame once at each end.  An encoder builds its frame
with a single ``b"".join`` over the header fields and the payload array's own
buffer.  ``recv_frame`` reads a frame's tag and body into one buffer with
``recv_into``, and the decoders slice read-only ``memoryview``s of the frame
they are given: ``Frame.body`` is one, and a decoded payload array is a
read-only ``np.frombuffer`` view of the frame.  Such an array may be
unaligned, cannot be written, and keeps its frame alive for as long as it
lives; a caller that updates it in place copies it first.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ProtocolError
from .projection import ProjectedUpdate
from .zoo import ScalarGrads

TAG_PROJECTED = 0x01
TAG_SCALAR = 0x02
TAG_RAW = 0x03
TAG_ROUND = 0x10
TAG_DONE = 0x11
TAG_SHUTDOWN = 0x7F

_ALL_TAGS = (TAG_PROJECTED, TAG_SCALAR, TAG_RAW, TAG_ROUND, TAG_DONE, TAG_SHUTDOWN)

# hard ceiling on one frame; a desk-scale d=1e5 raw update is ~800KB
MAX_FRAME_BYTES = 1 << 28

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_HEAD = struct.Struct("<IB")  # frame length, tag
_FAILURE = struct.Struct("<II")  # client_id, iteration


def _view(buf) -> memoryview:
    """A read-only byte view of buf; slicing it copies nothing."""
    return memoryview(buf).toreadonly().cast("B")


def _need(buf: memoryview, offset: int, count: int, what: str) -> None:
    if offset + count > len(buf):
        raise ProtocolError(f"truncated frame: {what} needs {count} bytes "
                            f"at offset {offset}, have {len(buf)}")


def _u32(value: int, what: str) -> bytes:
    if not 0 <= value < 1 << 32:
        raise ProtocolError(f"{what} {value} does not fit in u32")
    return _U32.pack(value)


def _u64(value: int, what: str) -> bytes:
    if not 0 <= value < 1 << 64:
        raise ProtocolError(f"{what} {value} does not fit in u64")
    return _U64.pack(value)


def _read_u32(buf: memoryview, off: int, what: str) -> tuple[int, int]:
    _need(buf, off, 4, what)
    return _U32.unpack_from(buf, off)[0], off + 4


def _read_u64(buf: memoryview, off: int, what: str) -> tuple[int, int]:
    _need(buf, off, 8, what)
    return _U64.unpack_from(buf, off)[0], off + 8


def _read_floats(buf: memoryview, off: int, count: int, dtype: str,
                 what: str) -> tuple[np.ndarray, int]:
    width = np.dtype(dtype).itemsize
    _need(buf, off, count * width, what)
    vals = np.frombuffer(buf, dtype=dtype, count=count, offset=off)
    return vals, off + count * width


def _floats(values, dtype: str, what: str) -> list:
    """``u32 n | dtype * n`` as join parts; the array's own buffer when it
    already has the wire dtype and is contiguous."""
    vals = np.ascontiguousarray(values, dtype=dtype)
    return [_u32(vals.shape[0], what), memoryview(vals).cast("B")]


# ---------------------------------------------------------------- payloads

def _projected_parts(msg: ProjectedUpdate) -> list:
    parts = [bytes([msg.version & 0xFF]),
             _u32(msg.partition_id, "partition id"),
             _u64(msg.seed, "seed")]
    for coords in msg.block_coords:
        parts += _floats(coords, "<f4", "coordinate count")
    return parts


def decode_projected(body) -> ProjectedUpdate:
    body = _view(body)
    _need(body, 0, 1, "version byte")
    version = body[0]
    partition_id, off = _read_u32(body, 1, "partition id")
    seed, off = _read_u64(body, off, "seed")
    blocks = []
    while off < len(body):
        n, off = _read_u32(body, off, "coordinate count")
        coords, off = _read_floats(body, off, n, "<f4", "coordinates")
        blocks.append(coords)
    if not blocks:
        raise ProtocolError("projected payload carries no blocks")
    return ProjectedUpdate(partition_id=partition_id, seed=seed,
                           block_coords=tuple(blocks), version=version)


def _scalar_parts(grads: ScalarGrads) -> list:
    return [_u64(grads.seed, "seed"),
            *_floats(grads.values, "<f8", "scalar count")]


def decode_scalar_grads(body) -> ScalarGrads:
    body = _view(body)
    seed, off = _read_u64(body, 0, "seed")
    n, off = _read_u32(body, off, "scalar count")
    vals, off = _read_floats(body, off, n, "<f8", "scalars")
    if off != len(body):
        raise ProtocolError(f"{len(body) - off} trailing bytes after scalars")
    return ScalarGrads(seed=seed, values=vals)


def _raw_parts(values: np.ndarray) -> list:
    vals = np.ascontiguousarray(values, dtype="<f8")
    if vals.ndim != 1:
        raise ProtocolError("raw payload must be a flat vector")
    return _floats(vals, "<f8", "value count")


def decode_raw(body) -> np.ndarray:
    body = _view(body)
    n, off = _read_u32(body, 0, "value count")
    vals, off = _read_floats(body, off, n, "<f8", "values")
    if off != len(body):
        raise ProtocolError(f"{len(body) - off} trailing bytes after values")
    return vals


# client tag -> (payload type, payload join parts, payload decoder)
_CLIENT_CODECS = {
    TAG_PROJECTED: (ProjectedUpdate, _projected_parts, decode_projected),
    TAG_SCALAR: (ScalarGrads, _scalar_parts, decode_scalar_grads),
    TAG_RAW: (np.ndarray, _raw_parts, decode_raw),
}


# ---------------------------------------------------------------- frames

@dataclass(frozen=True)
class Frame:
    tag: int
    body: memoryview  # read-only; bytes also work wherever a Frame is read


def _check_length(length: int) -> None:
    if length < 1 or length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} outside [1, {MAX_FRAME_BYTES}]")


def _check_tag(tag: int) -> None:
    if tag not in _ALL_TAGS:
        raise ProtocolError(f"unknown frame tag {tag:#04x}")


def _frame(tag: int, parts: list) -> bytes:
    """One frame from its body parts, in a single join."""
    _check_tag(tag)
    length = 1 + sum(len(p) for p in parts)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the cap")
    return b"".join([_HEAD.pack(length, tag), *parts])


def encode_frame(tag: int, body=b"") -> bytes:
    return _frame(tag, [_view(body)])


def decode_frame(buf) -> tuple[Frame, int]:
    """Decode one frame from the head of buf; returns (frame, bytes consumed).

    The frame's body is a read-only view of buf.
    """
    buf = _view(buf)
    length, off = _read_u32(buf, 0, "frame length")
    _check_length(length)
    _need(buf, off, length, "frame body")
    tag = buf[off]
    _check_tag(tag)
    return Frame(tag=tag, body=buf[off + 1:off + length]), off + length


def _client_codec(tag: int) -> tuple:
    if tag not in _CLIENT_CODECS:
        raise ProtocolError(f"tag {tag:#04x} is not a client update")
    return _CLIENT_CODECS[tag]


def encode_client_update(tag: int, client_id: int, round_index: int, payload) -> bytes:
    """Wrap a payload object in its envelope and a frame of the given client tag."""
    kind, parts, _ = _client_codec(tag)
    if not isinstance(payload, kind):
        raise ProtocolError(f"tag {tag:#04x} takes {kind.__name__}, "
                            f"not {type(payload).__name__}")
    return _frame(tag, [_u32(client_id, "client id"), _u32(round_index, "round"),
                        *parts(payload)])


def decode_client_update(frame: Frame):
    """Unwrap (client_id, round, payload) from a client frame."""
    _, _, decode = _client_codec(frame.tag)
    body = _view(frame.body)
    client_id, off = _read_u32(body, 0, "client id")
    round_index, off = _read_u32(body, off, "round")
    return client_id, round_index, decode(body[off:])


def encode_round(round_index: int, values: np.ndarray) -> bytes:
    return _frame(TAG_ROUND, [_u32(round_index, "round"), *_raw_parts(values)])


def decode_round(frame: Frame) -> tuple[int, np.ndarray]:
    if frame.tag != TAG_ROUND:
        raise ProtocolError(f"tag {frame.tag:#04x} is not a round start")
    body = _view(frame.body)
    round_index, off = _read_u32(body, 0, "round")
    return round_index, decode_raw(body[off:])


def encode_done(rounds: int) -> bytes:
    return _frame(TAG_DONE, [_u32(rounds, "round count")])


def encode_shutdown() -> bytes:
    return _frame(TAG_SHUTDOWN, [])


def encode_failure(client_id: int, iteration: int, message: str) -> bytes:
    """A failing worker's SHUTDOWN frame (ids kept to their low 32 bits)."""
    head = _FAILURE.pack(client_id & 0xFFFFFFFF, iteration & 0xFFFFFFFF)
    return _frame(TAG_SHUTDOWN, [head, message.encode("utf-8")])


def decode_failure(body) -> tuple[int, int, str]:
    """(client_id, iteration, message) from a failing worker's SHUTDOWN body."""
    body = _view(body)
    if len(body) < _FAILURE.size:
        raise ProtocolError("worker aborted without detail")
    client_id, iteration = _FAILURE.unpack_from(body)
    text = str(body[_FAILURE.size:], "utf-8", errors="replace")
    return client_id, iteration, text


# ---------------------------------------------------------------- sockets

def send_frame(sock, data: bytes) -> None:
    sock.sendall(data)


def _recv_into(sock, buf: memoryview) -> None:
    """Fill buf from sock; ProtocolError if the peer closes first."""
    got = 0
    while got < len(buf):
        n = sock.recv_into(buf[got:])
        if not n:
            raise ProtocolError(f"connection closed {len(buf) - got} bytes early")
        got += n


def recv_frame(sock) -> Frame:
    """Read one frame; its tag and body land in one buffer, read in place."""
    head = bytearray(_U32.size)
    _recv_into(sock, memoryview(head))
    (length,) = _U32.unpack(head)
    _check_length(length)
    buf = bytearray(length)
    _recv_into(sock, memoryview(buf))
    _check_tag(buf[0])
    return Frame(tag=buf[0], body=_view(buf)[1:])
