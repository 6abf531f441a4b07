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

_CLIENT_TAGS = (TAG_PROJECTED, TAG_SCALAR, TAG_RAW)
_ALL_TAGS = _CLIENT_TAGS + (TAG_ROUND, TAG_DONE, TAG_SHUTDOWN)

# hard ceiling on one frame; a desk-scale d=1e5 raw update is ~800KB
MAX_FRAME_BYTES = 1 << 28

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def _need(buf: bytes, offset: int, count: int, what: str) -> None:
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


def _read_u32(buf: bytes, off: int, what: str) -> tuple[int, int]:
    _need(buf, off, 4, what)
    return _U32.unpack_from(buf, off)[0], off + 4


def _read_u64(buf: bytes, off: int, what: str) -> tuple[int, int]:
    _need(buf, off, 8, what)
    return _U64.unpack_from(buf, off)[0], off + 8


def _read_floats(buf: bytes, off: int, count: int, dtype: str,
                 what: str) -> tuple[np.ndarray, int]:
    width = np.dtype(dtype).itemsize
    _need(buf, off, count * width, what)
    vals = np.frombuffer(buf, dtype=dtype, count=count, offset=off).copy()
    return vals, off + count * width


# ---------------------------------------------------------------- payloads

def encode_projected(msg: ProjectedUpdate) -> bytes:
    parts = [bytes([msg.version & 0xFF]),
             _u32(msg.partition_id, "partition id"),
             _u64(msg.seed, "seed")]
    for coords in msg.block_coords:
        c = np.ascontiguousarray(coords, dtype="<f4")
        parts.append(_u32(c.shape[0], "coordinate count"))
        parts.append(c.tobytes())
    return b"".join(parts)


def decode_projected(body: bytes) -> ProjectedUpdate:
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


def encode_scalar_grads(grads: ScalarGrads) -> bytes:
    vals = np.ascontiguousarray(grads.values, dtype="<f8")
    return b"".join([_u64(grads.seed, "seed"),
                     _u32(vals.shape[0], "scalar count"), vals.tobytes()])


def decode_scalar_grads(body: bytes) -> ScalarGrads:
    seed, off = _read_u64(body, 0, "seed")
    n, off = _read_u32(body, off, "scalar count")
    vals, off = _read_floats(body, off, n, "<f8", "scalars")
    if off != len(body):
        raise ProtocolError(f"{len(body) - off} trailing bytes after scalars")
    return ScalarGrads(seed=seed, values=vals)


def encode_raw(values: np.ndarray) -> bytes:
    vals = np.ascontiguousarray(values, dtype="<f8")
    if vals.ndim != 1:
        raise ProtocolError("raw payload must be a flat vector")
    return _u32(vals.shape[0], "value count") + vals.tobytes()


def decode_raw(body: bytes) -> np.ndarray:
    n, off = _read_u32(body, 0, "value count")
    vals, off = _read_floats(body, off, n, "<f8", "values")
    if off != len(body):
        raise ProtocolError(f"{len(body) - off} trailing bytes after values")
    return vals


# ---------------------------------------------------------------- frames

@dataclass(frozen=True)
class Frame:
    tag: int
    body: bytes


def encode_frame(tag: int, body: bytes = b"") -> bytes:
    if tag not in _ALL_TAGS:
        raise ProtocolError(f"unknown frame tag {tag:#04x}")
    length = 1 + len(body)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the cap")
    return _u32(length, "frame length") + bytes([tag]) + body


def decode_frame(buf: bytes) -> tuple[Frame, int]:
    """Decode one frame from the head of buf; returns (frame, bytes consumed)."""
    length, off = _read_u32(buf, 0, "frame length")
    if length < 1 or length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} outside [1, {MAX_FRAME_BYTES}]")
    _need(buf, off, length, "frame body")
    tag = buf[off]
    if tag not in _ALL_TAGS:
        raise ProtocolError(f"unknown frame tag {tag:#04x}")
    return Frame(tag=tag, body=bytes(buf[off + 1:off + length])), off + length


def encode_client_update(client_id: int, round_index: int, payload) -> bytes:
    """Wrap a payload object in its envelope and frame, picking the tag by type."""
    head = _u32(client_id, "client id") + _u32(round_index, "round")
    if isinstance(payload, ProjectedUpdate):
        return encode_frame(TAG_PROJECTED, head + encode_projected(payload))
    if isinstance(payload, ScalarGrads):
        return encode_frame(TAG_SCALAR, head + encode_scalar_grads(payload))
    values = np.asarray(getattr(payload, "values", payload))
    return encode_frame(TAG_RAW, head + encode_raw(values))


def decode_client_update(frame: Frame):
    """Unwrap (client_id, round, payload) from a client frame."""
    if frame.tag not in _CLIENT_TAGS:
        raise ProtocolError(f"tag {frame.tag:#04x} is not a client update")
    client_id, off = _read_u32(frame.body, 0, "client id")
    round_index, off = _read_u32(frame.body, off, "round")
    body = frame.body[off:]
    if frame.tag == TAG_PROJECTED:
        return client_id, round_index, decode_projected(body)
    if frame.tag == TAG_SCALAR:
        return client_id, round_index, decode_scalar_grads(body)
    return client_id, round_index, decode_raw(body)


def encode_round(round_index: int, values: np.ndarray) -> bytes:
    return encode_frame(TAG_ROUND, _u32(round_index, "round") + encode_raw(values))


def decode_round(frame: Frame) -> tuple[int, np.ndarray]:
    if frame.tag != TAG_ROUND:
        raise ProtocolError(f"tag {frame.tag:#04x} is not a round start")
    round_index, off = _read_u32(frame.body, 0, "round")
    return round_index, decode_raw(frame.body[off:])


def encode_done(rounds: int) -> bytes:
    return encode_frame(TAG_DONE, _u32(rounds, "round count"))


def encode_shutdown() -> bytes:
    return encode_frame(TAG_SHUTDOWN)


# ---------------------------------------------------------------- sockets

def send_frame(sock, data: bytes) -> None:
    sock.sendall(data)


def recv_exact(sock, count: int) -> bytes:
    chunks = []
    got = 0
    while got < count:
        chunk = sock.recv(count - got)
        if not chunk:
            raise ProtocolError(f"connection closed {count - got} bytes early")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock) -> Frame:
    (length,) = _U32.unpack(recv_exact(sock, 4))
    if length < 1 or length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} outside [1, {MAX_FRAME_BYTES}]")
    payload = recv_exact(sock, length)
    tag = payload[0]
    if tag not in _ALL_TAGS:
        raise ProtocolError(f"unknown frame tag {tag:#04x}")
    return Frame(tag=tag, body=payload[1:])
