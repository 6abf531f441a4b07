import socket
import threading

import numpy as np
import pytest

from fedproj.errors import ProtocolError
from fedproj.projection import BlockPartition, ProjectedUpdate, UpdateVector, project, reconstruct
from fedproj.wire import (
    MAX_FRAME_BYTES,
    TAG_DONE,
    TAG_PROJECTED,
    TAG_RAW,
    TAG_ROUND,
    TAG_SCALAR,
    TAG_SHUTDOWN,
    Frame,
    decode_client_update,
    decode_failure,
    decode_frame,
    decode_projected,
    decode_raw,
    decode_round,
    decode_scalar_grads,
    encode_client_update,
    encode_done,
    encode_failure,
    encode_frame,
    encode_projected,
    encode_raw,
    encode_round,
    encode_scalar_grads,
    encode_shutdown,
    recv_frame,
    send_frame,
)
from fedproj.zoo import ScalarGrads


def _sample_projected() -> tuple[ProjectedUpdate, BlockPartition]:
    part = BlockPartition((24, 40), (3, 5))
    delta = np.linspace(-2.0, 2.0, 64)
    return project(UpdateVector(delta, part), seed=77), part


def test_projected_layout_is_frozen():
    msg = ProjectedUpdate(partition_id=0x01020304, seed=0x1122334455667788,
                          block_coords=(np.array([1.0], dtype=np.float32),))
    assert encode_projected(msg) == bytes.fromhex(
        "01" "04030201" "8877665544332211" "01000000" "0000803f")


def test_projected_roundtrip_bit_exact():
    msg, part = _sample_projected()
    back = decode_projected(encode_projected(msg))
    assert back.partition_id == msg.partition_id
    assert back.seed == msg.seed
    assert back.version == msg.version
    assert len(back.block_coords) == 2
    for a, b in zip(back.block_coords, msg.block_coords):
        assert a.dtype == np.float32
        assert np.array_equal(a, b)


def test_reconstruction_survives_the_codec():
    msg, part = _sample_projected()
    direct = reconstruct(msg, part)
    routed = reconstruct(decode_projected(encode_projected(msg)), part)
    assert np.array_equal(direct, routed)


def test_scalar_grads_roundtrip_bit_exact():
    grads = ScalarGrads(seed=2 ** 63 + 9, values=np.array([1e-300, -3.5, np.pi]))
    back = decode_scalar_grads(encode_scalar_grads(grads))
    assert back.seed == grads.seed
    assert np.array_equal(back.values, grads.values)
    assert back.values.dtype == np.float64


def test_raw_roundtrip():
    vals = np.random.default_rng(0).standard_normal(100)
    assert np.array_equal(decode_raw(encode_raw(vals)), vals)
    with pytest.raises(ProtocolError):
        encode_raw(np.zeros((2, 2)))


def test_client_update_envelope_all_payloads():
    msg, part = _sample_projected()
    grads = ScalarGrads(seed=5, values=np.arange(4.0))
    raw = np.arange(6.0)
    for payload, tag in ((msg, TAG_PROJECTED), (grads, TAG_SCALAR), (raw, TAG_RAW)):
        buf = encode_client_update(9, 3, payload)
        frame, used = decode_frame(buf)
        assert used == len(buf)
        assert frame.tag == tag
        cid, rnd, back = decode_client_update(frame)
        assert (cid, rnd) == (9, 3)
        if tag == TAG_RAW:
            assert np.array_equal(back, raw)


def test_frames_concatenate_and_stream():
    buf = encode_frame(TAG_DONE, b"\x02\x00\x00\x00") + encode_shutdown()
    first, used = decode_frame(buf)
    second, used2 = decode_frame(buf[used:])
    assert first.tag == TAG_DONE
    assert second.tag == TAG_SHUTDOWN and second.body == b""
    assert used + used2 == len(buf)
    # a failing worker's SHUTDOWN: u32 client_id | u32 iteration | utf-8 text
    failure, _ = decode_frame(encode_failure(3, 7, "local loss diverged \u2192 nan"))
    assert failure.tag == TAG_SHUTDOWN
    assert failure.body[:8] == b"\x03\x00\x00\x00\x07\x00\x00\x00"
    assert decode_failure(failure.body) == (3, 7, "local loss diverged \u2192 nan")
    with pytest.raises(ProtocolError, match="^worker aborted without detail$"):
        decode_failure(failure.body[:7])


def test_round_frame_roundtrip():
    w = np.linspace(0, 1, 17)
    frame, _ = decode_frame(encode_round(6, w))
    assert frame.tag == TAG_ROUND
    rnd, back = decode_round(frame)
    assert rnd == 6
    assert np.array_equal(back, w)
    with pytest.raises(ProtocolError):
        decode_round(Frame(tag=TAG_DONE, body=b""))


def test_error_paths():
    with pytest.raises(ProtocolError):
        encode_frame(0x55, b"")
    with pytest.raises(ProtocolError):
        decode_frame(b"\x05\x00\x00\x00\x01")  # length says 5, body has 1
    with pytest.raises(ProtocolError):
        decode_frame(b"\x00\x00\x00\x00")  # zero length
    with pytest.raises(ProtocolError):
        decode_frame(b"\x01\x00\x00\x00\x55")  # unknown tag
    with pytest.raises(ProtocolError):
        decode_scalar_grads(encode_scalar_grads(
            ScalarGrads(seed=1, values=np.ones(2))) + b"\x00")
    with pytest.raises(ProtocolError):
        decode_raw(encode_raw(np.ones(2)) + b"\x00")
    with pytest.raises(ProtocolError):
        decode_projected(b"\x01\x00\x00\x00\x00")  # no seed
    with pytest.raises(ProtocolError):
        encode_client_update(1 << 32, 0, np.ones(2))
    with pytest.raises(ProtocolError):
        encode_scalar_grads(ScalarGrads(seed=-1, values=np.ones(1)))
    with pytest.raises(ProtocolError):
        decode_client_update(Frame(tag=TAG_ROUND, body=b""))
    with pytest.raises(ProtocolError):
        decode_projected(encode_projected(ProjectedUpdate(
            partition_id=1, seed=1,
            block_coords=(np.ones(1, np.float32),)))[:9])


def test_socket_transport():
    server, client = socket.socketpair()
    try:
        msg, _ = _sample_projected()
        out = encode_client_update(4, 1, msg)

        def reply():
            frame = recv_frame(server)
            send_frame(server, encode_frame(frame.tag, frame.body))

        t = threading.Thread(target=reply)
        t.start()
        send_frame(client, out)
        echoed = recv_frame(client)
        t.join()
        cid, rnd, back = decode_client_update(echoed)
        assert (cid, rnd) == (4, 1)
        assert np.array_equal(back.block_coords[0], msg.block_coords[0])
    finally:
        server.close()
        client.close()


def test_socket_short_close_raises():
    server, client = socket.socketpair()
    client.sendall(b"\x10\x00\x00\x00\x01")  # claims 16 bytes, sends 1
    client.close()
    with pytest.raises(ProtocolError):
        recv_frame(server)
    server.close()


def test_max_frame_guard():
    huge = (MAX_FRAME_BYTES).to_bytes(4, "little") + b"\x01"
    with pytest.raises(ProtocolError):
        decode_frame(huge + b"x" * 8)
    assert decode_frame(encode_done(3))[0].body == b"\x03\x00\x00\x00"
    # the buffer and the socket reader reject a bad header with one message
    for head, msg in (
            (b"\x00\x00\x00\x00", r"frame length 0 outside \[1, "),
            ((MAX_FRAME_BYTES + 1).to_bytes(4, "little"), "outside"),
            (b"\x01\x00\x00\x00\x55", "unknown frame tag 0x55")):
        with pytest.raises(ProtocolError, match=msg) as buffered:
            decode_frame(head)
        server, client = socket.socketpair()
        try:
            client.sendall(head)
            with pytest.raises(ProtocolError) as streamed:
                recv_frame(server)
        finally:
            server.close()
            client.close()
        assert str(streamed.value) == str(buffered.value)
