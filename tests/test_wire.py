import copy
import hashlib
import socket
import threading
import tracemalloc

import numpy as np
import pytest

from fedproj import federation
from fedproj.errors import ProtocolError
from fedproj.federation import (
    FedConfig,
    apply_replies,
    client_update_frame,
    partition_data,
    sample_clients,
    setup_experiment,
)
from fedproj.models import ModelSpec, synthetic_classification
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
    encode_round,
    encode_shutdown,
    recv_frame,
    send_frame,
)
from fedproj.zoo import ScalarGrads


def _sample_projected() -> tuple[ProjectedUpdate, BlockPartition]:
    part = BlockPartition((24, 40), (3, 5))
    delta = np.linspace(-2.0, 2.0, 64)
    return project(UpdateVector(delta, part), seed=77), part


def _payload_bytes(tag: int, payload) -> bytes:
    """A payload's encoded body: its client frame past the 13-byte frame
    head and envelope."""
    return encode_client_update(tag, 0, 0, payload)[13:]


def test_projected_layout_is_frozen():
    msg = ProjectedUpdate(partition_id=0x01020304, seed=0x1122334455667788,
                          block_coords=(np.array([1.0], dtype=np.float32),))
    assert _payload_bytes(TAG_PROJECTED, msg) == bytes.fromhex(
        "01" "04030201" "8877665544332211" "01000000" "0000803f")


def test_projected_roundtrip_bit_exact():
    msg, part = _sample_projected()
    back = decode_projected(_payload_bytes(TAG_PROJECTED, msg))
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
    routed = reconstruct(decode_projected(_payload_bytes(TAG_PROJECTED, msg)), part)
    assert np.array_equal(direct, routed)


def test_scalar_grads_roundtrip_bit_exact():
    grads = ScalarGrads(seed=2 ** 63 + 9, values=np.array([1e-300, -3.5, np.pi]))
    back = decode_scalar_grads(_payload_bytes(TAG_SCALAR, grads))
    assert back.seed == grads.seed
    assert np.array_equal(back.values, grads.values)
    assert back.values.dtype == np.float64


def test_raw_roundtrip():
    vals = np.random.default_rng(0).standard_normal(100)
    assert np.array_equal(decode_raw(_payload_bytes(TAG_RAW, vals)), vals)
    with pytest.raises(ProtocolError):
        _payload_bytes(TAG_RAW, np.zeros((2, 2)))


def test_client_update_envelope_all_payloads():
    msg, part = _sample_projected()
    grads = ScalarGrads(seed=5, values=np.arange(4.0))
    raw = np.arange(6.0)
    for payload, tag in ((msg, TAG_PROJECTED), (grads, TAG_SCALAR), (raw, TAG_RAW)):
        buf = encode_client_update(tag, 9, 3, payload)
        frame, used = decode_frame(buf)
        assert used == len(buf)
        assert frame.tag == tag
        cid, rnd, back = decode_client_update(frame)
        assert (cid, rnd) == (9, 3)
        if tag == TAG_RAW:
            assert np.array_equal(back, raw)


@pytest.mark.parametrize("tag, payload, kind", [
    (TAG_PROJECTED, np.ones(2), "ProjectedUpdate"),
    (TAG_SCALAR, np.ones(2), "ScalarGrads"),
    (TAG_RAW, ScalarGrads(seed=1, values=np.ones(2)), "ndarray"),
])
def test_a_payload_of_another_tag_is_refused(tag, payload, kind):
    with pytest.raises(ProtocolError,
                       match=f"^tag {tag:#04x} takes {kind}, not "):
        encode_client_update(tag, 0, 0, payload)


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
        decode_scalar_grads(_payload_bytes(
            TAG_SCALAR, ScalarGrads(seed=1, values=np.ones(2))) + b"\x00")
    with pytest.raises(ProtocolError):
        decode_raw(_payload_bytes(TAG_RAW, np.ones(2)) + b"\x00")
    with pytest.raises(ProtocolError):
        decode_projected(b"\x01\x00\x00\x00\x00")  # no seed
    with pytest.raises(ProtocolError):
        encode_client_update(TAG_RAW, 1 << 32, 0, np.ones(2))
    with pytest.raises(ProtocolError, match="^tag 0x10 is not a client update$"):
        encode_client_update(TAG_ROUND, 0, 0, np.ones(2))
    with pytest.raises(ProtocolError):
        _payload_bytes(TAG_SCALAR, ScalarGrads(seed=-1, values=np.ones(1)))
    with pytest.raises(ProtocolError):
        decode_client_update(Frame(tag=TAG_ROUND, body=b""))
    with pytest.raises(ProtocolError):
        decode_projected(_payload_bytes(TAG_PROJECTED, ProjectedUpdate(
            partition_id=1, seed=1,
            block_coords=(np.ones(1, np.float32),)))[:9])


def test_socket_transport():
    server, client = socket.socketpair()
    try:
        msg, _ = _sample_projected()
        out = encode_client_update(TAG_PROJECTED, 4, 1, msg)

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


# sha256 of frames recorded before the codec moved to one join per frame and
# read-only views: any change to the bytes on the wire shows up here
GOLDEN_CLIENT_FRAMES = {
    ("mlp", "subspace"): "7af8a6f9a7af45f806ca832333955a25923ebf74e87bd906c7a5ead56631cf82",
    ("mlp", "fedavg"): "96d7791a0d546157b77c56e30d38b245c1df7ffa1591034ce81623af02465cbb",
    ("mlp", "fedzo"): "36ebdc182540894e73e204680f0ab74c3a37917cf15816819a5fc63dee1e9d13",
    ("mlp", "fedkseed"): "add322dbed7a60e92a0bada314f72c16961047c09a7d1a91d22333612a3d9c71",
    ("logistic-regression", "subspace"):
        "1b7ab12ef3bee4d48be7ea1c2fc69ed4e40a11f16cb70f317db8d423df3e4bd9",
    ("logistic-regression", "fedavg"):
        "beb4a125782bef37074e8ee12a8dcf43bd0dee532a5be7ddced8e5b8ae954cfb",
    ("logistic-regression", "fedzo"):
        "7ef281952b02737d5d7eb20fe60d15d675f00d85c82341e106cc2d60c00501c3",
    ("logistic-regression", "fedkseed"):
        "6de84317e80a846b09c4d3d536030425e132dd22d95621817785c7308fe48cfa",
}
GOLDEN_CONTROL_FRAMES = {
    "round": "777b993be99c5d56519ff09b53b3a3082cd1fbd173a565ec3dca30f7500ce581",
    "done": "9d6303a2bf6128ca7f3a392847ec1851e1c672537664e2bc2839a1c4de7bec7f",
    "failure": "fa8485dbd620b39f6f18d9d444cb5825e3e31cdb39f9470459c193d86e9888ea",
    "shutdown": "0454dbbd1f5e8425082ba26517c539df3cf4df75d8e09db20f25c24035b04f5c",
}


def _experiment(method: str, kind: str = "mlp"):
    model = ModelSpec(kind, 6, 3, hidden_dim=8 if kind == "mlp" else 0,
                      init_seed=4)
    data = synthetic_classification(120, 6, 3, seed=5)
    clients = partition_data(data, 4, seed=6)
    cfg = FedConfig(num_clients=4, rounds=1, local_iters=2, total_bases=6,
                    local_lr=0.05, root_seed=7, batch_size=8, method=method)
    return cfg, model, clients, setup_experiment(cfg, model, clients, data)


def _round0_frame(kind: str, method: str) -> bytes:
    cfg, model, clients, state = _experiment(method, kind)
    cid = sample_clients(cfg, 0)[0]
    return client_update_frame(cfg, model, state.partition, state.w, cid,
                               clients[cid], 0)


@pytest.mark.parametrize("kind,method", sorted(GOLDEN_CLIENT_FRAMES))
def test_round0_client_frames_match_their_golden_digest(kind, method):
    frame = _round0_frame(kind, method)
    assert hashlib.sha256(frame).hexdigest() == GOLDEN_CLIENT_FRAMES[kind, method]


def test_control_frames_match_their_golden_digest():
    frames = {"round": encode_round(3, np.linspace(-1.0, 1.0, 11)),
              "done": encode_done(5),
              "failure": encode_failure(2, 9, "local loss diverged → nan"),
              "shutdown": encode_shutdown()}
    assert {k: hashlib.sha256(v).hexdigest() for k, v in frames.items()} == \
        GOLDEN_CONTROL_FRAMES


def test_recv_frame_reassembles_a_frame_sent_in_small_pieces():
    out = _round0_frame("mlp", "fedavg")
    server, client = socket.socketpair()
    try:
        def trickle():
            for at in range(0, len(out), 7):
                client.sendall(out[at:at + 7])

        t = threading.Thread(target=trickle)
        t.start()
        frame = recv_frame(server)
        t.join()
        assert frame.tag == TAG_RAW
        assert bytes(frame.body) == out[5:]
    finally:
        server.close()
        client.close()


def test_peer_closing_mid_frame_reports_the_missing_bytes():
    out = _round0_frame("mlp", "fedavg")
    server, client = socket.socketpair()
    try:
        client.sendall(out[:100])
        client.close()
        with pytest.raises(ProtocolError) as err:
            recv_frame(server)
        assert str(err.value) == f"connection closed {len(out) - 100} bytes early"
    finally:
        server.close()


# ---------------------------------------------------------------- copies

_D = 68_362  # the fedavg-sockets MLP: 256-256-10
_SLACK = 64 * 1024


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decoding_a_raw_reply_copies_no_payload():
    frame = encode_client_update(TAG_RAW, 3, 0,
                                 np.random.default_rng(1).standard_normal(_D))
    fedavg = federation._METHODS["fedavg"]
    (_, _, payload), peak = _traced_peak(
        lambda: federation._decode_reply(frame, fedavg, _D))
    assert peak < _SLACK
    assert payload.shape == (_D,)
    assert np.shares_memory(payload, np.frombuffer(frame, np.uint8))
    assert not payload.flags.writeable


def test_encoders_hold_one_frame_at_most():
    values = np.random.default_rng(2).standard_normal(_D)
    for encode in (lambda: encode_client_update(TAG_RAW, 3, 0, values),
                   lambda: encode_round(4, values)):
        frame, peak = _traced_peak(encode)
        assert peak <= len(frame) + _SLACK


def _shifted(frame: bytes, shift: int) -> memoryview:
    """frame copied to a writable buffer starting shift bytes past an
    8-aligned address, so its payload lands at every alignment over 0..7."""
    buf = np.zeros(len(frame) + 16, dtype=np.uint8)
    start = -buf.ctypes.data % 8 + shift
    buf[start:start + len(frame)] = np.frombuffer(frame, np.uint8)
    return memoryview(buf[start:start + len(frame)])


@pytest.mark.parametrize("method", ["subspace", "fedavg", "fedzo", "fedkseed"])
def test_unaligned_read_only_round_snapshot_gives_the_same_replies(method):
    # the worker's clients start from a view of the ROUND frame
    cfg, model, clients, state = _experiment(method)
    round_frame = encode_round(0, state.w)
    want = [client_update_frame(cfg, model, state.partition, state.w, i, c, 0)
            for i, c in enumerate(clients)]
    aligned = set()
    for shift in range(8):
        _, w_view = decode_round(decode_frame(_shifted(round_frame, shift))[0])
        assert not w_view.flags.writeable
        aligned.add(w_view.flags.aligned)
        got = [client_update_frame(cfg, model, state.partition, w_view, i, c, 0)
               for i, c in enumerate(clients)]
        assert got == want
        assert np.array_equal(w_view, state.w)  # nothing wrote through
    assert aligned == {True, False}


@pytest.mark.parametrize("method", ["subspace", "fedavg", "fedzo", "fedkseed"])
def test_unaligned_read_only_replies_aggregate_to_the_same_bits(method):
    cfg, model, clients, state = _experiment(method)
    frames = [client_update_frame(cfg, model, state.partition, state.w, i, c, 0)
              for i, c in enumerate(clients)]
    want_w, want_record, _ = apply_replies(copy.deepcopy(state), cfg, frames)
    for shift in range(8):
        shifted = [_shifted(f, shift) for f in frames]
        got_w, got_record, _ = apply_replies(copy.deepcopy(state), cfg, shifted)
        assert got_w.tobytes() == want_w.tobytes()
        assert got_record == want_record
        payloads = [decode_client_update(decode_frame(f)[0])[2] for f in shifted]
        arrays = [getattr(p, "values", p) for p in payloads
                  if not isinstance(p, ProjectedUpdate)]
        arrays += [c for p in payloads if isinstance(p, ProjectedUpdate)
                   for c in p.block_coords]
        assert not any(a.flags.writeable for a in arrays)
