"""Two-process demo: the same round engine over a loopback TCP stream.

The server process owns the global model and the accounting; a single spawned
worker process hosts every client.  Per round the server sends one ROUND frame
(round index plus the parameter snapshot); the worker derives the round's
participants itself (client sampling is a pure function of the config), runs
them in ascending id order through the same ``client_update_frame`` code path
as the in-process simulator, and streams the replies back.  Because both modes
route identical bytes into ``apply_replies``, their records match field for
field apart from wall times.
"""

from __future__ import annotations

import multiprocessing
import socket
import struct
import time

from .errors import DivergedError, ProtocolError
from .federation import (
    ClientDataset,
    ExperimentState,
    FedConfig,
    RoundRecord,
    apply_replies,
    client_update_frame,
    sample_clients,
    setup_experiment,
)
from .models import Dataset, ModelSpec
from .wire import (
    TAG_DONE,
    TAG_ROUND,
    TAG_SHUTDOWN,
    decode_round,
    encode_done,
    encode_frame,
    encode_round,
    encode_shutdown,
    recv_frame,
    send_frame,
)

_SOCKET_TIMEOUT = 60.0


def _encode_failure(client_id: int, iteration: int, message: str) -> bytes:
    body = struct.pack("<II", client_id & 0xFFFFFFFF, iteration & 0xFFFFFFFF)
    return encode_frame(TAG_SHUTDOWN, body + message.encode("utf-8"))


def _worker_main(host: str, port: int, cfg: FedConfig, model: ModelSpec,
                 clients: list[ClientDataset], partition) -> None:
    sock = socket.create_connection((host, port), timeout=_SOCKET_TIMEOUT)
    by_id = {c.client_id: c for c in clients}
    try:
        while True:
            try:
                frame = recv_frame(sock)
            except ProtocolError:
                return  # server closed the stream mid-round; nothing to finish
            if frame.tag in (TAG_DONE, TAG_SHUTDOWN):
                return
            round_index, w_values = decode_round(frame)
            try:
                for cid in sample_clients(cfg, round_index):
                    send_frame(sock, client_update_frame(
                        cfg, model, partition, w_values, by_id[cid], round_index))
            except DivergedError as err:
                send_frame(sock, _encode_failure(
                    err.client_id or 0, err.iteration, str(err)))
                return
    finally:
        sock.close()


def _raise_failure(state: ExperimentState, body: bytes) -> None:
    if len(body) < 8:
        raise ProtocolError("worker aborted without detail")
    client_id, iteration = struct.unpack_from("<II", body)
    raise DivergedError(body[8:].decode("utf-8", errors="replace"),
                        iteration=iteration, round_index=state.round_index,
                        client_id=client_id)


def run_experiment_sockets(cfg: FedConfig, model: ModelSpec,
                           clients: list[ClientDataset],
                           eval_data: Dataset | None = None,
                           host: str = "127.0.0.1") -> list[RoundRecord]:
    """R rounds with clients in a worker process; records match in-process."""
    state = setup_experiment(cfg, model, clients, eval_data)

    listener = socket.create_server((host, 0))
    listener.settimeout(_SOCKET_TIMEOUT)
    port = listener.getsockname()[1]
    ctx = multiprocessing.get_context("spawn")
    worker = ctx.Process(target=_worker_main,
                         args=(host, port, cfg, model, clients, state.partition),
                         daemon=True)
    worker.start()

    records: list[RoundRecord] = []
    try:
        conn, _ = listener.accept()
        conn.settimeout(_SOCKET_TIMEOUT)
        try:
            for _ in range(cfg.rounds):
                send_frame(conn, encode_round(state.round_index, state.w.values))
                t0 = time.perf_counter()
                frames = []
                for _ in sample_clients(cfg, state.round_index):
                    reply = recv_frame(conn)
                    if reply.tag == TAG_SHUTDOWN:
                        _raise_failure(state, reply.body)
                    frames.append(encode_frame(reply.tag, reply.body))
                wall_local = time.perf_counter() - t0
                _, record, _ = apply_replies(state, cfg, frames,
                                             wall_local=wall_local)
                records.append(record)
            send_frame(conn, encode_done(cfg.rounds))
        except BaseException:
            try:  # tell the worker to stop instead of letting its recv fail
                send_frame(conn, encode_shutdown())
            except OSError:
                pass
            raise
        finally:
            conn.close()
    finally:
        listener.close()
        worker.join(timeout=_SOCKET_TIMEOUT)
        if worker.is_alive():
            worker.terminate()
            worker.join()
    return records
