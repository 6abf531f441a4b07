"""Two-process demo: the same round engine over a loopback TCP stream.

The server process owns the global model and the accounting; a single spawned
worker process hosts every client.  Per round the server sends one ROUND frame
(round index plus the parameter snapshot); the worker derives the round's
participants itself (client sampling is a pure function of the config), runs
them in ascending id order through the same ``client_update_frame`` code path
as the in-process simulator, and streams the replies back.  Because both modes
route identical bytes into ``apply_replies``, their records match field for
field apart from wall times.

The server holds one reply at a time: ``apply_replies`` reads each from a
generator, which calls ``recv_frame`` only when asked, and folds it into its
running sum before it asks for the next.  A reply's d floats are copied twice
on the server: ``recv_frame`` reads the frame in place into one buffer, and
``encode_frame`` joins that buffer's body into the frame ``apply_replies``
reads.  The received buffer goes when the next reply arrives, so at most two
reply buffers live at once, whatever the number of clients.  The worker reads
the ROUND snapshot the same way, as a read-only view of its received frame,
which each client copies before it steps.

The worker runs its BLAS single-threaded.  Its gemms are per-client batches
far too small to gain from a second thread, and that second thread waits on a
core where the server's BLAS pool still spins after its evaluation: on a
2-core host this made socket rounds about 1.7x slower than in-process ones.
The server's own BLAS is left as it is.  OpenBLAS splits a gemm's output, not
its inner sums, between threads, so the records still match the in-process run.

The worker also keeps its heap for its one experiment.  By default glibc
hands freed heap back to the kernel, so each client faulted the previous
one's buffers back in: about 7,500 page faults (30 MB) a round for a
256-256-10 MLP with 10 clients.  ``MALLOC_MMAP_THRESHOLD_`` at 32 MiB (the
largest glibc takes on 64-bit) keeps the per-client arrays on the heap, and
``MALLOC_TRIM_THRESHOLD_`` at 1 GiB stops glibc trimming it; setting either
alone turns off glibc's adjustment of the other, and faults rise.  With both
the worker faults almost nothing after its first round and keeps its peak
heap until it exits.  Other C libraries ignore these variables, and no bit
depends on the allocator.  Like the BLAS variables they are set only while
the worker starts: the server's allocator belongs to the caller.

The worker gets its clients one at a time, not in its spawn arguments.  The
spawn pickle holds the config, the model, the partition and one end of a
private ``socket.socketpair``; before it accepts the TCP connection, the
server sends each client down the other end as its own length-prefixed
pickle, and the worker reads them all before it connects.  Pickled into the
spawn arguments, the shards made the server hold the federation's data twice
(8.87 MB traced for 4.11 MB of shards at the fedavg-sockets shape), and a
worker that died while unpickling more than a pipe buffer of them left
``start()`` blocked for good: CPython's spawn writes the whole pickle before
it closes its copy of the child's read end.  The hand-off has the socket
timeout, so a worker that dies there fails as one that dies before
connecting, and one that hangs there fails after the timeout.  Client data
never crosses the TCP stream.  The worker holds the clients as the list it
was sent: client i is ``clients[i]``, as in the server's own list.

The listener binds 127.0.0.1 only, since the worker is always a local child:
on another address a second machine could connect first, be accepted as the
worker and receive every ROUND snapshot.  Once the worker is connected, a
send or receive that waits the socket timeout means the worker has stalled:
the server terminates it, since it would not read SHUTDOWN, and raises a
ProtocolError naming the round and the wait.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import multiprocessing.connection
import os
import pickle
import socket
import struct

from .errors import DivergedError, ProtocolError
from .federation import (
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
    TAG_SHUTDOWN,
    _recv_into,
    decode_failure,
    decode_round,
    encode_done,
    encode_failure,
    encode_frame,
    encode_round,
    encode_shutdown,
    recv_frame,
    send_frame,
)

_HOST = "127.0.0.1"  # the worker is a local child; nothing else may connect
_SOCKET_TIMEOUT = 60.0
_CLIENT_HEAD = struct.Struct("<Q")  # byte length of one pickled client
# Environment the worker starts with; see the module docstring.
_WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 * 1024 * 1024),
    "MALLOC_TRIM_THRESHOLD_": str(1024 * 1024 * 1024),
}


@contextlib.contextmanager
def _worker_environment():
    """Set ``_WORKER_ENV`` in ``os.environ`` for a child started inside.

    A spawned child copies ``os.environ`` when it starts, and its BLAS and C
    allocator read these variables once, when they load; the caller's values
    (set or unset) come back after, whether the start succeeded or raised.
    """
    saved = {name: os.environ.get(name) for name in _WORKER_ENV}
    try:
        os.environ.update(_WORKER_ENV)
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _send_clients(sock: socket.socket, clients: list[Dataset]) -> None:
    """Each client down the hand-off socket as one length-prefixed pickle.

    Returns quietly if the worker has died, so that ``_accept_worker`` can
    name its exit code; ProtocolError if it stops reading for the timeout.
    """
    try:
        for client in clients:
            body = pickle.dumps(client, protocol=pickle.HIGHEST_PROTOCOL)
            sock.sendall(_CLIENT_HEAD.pack(len(body)))
            sock.sendall(body)
    except (BrokenPipeError, ConnectionResetError):
        pass
    except TimeoutError:
        raise ProtocolError(f"worker did not read its clients within "
                            f"{_SOCKET_TIMEOUT:g} s") from None


def _recv_clients(sock: socket.socket, count: int) -> list[Dataset]:
    clients = []
    for _ in range(count):
        head = bytearray(_CLIENT_HEAD.size)
        _recv_into(sock, memoryview(head))
        body = bytearray(_CLIENT_HEAD.unpack(head)[0])
        _recv_into(sock, memoryview(body))
        clients.append(pickle.loads(body))
    return clients


def _worker_main(port: int, cfg: FedConfig, model: ModelSpec,
                 handoff: socket.socket, partition) -> None:
    with handoff:
        handoff.settimeout(_SOCKET_TIMEOUT)
        clients = _recv_clients(handoff, cfg.num_clients)
    sock = socket.create_connection((_HOST, port), timeout=_SOCKET_TIMEOUT)
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
                        cfg, model, partition, w_values, cid, clients[cid],
                        round_index))
            except DivergedError as err:
                send_frame(sock, encode_failure(
                    err.client_id, err.iteration, str(err)))
                return
    finally:
        sock.close()


def _replies(conn: socket.socket, cfg: FedConfig, round_index: int):
    """The round's replies, each read from ``conn`` only when asked for; a
    failing worker's SHUTDOWN raises the DivergedError it carries."""
    for _ in sample_clients(cfg, round_index):
        reply = recv_frame(conn)
        if reply.tag == TAG_SHUTDOWN:
            client_id, iteration, text = decode_failure(reply.body)
            raise DivergedError(text, iteration=iteration, round_index=round_index,
                                client_id=client_id)
        yield encode_frame(reply.tag, reply.body)


def _accept_worker(listener: socket.socket, worker) -> socket.socket:
    """The worker's connection, or ProtocolError as soon as the worker dies."""
    ready = multiprocessing.connection.wait([listener, worker.sentinel],
                                            timeout=_SOCKET_TIMEOUT)
    if listener in ready:
        conn, _ = listener.accept()
        conn.settimeout(_SOCKET_TIMEOUT)
        return conn
    if not ready:
        raise ProtocolError(
            f"worker did not connect within {_SOCKET_TIMEOUT:g} s")
    worker.join()
    raise ProtocolError(
        f"worker exited with code {worker.exitcode} before connecting")


def run_experiment_sockets(cfg: FedConfig, model: ModelSpec,
                           clients: list[Dataset],
                           eval_data: Dataset | None = None) -> list[RoundRecord]:
    """R rounds with clients in a worker process; records match in-process."""
    state = setup_experiment(cfg, model, clients, eval_data)

    listener = socket.create_server((_HOST, 0))
    listener.settimeout(_SOCKET_TIMEOUT)
    port = listener.getsockname()[1]
    handoff, worker_end = socket.socketpair()
    handoff.settimeout(_SOCKET_TIMEOUT)
    ctx = multiprocessing.get_context("spawn")
    worker = ctx.Process(target=_worker_main,
                         args=(port, cfg, model, worker_end, state.partition),
                         daemon=True)
    try:
        with _worker_environment():
            worker.start()
    except BaseException:
        handoff.close()
        listener.close()
        raise
    finally:
        worker_end.close()

    records: list[RoundRecord] = []
    conn = None
    try:
        with handoff:
            _send_clients(handoff, clients)
        conn = _accept_worker(listener, worker)
        try:
            for _ in range(cfg.rounds):
                try:
                    send_frame(conn, encode_round(state.round_index, state.w))
                    _, record, _ = apply_replies(
                        state, cfg, _replies(conn, cfg, state.round_index))
                except TimeoutError:  # a stalled worker will not read SHUTDOWN
                    worker.terminate()
                    raise ProtocolError(
                        f"worker stalled in round {state.round_index}: no "
                        f"progress within {_SOCKET_TIMEOUT:g} s") from None
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
        if conn is not None:  # a connected worker stops on DONE or SHUTDOWN
            worker.join(timeout=_SOCKET_TIMEOUT)
        if worker.is_alive():
            worker.terminate()
        worker.join()
        worker.close()
    return records
