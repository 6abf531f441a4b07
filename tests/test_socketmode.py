"""The loopback TCP demo must replay the in-process records exactly."""

import dataclasses
import io
import multiprocessing
import multiprocessing.resource_tracker
import os
import pickle
import platform
import re
import resource
import socket
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import fedproj
from fedproj import federation, models, socketmode
from fedproj.errors import (
    DivergedError,
    FedprojError,
    NumericError,
    ProtocolError,
    ShapeMismatchError,
)
from fedproj.federation import (
    FedConfig,
    client_update_frame,
    partition_data,
    run_experiment,
    sample_clients,
)
from fedproj.models import (
    Dataset,
    ModelSpec,
    synthetic_classification,
    synthetic_regression,
)
from fedproj.socketmode import run_experiment_sockets
from fedproj.wire import TAG_ROUND, decode_round, recv_frame, send_frame


def task():
    model = ModelSpec(kind="linear-regression", input_dim=20, output_dim=1,
                      init_seed=5)
    data = synthetic_regression(300, 20, seed=6, noise_std=0.1)
    clients = partition_data(data, 4, seed=7)
    return model, data, clients


def test_socket_records_match_in_process():
    model, data, clients = task()
    cfg = FedConfig(num_clients=4, rounds=3, local_iters=5, total_bases=8,
                    local_lr=0.05, root_seed=11, batch_size=32,
                    participation=0.6)
    in_process = run_experiment(cfg, model, clients, data)
    over_socket = run_experiment_sockets(cfg, model, clients, data)
    assert in_process == over_socket


def test_socket_matches_for_raw_payloads(tmp_path):
    model, data, clients = task()
    cfg = FedConfig(num_clients=4, rounds=2, local_iters=3, total_bases=8,
                    local_lr=0.05, root_seed=11, batch_size=32,
                    method="fedavg")
    assert run_experiment(cfg, model, clients, data) == \
        run_experiment_sockets(cfg, model, clients, data)


def test_socket_divergence_carries_client_context():
    model, data, clients = task()
    cfg = FedConfig(num_clients=4, rounds=2, local_iters=60, total_bases=8,
                    local_lr=1e12, root_seed=11, batch_size=32)
    with pytest.raises(DivergedError) as err:
        run_experiment_sockets(cfg, model, clients, data)
    assert err.value.round_index == 0
    assert err.value.client_id == 0
    assert err.value.iteration >= 1


class ExitingClient(Dataset):
    """A client whose unpickling in the worker ends the worker with code 3."""

    def __reduce__(self):
        return os._exit, (3,)


def test_worker_that_dies_before_connecting_fails_fast():
    model, data, clients = task()
    clients = [ExitingClient(c.features, c.targets) for c in clients]
    cfg = FedConfig(num_clients=4, rounds=1, local_iters=1, total_bases=8,
                    local_lr=0.05, root_seed=11, batch_size=32, method="fedavg")
    t0 = time.monotonic()
    with pytest.raises(ProtocolError, match="exited with code 3"):
        run_experiment_sockets(cfg, model, clients, data)
    assert time.monotonic() - t0 < 10.0


class SleepingClient(Dataset):
    """A client whose unpickling in the worker sleeps for ten minutes."""

    def __reduce__(self):
        return time.sleep, (600,)


def small_shard_task(first=Dataset):
    """``task()``'s four clients, client 0 built as ``first``, for one round."""
    model, data, clients = task()
    clients[0] = first(clients[0].features, clients[0].targets)
    cfg = FedConfig(num_clients=4, rounds=1, local_iters=1, total_bases=8,
                    local_lr=0.05, root_seed=11, method="fedavg")
    return cfg, model, clients, data


def large_shard_task(first=Dataset):
    """Four clients of 1 MB each; client 0 built as ``first``, and eval data."""
    model = ModelSpec("logistic-regression", 256, 10, init_seed=1)
    rng = np.random.default_rng(2)
    clients = [Dataset(rng.standard_normal((512, 256)), rng.integers(0, 10, 512))
               for _ in range(4)]
    clients[0] = first(clients[0].features, clients[0].targets)
    cfg = FedConfig(num_clients=4, rounds=1, local_iters=1, total_bases=8,
                    local_lr=0.05, root_seed=11, batch_size=32, method="fedavg")
    return cfg, model, clients, synthetic_classification(40, 256, 10, seed=3)


# run in a child process: before the clients went through the hand-off
# socket, this call blocked for good in the spawn pickle's pipe write
_DIES_READING_LARGE_SHARDS = """
import time
from fedproj.errors import ProtocolError
from fedproj.socketmode import run_experiment_sockets
from test_socketmode import ExitingClient, large_shard_task

cfg, model, clients, eval_data = large_shard_task(ExitingClient)
t0 = time.monotonic()
try:
    run_experiment_sockets(cfg, model, clients, eval_data)
except ProtocolError as err:
    print(f"{time.monotonic() - t0:.3f}", err)
"""


def test_worker_that_dies_reading_large_shards_fails_fast():
    paths = [Path(fedproj.__file__).parents[1], Path(__file__).parent]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    done = subprocess.run([sys.executable, "-c", _DIES_READING_LARGE_SHARDS],
                          env=env, capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    elapsed, message = done.stdout.strip().split(" ", 1)
    assert "exited with code 3" in message
    assert float(elapsed) < 10.0


@pytest.mark.parametrize("make_task, match", [
    # the small shards all fit the socket buffer, so the server waits at accept
    (small_shard_task, "did not connect within 2 s"),
    (large_shard_task, "did not read its clients within 2 s"),
])
def test_worker_that_hangs_reading_its_clients_fails_after_the_timeout(
        monkeypatch, make_task, match):
    monkeypatch.setattr(socketmode, "_SOCKET_TIMEOUT", 2.0)
    cfg, model, clients, data = make_task(SleepingClient)
    t0 = time.monotonic()
    with pytest.raises(ProtocolError, match=match):
        run_experiment_sockets(cfg, model, clients, data)
    assert time.monotonic() - t0 < 10.0
    assert multiprocessing.active_children() == []


def repeats_first_reply(port, cfg, model, handoff, partition):
    """A worker that answers each ROUND with its first sampled client's reply,
    sent once for every sampled client; it stops at any other frame."""
    with handoff:
        handoff.settimeout(10.0)
        clients = socketmode._recv_clients(handoff, cfg.num_clients)
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        while (frame := recv_frame(sock)).tag == TAG_ROUND:
            round_index, w = decode_round(frame)
            picked = sample_clients(cfg, round_index)
            reply = client_update_frame(cfg, model, partition, w, picked[0],
                                        clients[picked[0]], round_index)
            for _ in picked:
                send_frame(sock, reply)


def test_server_rejects_a_repeated_reply(monkeypatch):
    # the spawned worker imports the function from this module by name
    monkeypatch.setattr(socketmode, "_worker_main", repeats_first_reply)
    model, data, clients = task()
    cfg = FedConfig(num_clients=4, rounds=2, local_iters=2, total_bases=8,
                    local_lr=0.05, root_seed=11, batch_size=32,
                    participation=0.5)
    first = sample_clients(cfg, 0)[0]
    t0 = time.monotonic()
    with pytest.raises(ProtocolError,
                       match=re.escape(f"not [({first}, 0), ({first}, 0)]")):
        run_experiment_sockets(cfg, model, clients, data)
    assert time.monotonic() - t0 < 10.0
    assert multiprocessing.active_children() == []


def stalls_after_connecting(port, cfg, model, handoff, partition):
    """A worker that takes its clients, connects and then sends nothing."""
    with handoff:
        handoff.settimeout(10.0)
        socketmode._recv_clients(handoff, cfg.num_clients)
    with socket.create_connection(("127.0.0.1", port), timeout=10.0):
        time.sleep(600)


def test_a_worker_that_stalls_mid_session_fails_after_the_timeout(monkeypatch):
    monkeypatch.setattr(socketmode, "_SOCKET_TIMEOUT", 2.0)
    monkeypatch.setattr(socketmode, "_worker_main", stalls_after_connecting)
    model, data, clients = task()
    cfg = FedConfig(num_clients=4, rounds=2, local_iters=1, total_bases=8,
                    local_lr=0.05, root_seed=11, method="fedavg")
    t0 = time.monotonic()
    with pytest.raises(ProtocolError, match="^worker stalled in round 0: "
                                            "no progress within 2 s$"):
        run_experiment_sockets(cfg, model, clients, data)
    assert time.monotonic() - t0 < 10.0
    assert multiprocessing.active_children() == []


def fedavg_sockets_inputs(num_clients, examples_per_client=200):
    """The fedavg-sockets shape: a 256-256-10 MLP, equal 0.41 MB shards."""
    model = ModelSpec(kind="mlp", input_dim=256, output_dim=10, hidden_dim=256,
                      init_seed=5)
    data = synthetic_classification(examples_per_client * num_clients, 256, 10,
                                    seed=6)
    clients = partition_data(data, num_clients, seed=7)
    cfg = FedConfig(num_clients=num_clients, rounds=0, local_iters=5,
                    total_bases=256, local_lr=0.05, root_seed=11,
                    batch_size=32, method="fedavg")
    return cfg, model, clients, synthetic_classification(2000, 256, 10, seed=8)


def test_server_peak_does_not_grow_with_the_clients():
    def traced_peak(num_clients):
        inputs = fedavg_sockets_inputs(num_clients)
        tracemalloc.start()
        try:
            run_experiment_sockets(*inputs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    shard = fedavg_sockets_inputs(1)[2][0].features.nbytes
    ten, twenty = traced_peak(10), traced_peak(20)
    assert abs(twenty - ten) < shard, (ten, twenty, shard)


_RAW_FRAME = 546_913  # a fedavg reply at d = 68,362


@pytest.mark.parametrize("run", [run_experiment, run_experiment_sockets])
def test_a_round_holds_one_reply_at_a_time(run):
    # the round's peak over a zero-round run: a server that kept every reply
    # until it aggregated would hold 10 more raw frames at 20 clients
    def round_peak(num_clients):
        cfg, model, clients, eval_data = fedavg_sockets_inputs(
            num_clients, examples_per_client=2000 // num_clients)
        peaks = []
        for rounds in (0, 1):
            tracemalloc.start()
            try:
                run(dataclasses.replace(cfg, rounds=rounds), model, clients,
                    eval_data)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks[1] - peaks[0]

    ten, twenty = round_peak(10), round_peak(20)
    assert twenty - ten < _RAW_FRAME, (ten, twenty)


def mlp_task():
    # batch 32 x 128 x 128 gemms are above OpenBLAS's single-thread cut-off,
    # so the in-process side runs them on every core while the worker uses one
    model = ModelSpec(kind="mlp", input_dim=128, output_dim=4, hidden_dim=128,
                      init_seed=5)
    data = synthetic_classification(240, 128, 4, seed=6)
    clients = partition_data(data, 4, seed=7)
    return model, data, clients


@pytest.mark.parametrize("method, make_task", [
    ("fedzo", task), ("fedkseed", task), ("subspace", mlp_task)])
def test_socket_records_match_across_blas_thread_counts(method, make_task):
    model, data, clients = make_task()
    cfg = FedConfig(num_clients=4, rounds=2, local_iters=2, total_bases=16,
                    local_lr=0.05, root_seed=11, batch_size=32,
                    participation=0.6, method=method)
    assert run_experiment(cfg, model, clients, data) == \
        run_experiment_sockets(cfg, model, clients, data)


@pytest.mark.parametrize("method", ["fedzo", "fedkseed"])
def test_zeroth_order_divergence_is_the_same_on_both_transports(method):
    model, data, clients = task()
    cfg = FedConfig(num_clients=4, rounds=2, local_iters=3, total_bases=8,
                    local_lr=1e200, root_seed=11, batch_size=32,
                    participation=0.6, method=method)
    with pytest.raises(DivergedError) as in_process:
        run_experiment(cfg, model, clients, data)
    with pytest.raises(DivergedError) as over_socket:
        run_experiment_sockets(cfg, model, clients, data)
    fields = [(type(e), str(e), e.round_index, e.client_id, e.iteration)
              for e in (in_process.value, over_socket.value)]
    assert fields[0] == fields[1]
    # step 0 probes the finite global model; its 1e200-sized move makes the
    # first client's loss overflow at step 1
    assert fields[0][2:] == (0, sample_clients(cfg, 0)[0], 1)


def test_aggregate_overflow_is_the_same_on_both_transports():
    # targets x 100 give finite client deltas larger than 1, so only the
    # server's step server_lr * mean(delta) passes the double maximum
    model, data, clients = task()
    clients = [Dataset(c.features, 100.0 * c.targets) for c in clients]
    cfg = FedConfig(num_clients=4, rounds=2, local_iters=5, total_bases=8,
                    local_lr=0.05, root_seed=11, batch_size=32,
                    participation=0.6, method="fedavg", server_lr=1e308)
    state = federation.setup_experiment(cfg, model, clients, data)
    deltas = [federation._client_sgd(cfg, model, None, state.w, i, clients[i], 0)
              for i in sample_clients(cfg, 0)]
    assert all(np.all(np.isfinite(d)) for d in deltas)
    assert np.abs(np.mean(deltas, axis=0)).max() > sys.float_info.max / cfg.server_lr
    with pytest.raises(DivergedError) as in_process:
        run_experiment(cfg, model, clients, data)
    with pytest.raises(DivergedError) as over_socket:
        run_experiment_sockets(cfg, model, clients, data)
    fields = [(type(e), str(e), e.round_index, e.client_id, e.iteration)
              for e in (in_process.value, over_socket.value)]
    assert fields[0] == fields[1]
    assert fields[0][1:] == ("aggregated parameters are not finite", 0, None, 0)


def test_fedkseed_socket_records_match_a_walk_longer_than_the_row_keep():
    # K = 512 at d = 2,410: in-process, each replay reads the 33 row groups
    # its client's walk kept and regenerates the 7 after them; the socket
    # server regenerates all 40
    model = ModelSpec("mlp", 64, 10, hidden_dim=32, init_seed=3)
    data = synthetic_classification(120, 64, 10, seed=4)
    clients = partition_data(data, 4, seed=5)
    cfg = FedConfig(num_clients=4, rounds=2, local_iters=1, total_bases=512,
                    local_lr=0.05, root_seed=3, batch_size=32,
                    participation=0.5, method="fedkseed")
    assert run_experiment(cfg, model, clients, data) == \
        run_experiment_sockets(cfg, model, clients, data)


# defect -> (client, error type, message after "client <i>: "); the NaN goes
# to the first client that round 0 does not sample, so only a set-up check
# reaches it before training
_SHARD_DEFECTS = {
    "wide": (3, ShapeMismatchError, "features have width 7, model expects 6"),
    "nan-feature": (None, NumericError, "non-finite feature values"),
    "class-index": (1, ShapeMismatchError, "class index outside [0, 3)"),
}


def defective_shard_task(defect, cfg):
    """Four clients and the eval data; one client has the defect.  The wide
    shard comes with no eval data, so set-up would otherwise concatenate it."""
    model = ModelSpec("logistic-regression", 6, 3, init_seed=1)
    data = synthetic_classification(80, 6, 3, seed=2)
    clients = partition_data(data, 4, seed=3)
    client = _SHARD_DEFECTS[defect][0]
    if client is None:
        client = min(set(range(4)) - set(sample_clients(cfg, 0)))
    features = clients[client].features.copy()
    targets = clients[client].targets.copy()
    if defect == "wide":
        features = np.hstack([features, np.ones((len(targets), 1))])
        data = None
    elif defect == "nan-feature":
        features[4, 2] = np.nan
    else:
        targets[4] = 3
    clients[client] = Dataset(features, targets)
    return model, data, clients, client


@pytest.mark.parametrize("defect", sorted(_SHARD_DEFECTS))
@pytest.mark.parametrize("method", fedproj.METHODS)
def test_defective_shard_fails_at_set_up_over_both_transports(
        monkeypatch, starts, method, defect):
    # set-up checks every shard: each transport raises the same error, which
    # names the client, before any client trains or the worker is spawned
    trained = []
    monkeypatch.setattr(federation, "client_update_frame",
                        lambda *args: trained.append(args))
    cfg = FedConfig(num_clients=4, rounds=2, local_iters=2, total_bases=4,
                    local_lr=0.05, root_seed=11, participation=0.5,
                    method=method)
    model, data, clients, client = defective_shard_task(defect, cfg)
    _, error, message = _SHARD_DEFECTS[defect]
    got = []
    for run in (run_experiment, run_experiment_sockets):
        with pytest.raises(FedprojError) as err:
            run(cfg, model, clients, data)
        got.append((type(err.value), str(err.value)))
    assert got == [(error, f"client {client}: {message}")] * 2
    assert trained == [] and starts.env == []


WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": "33554432",
    "MALLOC_TRIM_THRESHOLD_": "1073741824",
}


class ArgsPickler(pickle.Pickler):
    """Pickles a Process's arguments as spawn does, with each socket as an id."""

    def persistent_id(self, obj):
        return "socket" if isinstance(obj, socket.socket) else None


@pytest.fixture
def starts(monkeypatch):
    """Records the worker variables and the pickled argument bytes at each
    spawned Process.start; can refuse it."""
    record = types.SimpleNamespace(env=[], args_bytes=[], fail=False)
    process_cls = multiprocessing.get_context("spawn").Process
    start = process_cls.start

    def recording_start(self):
        record.env.append({name: os.environ.get(name) for name in WORKER_ENV})
        out = io.BytesIO()
        ArgsPickler(out, protocol=pickle.HIGHEST_PROTOCOL).dump(self._args)
        record.args_bytes.append(len(out.getvalue()))
        if record.fail:
            raise OSError("start refused")
        start(self)

    monkeypatch.setattr(process_cls, "start", recording_start)
    return record


@pytest.mark.parametrize("preset", [None, "4"])
@pytest.mark.parametrize("fail", [False, True])
def test_worker_starts_with_its_environment(monkeypatch, starts, preset, fail):
    for name in WORKER_ENV:
        if preset is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, preset)
    starts.fail = fail
    before = dict(os.environ)
    model, data, clients = task()
    cfg = FedConfig(num_clients=4, rounds=1, local_iters=1, total_bases=8,
                    local_lr=0.05, root_seed=11, batch_size=32, method="fedavg")
    if fail:
        with pytest.raises(OSError, match="start refused"):
            run_experiment_sockets(cfg, model, clients, data)
    else:
        assert len(run_experiment_sockets(cfg, model, clients, data)) == 1
    assert starts.env == [WORKER_ENV]
    assert dict(os.environ) == before


@pytest.mark.parametrize("examples_per_client", [200, 800])
def test_spawn_arguments_hold_no_client_data(starts, examples_per_client):
    run_experiment_sockets(*fedavg_sockets_inputs(10, examples_per_client))
    assert len(starts.args_bytes) == 1
    assert starts.args_bytes[0] < 64 * 1024


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts this process's descriptors in /proc/self/fd")
@pytest.mark.parametrize("first, error, match", [
    (Dataset, OSError, "start refused"),
    (ExitingClient, ProtocolError, "exited with code 3"),
    (SleepingClient, ProtocolError, "did not read its clients"),
])
def test_every_descriptor_is_closed_after_a_failed_start(
        monkeypatch, starts, first, error, match):
    monkeypatch.setattr(socketmode, "_SOCKET_TIMEOUT", 2.0)
    pairs = []
    socketpair = socket.socketpair

    def recording_socketpair(*args):
        pairs.append(socketpair(*args))
        return pairs[-1]

    monkeypatch.setattr(socket, "socketpair", recording_socketpair)
    starts.fail = error is OSError
    cfg, model, clients, data = large_shard_task(first)
    multiprocessing.resource_tracker.ensure_running()  # started once, kept open
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(error, match=match):
        run_experiment_sockets(cfg, model, clients, data)
    assert len(os.listdir("/proc/self/fd")) == before
    assert [end.fileno() for end in pairs[0]] == [-1, -1]
    assert multiprocessing.active_children() == []


def test_a_classifier_socket_round_runs_one_evaluation_forward_pass(monkeypatch):
    # the clients run in the worker, so every forward pass in this process
    # is the server's evaluation
    model, data, clients = mlp_task()
    cfg = FedConfig(num_clients=4, rounds=2, local_iters=1, total_bases=8,
                    local_lr=0.05, root_seed=11, batch_size=32, method="fedavg")
    passes = []
    forward = models._forward

    def counting(*args):
        passes.append(args[2] is data.features)
        return forward(*args)

    monkeypatch.setattr(models, "_forward", counting)
    records = run_experiment_sockets(cfg, model, clients, data)
    assert passes == [True] * cfg.rounds
    monkeypatch.undo()
    assert records == run_experiment(cfg, model, clients, data)


@pytest.mark.parametrize("defect, match", [
    ("wide", "width 17, model expects 16"), ("class-index", "class index")])
def test_a_bad_eval_set_fails_before_the_worker_is_spawned(starts, defect, match):
    model = ModelSpec("mlp", 16, 3, hidden_dim=4, init_seed=1)
    data = synthetic_classification(80, 16, 3, seed=2)
    clients = partition_data(data, 4, seed=3)
    cfg = FedConfig(num_clients=4, rounds=1, local_iters=1, total_bases=8,
                    local_lr=0.05, root_seed=11, method="fedavg")
    if defect == "wide":
        bad = Dataset(np.hstack([data.features, data.features[:, :1]]),
                      data.targets)
    else:
        targets = data.targets.copy()
        targets[5] = 3
        bad = Dataset(data.features, targets)
    with pytest.raises(ShapeMismatchError, match=match):
        run_experiment_sockets(cfg, model, clients, bad)
    assert starts.args_bytes == []
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the worker's heap settings are glibc variables")
def test_worker_keeps_its_heap_between_rounds():
    # the fedavg-sockets shape: a 256-256-10 MLP, 10 clients, batch 32,
    # 5 local iterations; with glibc's default trimming the worker faults
    # about 7,500 pages back in every round
    model = ModelSpec(kind="mlp", input_dim=256, output_dim=10, hidden_dim=256,
                      init_seed=5)
    clients = partition_data(synthetic_classification(1000, 256, 10, seed=6),
                             10, seed=7)

    def worker_faults(rounds):
        cfg = FedConfig(num_clients=10, rounds=rounds, local_iters=5,
                        total_bases=8, local_lr=0.05, root_seed=11,
                        batch_size=32, method="fedavg")
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        run_experiment_sockets(cfg, model, clients)
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

    short, long = worker_faults(2), worker_faults(10)
    assert (long - short) / 8 < 1000, (short, long)
