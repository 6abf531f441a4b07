"""The loopback TCP demo must replay the in-process records exactly."""

import multiprocessing
import os
import platform
import resource
import time
import types

import numpy as np
import pytest

from fedproj.errors import (
    DivergedError,
    FedprojError,
    ProtocolError,
    ShapeMismatchError,
)
from fedproj.federation import (
    ClientDataset,
    FedConfig,
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


class ExitingClient(ClientDataset):
    """A client whose unpickling in the worker ends the worker with code 3."""

    def __reduce__(self):
        return os._exit, (3,)


def test_worker_that_dies_before_connecting_fails_fast():
    model, data, clients = task()
    clients = [ExitingClient(c.client_id, c.data, c.skew_label)
               for c in clients]
    cfg = FedConfig(num_clients=4, rounds=1, local_iters=1, total_bases=8,
                    local_lr=0.05, root_seed=11, batch_size=32, method="fedavg")
    t0 = time.monotonic()
    with pytest.raises(ProtocolError, match="exited with code 3"):
        run_experiment_sockets(cfg, model, clients, data)
    assert time.monotonic() - t0 < 10.0


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


def defective_shard_task(defect):
    """Three clients; client 1's fifth example has a NaN feature or class 3 of 3."""
    model = ModelSpec("logistic-regression", 6, 3, init_seed=1)
    data = synthetic_classification(60, 6, 3, seed=2)
    clients = partition_data(data, 3, seed=3)
    features = clients[1].data.features.copy()
    targets = clients[1].data.targets.copy()
    if defect == "nan-feature":
        features[4, 2] = np.nan
    else:
        targets[4] = 3
    clients[1] = ClientDataset(1, Dataset(features, targets),
                               clients[1].skew_label)
    return model, data, clients


# (type, message, round, client, iteration) raised by the first loss call of
# the defective shard's walk, in process and then over sockets, where a worker
# that raises anything but DivergedError dies and the server sees its closed
# connection (ROADMAP item 4)
_NAN = "loss evaluator returned non-finite value at {}"
_CLASS = "class index outside [0, 3)"
_CLOSED = "connection closed 4 bytes early"
_SHARD_ERRORS = {
    ("fedzo", "nan-feature"): [(DivergedError, _NAN.format("base point"), 0, 1, 0)] * 2,
    ("fedkseed", "nan-feature"): [(DivergedError, _NAN.format("perturbation 0"), 0, 1, 0)] * 2,
    ("fedzo", "class-index"): [(ShapeMismatchError, _CLASS, None, None, None),
                               (ProtocolError, _CLOSED, None, None, None)],
    ("fedkseed", "class-index"): [(ShapeMismatchError, _CLASS, None, None, None),
                                  (ProtocolError, _CLOSED, None, None, None)],
}


@pytest.mark.parametrize("method,defect", sorted(_SHARD_ERRORS))
def test_defective_shard_fails_at_the_first_loss_call(method, defect):
    model, data, clients = defective_shard_task(defect)
    cfg = FedConfig(num_clients=3, rounds=2, local_iters=2, total_bases=4,
                    local_lr=0.05, root_seed=11, method=method)
    got = []
    for run in (run_experiment, run_experiment_sockets):
        with pytest.raises(FedprojError) as err:
            run(cfg, model, clients, data)
        e = err.value
        got.append((type(e), str(e), getattr(e, "round_index", None),
                    getattr(e, "client_id", None), getattr(e, "iteration", None)))
    assert got == _SHARD_ERRORS[method, defect]


WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": "33554432",
    "MALLOC_TRIM_THRESHOLD_": "1073741824",
}


@pytest.fixture
def starts(monkeypatch):
    """Records the worker variables at each spawned Process.start; can refuse it."""
    record = types.SimpleNamespace(env=[], fail=False)
    process_cls = multiprocessing.get_context("spawn").Process
    start = process_cls.start

    def recording_start(self):
        record.env.append({name: os.environ.get(name) for name in WORKER_ENV})
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
