"""Round engines, data splits, client sampling, and cost accounting."""

import dataclasses
import hashlib
import platform
import re
import resource
import time

import numpy as np
import pytest

from fedproj import federation, models
from fedproj.errors import (
    ConfigError,
    DivergedError,
    InvalidDimensionError,
    NumericError,
    PartitionError,
    ProtocolError,
    ShapeMismatchError,
)
from fedproj.federation import (
    FedConfig,
    RoundRecord,
    StreamRng,
    _local_rng,
    account_costs,
    apply_replies,
    client_update_frame,
    partition_data,
    projection_seed,
    run_experiment,
    run_round,
    sample_clients,
    setup_experiment,
)
from fedproj.models import (
    Dataset,
    ModelSpec,
    grad,
    init_params,
    local_sgd,
    loss,
    synthetic_classification,
    synthetic_regression,
)
from fedproj.projection import UpdateVector, exact_project, reconstruct, project
from fedproj.randbasis import basis_tile, uniform_stream
from fedproj.repro import format_records_csv
from fedproj.wire import TAG_SCALAR, decode_client_update, decode_frame, \
    encode_client_update
from fedproj.zoo import ScalarGrads


def small_regression(input_dim: int = 20, n: int = 300):
    model = ModelSpec(kind="linear-regression", input_dim=input_dim,
                      output_dim=1, init_seed=5)
    data = synthetic_regression(n, input_dim, seed=6, noise_std=0.1)
    return model, data


def base_cfg(**overrides) -> FedConfig:
    kwargs = dict(num_clients=4, rounds=3, local_iters=5, total_bases=8,
                  local_lr=0.05, root_seed=11, batch_size=32)
    kwargs.update(overrides)
    return FedConfig(**kwargs)


def record_replies(monkeypatch) -> list:
    """A list that collects each reply frame the rounds' clients encode."""
    frames = []

    def recording(*args, _make=federation.client_update_frame):
        frames.append(_make(*args))
        return frames[-1]

    monkeypatch.setattr(federation, "client_update_frame", recording)
    return frames


def decoded(frame: bytes) -> tuple:
    """(client_id, round, payload) of one reply frame."""
    return decode_client_update(decode_frame(frame)[0])


class TestFedConfig:
    def test_rejects_bad_counts(self):
        with pytest.raises(InvalidDimensionError):
            base_cfg(num_clients=0)
        with pytest.raises(InvalidDimensionError):
            base_cfg(rounds=-1)
        with pytest.raises(InvalidDimensionError):
            base_cfg(local_iters=0)
        with pytest.raises(InvalidDimensionError):
            base_cfg(total_bases=0)

    def test_zero_rounds_allowed(self):
        assert base_cfg(rounds=0).rounds == 0

    def test_rejects_bad_participation(self):
        for p in (0.0, -0.5, 1.5):
            with pytest.raises(InvalidDimensionError):
                base_cfg(participation=p)

    def test_rejects_unknown_choices(self):
        with pytest.raises(ConfigError):
            base_cfg(method="gossip")
        with pytest.raises(ConfigError):
            base_cfg(allocation_policy="norm-cube")

    @pytest.mark.parametrize("field,value,error", [
        ("local_lr", -0.05, InvalidDimensionError),
        ("local_lr", float("nan"), InvalidDimensionError),
        ("local_lr", float("inf"), InvalidDimensionError),
        ("server_lr", float("nan"), InvalidDimensionError),
        ("server_lr", float("-inf"), InvalidDimensionError),
        ("zo_epsilon", 0.0, InvalidDimensionError),
        ("zo_epsilon", float("nan"), InvalidDimensionError),
        ("zo_epsilon", float("inf"), InvalidDimensionError),
        ("batch_size", 0, InvalidDimensionError),
        ("accum", 0, InvalidDimensionError),
        ("optimizer", "adamw", ConfigError),
    ])
    def test_rejects_bad_training_values_at_construction(self, field, value,
                                                         error):
        with pytest.raises(error, match=field):
            base_cfg(**{field: value})

    def test_clients_per_round_takes_ceiling(self):
        assert base_cfg(num_clients=30, participation=0.1).clients_per_round == 3
        # ceil(0.33 * 7) = ceil(2.31) = 3
        assert base_cfg(num_clients=7, participation=0.33).clients_per_round == 3
        assert base_cfg(num_clients=4, participation=1.0).clients_per_round == 4
        assert base_cfg(num_clients=4, participation=0.01).clients_per_round == 1


# each FedConfig field with a method that reads it and another valid value;
# the MLP has four blocks, so norm-sqrt allocation splits the budget
# differently from uniform, and 32-example batches of a 40-example shard
# make accum average two different mini-batches
_FIELD_MOVES = {
    "num_clients": ("fedavg", 3),
    "rounds": ("fedavg", 1),
    "local_iters": ("fedavg", 3),
    "total_bases": ("subspace", 12),
    "local_lr": ("fedavg", 0.1),
    "server_lr": ("fedavg", 0.5),
    "participation": ("fedavg", 0.5),
    "method": ("subspace", "fedavg"),
    "allocation_policy": ("subspace", "norm-sqrt"),
    "root_seed": ("fedavg", 12),
    "batch_size": ("fedavg", 16),
    "accum": ("fedavg", 2),
    "optimizer": ("fedavg", "adam"),
    "zo_epsilon": ("fedzo", 0.5),
}


def _field_run(**overrides) -> str:
    model = ModelSpec("mlp", 6, 3, hidden_dim=5, init_seed=2)
    data = synthetic_classification(160, 6, 3, seed=4)
    cfg = FedConfig(**{**dict(num_clients=4, rounds=2, local_iters=2,
                              total_bases=8, local_lr=0.2, root_seed=11,
                              batch_size=32), **overrides})
    clients = partition_data(data, cfg.num_clients, seed=7)
    return format_records_csv(run_experiment(cfg, model, clients, data))


def test_field_table_covers_every_setting():
    assert set(_FIELD_MOVES) == {f.name for f in dataclasses.fields(FedConfig)}


@pytest.mark.parametrize("field", sorted(_FIELD_MOVES))
def test_every_setting_moves_the_records(field):
    method, value = _FIELD_MOVES[field]
    assert (_field_run(**{"method": method, field: value})
            != _field_run(method=method))


class TestStreamRng:
    def test_same_seed_same_draws(self):
        a, b = StreamRng(9), StreamRng(9)
        assert np.array_equal(a.uniform(16), b.uniform(16))

    def test_cursor_advances(self):
        rng = StreamRng(9)
        first, second = rng.uniform(8), rng.uniform(8)
        assert not np.array_equal(first, second)

    def test_shuffled_is_a_permutation(self):
        rng = StreamRng(3)
        perm = rng.shuffled(40)
        assert sorted(perm.tolist()) == list(range(40))
        assert np.array_equal(StreamRng(3).shuffled(40), perm)

    def test_gamma_mean(self):
        rng = StreamRng(123)
        draws = np.array([rng.gamma(2.5) for _ in range(4000)])
        assert abs(draws.mean() - 2.5) < 0.1
        assert np.all(draws > 0)

    def test_gamma_small_alpha_mean(self):
        rng = StreamRng(5)
        draws = np.array([rng.gamma(0.3) for _ in range(4000)])
        assert abs(draws.mean() - 0.3) < 0.05

    def test_dirichlet_lives_on_the_simplex(self):
        rng = StreamRng(77)
        draws = np.array([rng.dirichlet(0.5, 4) for _ in range(1000)])
        assert np.allclose(draws.sum(axis=1), 1.0)
        assert np.all(draws >= 0)
        assert np.allclose(draws.mean(axis=0), 0.25, atol=0.04)


class TestPartitionData:
    def test_single_client_gets_everything(self):
        _, data = small_regression(n=37)
        (client,) = partition_data(data, 1, "iid", seed=4)
        assert len(client) == 37
        assert sorted(row.tobytes() for row in client.features) == \
            sorted(row.tobytes() for row in data.features)

    def test_iid_sizes_are_uniform(self):
        data = synthetic_regression(1000, 3, seed=0)
        clients = partition_data(data, 10, "iid", seed=1)
        assert [len(c) for c in clients] == [100] * 10
        seen = {row.tobytes() for c in clients for row in c.features}
        assert len(seen) == 1000

    def test_iid_sizes_differ_by_at_most_one(self):
        data = synthetic_regression(103, 3, seed=0)
        sizes = [len(c) for c in partition_data(data, 4, "iid", seed=1)]
        assert sizes == [26, 26, 26, 25]

    def test_deterministic_in_seed(self):
        data = synthetic_regression(60, 3, seed=0)
        a = partition_data(data, 5, "iid", seed=8)
        b = partition_data(data, 5, "iid", seed=8)
        c = partition_data(data, 5, "iid", seed=9)
        key = lambda clients: [cl.features.tobytes() for cl in clients]
        assert key(a) == key(b)
        assert key(a) != key(c)

    def test_label_skew_concentrates_classes(self):
        # alpha = 0.1 over 3 classes: clients should lean hard on one class
        data = synthetic_classification(600, 4, 3, seed=1)
        shares = []
        for seed in range(100):
            clients = partition_data(data, 6, "label-skew(0.1)", seed=seed)
            for c in clients:
                counts = np.bincount(c.targets, minlength=3)
                shares.append(counts.max() / len(c))
                assert len(c) == 100
        assert np.mean(shares) > 0.6

    def test_label_skew_deterministic(self):
        data = synthetic_classification(120, 4, 3, seed=1)
        a = partition_data(data, 4, "label-skew(0.5)", seed=3)
        b = partition_data(data, 4, "label-skew(0.5)", seed=3)
        assert [cl.features.tobytes() for cl in a] == \
               [cl.features.tobytes() for cl in b]

    def test_more_clients_than_examples_fails(self):
        data = synthetic_regression(3, 2, seed=0)
        with pytest.raises(PartitionError):
            partition_data(data, 4, "iid", seed=0)
        with pytest.raises(PartitionError):
            partition_data(data, 0, "iid", seed=0)

    def test_unknown_skew_fails(self):
        data = synthetic_regression(10, 2, seed=0)
        for skew in ("foo", "label-skew(-2)", "label-skew(abc)", "label-skew"):
            with pytest.raises(PartitionError):
                partition_data(data, 2, skew, seed=0)

    @pytest.mark.parametrize("alpha", ["inf", "nan", "1e400"])
    def test_label_skew_needs_finite_alpha(self, alpha):
        data = synthetic_classification(40, 3, 4, seed=0)
        with pytest.raises(PartitionError, match="skew"):
            partition_data(data, 2, f"label-skew({alpha})", seed=0)

    def test_client_data_infers_task_kind(self):
        cls_clients = partition_data(synthetic_classification(30, 3, 2, seed=2),
                                     2, "iid", seed=0)
        reg_clients = partition_data(synthetic_regression(30, 3, seed=2),
                                     2, "iid", seed=0)
        assert cls_clients[0].is_classification
        assert not reg_clients[0].is_classification

    @pytest.mark.parametrize("skew, digest", [
        ("iid", "8c32ebe1b3391d8ff092af0dc4230276e7abd394bd82a59f424666eb2a6d8a6b"),
        ("label-skew(0.5)", "b0248bcc4e21ecb024f478e0256a539e5a3aa7d33a4f11fe5cea82bf0e3fe1cf"),
    ])
    def test_shards_match_the_golden_digest(self, skew, digest):
        # every shard's rows, in order, and the skew; iid for both task
        # kinds, label skew for classes only, since it rejects float targets;
        # a split that moves, drops or reorders one row changes the digest
        sets = [(synthetic_classification(90, 4, 3, seed=1), 4)]
        if skew == "iid":
            sets.append((synthetic_regression(40, 3, seed=2), 3))
        h = hashlib.sha256()
        for data, n_clients in sets:
            for seed in range(3):
                for c in partition_data(data, n_clients, skew, seed=seed):
                    h.update(c.features.tobytes())
                    h.update(c.targets.tobytes())
                    h.update(skew.encode())
        assert h.hexdigest() == digest

    def test_multi_output_regression_trains(self):
        model = ModelSpec(kind="linear-regression", input_dim=5, output_dim=2,
                          init_seed=1)
        data = synthetic_regression(60, 5, output_dim=2, seed=3)
        clients = partition_data(data, 3, seed=4)
        assert [c.targets.shape for c in clients] == [(20, 2)] * 3
        records = run_experiment(base_cfg(num_clients=3, rounds=2), model,
                                 clients)
        assert records[-1].global_loss < loss(model, init_params(model), data)

    def test_label_skew_needs_a_single_target_column(self):
        data = synthetic_regression(60, 5, output_dim=2, seed=3)
        with pytest.raises(PartitionError, match="single target column"):
            partition_data(data, 3, "label-skew(0.5)", seed=0)

    def test_label_skew_needs_class_targets(self):
        data = synthetic_regression(2000, 8, seed=3)
        with pytest.raises(PartitionError, match="class targets"):
            partition_data(data, 10, "label-skew(0.5)", seed=0)
        assert len(partition_data(data, 10, "iid", seed=0)) == 10


class TestSampleClients:
    def test_full_participation_returns_everyone(self):
        cfg = base_cfg(num_clients=6, participation=1.0)
        for r in range(4):
            assert sample_clients(cfg, r) == [0, 1, 2, 3, 4, 5]

    def test_fraction_is_rounded_up(self):
        cfg = base_cfg(num_clients=30, participation=0.1)
        picked = sample_clients(cfg, 0)
        assert len(picked) == 3
        assert picked == sorted(picked)
        assert all(0 <= i < 30 for i in picked)
        assert sample_clients(cfg, 0) == picked

    def test_samples_vary_across_rounds(self):
        cfg = base_cfg(num_clients=30, participation=0.1)
        draws = {tuple(sample_clients(cfg, r)) for r in range(6)}
        assert len(draws) > 1


class TestSubspaceRound:
    def test_zero_local_lr_is_a_noop(self):
        model, data = small_regression()
        clients = partition_data(data, 4, seed=7)
        cfg = base_cfg(local_lr=0.0, rounds=1)
        state = setup_experiment(cfg, model, clients, data)
        w0 = state.w.copy()
        new_w, record, _ = run_round(state, clients, cfg)
        assert np.array_equal(new_w, w0)
        assert record.global_loss == pytest.approx(loss(model, state.w, data))

    def test_single_client_exact_projection_is_one_sgd_step(self, monkeypatch):
        # T = 1 on the full batch makes delta = lr * grad(w0) exactly, and an
        # interpolating projection (K = d) reproduces it through the wire
        monkeypatch.setattr(federation, "project", exact_project)
        model, data = small_regression(input_dim=11, n=64)
        clients = partition_data(data, 1, seed=3)
        cfg = base_cfg(num_clients=1, rounds=1, local_iters=1,
                       total_bases=model.dim, local_lr=0.1, server_lr=2.0,
                       batch_size=64)
        state = setup_experiment(cfg, model, clients, data)
        w0 = state.w.copy()
        g = grad(model, state.w, clients[0])
        new_w, _, _ = run_round(state, clients, cfg)
        want = w0 - 2.0 * 0.1 * g
        scale = np.linalg.norm(want - w0)
        assert np.linalg.norm(new_w - want) <= 1e-5 * scale

    def test_two_client_toy_matches_materialized_bases(self):
        # d = 8, K = 4: recompute every client's reconstruction with explicit
        # basis matrices and average by hand
        model, data = small_regression(input_dim=7, n=60)
        clients = partition_data(data, 2, seed=5)
        cfg = base_cfg(num_clients=2, rounds=1, total_bases=4, server_lr=1.5)
        state = setup_experiment(cfg, model, clients, data)
        part = state.partition
        w0 = state.w.copy()

        total = np.zeros(model.dim)
        for client_id, client in enumerate(clients):
            _, delta = local_sgd(model, w0, client,
                                 iters=cfg.local_iters, lr=cfg.local_lr,
                                 batch_size=cfg.batch_size,
                                 rng=_local_rng(cfg, 0, client_id))
            proj = project(UpdateVector(delta, part),
                           projection_seed(cfg, 0, client_id))
            tilde = np.zeros(model.dim)
            for l in range(part.num_blocks):
                tile = basis_tile(proj.seed, l, part.block_dims[l], 0,
                                  part.block_budgets[l]).astype(np.float64)
                o = part.offsets[l]
                tilde[o:o + part.block_dims[l]] = (
                    tile.T @ proj.block_coords[l].astype(np.float64))
            total += tilde
        want = w0 - 1.5 * (total / 2)

        new_w, _, folded = run_round(state, clients, cfg)
        assert folded == [0, 1]
        np.testing.assert_allclose(new_w, want, rtol=1e-10, atol=1e-13)


class TestFedavgRound:
    def test_two_client_average_is_explicit_arithmetic(self):
        model, data = small_regression(input_dim=7, n=60)
        clients = partition_data(data, 2, seed=5)
        cfg = base_cfg(num_clients=2, rounds=1, method="fedavg", server_lr=0.75)
        state = setup_experiment(cfg, model, clients, data)
        w0 = state.w.copy()

        total = np.zeros(model.dim)
        for client_id, client in enumerate(clients):
            _, delta = local_sgd(model, w0, client,
                                 iters=cfg.local_iters, lr=cfg.local_lr,
                                 batch_size=cfg.batch_size,
                                 rng=_local_rng(cfg, 0, client_id))
            total += delta
        want = w0 - 0.75 * (total / 2)

        new_w, record, folded = run_round(state, clients, cfg)
        # raw deltas ride the wire as float64, so this is bit-exact
        assert np.array_equal(new_w, want)
        assert folded == sample_clients(cfg, 0)
        assert record.cumulative_upload == model.dim * len(folded)

    def test_exact_full_rank_subspace_matches_fedavg(self, monkeypatch):
        monkeypatch.setattr(federation, "project", exact_project)
        model, data = small_regression(input_dim=15, n=120)
        clients = partition_data(data, 3, seed=2)
        common = dict(num_clients=3, rounds=4, local_iters=4, local_lr=0.05,
                      root_seed=13, batch_size=32)
        sub = run_experiment(FedConfig(total_bases=model.dim, **common),
                             model, clients, data)
        avg = run_experiment(
            FedConfig(total_bases=model.dim, method="fedavg", **common),
            model, clients, data)
        for a, b in zip(sub, avg):
            assert a.global_loss == pytest.approx(b.global_loss, rel=1e-5)


class TestRunExperiment:
    def test_zero_rounds_leaves_nothing(self):
        model, data = small_regression(n=40)
        clients = partition_data(data, 4, seed=7)
        assert run_experiment(base_cfg(rounds=0), model, clients, data) == []

    def test_records_are_deterministic(self):
        model, data = small_regression(n=80)
        clients = partition_data(data, 4, seed=7)
        cfg = base_cfg(rounds=3, participation=0.6)
        first = run_experiment(cfg, model, clients, data)
        second = run_experiment(cfg, model, clients, data)
        assert first == second
        assert [r.round_index for r in first] == [0, 1, 2]

    def test_losses_drop_for_every_method(self):
        model, data = small_regression(input_dim=10, n=120)
        clients = partition_data(data, 3, seed=2)
        start = loss(model, init_params(model), data)
        for method, lr in (("subspace", 0.05), ("fedavg", 0.05),
                           ("fedzo", 0.05), ("fedkseed", 0.05)):
            cfg = base_cfg(num_clients=3, rounds=5, local_iters=3,
                           total_bases=4, local_lr=lr, method=method)
            records = run_experiment(cfg, model, clients, data)
            assert records[-1].global_loss < start

    def test_homogeneous_subspace_tracks_fedavg(self):
        # identical shards on every client; a quarter of the dimensions should
        # land within 10% of dense averaging after the same number of rounds
        model = ModelSpec(kind="linear-regression", input_dim=63, output_dim=1,
                          init_seed=3)
        data = synthetic_regression(512, 63, seed=9, noise_std=0.1)
        clients = [data] * 8
        common = dict(num_clients=8, rounds=20, local_iters=10, local_lr=0.05,
                      root_seed=21, batch_size=512)
        sub = run_experiment(
            FedConfig(total_bases=model.dim // 4, **common),
            model, clients, data)
        avg = run_experiment(
            FedConfig(total_bases=model.dim // 4, method="fedavg", **common),
            model, clients, data)
        gap = abs(sub[-1].global_loss - avg[-1].global_loss) / avg[-1].global_loss
        assert gap <= 0.10

    def test_sequential_zeroth_order_needs_more_rounds(self):
        model = ModelSpec(kind="linear-regression", input_dim=15, output_dim=1,
                          init_seed=3)
        data = synthetic_regression(256, 15, seed=9, noise_std=0.1)
        clients = [data] * 4
        threshold = 0.8 * loss(model, init_params(model), data)
        common = dict(num_clients=4, rounds=30, local_iters=10, total_bases=4,
                      local_lr=0.08, root_seed=21, batch_size=256)

        def rounds_to(records):
            for r in records:
                if r.global_loss <= threshold:
                    return r.round_index + 1
            return None

        sub = rounds_to(run_experiment(FedConfig(**common), model, clients, data))
        kseed = rounds_to(run_experiment(FedConfig(method="fedkseed", **common),
                                         model, clients, data))
        assert sub is not None and kseed is not None
        assert kseed > sub

    def test_client_divergence_carries_context(self):
        model, data = small_regression()
        clients = partition_data(data, 4, seed=7)
        cfg = base_cfg(local_iters=60, local_lr=1e12)
        with pytest.raises(DivergedError) as err:
            run_experiment(cfg, model, clients, data)
        assert err.value.round_index == 0
        assert err.value.client_id == 0
        assert err.value.iteration >= 1

    def test_nonfinite_aggregate_aborts_the_round(self):
        # few local steps keep every client loss finite in 64-bit, but the
        # float32 coordinates overflow; the server must still call it
        model, data = small_regression()
        clients = partition_data(data, 4, seed=7)
        cfg = base_cfg(local_iters=5, local_lr=1e12)
        with pytest.raises(DivergedError) as err:
            run_experiment(cfg, model, clients, data)
        assert err.value.round_index == 0

    def test_classification_metric_is_accuracy(self):
        model = ModelSpec(kind="logistic-regression", input_dim=6, output_dim=3,
                          init_seed=1)
        data = synthetic_classification(90, 6, 3, seed=4)
        clients = partition_data(data, 3, "label-skew(0.5)", seed=2)
        cfg = base_cfg(num_clients=3, rounds=2, local_lr=0.5, total_bases=6)
        records = run_experiment(cfg, model, clients, data)
        for r in records:
            assert 0.0 <= r.eval_metric <= 1.0
        assert records == run_experiment(cfg, model, clients, data)

    def test_wrong_client_count_is_rejected(self):
        model, data = small_regression(n=40)
        clients = partition_data(data, 3, seed=7)
        with pytest.raises(PartitionError):
            setup_experiment(base_cfg(num_clients=4), model, clients, data)

    def test_setup_rejects_an_empty_shard(self):
        model, data = small_regression(n=40)
        clients = partition_data(data, 4, seed=7)
        clients[2] = Dataset(np.zeros((0, 20)), np.zeros(0))
        with pytest.raises(PartitionError,
                           match="^client 2 received no examples$"):
            setup_experiment(base_cfg(), model, clients, data)

    def test_norm_allocation_freezes_budgets(self):
        model = ModelSpec(kind="mlp", input_dim=6, output_dim=2, hidden_dim=5,
                          init_seed=2)
        data = synthetic_classification(80, 6, 2, seed=3)
        clients = partition_data(data, 4, seed=1)
        cfg = base_cfg(allocation_policy="norm-sqrt", total_bases=12,
                       local_lr=0.2)
        a = setup_experiment(cfg, model, clients, data)
        b = setup_experiment(cfg, model, clients, data)
        assert a.partition.block_budgets == b.partition.block_budgets
        assert sum(a.partition.block_budgets) == 12
        records = run_experiment(cfg, model, clients, data)
        assert len(records) == cfg.rounds


class TestProtocolInvariants:
    def test_server_reconstruction_matches_client_bit_for_bit(self, monkeypatch):
        model, data = small_regression(input_dim=12, n=80)
        clients = partition_data(data, 3, seed=4)
        cfg = base_cfg(num_clients=3, rounds=1)
        state = setup_experiment(cfg, model, clients, data)
        part = state.partition
        w0 = state.w.copy()
        frames = record_replies(monkeypatch)
        run_round(state, clients, cfg)
        assert len(frames) == 3
        for client_id, _, payload in map(decoded, frames):
            server_side = reconstruct(payload, part)
            _, delta = local_sgd(model, w0, clients[client_id],
                                 iters=cfg.local_iters, lr=cfg.local_lr,
                                 batch_size=cfg.batch_size,
                                 rng=_local_rng(cfg, 0, client_id))
            local = reconstruct(project(UpdateVector(delta, part),
                                        projection_seed(cfg, 0, client_id)),
                                part)
            assert np.array_equal(server_side, local)

    def test_deferred_aggregation_matches_round_for_round(self):
        # clients that apply the previous round's aggregate at the start of
        # the next round walk the same trajectory as server-side application
        model, data = small_regression(input_dim=5, n=48)
        clients = [data] * 2
        cfg = base_cfg(num_clients=2, rounds=3, local_iters=2, total_bases=3,
                       local_lr=0.1, server_lr=1.5, batch_size=16)

        state = setup_experiment(cfg, model, clients, data)
        part = state.partition
        engine_w = []
        for _ in range(cfg.rounds):
            run_round(state, clients, cfg)
            engine_w.append(state.w.copy())

        w_cur = init_params(model)
        pending = None
        for r in range(cfg.rounds):
            if pending is not None:
                w_cur = w_cur - pending
            total = np.zeros(model.dim)
            for client_id, client in enumerate(clients):
                _, delta = local_sgd(model, w_cur, client,
                                     iters=cfg.local_iters, lr=cfg.local_lr,
                                     batch_size=cfg.batch_size,
                                     rng=_local_rng(cfg, r, client_id))
                proj = project(UpdateVector(delta, part),
                               projection_seed(cfg, r, client_id))
                total += reconstruct(proj, part)
            pending = cfg.server_lr * (total / len(clients))
            assert np.array_equal(engine_w[r], w_cur - pending)

    def test_upload_grows_by_sampled_times_k_plus_one(self):
        model, data = small_regression(n=80)
        clients = partition_data(data, 4, seed=7)
        cfg = base_cfg(rounds=4, participation=0.5, total_bases=8)
        records = run_experiment(cfg, model, clients, data)
        uploads = [r.cumulative_upload for r in records]
        per_round = cfg.clients_per_round * (cfg.total_bases + 1)
        assert uploads[0] == per_round
        assert all(b - a == per_round for a, b in zip(uploads, uploads[1:]))
        for field in ("cumulative_download", "cumulative_grad_evals"):
            vals = [getattr(r, field) for r in records]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_doubling_server_lr_doubles_the_step(self, monkeypatch):
        # recover the mean reconstruction from the replies, then check both
        # applied parameter vectors against it bit for bit
        model, data = small_regression(n=80)
        clients = partition_data(data, 4, seed=7)
        final = {}
        frames = record_replies(monkeypatch)
        for server_lr in (1.0, 2.0):
            frames.clear()
            cfg = base_cfg(rounds=1, server_lr=server_lr)
            state = setup_experiment(cfg, model, clients, data)
            w0 = state.w.copy()
            part = state.partition
            run_round(state, clients, cfg)
            final[server_lr] = state.w
        total = np.zeros(model.dim)
        for _, _, payload in map(decoded, frames):
            total += reconstruct(payload, part)
        mean_step = total / len(frames)
        assert np.array_equal(final[1.0], w0 - mean_step)
        assert np.array_equal(final[2.0], w0 - 2.0 * mean_step)

    def test_upload_units_by_method(self):
        model, data = small_regression(input_dim=9, n=60)
        clients = partition_data(data, 3, seed=4)
        # per client: a seeded reply uploads its seed and K numbers
        want = {"subspace": 6 + 1, "fedavg": model.dim, "fedzo": model.dim,
                "fedkseed": 6 + 1}
        for method, units in want.items():
            cfg = base_cfg(num_clients=3, rounds=1, total_bases=6,
                           local_iters=2, method=method)
            state = setup_experiment(cfg, model, clients, data)
            _, record, folded = run_round(state, clients, cfg)
            assert folded == sample_clients(cfg, 0) == [0, 1, 2]
            assert record.cumulative_upload == units * len(folded)

    @pytest.mark.parametrize("case", [
        "duplicate", "unsampled", "missing", "reversed",
        "fedavg-to-subspace", "fedavg-to-fedkseed", "short-scalar-log"])
    def test_a_wrong_reply_set_raises_before_the_state_changes(self, case):
        model, data = small_regression(input_dim=9, n=120)
        clients = partition_data(data, 6, seed=4)
        method = ("fedkseed" if case in ("fedavg-to-fedkseed", "short-scalar-log")
                  else "subspace")
        cfg = base_cfg(num_clients=6, rounds=2, participation=0.5, method=method)
        state = setup_experiment(cfg, model, clients, data)
        run_round(state, clients, cfg)  # so every counter is already non-zero
        r = state.round_index
        sender = (dataclasses.replace(cfg, method="fedavg")
                  if case.startswith("fedavg") else cfg)

        def reply(cid):
            return client_update_frame(sender, model, state.partition, state.w,
                                       cid, clients[cid], r)

        def short(frame):  # the reply's first 3 of its K = 8 scalars
            cid, rnd, grads = decoded(frame)
            return encode_client_update(TAG_SCALAR, cid, rnd, ScalarGrads(
                seed=grads.seed, values=grads.values[:3]))

        picked = sample_clients(cfg, r)
        unsampled = min(set(range(6)) - set(picked))
        frames = [reply(c) for c in picked]
        if case == "short-scalar-log":
            frames[0] = short(frames[0])
        frames, named = {
            "duplicate": ([frames[0], *frames], picked[0]),
            "unsampled": (frames[:-1] + [reply(unsampled)], unsampled),
            "missing": (frames[:-1], picked[-1]),
            "reversed": (frames[::-1], picked[-1]),
        }.get(case, (frames, picked[0]))

        def snapshot():
            return (state.w.tobytes(), state.round_index, state.cumulative_upload,
                    state.cumulative_download, state.cumulative_grad_evals)

        before = snapshot()
        with pytest.raises(ProtocolError) as err:
            apply_replies(state, cfg, frames)
        assert re.search(rf"client {named}\b|\({named}, {r}\)", str(err.value))
        assert snapshot() == before

    def test_a_round_splits_its_time_between_waiting_and_folding(self, monkeypatch):
        # wall_local is the time apply_replies waits on its replies, and
        # wall_aggregate the rest: here 3 clients and 1 evaluation sleep s each
        s = 0.05

        def slowed(fn):
            def slow(*args, **kwargs):
                time.sleep(s)
                return fn(*args, **kwargs)
            return slow

        for name in ("client_update_frame", "loss"):
            monkeypatch.setattr(federation, name, slowed(getattr(federation, name)))
        model, data = small_regression(n=60)
        clients = partition_data(data, 3, seed=4)
        cfg = base_cfg(num_clients=3, rounds=1)
        state = setup_experiment(cfg, model, clients, data)
        _, record, _ = run_round(state, clients, cfg)
        assert 3 * s <= record.wall_local < 4 * s
        assert s <= record.wall_aggregate < 3 * s

    def test_record_equality_ignores_wall_times(self):
        a = RoundRecord(round_index=0, global_loss=1.0, eval_metric=0.5,
                        cumulative_upload=10, cumulative_download=20,
                        cumulative_grad_evals=30, wall_local=0.1,
                        wall_aggregate=0.2)
        b = RoundRecord(round_index=0, global_loss=1.0, eval_metric=0.5,
                        cumulative_upload=10, cumulative_download=20,
                        cumulative_grad_evals=30, wall_local=9.0,
                        wall_aggregate=9.9)
        assert a == b


class TestAccountCosts:
    def test_empty_summary(self):
        summary = account_costs([])
        assert summary["rounds"] == 0
        assert summary["upload_total"] == 0
        assert np.isnan(summary["final_loss"])

    def test_upload_ratio_at_scale(self):
        # d = 1e6, K = 4096: per-round upload is (K + 1) / d of dense, ~4.1e-3
        def fake(upload_per_round):
            return [RoundRecord(round_index=r, global_loss=1.0, eval_metric=1.0,
                                cumulative_upload=(r + 1) * upload_per_round,
                                cumulative_download=0, cumulative_grad_evals=0)
                    for r in range(12)]

        sub = account_costs(fake(10 * (4096 + 1)))
        avg = account_costs(fake(10 * 10 ** 6))
        ratio = sub["upload_per_round"] / avg["upload_per_round"]
        assert ratio == pytest.approx(4.1e-3, abs=5e-5)

    def test_method_upload_parity(self):
        model, data = small_regression(input_dim=9, n=60)
        clients = partition_data(data, 3, seed=4)
        totals = {}
        for method in ("subspace", "fedkseed", "fedavg", "fedzo"):
            cfg = base_cfg(num_clients=3, rounds=2, total_bases=6,
                           local_iters=2, method=method)
            summary = account_costs(run_experiment(cfg, model, clients, data))
            totals[method] = summary["upload_total"]
            assert summary["rounds"] == 2
            assert summary["upload_per_round"] == totals[method] / 2
        assert totals["fedkseed"] == totals["subspace"]
        assert totals["fedzo"] == totals["fedavg"]
        assert totals["subspace"] < totals["fedavg"]


class TestRoundEvaluation:
    @pytest.mark.parametrize("kind,accuracy_calls", [
        ("linear-regression", 0),
        ("logistic-regression", 1),
    ])
    def test_one_evaluation_pass_per_round(self, monkeypatch, kind,
                                           accuracy_calls):
        # fedavg runs no zeroth-order walk, so every loss call is evaluation
        model = ModelSpec(kind=kind, input_dim=6,
                          output_dim=1 if kind == "linear-regression" else 3)
        data = (synthetic_regression(48, 6, seed=3) if accuracy_calls == 0
                else synthetic_classification(48, 6, 3, seed=3))
        clients = partition_data(data, 2, seed=1)
        cfg = base_cfg(num_clients=2, rounds=1, method="fedavg")
        state = setup_experiment(cfg, model, clients, data)
        calls = {"loss": 0, "accuracy": 0}
        for name in calls:
            def counting(*args, _name=name, _fn=getattr(federation, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(federation, name, counting)
        new_w, record, _ = run_round(state, clients, cfg)
        assert calls == {"loss": 1, "accuracy": accuracy_calls}
        assert new_w is state.w
        assert new_w.dtype == np.float64 and new_w.shape == (model.dim,)
        assert record.global_loss == loss(model, new_w, data)
        if accuracy_calls == 0:
            assert record.eval_metric == record.global_loss

    @pytest.mark.parametrize("kind", ["logistic-regression", "mlp"])
    def test_a_classifier_round_runs_one_evaluation_forward_pass(
            self, monkeypatch, kind):
        model = ModelSpec(kind, 6, 3, hidden_dim=4 if kind == "mlp" else 0)
        data = synthetic_classification(48, 6, 3, seed=3)
        clients = partition_data(data, 2, seed=1)
        cfg = base_cfg(num_clients=2, rounds=1, method="fedavg")
        state = setup_experiment(cfg, model, clients, data)
        passes = []
        forward = models._forward

        def counting(model_, g, x):  # the clients pass their own shards
            passes.append(x is data.features)
            return forward(model_, g, x)

        monkeypatch.setattr(models, "_forward", counting)
        _, record, _ = run_round(state, clients, cfg)
        assert passes.count(True) == 1
        monkeypatch.undo()
        assert record.global_loss == loss(model, state.w, data)
        assert record.eval_metric == models.accuracy(model, state.w, data)


def bad_eval_set(data: Dataset, defect: str) -> Dataset:
    """``data`` with a 17th feature column, or with one class index out of range."""
    if defect == "wide":
        return Dataset(np.hstack([data.features, data.features[:, :1]]),
                       data.targets)
    targets = data.targets.copy()
    targets[5] = 3
    return Dataset(data.features, targets)


class TestEvaluationSet:
    def task(self):
        model = ModelSpec("mlp", 16, 3, hidden_dim=4, init_seed=1)
        data = synthetic_classification(80, 16, 3, seed=2)
        clients = partition_data(data, 4, seed=3)
        return model, data, clients, base_cfg(num_clients=4, method="fedavg")

    @pytest.mark.parametrize("defect, match", [
        ("wide", "width 17, model expects 16"), ("class-index", "class index")])
    def test_a_bad_eval_set_fails_before_any_client_trains(
            self, monkeypatch, defect, match):
        model, data, clients, cfg = self.task()
        trained = []
        monkeypatch.setattr(federation, "local_sgd",
                            lambda *args, **kwargs: trained.append(args))
        with pytest.raises(ShapeMismatchError, match=match):
            setup_experiment(cfg, model, clients, bad_eval_set(data, defect))
        with pytest.raises(ShapeMismatchError, match=match):
            run_experiment(cfg, model, clients, bad_eval_set(data, defect))
        assert trained == []

    @pytest.mark.parametrize("defect", ["wide", "class-index"])
    def test_a_round_whose_evaluation_fails_leaves_the_state_alone(self, defect):
        model, data, clients, cfg = self.task()
        state = setup_experiment(cfg, model, clients, data)
        run_round(state, clients, cfg)  # so every counter is already non-zero
        state.eval_data = bad_eval_set(data, defect)

        def snapshot():
            return (state.w.tobytes(), state.round_index, state.cumulative_upload,
                    state.cumulative_download, state.cumulative_grad_evals)

        before = snapshot()
        with pytest.raises(ShapeMismatchError):
            run_round(state, clients, cfg)
        assert snapshot() == before


class TestWalkEvaluator:

    @pytest.mark.parametrize("method,iters,bases,calls", [
        ("fedkseed", 1, 5, 2 * 5),          # 2K
        ("fedzo", 3, 4, 3 * (4 + 1)),       # T (K + 1)
    ])
    def test_client_data_is_scanned_once_per_walk(self, monkeypatch, method,
                                                  iters, bases, calls):
        model, data = small_regression(input_dim=9, n=60)
        clients = partition_data(data, 3, seed=4)
        cfg = base_cfg(num_clients=3, local_iters=iters, total_bases=bases,
                       method=method)
        scans, losses = [], []
        scan, evaluate = models._as_arrays, federation.loss

        def counting_scan(m, batch):
            scans.append(isinstance(batch, Dataset))
            return scan(m, batch)

        def counting_loss(*args):
            losses.append(args)
            return evaluate(*args)

        monkeypatch.setattr(models, "_as_arrays", counting_scan)
        monkeypatch.setattr(federation, "loss", counting_loss)
        w = init_params(model)
        for client_id, client in enumerate(clients):
            scans.clear()
            losses.clear()
            client_update_frame(cfg, model, None, w, client_id, client, 0)
            assert scans.count(True) == 1
            assert len(losses) == calls

    def test_parameters_are_checked_on_every_call(self):
        # tanh(inf) is finite, so the MLP's loss alone would not notice a step
        # that overflowed a first-layer weight
        model = ModelSpec(kind="mlp", input_dim=4, output_dim=2, hidden_dim=3,
                          init_seed=1)
        data = synthetic_classification(30, 4, 2, seed=2)
        loss_fn = federation._walk_loss(model, data)
        w = init_params(model)
        assert loss_fn(w) == loss(model, w, data)
        w[0] = np.inf
        value, _ = models._loss_grad(model, w, data.features, data.targets,
                                     want_grad=False)
        assert np.isfinite(value)
        with pytest.raises(NumericError, match="non-finite parameter values"):
            loss_fn(w)

    def test_walk_loss_golden_digest(self):
        # the fedkseed-mlp shard shape, a 64-32-10 MLP on 200 examples: the
        # first call, which checks the shard, and later ones on its arrays;
        # frozen from the implementation that formed the full log-softmax
        model = ModelSpec("mlp", 64, 10, hidden_dim=32, init_seed=3)
        data = synthetic_classification(200, 64, 10, seed=4)
        loss_fn = federation._walk_loss(model, data)
        w = init_params(model)
        h = hashlib.sha256()
        for i in range(6):
            h.update(repr(loss_fn(w + 0.25 * i * uniform_stream(i, w.size)))
                     .encode())
        assert h.hexdigest() == (
            "b896445091f48041555a22194d666cff97c72f25a994f805b0b360266bf4f632")

    @pytest.mark.parametrize("method,seed,digest", [
        ("fedzo", 1,
         "cc0bedcc3490b99cbacafc3c65cb7065ed2d3abaad4298f050fad3f369a9faf0"),
        ("fedzo", 2,
         "6cda4ac0891f3a7e27bec00af960b0bc8abb6e57e98eee3a97d6337c8b96752d"),
        ("fedkseed", 1,
         "8d5b9fe5e3ce55a3a8ef401574c9369788219bc8c99c9df12bdd6a2d4951ec02"),
        ("fedkseed", 2,
         "8da756d0e84cc6ce296c51c1189ce34f07b11a2e5d354388237eee66daf1cd48"),
    ])
    def test_records_golden_digest(self, method, seed, digest):
        # two rounds at the fedkseed-mlp benchmark shape (a 64-32-10 MLP,
        # 10 shards of 200 examples, 2 clients a round, K = 256); records CSV
        # sha256 frozen from the implementation before the walk's loss
        # stopped forming the full log-softmax
        model = ModelSpec("mlp", 64, 10, hidden_dim=32, init_seed=seed)
        data = synthetic_classification(2000, 64, 10, seed=seed)
        cfg = FedConfig(num_clients=10, rounds=2, local_iters=5,
                        total_bases=256, local_lr=0.05, participation=0.2,
                        method=method, batch_size=32, root_seed=seed)
        records = run_experiment(cfg, model, partition_data(data, 10, seed=seed),
                                 data)
        text = format_records_csv(records)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, text


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="counts the faults of glibc's heap handling")
def test_subspace_round_keeps_its_heap_between_rounds():
    # the subspace-mlp shape: a 256-256-10 MLP (blocks 65,536/256/2,560/10),
    # K = 256, 2 of 10 clients a round; project and reconstruct that convert
    # whole 2^19-entry row groups to float64 fault about 6,700 pages back in
    # every round
    model = ModelSpec(kind="mlp", input_dim=256, output_dim=10, hidden_dim=256,
                      init_seed=7)
    data = synthetic_classification(2000, 256, 10, seed=7)
    clients = partition_data(data, 10, seed=7)
    cfg = FedConfig(num_clients=10, rounds=0, local_iters=5, total_bases=256,
                    local_lr=0.05, participation=0.2, root_seed=7)
    state = setup_experiment(cfg, model, clients, data)
    for _ in range(2):
        run_round(state, clients, cfg)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        run_round(state, clients, cfg)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / 3 < 1000, faults


_REBOUND = ("project", "reconstruct", "local_sgd", "fedkseed_local_step",
            "replay_scalar_log", "encode_client_update", "decode_frame",
            "decode_client_update")


@pytest.mark.parametrize("method, used", [
    ("subspace", {"project", "reconstruct", "local_sgd"}),
    ("fedavg", {"local_sgd"}),
    ("fedzo", set()),
    ("fedkseed", {"fedkseed_local_step", "replay_scalar_log"}),
])
def test_a_round_calls_the_names_rebound_in_federation(monkeypatch, method,
                                                       used):
    # perfbench traces a layer by rebinding its name in this module, so the
    # method table must look each one up when it runs, not hold it by value
    model, data = small_regression(input_dim=9, n=120)
    clients = partition_data(data, 6, seed=4)
    cfg = base_cfg(num_clients=6, rounds=1, participation=0.5, method=method)
    state = setup_experiment(cfg, model, clients, data)
    calls = dict.fromkeys(_REBOUND, 0)
    for name in _REBOUND:
        def counting(*args, _name=name, _fn=getattr(federation, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(federation, name, counting)
    run_round(state, clients, cfg)
    codec = {"encode_client_update", "decode_frame", "decode_client_update"}
    p = cfg.clients_per_round
    assert calls == {name: p if name in used | codec else 0 for name in _REBOUND}
