"""Round engines, data splits, client sampling, and cost accounting."""

import numpy as np
import pytest

from fedproj.errors import (
    ConfigError,
    DivergedError,
    InvalidDimensionError,
    PartitionError,
)
from fedproj.federation import (
    ClientDataset,
    FedConfig,
    RoundRecord,
    StreamRng,
    _local_rng,
    account_costs,
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
    ParamVector,
    grad,
    init_params,
    local_sgd,
    loss,
    synthetic_classification,
    synthetic_regression,
)
from fedproj.projection import reconstruct, project
from fedproj.randbasis import basis_tile


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
            base_cfg(partition_policy="by-whim")
        with pytest.raises(ConfigError):
            base_cfg(allocation_policy="norm-cube")
        with pytest.raises(ConfigError):
            base_cfg(seed_policy="per-client")

    def test_clients_per_round_takes_ceiling(self):
        assert base_cfg(num_clients=30, participation=0.1).clients_per_round == 3
        # ceil(0.33 * 7) = ceil(2.31) = 3
        assert base_cfg(num_clients=7, participation=0.33).clients_per_round == 3
        assert base_cfg(num_clients=4, participation=1.0).clients_per_round == 4
        assert base_cfg(num_clients=4, participation=0.01).clients_per_round == 1


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
        examples = data.examples()
        (client,) = partition_data(examples, 1, "iid", seed=4)
        assert len(client.examples) == 37
        assert {id(e) for e in client.examples} == {id(e) for e in examples}

    def test_iid_sizes_are_uniform(self):
        data = synthetic_regression(1000, 3, seed=0)
        clients = partition_data(data, 10, "iid", seed=1)
        assert [len(c.examples) for c in clients] == [100] * 10
        seen = {id(e) for c in clients for e in c.examples}
        assert len(seen) == 1000

    def test_iid_sizes_differ_by_at_most_one(self):
        data = synthetic_regression(103, 3, seed=0)
        sizes = [len(c.examples) for c in partition_data(data, 4, "iid", seed=1)]
        assert sizes == [26, 26, 26, 25]

    def test_deterministic_in_seed(self):
        data = synthetic_regression(60, 3, seed=0)
        a = partition_data(data, 5, "iid", seed=8)
        b = partition_data(data, 5, "iid", seed=8)
        c = partition_data(data, 5, "iid", seed=9)
        key = lambda clients: [[e.features.tobytes() for e in cl.examples]
                               for cl in clients]
        assert key(a) == key(b)
        assert key(a) != key(c)

    def test_label_skew_concentrates_classes(self):
        # alpha = 0.1 over 3 classes: clients should lean hard on one class
        data = synthetic_classification(600, 4, 3, seed=1)
        shares = []
        for seed in range(100):
            clients = partition_data(data, 6, "label-skew(0.1)", seed=seed)
            for c in clients:
                targets = np.array([e.target for e in c.examples])
                counts = np.bincount(targets, minlength=3)
                shares.append(counts.max() / len(targets))
                assert len(c.examples) == 100
        assert np.mean(shares) > 0.6

    def test_label_skew_deterministic(self):
        data = synthetic_classification(120, 4, 3, seed=1)
        a = partition_data(data, 4, "label-skew(0.5)", seed=3)
        b = partition_data(data, 4, "label-skew(0.5)", seed=3)
        assert [[e.features.tobytes() for e in cl.examples] for cl in a] == \
               [[e.features.tobytes() for e in cl.examples] for cl in b]
        assert all(c.skew_label == "label-skew(0.5)" for c in a)

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

    def test_client_dataset_rejects_empty(self):
        with pytest.raises(PartitionError):
            ClientDataset(client_id=0, examples=[])

    def test_client_data_infers_task_kind(self):
        cls_clients = partition_data(synthetic_classification(30, 3, 2, seed=2),
                                     2, "iid", seed=0)
        reg_clients = partition_data(synthetic_regression(30, 3, seed=2),
                                     2, "iid", seed=0)
        assert cls_clients[0].data.is_classification
        assert not reg_clients[0].data.is_classification


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
        w0 = state.w.values.copy()
        new_w, record, _ = run_round(state, clients, cfg)
        assert np.array_equal(new_w.values, w0)
        assert record.global_loss == pytest.approx(loss(model, state.w, data))

    def test_single_client_exact_projection_is_one_sgd_step(self):
        # T = 1 on the full batch makes delta = lr * grad(w0) exactly, and an
        # interpolating projection (K = d) reproduces it through the wire
        model, data = small_regression(input_dim=11, n=64)
        clients = partition_data(data, 1, seed=3)
        cfg = base_cfg(num_clients=1, rounds=1, local_iters=1,
                       total_bases=model.dim, local_lr=0.1, server_lr=2.0,
                       batch_size=64, exact_projection=True)
        state = setup_experiment(cfg, model, clients, data)
        w0 = state.w.values.copy()
        g = grad(model, state.w, clients[0].data).values
        new_w, _, _ = run_round(state, clients, cfg)
        want = w0 - 2.0 * 0.1 * g
        scale = np.linalg.norm(want - w0)
        assert np.linalg.norm(new_w.values - want) <= 1e-5 * scale

    def test_two_client_toy_matches_materialized_bases(self):
        # d = 8, K = 4: recompute every client's reconstruction with explicit
        # basis matrices and average by hand
        model, data = small_regression(input_dim=7, n=60)
        clients = partition_data(data, 2, seed=5)
        cfg = base_cfg(num_clients=2, rounds=1, total_bases=4, server_lr=1.5)
        state = setup_experiment(cfg, model, clients, data)
        part = state.partition
        w0 = state.w.values.copy()
        w0_param = ParamVector(values=w0, layout=model.layout)

        total = np.zeros(model.dim)
        for client in clients:
            _, delta = local_sgd(model, w0_param, client.data,
                                 iters=cfg.local_iters, lr=cfg.local_lr,
                                 batch_size=cfg.batch_size,
                                 rng=_local_rng(cfg, 0, client.client_id))
            proj = project(delta.with_partition(part),
                           projection_seed(cfg, 0, client.client_id))
            tilde = np.zeros(model.dim)
            for l in range(part.num_blocks):
                tile = basis_tile(proj.seed, l, part.block_dims[l], 0,
                                  part.block_budgets[l]).astype(np.float64)
                o = part.offsets[l]
                tilde[o:o + part.block_dims[l]] = (
                    tile.T @ proj.block_coords[l].astype(np.float64))
            total += tilde
        want = w0 - 1.5 * (total / 2)

        new_w, _, msgs = run_round(state, clients, cfg)
        assert len(msgs) == 2
        np.testing.assert_allclose(new_w.values, want, rtol=1e-10, atol=1e-13)


class TestFedavgRound:
    def test_two_client_average_is_explicit_arithmetic(self):
        model, data = small_regression(input_dim=7, n=60)
        clients = partition_data(data, 2, seed=5)
        cfg = base_cfg(num_clients=2, rounds=1, method="fedavg", server_lr=0.75)
        state = setup_experiment(cfg, model, clients, data)
        w0 = state.w.values.copy()
        w0_param = ParamVector(values=w0, layout=model.layout)

        total = np.zeros(model.dim)
        for client in clients:
            _, delta = local_sgd(model, w0_param, client.data,
                                 iters=cfg.local_iters, lr=cfg.local_lr,
                                 batch_size=cfg.batch_size,
                                 rng=_local_rng(cfg, 0, client.client_id))
            total += delta.values
        want = w0 - 0.75 * (total / 2)

        new_w, _, msgs = run_round(state, clients, cfg)
        # raw deltas ride the wire as float64, so this is bit-exact
        assert np.array_equal(new_w.values, want)
        assert all(m.upload_units == model.dim for m in msgs)

    def test_exact_full_rank_subspace_matches_fedavg(self):
        model, data = small_regression(input_dim=15, n=120)
        clients = partition_data(data, 3, seed=2)
        common = dict(num_clients=3, rounds=4, local_iters=4, local_lr=0.05,
                      root_seed=13, batch_size=32)
        sub = run_experiment(
            FedConfig(total_bases=model.dim, exact_projection=True, **common),
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
        examples = data.examples()
        clients = [ClientDataset(i, examples, "homogeneous") for i in range(8)]
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
        examples = data.examples()
        clients = [ClientDataset(i, examples, "homogeneous") for i in range(4)]
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
    def test_server_reconstruction_matches_client_bit_for_bit(self):
        model, data = small_regression(input_dim=12, n=80)
        clients = partition_data(data, 3, seed=4)
        cfg = base_cfg(num_clients=3, rounds=1)
        state = setup_experiment(cfg, model, clients, data)
        part = state.partition
        w0_param = ParamVector(values=state.w.values.copy(), layout=model.layout)
        _, _, msgs = run_round(state, clients, cfg)
        for msg in msgs:
            server_side = reconstruct(msg.payload, part).values
            client = clients[msg.client_id]
            _, delta = local_sgd(model, w0_param, client.data,
                                 iters=cfg.local_iters, lr=cfg.local_lr,
                                 batch_size=cfg.batch_size,
                                 rng=_local_rng(cfg, 0, client.client_id))
            local = reconstruct(project(delta.with_partition(part),
                                        projection_seed(cfg, 0, msg.client_id)),
                                part).values
            assert np.array_equal(server_side, local)

    def test_deferred_aggregation_matches_round_for_round(self):
        # clients that apply the previous round's aggregate at the start of
        # the next round walk the same trajectory as server-side application
        model, data = small_regression(input_dim=5, n=48)
        examples = data.examples()
        clients = [ClientDataset(i, examples, "homogeneous") for i in range(2)]
        cfg = base_cfg(num_clients=2, rounds=3, local_iters=2, total_bases=3,
                       local_lr=0.1, server_lr=1.5, batch_size=16)

        state = setup_experiment(cfg, model, clients, data)
        part = state.partition
        engine_w = []
        for _ in range(cfg.rounds):
            run_round(state, clients, cfg)
            engine_w.append(state.w.values.copy())

        w_cur = init_params(model).values.copy()
        pending = None
        for r in range(cfg.rounds):
            if pending is not None:
                w_cur = w_cur - pending
            w_param = ParamVector(values=w_cur, layout=model.layout)
            total = np.zeros(model.dim)
            for client in clients:
                _, delta = local_sgd(model, w_param, client.data,
                                     iters=cfg.local_iters, lr=cfg.local_lr,
                                     batch_size=cfg.batch_size,
                                     rng=_local_rng(cfg, r, client.client_id))
                proj = project(delta.with_partition(part),
                               projection_seed(cfg, r, client.client_id))
                total += reconstruct(proj, part).values
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

    def test_doubling_server_lr_doubles_the_step(self):
        # recover the mean reconstruction from the replies, then check both
        # applied parameter vectors against it bit for bit
        model, data = small_regression(n=80)
        clients = partition_data(data, 4, seed=7)
        final = {}
        msgs = None
        for server_lr in (1.0, 2.0):
            cfg = base_cfg(rounds=1, server_lr=server_lr)
            state = setup_experiment(cfg, model, clients, data)
            w0 = state.w.values.copy()
            part = state.partition
            _, _, msgs = run_round(state, clients, cfg)
            final[server_lr] = state.w.values
        total = np.zeros(model.dim)
        for m in msgs:
            total += reconstruct(m.payload, part).values
        mean_step = total / len(msgs)
        assert np.array_equal(final[1.0], w0 - mean_step)
        assert np.array_equal(final[2.0], w0 - 2.0 * mean_step)

    def test_upload_units_by_method(self):
        model, data = small_regression(input_dim=9, n=60)
        clients = partition_data(data, 3, seed=4)
        want = {"subspace": 6, "fedavg": model.dim, "fedzo": model.dim,
                "fedkseed": 6}
        for method, units in want.items():
            cfg = base_cfg(num_clients=3, rounds=1, total_bases=6,
                           local_iters=2, method=method)
            state = setup_experiment(cfg, model, clients, data)
            _, _, msgs = run_round(state, clients, cfg)
            assert [m.upload_units for m in msgs] == [units] * 3
            assert [m.client_id for m in msgs] == [0, 1, 2]

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
