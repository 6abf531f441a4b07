import numpy as np
import pytest

from fedproj import randbasis
from fedproj.errors import InvalidDimensionError, NumericError
from fedproj.randbasis import basis_tile
from fedproj.zoo import (
    ScalarGrads,
    ZOConfig,
    fedkseed_local_step,
    replay_scalar_log,
    zo_gradient,
)


def _directions(seed: int, d: int, k: int) -> np.ndarray:
    return basis_tile(seed, 0, d, 0, k).astype(np.float64)


def _two_pass_oracle(loss_fn, w: np.ndarray, cfg: ZOConfig) -> np.ndarray:
    """All K scalars from materialized rows, then acc += g_k v_k, then /K."""
    k_total = cfg.num_perturbations
    rows = _directions(cfg.seed, w.shape[0], k_total)
    base = loss_fn(w)
    scalars = [(loss_fn(w + cfg.epsilon * rows[k]) - base) / cfg.epsilon
               for k in range(k_total)]
    acc = np.zeros(w.shape[0])
    for k in range(k_total):
        acc += scalars[k] * rows[k]
    acc /= k_total
    return acc


def test_config_validation():
    with pytest.raises(InvalidDimensionError):
        ZOConfig(epsilon=0.0, num_perturbations=4, seed=1)
    with pytest.raises(InvalidDimensionError):
        ZOConfig(epsilon=float("nan"), num_perturbations=4, seed=1)
    with pytest.raises(InvalidDimensionError):
        ZOConfig(epsilon=1e-3, num_perturbations=0, seed=1)


def test_scalar_grads_count():
    g = ScalarGrads(seed=3, values=np.arange(5.0))
    assert g.count == 5


# K is never a power of two here, so dividing each term by K inside the walk
# rounds differently from the one division at the end
@pytest.mark.parametrize("d, k_total, eps", [
    (64, 7, 1e-2),
    (300, 17, 0.1),
    (2410, 40, 1e-3),  # 13-row groups: three full, one of a single row
])
def test_zo_gradient_matches_two_pass_oracle_bitwise(d, k_total, eps):
    w = np.random.default_rng(d).standard_normal(d)

    def loss(x):
        return float(np.sum(np.sin(x) ** 2))

    cfg = ZOConfig(epsilon=eps, num_perturbations=k_total, seed=0xD1CE + d)
    got = zo_gradient(loss, w, cfg)
    assert got.dtype == np.float64 and got.shape == (d,)
    assert np.array_equal(got, _two_pass_oracle(loss, w, cfg))


def test_exactly_k_plus_one_evaluations():
    calls = []

    def loss(w):
        calls.append(w.copy())
        return float(np.sum(w ** 2))

    cfg = ZOConfig(epsilon=1e-3, num_perturbations=7, seed=2)
    zo_gradient(loss, np.ones(16), cfg)
    assert len(calls) == 8
    np.testing.assert_array_equal(calls[0], np.ones(16))


def test_linear_loss_gives_directional_slopes():
    # linear f: each forward difference recovers c . v_k up to rounding, so
    # the estimate is the materialized (1/K) V^T V c
    d, k = 64, 8
    c = np.random.default_rng(0).standard_normal(d)
    cfg = ZOConfig(epsilon=1e-2, num_perturbations=k, seed=5)
    est = zo_gradient(lambda w: float(c @ w), np.zeros(d), cfg)
    v = _directions(5, d, k)
    np.testing.assert_allclose(est, v.T @ (v @ c) / k, rtol=1e-9, atol=1e-11)


def test_reconstruct_matches_materialized_oracle():
    # a scripted loss makes the K forward differences arbitrary scalars, so
    # the accumulation alone is checked against (1/K) V^T g
    d, k, eps = 64, 8, 1e-3
    vals = np.random.default_rng(1).standard_normal(k)
    script = iter([0.0, *(eps * vals)])
    cfg = ZOConfig(epsilon=eps, num_perturbations=k, seed=4)
    out = zo_gradient(lambda w: float(next(script)), np.zeros(d), cfg)
    want = _directions(4, d, k).T @ vals / k
    np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-15)


def test_zero_function_reconstructs_zero():
    cfg = ZOConfig(epsilon=1e-3, num_perturbations=4, seed=6)
    assert np.all(zo_gradient(lambda w: 0.0, np.ones(16), cfg) == 0.0)


def test_quadratic_remainder_within_curvature_bound():
    # f(w) = ||w||^2 / 2: the estimate deviates from (1/K) V V^T grad by
    # exactly (eps/2K) sum_k ||v_k||^2 v_k, so its norm is at most
    # (eps/2) max_k ||v_k||^3
    d, k, eps = 128, 16, 1e-2
    w = np.random.default_rng(2).standard_normal(d)
    cfg = ZOConfig(epsilon=eps, num_perturbations=k, seed=8)
    est = zo_gradient(lambda x: 0.5 * float(x @ x), w, cfg)
    v = _directions(8, d, k)
    first_order = v.T @ (v @ w) / k
    gap = np.linalg.norm(est - first_order)
    bound = 0.5 * eps * np.linalg.norm(v, axis=1).max() ** 3
    assert gap <= bound + 1e-9


def test_quadratic_remainder_linear_in_epsilon():
    d, k = 64, 8
    w = np.random.default_rng(3).standard_normal(d)
    v = _directions(11, d, k)
    first_order = v.T @ (v @ w) / k

    def gap(eps):
        cfg = ZOConfig(epsilon=eps, num_perturbations=k, seed=11)
        est = zo_gradient(lambda x: 0.5 * float(x @ x), w, cfg)
        return np.linalg.norm(est - first_order)

    g1, g2 = gap(1e-1), gap(1e-3)
    assert g2 < g1
    assert g1 / g2 == pytest.approx(100.0, rel=1e-2)


def test_nonfinite_base_point_raises():
    cfg = ZOConfig(epsilon=1e-3, num_perturbations=2, seed=1)
    with pytest.raises(NumericError) as err:
        zo_gradient(lambda w: float("nan"), np.ones(4), cfg)
    assert err.value.index is None
    assert "base point" in str(err.value)


def test_nonfinite_perturbation_names_index():
    calls = {"n": 0}

    def loss(w):
        calls["n"] += 1
        return float("inf") if calls["n"] == 4 else 0.0

    cfg = ZOConfig(epsilon=1e-3, num_perturbations=8, seed=1)
    with pytest.raises(NumericError) as err:
        zo_gradient(loss, np.ones(4), cfg)
    assert err.value.index == 2
    assert "perturbation 2" in str(err.value)


def test_fedkseed_replay_is_bit_exact():
    d = 48
    w0 = np.random.default_rng(4).standard_normal(d)
    target = np.random.default_rng(5).standard_normal(d)
    cfg = ZOConfig(epsilon=1e-3, num_perturbations=12, seed=15)
    w_end, log = fedkseed_local_step(
        w0, lambda w: 0.5 * float((w - target) @ (w - target)), cfg, lr=0.3)
    replayed = replay_scalar_log(w0, log, lr=0.3)
    assert np.array_equal(w_end, replayed)
    assert log.count == 12
    np.testing.assert_array_equal(w0, np.random.default_rng(4).standard_normal(d))


def test_fedkseed_descends_quadratic():
    d = 32
    w0 = np.random.default_rng(6).standard_normal(d) * 3.0

    def loss(w):
        return 0.5 * float(w @ w)

    cfg = ZOConfig(epsilon=1e-4, num_perturbations=200, seed=21)
    w_end, _ = fedkseed_local_step(w0, loss, cfg, lr=1.0)
    assert loss(w_end) < 0.5 * loss(w0)


def test_fedkseed_eval_count_is_two_per_step():
    calls = {"n": 0}

    def loss(w):
        calls["n"] += 1
        return float(w.sum())

    cfg = ZOConfig(epsilon=1e-3, num_perturbations=9, seed=2)
    fedkseed_local_step(np.zeros(8), loss, cfg, lr=0.1)
    assert calls["n"] == 18


def test_fedkseed_names_step_when_evaluator_rejects_point():
    def loss(w):  # rejects non-finite points the way models.loss does
        if not np.all(np.isfinite(w)):
            raise NumericError("non-finite parameter values")
        return 1e3 * float(w.sum())

    cfg = ZOConfig(epsilon=1e-3, num_perturbations=4, seed=1)
    with pytest.raises(NumericError) as err:  # step 0 overflows w to inf
        fedkseed_local_step(np.ones(4), loss, cfg, lr=1e308)
    assert err.value.index == 1
    assert "perturbation 1" in str(err.value)


def _counted_tiles(monkeypatch) -> list:
    """The (seed, block, dim, k_lo, k_hi) of each basis_tile call, from an
    empty row keep."""
    calls = []

    def counting_tile(*args):
        calls.append(args)
        return basis_tile(*args)

    monkeypatch.setattr(randbasis, "basis_tile", counting_tile)
    monkeypatch.setattr(randbasis, "_ROW_KEEP", randbasis._RowKeep())
    return calls


def _half_square(w):
    return 0.5 * float(w @ w)


def test_walks_generate_rows_in_span_sized_groups(monkeypatch):
    # the fedkseed-mlp shape: d = 2,410 and K = 256; a 2^15-entry span holds
    # 13 such rows, so an ascending walk over a new seed takes
    # ceil(256 / 13) = 20 tiles, and a whole fedzo estimate is one such walk;
    # the 20 groups (626,600 entries) fit in the row keep, so the replay of
    # the same seed right after the walk generates nothing
    d, k_total = 2410, 256
    calls = _counted_tiles(monkeypatch)

    def tiles(walk, count):
        calls.clear()
        result = walk()
        assert len(calls) == count
        return result

    w0 = np.linspace(-1.0, 1.0, d)
    cfg = ZOConfig(epsilon=1e-3, num_perturbations=k_total, seed=0xFEDC5EED)
    other = ZOConfig(epsilon=1e-3, num_perturbations=k_total, seed=0x07E5EED)
    w_end, log = tiles(lambda: fedkseed_local_step(w0, _half_square, cfg, lr=0.05), 20)
    assert np.array_equal(tiles(lambda: replay_scalar_log(w0, log, lr=0.05), 0), w_end)
    tiles(lambda: zo_gradient(_half_square, w0, other), 20)
    assert np.array_equal(tiles(lambda: replay_scalar_log(w0, log, lr=0.05), 20), w_end)


def test_a_replay_past_the_keep_regenerates_only_the_groups_after_it(monkeypatch):
    # K = 512 takes 40 groups of 13 rows at d = 2,410; 33 of them fit in the
    # keep (33 x 31,330 <= 2^20 < 34 x 31,330), so the replay makes the last 7
    d, k_total, group = 2410, 512, 13
    calls = _counted_tiles(monkeypatch)
    w0 = np.linspace(-1.0, 1.0, d)
    cfg = ZOConfig(epsilon=1e-3, num_perturbations=k_total, seed=0xFEDC5EED)
    w_end, log = fedkseed_local_step(w0, _half_square, cfg, lr=0.05)
    assert [c[3] for c in calls] == list(range(0, k_total, group))
    calls.clear()
    assert np.array_equal(replay_scalar_log(w0, log, lr=0.05), w_end)
    assert [c[3] for c in calls] == list(range(33 * group, k_total, group))
