import dataclasses
import hashlib
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from fedproj import models
from fedproj.errors import (
    ConfigError,
    DivergedError,
    InvalidDimensionError,
    NumericError,
    ShapeMismatchError,
)
from fedproj.models import (
    Dataset,
    ModelSpec,
    _as_arrays,
    _CheckedBatch,
    accuracy,
    grad,
    init_params,
    load_csv,
    load_npz,
    local_sgd,
    loss,
    predict,
    save_csv,
    save_npz,
    synthetic_classification,
    synthetic_regression,
)
from fedproj.randbasis import uniform_stream

# frozen on first run, cross-checked below against a scalar re-implementation
MLP_GOLDEN_LOSS = 1.2962259777181204


def _mlp_model():
    return ModelSpec(kind="mlp", input_dim=5, output_dim=3, hidden_dim=4,
                     init_seed=2)


def _mlp_batch():
    return synthetic_classification(8, 5, 3, seed=11)


# ---------------------------------------------------------------- specs

def test_spec_validation():
    with pytest.raises(ConfigError):
        ModelSpec(kind="transformer", input_dim=4, output_dim=2)
    with pytest.raises(InvalidDimensionError):
        ModelSpec(kind="mlp", input_dim=4, output_dim=2, hidden_dim=0)
    with pytest.raises(InvalidDimensionError):
        ModelSpec(kind="linear-regression", input_dim=4, output_dim=1, hidden_dim=3)
    with pytest.raises(InvalidDimensionError):
        ModelSpec(kind="logistic-regression", input_dim=4, output_dim=1)
    with pytest.raises(InvalidDimensionError):
        ModelSpec(kind="linear-regression", input_dim=0, output_dim=1)


def test_layout_contiguous_and_sized():
    m = _mlp_model()
    assert m.layout == (("w1", 0, 20), ("b1", 20, 4), ("w2", 24, 12), ("b2", 36, 3))
    assert m.dim == 39
    assert m.block_dims == (20, 4, 12, 3)
    lin = ModelSpec(kind="linear-regression", input_dim=7, output_dim=2)
    assert lin.layout == (("w", 0, 14), ("b", 14, 2))


# sha256 of pickle.dumps(spec, protocol=4), frozen from the implementation
# that recomputed the layout on every access
_SPEC_PICKLES = {
    ("mlp", 64, 10, 32, 5):
        "9a663a7463a82f07c6359b8f3fe67773ecb18875a7ce56153c4454a6d74b2d65",
    ("linear-regression", 3, 1, 0, 0):
        "52541cada6b3121dfe339d154aaf53cf139c5a6eb0e15d71582a40a8a6766c24",
}


@pytest.mark.parametrize("fields", sorted(_SPEC_PICKLES))
def test_spec_identity_ignores_its_cached_layout(fields):
    used, fresh = ModelSpec(*fields), ModelSpec(*fields)
    loss(used, init_params(used), synthetic_regression(4, used.input_dim, seed=1)
         if used.kind == "linear-regression"
         else synthetic_classification(4, used.input_dim, used.output_dim, seed=1))
    assert [f.name for f in dataclasses.fields(ModelSpec)] == [
        "kind", "input_dim", "output_dim", "hidden_dim", "init_seed"]
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) == (
        "ModelSpec(kind={!r}, input_dim={}, output_dim={}, hidden_dim={}, "
        "init_seed={})".format(*fields))
    for spec in (used, fresh):
        blob = pickle.dumps(spec, protocol=4)
        assert hashlib.sha256(blob).hexdigest() == _SPEC_PICKLES[fields]
        back = pickle.loads(blob)
        assert back == spec and back.layout == spec.layout and back.dim == spec.dim
    with pytest.raises(dataclasses.FrozenInstanceError):
        used.input_dim = 2


def test_init_deterministic_and_scaled():
    m = _mlp_model()
    a, b = init_params(m), init_params(m)
    assert a.dtype == np.float64 and a.shape == (m.dim,)
    assert np.array_equal(a, b)
    other = init_params(ModelSpec(kind="mlp", input_dim=5, output_dim=3,
                                  hidden_dim=4, init_seed=3))
    assert not np.array_equal(a, other)
    g = models._views(m, a)
    assert np.all(g["b1"] == 0.0) and np.all(g["b2"] == 0.0)
    assert np.abs(g["w1"]).max() <= 1.0 / math.sqrt(5)
    assert np.abs(g["w2"]).max() <= 1.0 / math.sqrt(4)
    assert np.abs(g["w1"]).max() > 0.0


# ---------------------------------------------------------------- loss

def test_linear_loss_zero_at_zero_targets():
    m = ModelSpec(kind="linear-regression", input_dim=3, output_dim=1)
    w = np.zeros(m.dim)
    ds = Dataset(np.arange(12.0).reshape(4, 3), np.zeros(4))
    assert loss(m, w, ds) == 0.0


def test_logistic_loss_ln_c_at_zero():
    for c in (2, 5):
        m = ModelSpec(kind="logistic-regression", input_dim=4, output_dim=c)
        w = np.zeros(m.dim)
        ds = synthetic_classification(64, 4, c, seed=3)
        assert loss(m, w, ds) == pytest.approx(math.log(c), rel=1e-12)


def test_mlp_golden_loss_frozen():
    assert loss(_mlp_model(), init_params(_mlp_model()), _mlp_batch()) \
        == pytest.approx(MLP_GOLDEN_LOSS, rel=1e-14, abs=0.0)


def test_mlp_golden_loss_against_scalar_evaluator():
    # independent re-computation with python scalars, no shared array code
    m = _mlp_model()
    w = init_params(m)
    ds = _mlp_batch()
    w1 = w[0:20].reshape(5, 4)
    b1 = w[20:24]
    w2 = w[24:36].reshape(4, 3)
    b2 = w[36:39]
    total = 0.0
    for i in range(len(ds)):
        hidden = [math.tanh(sum(ds.features[i][p] * w1[p][j] for p in range(5))
                            + b1[j]) for j in range(4)]
        logits = [sum(hidden[j] * w2[j][c] for j in range(4)) + b2[c]
                  for c in range(3)]
        zmax = max(logits)
        lse = zmax + math.log(sum(math.exp(z - zmax) for z in logits))
        total += lse - logits[int(ds.targets[i])]
    assert total / len(ds) == pytest.approx(MLP_GOLDEN_LOSS, rel=1e-12)


def test_loss_input_validation():
    m = ModelSpec(kind="linear-regression", input_dim=3, output_dim=1)
    w = init_params(m)
    with pytest.raises(InvalidDimensionError):
        loss(m, w, Dataset(np.zeros((0, 3)), np.zeros(0)))
    with pytest.raises(ShapeMismatchError):
        loss(m, w, Dataset(np.ones((2, 4)), np.zeros(2)))
    with pytest.raises(NumericError):
        loss(m, w, Dataset(np.array([[1.0, np.nan, 0.0]]), np.zeros(1)))
    with pytest.raises(NumericError):
        loss(m, w, Dataset(np.ones((1, 3)), np.array([np.inf])))
    with pytest.raises(NumericError):
        loss(m, np.full(m.dim, np.nan), Dataset(np.ones((1, 3)), np.zeros(1)))
    with pytest.raises(ShapeMismatchError):
        loss(m, np.zeros(m.dim + 1), Dataset(np.ones((1, 3)), np.zeros(1)))
    mc = ModelSpec(kind="logistic-regression", input_dim=3, output_dim=3)
    with pytest.raises(ShapeMismatchError):
        loss(mc, init_params(mc), Dataset(np.ones((2, 3)), np.array([0, 5])))
    # float class targets that are not finite whole numbers are not truncated
    for targets in ([0.3, 0.9, 1.7, -0.5], [0.0, 1.0, 2.0, np.nan],
                    [0.0, 1.0, 2.0, np.inf]):
        ds = Dataset(np.ones((4, 3)), np.array(targets))
        with pytest.raises(ShapeMismatchError, match="whole numbers"):
            loss(mc, init_params(mc), ds)
        with pytest.raises(ShapeMismatchError, match="whole numbers"):
            local_sgd(mc, init_params(mc), ds, iters=1, lr=0.1, batch_size=4)


def test_whole_float_class_targets_match_integer_ones():
    m = ModelSpec(kind="logistic-regression", input_dim=3, output_dim=3)
    x = synthetic_regression(4, 3, seed=2).features
    as_float = Dataset(x, np.array([0.0, 1.0, 2.0, 1.0]))
    as_int = Dataset(x, np.array([0, 1, 2, 1]))
    assert not as_float.is_classification
    w = init_params(m)
    assert loss(m, w, as_float) == loss(m, w, as_int)
    assert np.array_equal(grad(m, w, as_float), grad(m, w, as_int))


# ---------------------------------------------------------------- grad

def test_grad_zero_at_linear_optimum():
    m = ModelSpec(kind="linear-regression", input_dim=4, output_dim=1)
    ds = synthetic_regression(32, 4, seed=9, noise_std=0.05)
    aug = np.hstack([ds.features, np.ones((32, 1))])
    sol = np.linalg.lstsq(aug, ds.targets, rcond=None)[0]
    w = np.concatenate([sol[:-1], sol[-1:]])
    assert np.abs(grad(m, w, ds)).max() < 1e-8


def test_grad_zero_at_logistic_symmetric_point():
    # identical features, balanced labels: uniform prediction is optimal
    m = ModelSpec(kind="logistic-regression", input_dim=3, output_dim=2)
    w = np.zeros(m.dim)
    x = np.tile([[0.3, -1.2, 0.7]], (2, 1))
    ds = Dataset(x, np.array([0, 1]))
    assert np.abs(grad(m, w, ds)).max() < 1e-8


def test_grad_linear_closed_form():
    m = ModelSpec(kind="linear-regression", input_dim=5, output_dim=2)
    ds = synthetic_regression(20, 5, output_dim=2, seed=13, noise_std=0.3)
    w = init_params(ModelSpec(kind="linear-regression", input_dim=5,
                              output_dim=2, init_seed=8))
    g = grad(m, w, ds)
    x, y = ds.features, ds.targets
    resid = x @ w[:10].reshape(5, 2) + w[10:] - y
    np.testing.assert_allclose(g[:10], (x.T @ resid / 20).ravel(),
                               rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(g[10:], resid.mean(axis=0),
                               rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("kind,out_dim,hidden,make_data", [
    ("linear-regression", 1, 0, lambda: synthetic_regression(12, 6, seed=1)),
    ("logistic-regression", 3, 0,
     lambda: synthetic_classification(12, 6, 3, seed=2)),
    ("mlp", 3, 5, lambda: synthetic_classification(12, 6, 3, seed=3)),
])
def test_grad_matches_central_differences(kind, out_dim, hidden, make_data):
    m = ModelSpec(kind=kind, input_dim=6, output_dim=out_dim,
                  hidden_dim=hidden, init_seed=4)
    w = init_params(m)
    ds = make_data()
    g = grad(m, w, ds)
    h = 1e-4
    picks = np.random.default_rng(0).choice(m.dim, size=min(10, m.dim),
                                            replace=False)
    for i in picks:
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        fd = (loss(m, wp, ds) - loss(m, wm, ds)) / (2 * h)
        assert abs(fd - g[i]) / max(abs(g[i]), 1e-4) < 1e-4


def test_grad_returns_unpartitioned_update():
    m = ModelSpec(kind="linear-regression", input_dim=3, output_dim=1)
    g = grad(m, init_params(m), synthetic_regression(8, 3, seed=6))
    assert type(g) is np.ndarray
    assert g.dtype == np.float64 and g.shape == (m.dim,)


# ---------------------------------------------------------------- local_sgd

def _quad_setup():
    m = ModelSpec(kind="linear-regression", input_dim=4, output_dim=1, init_seed=3)
    ds = synthetic_regression(24, 4, seed=7, noise_std=0.1)
    return m, init_params(m), ds


def test_sgd_zero_lr_zero_delta():
    m, w, ds = _quad_setup()
    w_end, delta = local_sgd(m, w, ds, iters=5, lr=0.0, batch_size=24)
    for out in (w_end, delta):
        assert type(out) is np.ndarray
        assert out.dtype == np.float64 and out.shape == (m.dim,)
    assert np.array_equal(w_end, w)
    assert np.all(delta == 0.0)


def test_sgd_single_full_batch_step_is_lr_times_grad():
    m, w, ds = _quad_setup()
    _, delta = local_sgd(m, w, ds, iters=1, lr=0.25, batch_size=24, accum=1)
    assert np.array_equal(delta, 0.25 * grad(m, w, ds))


def test_sgd_descends_quadratic_below_curvature_limit():
    m, w, ds = _quad_setup()
    aug = np.hstack([ds.features, np.ones((len(ds), 1))])
    beta = np.linalg.eigvalsh(aug.T @ aug / len(ds)).max()
    losses = [loss(m, w, ds)]
    cur = w
    for _ in range(10):
        cur, _ = local_sgd(m, cur, ds, iters=1, lr=0.9 / beta, batch_size=24)
        losses.append(loss(m, cur, ds))
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_sgd_delta_equals_start_minus_end():
    m, w, ds = _quad_setup()
    for opt in ("sgd", "adam"):
        w_end, delta = local_sgd(m, w, ds, iters=7, lr=0.05, batch_size=8,
                                 accum=2, rng=3, optimizer=opt)
        np.testing.assert_allclose(w - w_end, delta,
                                   rtol=1e-12, atol=1e-15)


def test_sgd_bit_identical_reruns():
    m, w, ds = _quad_setup()
    kw = dict(iters=6, lr=0.1, batch_size=4, accum=3, rng=11)
    a_end, a_delta = local_sgd(m, w, ds, **kw)
    b_end, b_delta = local_sgd(m, w, ds, **kw)
    assert np.array_equal(a_end, b_end)
    assert np.array_equal(a_delta, b_delta)
    c_end, _ = local_sgd(m, w, ds, **{**kw, "rng": 12})
    assert not np.array_equal(a_end, c_end)


def test_sgd_micro_batches_follow_uniform_stream():
    m, w, ds = _quad_setup()
    n = len(ds)
    _, delta = local_sgd(m, w, ds, iters=1, lr=1.0, batch_size=5, accum=2, rng=9)
    ghat = np.zeros(m.dim)
    for a in range(2):
        u = uniform_stream(9, 5, start=5 * a)
        idx = np.minimum((u * n).astype(np.int64), n - 1)
        ghat += grad(m, w, ds.take(idx))
    np.testing.assert_allclose(delta, ghat / 2, rtol=1e-12, atol=1e-15)


def test_sgd_adam_reduces_loss():
    m, w, ds = _quad_setup()
    w_end, _ = local_sgd(m, w, ds, iters=40, lr=0.05, batch_size=24,
                         optimizer="adam")
    assert loss(m, w_end, ds) < loss(m, w, ds)


def test_sgd_divergence_carries_iteration():
    m, w, ds = _quad_setup()
    with pytest.raises(DivergedError) as err:
        local_sgd(m, w, ds, iters=200, lr=1e12, batch_size=24)
    assert isinstance(err.value.iteration, int)
    assert err.value.iteration >= 1


def test_sgd_argument_validation():
    m, w, ds = _quad_setup()
    with pytest.raises(InvalidDimensionError):
        local_sgd(m, w, ds, iters=0, lr=0.1, batch_size=4)
    with pytest.raises(InvalidDimensionError):
        local_sgd(m, w, ds, iters=1, lr=0.1, batch_size=0)
    with pytest.raises(InvalidDimensionError):
        local_sgd(m, w, ds, iters=1, lr=float("nan"), batch_size=4)
    with pytest.raises(ConfigError):
        local_sgd(m, w, ds, iters=1, lr=0.1, batch_size=4, optimizer="lion")


# ---------------------------------------------------------------- data

def test_dataset_take():
    ds = synthetic_regression(10, 2, seed=2)
    sub = ds.take(np.array([3, 3, 7]))
    assert len(sub) == 3
    assert np.array_equal(sub.features[0], ds.features[3])


def test_dataset_validation():
    with pytest.raises(ShapeMismatchError):
        Dataset(np.zeros(4), np.zeros(4))
    with pytest.raises(ShapeMismatchError):
        Dataset(np.zeros((4, 2)), np.zeros(3))


def test_synthetic_determinism_and_shapes():
    a = synthetic_regression(20, 5, seed=3)
    b = synthetic_regression(20, 5, seed=3)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.targets, b.targets)
    assert a.features.shape == (20, 5) and not a.is_classification
    c = synthetic_classification(30, 4, 3, seed=3)
    assert c.is_classification
    assert set(np.unique(c.targets)) <= {0, 1, 2}
    assert not np.array_equal(a.features,
                              synthetic_regression(20, 5, seed=4).features)


def test_synthetic_regression_noiseless_is_exactly_linear():
    ds = synthetic_regression(40, 3, seed=5, noise_std=0.0)
    sol, res, *_ = np.linalg.lstsq(
        np.hstack([ds.features, np.ones((40, 1))]), ds.targets, rcond=None)
    pred = ds.features @ sol[:-1] + sol[-1]
    assert np.abs(pred - ds.targets).max() < 1e-10


def test_csv_roundtrip(tmp_path):
    ds = synthetic_regression(12, 3, seed=6)
    path = str(tmp_path / "reg.csv")
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.targets, ds.targets)
    cls = synthetic_classification(9, 2, 2, seed=7)
    cpath = str(tmp_path / "cls.csv")
    save_csv(cls, cpath)
    cback = load_csv(cpath, classification=True)
    assert cback.is_classification
    assert np.array_equal(cback.targets, cls.targets)


def test_csv_errors(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write("f0,f1,target\n1.0,2.0,3.0\n4.0,5.0\n")
    with pytest.raises(ConfigError) as err:
        load_csv(path)
    assert err.value.line == 3
    with open(path, "w") as fh:
        fh.write("f0,target\n1.0,oops\n")
    with pytest.raises(ConfigError) as err:
        load_csv(path)
    assert err.value.line == 2
    with open(path, "w") as fh:
        fh.write("f0,target\n1.0,1.0\n2.0,1.7\n3.0,0\n")
    assert load_csv(path).targets[1] == 1.7
    with pytest.raises(ConfigError, match="1.7 is not a whole number") as err:
        load_csv(path, classification=True)
    assert err.value.line == 3


def test_npz_roundtrip(tmp_path):
    ds = synthetic_classification(15, 4, 3, seed=8)
    path = str(tmp_path / "data.npz")
    save_npz(ds, path)
    back = load_npz(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.targets, ds.targets)
    assert back.is_classification


# ---------------------------------------------------------------- predict

def test_predict_and_accuracy():
    m = ModelSpec(kind="logistic-regression", input_dim=2, output_dim=2)
    w = np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
    x = np.array([[2.0, 0.0], [-2.0, 0.0]])
    np.testing.assert_array_equal(predict(m, w, x), [0, 1])
    ds = Dataset(x, np.array([0, 1]))
    assert accuracy(m, w, ds) == 1.0
    assert accuracy(m, w, Dataset(x, np.array([1, 0]))) == 0.0
    lin = ModelSpec(kind="linear-regression", input_dim=2, output_dim=1)
    with pytest.raises(ConfigError):
        accuracy(lin, init_params(lin), ds)


def test_class_targets_are_used_without_a_copy():
    m = ModelSpec(kind="logistic-regression", input_dim=6, output_dim=3)
    ds = synthetic_classification(40, 6, 3, seed=5)
    x, y = _as_arrays(m, ds)
    assert x is ds.features and y is ds.targets


def test_checked_batch_is_validated_once(monkeypatch):
    m = ModelSpec(kind="logistic-regression", input_dim=6, output_dim=3)
    ds = synthetic_classification(40, 6, 3, seed=5)
    w = init_params(m)
    scans = []
    scan = models._as_arrays

    def counting(model, batch):
        scans.append(isinstance(batch, Dataset))
        return scan(model, batch)

    monkeypatch.setattr(models, "_as_arrays", counting)
    batch = _CheckedBatch(m, ds)
    assert [loss(m, w, batch) for _ in range(3)] == [loss(m, w, ds)] * 3
    assert scans.count(True) == 2  # one for the checked batch, one for ds
    # another model's call checks the data itself and keeps nothing
    other = ModelSpec(kind="logistic-regression", input_dim=6, output_dim=3)
    scans.clear()
    loss(other, w, batch)
    assert scans.count(True) == 1 and batch.arrays[0] is ds.features


def test_checked_batch_raises_on_each_call_until_valid():
    m = ModelSpec(kind="logistic-regression", input_dim=2, output_dim=2)
    bad = Dataset(np.array([[0.0, np.nan]]), np.array([1]))
    batch = _CheckedBatch(m, bad)
    for _ in range(2):
        with pytest.raises(NumericError, match="non-finite feature values"):
            loss(m, init_params(m), batch)
    assert batch.arrays is None


def test_predict_single_example_squeezes():
    m = ModelSpec(kind="linear-regression", input_dim=3, output_dim=1, init_seed=1)
    w = init_params(m)
    one = predict(m, w, np.array([1.0, 2.0, 3.0]))
    assert one.shape == (1,)


# ---------------------------------------------------------------- golden bits

def _golden_task(name):
    if name == "linear":
        return (ModelSpec("linear-regression", 6, 2, init_seed=4),
                synthetic_regression(40, 6, output_dim=2, seed=5))
    if name == "logistic":
        return (ModelSpec("logistic-regression", 6, 3, init_seed=4),
                synthetic_classification(40, 6, 3, seed=5))
    if name == "mlp":
        return (ModelSpec("mlp", 6, 3, hidden_dim=5, init_seed=4),
                synthetic_classification(40, 6, 3, seed=5))
    # gemms large enough for the BLAS to split them between threads
    return (ModelSpec("mlp", 64, 10, hidden_dim=48, init_seed=4),
            synthetic_classification(96, 64, 10, seed=5))


# sha256 of grad bytes + repr(loss) + predict bytes at the initial parameters,
# frozen from the implementation that allocated a fresh array per operation
_EVAL_DIGESTS = {
    "linear": "49640df95106d90d82d541e4a1c4c008283fac6ac780b8b2a8bfdb649e78fafc",
    "logistic": "81d7b1ef6f1b6d79e29b5e6e23bc1c95c81e7c81eaea36ae3b18641ffe217960",
    "mlp": "d8aafeb586dc98064205477e398a6c388f88d592de3eee329987843097303758",
    "mlp-wide": "58a461df87bc652eb4471d801cc1ec86baf903755373265ef059261507b9b768",
}

# sha256 of delta bytes + w_end bytes of local_sgd(iters=4, lr=0.1, rng=7),
# frozen from the same implementation; "full" uses the whole dataset per step
_SGD_DIGESTS = {
    ("linear", "sgd", 1, "mini"): "d2544c2ba8d94aaa905c6371ad7f1c2c24d35b65b37051f3ac22dc4551c9f8b4",
    ("linear", "sgd", 1, "full"): "f8634be5c2e51660e46cf3dccd48c7d49c2942ce044a38d62cf7c50706ae7028",
    ("linear", "sgd", 3, "mini"): "ad589aecb8a85cb3585194439e0cc63325e123164f0a08668d060544c61d9ef8",
    ("linear", "sgd", 3, "full"): "8a75578645212d296cf11f7b6c528aefa91bd4b3dcc7518491190596e3d1bfef",
    ("linear", "adam", 1, "mini"): "53e6ce3779552ce80818c51ad0ff8ca26dedb61b6a9ac768b25d96511307f44a",
    ("linear", "adam", 1, "full"): "c8a2c8da0250fb3a370b293ec1a763c4d7ae6ac31b76ee9fce5162fd6d9241ee",
    ("linear", "adam", 3, "mini"): "018474bc07ad894d6781f5766057fb145fcf36749d8baf1cfa13a0927f442910",
    ("linear", "adam", 3, "full"): "66b6210370a8ea5795547907ed17e54fe32f88c3438fda65700f13d4b354b138",
    ("logistic", "sgd", 1, "mini"): "39c6796147ee987e00f6d597baac42510d175c99a08895361ab057c6c8ca5635",
    ("logistic", "sgd", 1, "full"): "7749c4c9b04ff837f5eba0200f56a44a7e18fa78ce71dc8680db57254adc4cde",
    ("logistic", "sgd", 3, "mini"): "e9ae3c45c991c6ceb0063ac3c9254f27ac98a0977826319fd92420a9614d413f",
    ("logistic", "sgd", 3, "full"): "3f253ff76da45528390a55e74269ba8883fd3d81091df7f1ae3b83d7440477ce",
    ("logistic", "adam", 1, "mini"): "b5743b7a8bef5e6f144aadd8dc7659f1b90269a68389f372a24acc70de36446a",
    ("logistic", "adam", 1, "full"): "0bfd30c7dd4de36d330146991ad39233e2b0faab63266e13fe7e44925f01d69e",
    ("logistic", "adam", 3, "mini"): "08a96c1d8a6ab683b7c06c8907be150c851f11f6c06eeb89bdf493980dbf1818",
    ("logistic", "adam", 3, "full"): "0a626a930c57caf922be215320ece8189bbb277b83bbd4dd8765bbcca1859d69",
    ("mlp", "sgd", 1, "mini"): "721dd6743bb8071ce6fdfa62a3afaa3a4f08b58e5f49edcc5f225593663900ee",
    ("mlp", "sgd", 1, "full"): "7a737685723b13ff7b610f6103e45c64a4a067ef2ff36379041471328466a024",
    ("mlp", "sgd", 3, "mini"): "49232b1822826a68efea3b8a1ff7a96e4c7c27d5c1d2f5fa83f5324b44f8c676",
    ("mlp", "sgd", 3, "full"): "6499bd0abc52d6de125e5d55b77c5e728ece2428a285619108ab003c548998b0",
    ("mlp", "adam", 1, "mini"): "2b199670ef430507393d438d5a73d54b477653f793b154925e42d8826d492a1a",
    ("mlp", "adam", 1, "full"): "fd002a33b02f31b870c3ab207eb29a0086fbce95236a1c784f88af1674c9c355",
    ("mlp", "adam", 3, "mini"): "9fbf0f86a187df1af574f1d8913d41dfc458ae38427a68b3b54b9e7dfb4f0df0",
    ("mlp", "adam", 3, "full"): "3658a100fbb5cb1ec69658d88642d75496b54e163d692307b09ffca230a53069",
    ("mlp-wide", "sgd", 1, "mini"): "eb9a845e436d35a557d959fbb3a89f887b3938d8b09deaf8619a422401d0025c",
    ("mlp-wide", "sgd", 1, "full"): "6d593550ffa2eff1c22d8019961056a7c86943ba6d34c8a7fb7fe888b47636fe",
    ("mlp-wide", "sgd", 3, "mini"): "3e06e59b8b05a28d12dc56ca147f3e7626f021cad452d3647a92194e014d5b6d",
    ("mlp-wide", "sgd", 3, "full"): "82d7d403724958e52f07a544bf5bc9a87e933005bf8f1a767c6cd3444d0f9592",
    ("mlp-wide", "adam", 1, "mini"): "7a1d73486ba0d8bf59705ff3fac49af73477a77dd331ab5fc50ca3305307b3b9",
    ("mlp-wide", "adam", 1, "full"): "cd7663c26195837a03080612bba58d904bdf6c4286af0cba2ec84a795f0d408e",
    ("mlp-wide", "adam", 3, "mini"): "33e1432a71ed36cbb0e14a902bf055617104c55074940db3fd64f6e5df1ac28d",
    ("mlp-wide", "adam", 3, "full"): "527b349ad3332a61bdb20d58559229ae0eb998cdfebfbe55d167c809c1b6494e",
}


@pytest.mark.parametrize("name", sorted(_EVAL_DIGESTS))
def test_eval_golden_digest(name):
    m, ds = _golden_task(name)
    w = init_params(m)
    h = hashlib.sha256(grad(m, w, ds).tobytes())
    h.update(repr(loss(m, w, ds)).encode())
    h.update(np.asarray(predict(m, w, ds.features)).tobytes())
    assert h.hexdigest() == _EVAL_DIGESTS[name]


@pytest.mark.parametrize("name,optimizer,accum,batch", sorted(_SGD_DIGESTS))
def test_local_sgd_golden_digest(name, optimizer, accum, batch):
    m, ds = _golden_task(name)
    w_end, delta = local_sgd(m, init_params(m), ds, iters=4, lr=0.1,
                             batch_size=8 if batch == "mini" else len(ds),
                             accum=accum, rng=7, optimizer=optimizer)
    digest = hashlib.sha256(delta.tobytes() + w_end.tobytes())
    assert digest.hexdigest() == _SGD_DIGESTS[name, optimizer, accum, batch]


# ---------------------------------------------------------------- loss bits

_LOSS_SIZES = [(n, c) for n in (1, 7, 32, 200, 2000) for c in (2, 10)]


def _loss_task(kind, n, c, scale):
    """A model, scaled initial parameters and an n-example batch, c outputs."""
    m = ModelSpec(kind, 6, c, hidden_dim=5 if kind == "mlp" else 0,
                  init_seed=n)
    data = (synthetic_regression(n, 6, output_dim=c, seed=c)
            if kind == "linear-regression"
            else synthetic_classification(n, 6, c, seed=c))
    return m, scale * init_params(m), data


def _crafted_logits(case, n, c):
    """n x c logits with ties, signed zeros, or values near the float limit.

    "signed-zero" also gives every third row a single signed-zero maximum
    over -1000s, where the row's normaliser is exactly 1; "overflow" mixes
    +-1e308 and +-1.7e308, whose differences overflow to -inf.
    """
    u = uniform_stream(31 * n + c, n * c).reshape(n, c)
    if case == "tied":
        return np.floor(u * 3.0) - 1.0
    if case == "signed-zero":
        z = np.where(u < 0.5, -0.0, 0.0)
        z[u > 0.8] = -1000.0
        rows = np.arange(0, n, 3)
        z[rows] = -1000.0
        z[rows, rows % c] = np.where(u[rows, 0] < 0.5, -0.0, 0.0)
        return z
    values = np.array([1e308, -1e308, 1.7e308, -1.7e308, 0.0, 5.0])
    return values[(u * len(values)).astype(np.int64)]


def _with_logits(monkeypatch, logits):
    """Make the models' forward pass return ``logits`` as its outputs."""
    forward = models._forward

    def crafted(model, g, x):
        hidden, out = forward(model, g, x)
        out[...] = logits
        return hidden, out

    monkeypatch.setattr(models, "_forward", crafted)


# sha256 over repr(loss) + grad bytes of every _LOSS_SIZES case, frozen from
# the implementation that took the row max along each row and formed the
# full log-softmax for the loss; the logit cases replace the forward pass's
# outputs with _crafted_logits
_LOSS_DIGESTS = {
    ("linear-regression", "init"): "5613b3431290322c5bb784b6e48a24902feb609a8d69bb92e668721a64742091",
    ("linear-regression", "scaled"): "4dec073aa879e3714ceb3ac7b3d917dcaccef0f16031b732799c290d16ea0951",
    ("logistic-regression", "init"): "00aed254e1fcf799b82e598f570141345a46e06766a85a886aed6429230b2b86",
    ("logistic-regression", "scaled"): "e522d8c299fa78a4fcdf4980cc0412b20ade34f4bda1b35529c6609c59f1e1f9",
    ("logistic-regression", "tied"): "33564aeb3502565b85838184877139887a4c55d47c793e57fdb29bb8f03298ad",
    ("logistic-regression", "signed-zero"): "c8ed29e6232976046fe4e490812d43889b876a84711e1f05750ae6966226359e",
    ("logistic-regression", "overflow"): "bc1ead9587e06676da10634325962f03ba6951503069a348d7ae46e5732bc8c6",
    ("mlp", "init"): "5cab7699a4eb8a27be5edb80c495e0d1852b532703c0ad0b0c21c31e826d1e49",
    ("mlp", "scaled"): "1b7236ffd78ecf67c0ba60b48e19c47ab216d764e437f4d64899ece070ed8185",
    ("mlp", "tied"): "6249ceec8e5ab48f0f748102ea4aeae2de0fdd45803d7b60f4ebb90edd0829db",
    ("mlp", "signed-zero"): "abd297ad88c7794620e9d3bf527d72f7f667c691002065d57a28bae9619792ad",
    ("mlp", "overflow"): "98e0a56715175b9bef92c4c78651cf2f71c9f4fd4460201eea9cf162766ff46c",
}


@pytest.mark.parametrize("kind,case", sorted(_LOSS_DIGESTS))
def test_loss_and_grad_golden_digest(monkeypatch, kind, case):
    h = hashlib.sha256()
    for n, c in _LOSS_SIZES:
        m, w, data = _loss_task(kind, n, c, 8.0 if case == "scaled" else 1.0)
        if case not in ("init", "scaled"):
            _with_logits(monkeypatch, _crafted_logits(case, n, c))
        h.update(repr(loss(m, w, data)).encode())
        h.update(grad(m, w, data).tobytes())
        monkeypatch.undo()
    assert h.hexdigest() == _LOSS_DIGESTS[kind, case]


@pytest.mark.parametrize("kind", ["logistic-regression", "mlp"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("want_grad", [False, True])
def test_nonfinite_logit_gives_nonfinite_loss(kind, bad, want_grad):
    # one logit of every row is inf, -inf or nan, set through an output bias
    # that the public calls would reject; the walks and local_sgd stop at the
    # first step whose loss is not finite, so they still stop at that step
    m, w, data = _loss_task(kind, 7, 3, 1.0)
    models._views(m, w)["b2" if kind == "mlp" else "b"][1] = bad
    x, y = _as_arrays(m, data)
    value, _ = models._loss_grad(m, w, x, y, want_grad=want_grad)
    assert not math.isfinite(value)


# ---------------------------------------------------------------- temporaries

def _traced_peak(fn) -> int:
    fn()  # warm: lazy set-up inside numpy is not the call's own memory
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("call", ["local_sgd", "loss", "accuracy"])
def test_training_and_evaluation_allocate_no_full_size_copies(call):
    # the fedavg-sockets shape: d = 68,362, a 200-example shard, 5 steps of
    # batch 32, and evaluation on 2000 x 256 features; a step or an evaluation
    # that copies the parameters or the hidden layer a few extra times
    # overshoots these bounds (7.3 d and 2.0 n*h doubles when it did)
    m = ModelSpec(kind="mlp", input_dim=256, output_dim=10, hidden_dim=256,
                  init_seed=1)
    w = init_params(m)
    if call == "local_sgd":
        shard = synthetic_classification(200, 256, 10, seed=2)
        peak = _traced_peak(lambda: local_sgd(m, w, shard, iters=5, lr=0.05,
                                              batch_size=32, rng=4))
        assert peak <= 6 * m.dim * 8
    else:
        held_out = synthetic_classification(2000, 256, 10, seed=3)
        evaluate = loss if call == "loss" else accuracy
        peak = _traced_peak(lambda: evaluate(m, w, held_out))
        assert peak <= 1.25 * len(held_out) * m.hidden_dim * 8


# ---------------------------------------------------------------- eval batches

def _eval_case(kind, params):
    """A classifier, its parameters and a 60-example set; "zeros" ties every
    logit, so every predicted class is 0."""
    m = ModelSpec(kind, 6, 3, hidden_dim=4 if kind == "mlp" else 0, init_seed=1)
    w = init_params(m) if params == "init" else np.zeros(m.dim)
    return m, w, synthetic_classification(60, 6, 3, seed=2)


@pytest.mark.parametrize("kind", ["logistic-regression", "mlp"])
@pytest.mark.parametrize("params", ["init", "zeros"])
@pytest.mark.parametrize("case", [
    "fresh", "after-loss", "after-loss-equal-bytes", "after-loss-other-params",
    "second-call", "other-model"])
def test_eval_batch_accuracy_equals_the_plain_call(kind, params, case):
    m, w, data = _eval_case(kind, params)
    batch = models._EvalBatch(m, data)
    # a model of the same dim with another layout: one hidden unit, c outputs
    other_model = ModelSpec("mlp", 6, (m.dim - 7) // 2, hidden_dim=1)
    assert other_model.dim == m.dim
    other_w = np.zeros(m.dim) if params == "init" else init_params(m)
    assert accuracy(m, other_w, data) != accuracy(m, w, data)
    evaluated = {"after-loss-equal-bytes": w.copy(),
                 "after-loss-other-params": other_w}.get(case, w)
    if case != "fresh":
        assert loss(m, evaluated, batch) == loss(m, evaluated, data)
        kept_w, classes = batch.predicted
        assert kept_w is evaluated
        assert np.array_equal(classes, predict(m, evaluated, data.features))
        if params == "zeros" and case != "after-loss-other-params":
            assert not classes.any()
    if case == "second-call":
        assert accuracy(m, w, batch) == accuracy(m, w, data)
        assert batch.predicted is None
    model = other_model if case == "other-model" else m
    assert accuracy(model, w, batch) == accuracy(model, w, data)
    assert batch.predicted is None


def test_eval_batch_is_filled_by_its_own_model_only():
    m, w, data = _eval_case("mlp", "init")
    batch = models._EvalBatch(m, data)
    other = ModelSpec("mlp", 6, 18, hidden_dim=1)
    assert loss(other, w, batch) == loss(other, w, data)
    assert batch.predicted is None
    regression = ModelSpec("linear-regression", 6, 1)
    targets = synthetic_regression(60, 6, seed=2)
    reg_batch = models._EvalBatch(regression, targets)
    loss(regression, init_params(regression), reg_batch)
    assert reg_batch.predicted is None


def test_eval_batch_adds_at_most_its_classes_to_the_evaluation_peak():
    # the shape and bound of test_training_and_evaluation_allocate_no_full_size
    # _copies, plus the n int64 classes that loss keeps for accuracy
    m = ModelSpec(kind="mlp", input_dim=256, output_dim=10, hidden_dim=256,
                  init_seed=1)
    w = init_params(m)
    held_out = synthetic_classification(2000, 256, 10, seed=3)

    def evaluate():
        batch = models._EvalBatch(m, held_out)
        return loss(m, w, batch), accuracy(m, w, batch)

    peak = _traced_peak(evaluate)
    n = len(held_out)
    assert peak <= 1.25 * n * m.hidden_dim * 8 + n * 8
