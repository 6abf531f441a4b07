"""Small deterministic models for desk-scale federated experiments.

Three differentiable models with analytic gradients: linear regression
(half mean squared error), softmax logistic regression, and a one-hidden-layer
tanh MLP with cross-entropy.  Parameters are a flat 1-D float64 vector laid
out by ``ModelSpec.layout``: named weight and bias groups, contiguous from 0,
whose sizes supply block boundaries for the projection partition.

``local_sgd`` runs the client-side loop: T steps of ``w <- w - lr * g_hat``
where ``g_hat`` averages ``accum`` sampled micro-batches, all sampling driven
by the package's own counter-based stream so runs are bit-reproducible.  It
returns the final parameters together with the transmitted quantity
``delta = w_start - w_end``, accumulated directly so a single full-batch step
yields ``delta == lr * grad`` without rounding detours.  Steps and
evaluations write into arrays they already own (the forward pass, the step,
the iterate) instead of allocating parameter- or batch-sized temporaries.
The classifiers' cross-entropy takes each row's max down the class axis of
one n x c copy and reads the n target logits by flat position; a loss
without a gradient shifts only those n values by the row normalisers.  Both
give the bits of the full row-wise log-softmax.

A server evaluates its model with ``loss`` and then ``accuracy`` on one
evaluation set.  Given the same private ``_EvalBatch``, a classifier's
``loss`` keeps the argmax of the logits it formed, and ``accuracy`` with the
same parameter array reads it, so the set goes through the network once.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    DivergedError,
    InvalidDimensionError,
    NumericError,
    ShapeMismatchError,
)
from .randbasis import RandomSeed, derive_subseed, trunc_gauss_stream, uniform_stream

MODEL_KINDS = ("linear-regression", "logistic-regression", "mlp")
OPTIMIZERS = ("sgd", "adam")

# data values are drawn from a standard normal truncated this many sigmas out
_DATA_TRUNC = 3.0


@dataclass(frozen=True)
class Dataset:
    """Column-major batch storage: features (n, p), targets (n,) or (n, m).

    Integer targets mark classification; float targets mark regression.
    """

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.features, dtype=np.float64)
        if x.ndim != 2:
            raise ShapeMismatchError("features must be a 2-D array")
        t = np.asarray(self.targets)
        t = t.astype(np.int64) if np.issubdtype(t.dtype, np.integer) \
            else t.astype(np.float64)
        if t.ndim not in (1, 2) or t.shape[0] != x.shape[0]:
            raise ShapeMismatchError(
                f"{t.shape[0] if t.ndim else 0} targets for {x.shape[0]} rows")
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "targets", t)

    def __len__(self) -> int:
        return int(self.features.shape[0])

    @property
    def num_features(self) -> int:
        return int(self.features.shape[1])

    @property
    def is_classification(self) -> bool:
        return np.issubdtype(self.targets.dtype, np.integer)

    def take(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.targets[indices])


@dataclass(frozen=True)
class ModelSpec:
    """Architecture + deterministic init seed; fixes the flat parameter layout."""

    kind: str
    input_dim: int
    output_dim: int
    hidden_dim: int = 0
    init_seed: RandomSeed = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1 or self.output_dim < 1:
            raise InvalidDimensionError("input_dim and output_dim must be >= 1")
        if self.kind == "mlp":
            if self.hidden_dim < 1:
                raise InvalidDimensionError("mlp needs hidden_dim >= 1")
        elif self.hidden_dim != 0:
            raise InvalidDimensionError(
                f"{self.kind} takes no hidden layer (hidden_dim must be 0)")
        if self.kind in ("logistic-regression", "mlp") and self.output_dim < 2:
            raise InvalidDimensionError("classification needs >= 2 classes")

    # the slab plan, layout and dim are derived from the fields once, on first
    # use; they are cached outside the fields, so equality, hash and repr see
    # the fields only, and __getstate__ keeps them out of pickles
    @cached_property
    def _slabs(self) -> tuple[tuple[str, int, int, tuple[int, ...], int], ...]:
        """(name, start, stop, shape, fan_in) of each parameter group.

        The one table of groups: its order is the layout order, and a fan-in
        of 0 marks a bias, which ``init_params`` leaves at zero.
        """
        p, c, h = self.input_dim, self.output_dim, self.hidden_dim
        if self.kind == "mlp":
            groups = (("w1", (p, h), p), ("b1", (h,), 0),
                      ("w2", (h, c), h), ("b2", (c,), 0))
        else:
            groups = (("w", (p, c), p), ("b", (c,), 0))
        out, off = [], 0
        for name, shape, fan_in in groups:
            size = math.prod(shape)
            out.append((name, off, off + size, shape, fan_in))
            off += size
        return tuple(out)

    @cached_property
    def layout(self) -> tuple[tuple[str, int, int], ...]:
        """Named (name, offset, size) parameter groups, contiguous from 0."""
        return tuple((name, start, stop - start)
                     for name, start, stop, _, _ in self._slabs)

    @cached_property
    def dim(self) -> int:
        return sum(size for _, _, size in self.layout)

    @property
    def block_dims(self) -> tuple[int, ...]:
        """Group sizes in layout order; the natural partition boundaries."""
        return tuple(size for _, _, size in self.layout)

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def init_params(model: ModelSpec) -> np.ndarray:
    """Truncated-normal weights with per-group 1/sqrt(fan_in) bound; zero biases."""
    vals = np.zeros(model.dim, dtype=np.float64)
    for g, (_, start, stop, _, fan_in) in enumerate(model._slabs):
        if fan_in == 0:
            continue
        sub = derive_subseed(model.init_seed, block=g)
        vals[start:stop] = trunc_gauss_stream(
            sub, stop - start, bound=1.0 / math.sqrt(fan_in))
    return vals


# ---------------------------------------------------------------- batches

class _CheckedBatch:
    """A batch whose (X, y) arrays ``_as_arrays`` validates once for ``model``.

    The first ``_as_arrays(model, batch)`` checks ``batch.data`` as for any
    batch and keeps the arrays; later calls return them unchanged.  A
    zeroth-order walk evaluates the loss thousands of times on one shard, so
    its evaluator passes one of these to every call.
    """

    __slots__ = ("model", "data", "arrays")

    def __init__(self, model: ModelSpec, data):
        self.model, self.data, self.arrays = model, data, None


class _EvalBatch(_CheckedBatch):
    """A ``_CheckedBatch`` whose ``predicted`` slot carries a classifier's
    ``(parameters, classes)`` from ``loss`` to ``accuracy``."""

    __slots__ = ("predicted",)

    def __init__(self, model: ModelSpec, data):
        super().__init__(model, data)
        self.predicted = None


def _as_arrays(model: ModelSpec, batch) -> tuple[np.ndarray, np.ndarray]:
    """A Dataset's (X, y) arrays, validated against ``model``."""
    if isinstance(batch, _CheckedBatch):
        if batch.model is not model:
            return _as_arrays(model, batch.data)
        if batch.arrays is None:
            batch.arrays = _as_arrays(model, batch.data)
        return batch.arrays
    x, y = batch.features, batch.targets
    if x.shape[0] == 0:
        raise InvalidDimensionError("empty batch")
    if x.shape[1] != model.input_dim:
        raise ShapeMismatchError(
            f"features have width {x.shape[1]}, model expects {model.input_dim}")
    if not np.all(np.isfinite(x)):
        raise NumericError("non-finite feature values")
    if model.kind == "linear-regression":
        y = np.asarray(y, dtype=np.float64).reshape(x.shape[0], -1)
        if y.shape[1] != model.output_dim:
            raise ShapeMismatchError(
                f"targets have width {y.shape[1]}, model expects {model.output_dim}")
        if not np.all(np.isfinite(y)):
            raise NumericError("non-finite target values")
    else:
        y = np.asarray(y)
        if y.ndim != 1:
            raise ShapeMismatchError("class targets must be a flat index vector")
        if not np.issubdtype(y.dtype, np.integer):
            if _not_whole(y).any():
                raise ShapeMismatchError("class targets must be whole numbers")
            y = y.astype(np.int64)
        if y.min() < 0 or y.max() >= model.output_dim:
            raise ShapeMismatchError(
                f"class index outside [0, {model.output_dim})")
    return x, y


def _not_whole(values: np.ndarray) -> np.ndarray:
    """Mask of the float values that are not finite whole numbers."""
    return ~np.isfinite(values) | (values != np.trunc(values))


def _check_params(model: ModelSpec, w: np.ndarray) -> np.ndarray:
    v = np.asarray(w, dtype=np.float64)
    if v.shape != (model.dim,):
        raise ShapeMismatchError(f"{v.shape} parameters, model expects ({model.dim},)")
    if not np.isfinite(v).all():
        raise NumericError("non-finite parameter values")
    return v


def _views(model: ModelSpec, v: np.ndarray) -> dict[str, np.ndarray]:
    return {name: v[start:stop].reshape(shape)
            for name, start, stop, shape, _ in model._slabs}


def _forward(model: ModelSpec, g: dict[str, np.ndarray],
             x: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """(tanh hidden layer or None, outputs), both fresh arrays the caller owns."""
    if model.kind != "mlp":
        out = x @ g["w"]
        out += g["b"]
        return None, out
    hidden = x @ g["w1"]
    hidden += g["b1"]
    np.tanh(hidden, out=hidden)
    out = hidden @ g["w2"]
    out += g["b2"]
    return hidden, out


def _loss_grad(model: ModelSpec, v: np.ndarray, x: np.ndarray, y: np.ndarray,
               want_grad: bool, keep: _EvalBatch | None = None
               ) -> tuple[float, np.ndarray | None]:
    # overflow to inf is legal here; the training loop turns it into a
    # diverged error instead of a warning
    with np.errstate(over="ignore", invalid="ignore"):
        return _loss_grad_raw(model, v, x, y, want_grad, keep)


def _loss_grad_raw(model: ModelSpec, v: np.ndarray, x: np.ndarray, y: np.ndarray,
                   want_grad: bool, keep: _EvalBatch | None = None
                   ) -> tuple[float, np.ndarray | None]:
    n = x.shape[0]
    g = _views(model, v)
    # every group slab is assigned whole below, so no zero fill is needed
    out = np.empty_like(v) if want_grad else None
    go = _views(model, out) if want_grad else None
    hidden, z = _forward(model, g, x)

    if model.kind == "linear-regression":
        z -= y  # the residual, (n, c)
        loss = 0.5 * float((z * z).sum()) / n
        if want_grad:
            go["w"][:] = x.T @ z / n
            go["b"][:] = z.sum(axis=0) / n
        return loss, out

    if keep is not None:  # predict's classes, taken before the shift below
        keep.predicted = (v, np.argmax(z, axis=1))
    # log-softmax cross-entropy over the fresh row-major logits z.  The row
    # max comes down a class-major copy, c long reductions instead of n short
    # ones; a max is exact, so the order moves no bit.  The normalisers stay
    # row sums over z, and each target logit is read at its flat position
    z -= np.maximum.reduce(z.T.copy(), axis=0)[:, None]
    log_norm = np.exp(z).sum(axis=1)
    np.log(log_norm, out=log_norm)
    flat = z.reshape(-1)
    at = np.arange(0, z.size, z.shape[1]) + y
    if not want_grad:
        picked = flat[at]
        picked -= log_norm  # the n target log-probabilities only
        return -float(picked.sum()) / n, out
    z -= log_norm[:, None]
    loss = -float(flat[at].sum()) / n
    gz = np.exp(z, out=z)
    flat[at] -= 1.0
    gz /= n
    if model.kind == "logistic-regression":
        np.matmul(x.T, gz, out=go["w"])
        go["b"][:] = gz.sum(axis=0)
        return loss, out
    np.matmul(hidden.T, gz, out=go["w2"])
    go["b2"][:] = gz.sum(axis=0)
    # tanh' = 1 - hidden^2, formed over hidden once nothing else reads it
    np.multiply(hidden, hidden, out=hidden)
    np.subtract(1.0, hidden, out=hidden)
    gh = gz @ g["w2"].T
    gh *= hidden
    np.matmul(x.T, gh, out=go["w1"])
    go["b1"][:] = gh.sum(axis=0)
    return loss, out


def loss(model: ModelSpec, w, batch) -> float:
    """Mean per-example loss over the batch.

    On an ``_EvalBatch`` of this model, a classifier also leaves the batch its
    predicted classes, keyed on the parameter array it evaluated, for
    ``accuracy``: the argmax of the logits this call forms anyway.
    """
    v = _check_params(model, w)
    x, y = _as_arrays(model, batch)
    keep = batch if isinstance(batch, _EvalBatch) and batch.model is model else None
    value, _ = _loss_grad(model, v, x, y, want_grad=False, keep=keep)
    return value


def grad(model: ModelSpec, w, batch) -> np.ndarray:
    """Analytic gradient of ``loss``: a flat float64 array as long as w."""
    v = _check_params(model, w)
    x, y = _as_arrays(model, batch)
    _, g = _loss_grad(model, v, x, y, want_grad=True)
    return g


def predict(model: ModelSpec, w, features: np.ndarray) -> np.ndarray:
    """Regression outputs, or argmax class indices for the classifiers."""
    v = _check_params(model, w)
    x = np.asarray(features, dtype=np.float64)
    squeeze = x.ndim == 1
    x = np.atleast_2d(x)
    if x.shape[1] != model.input_dim:
        raise ShapeMismatchError(
            f"features have width {x.shape[1]}, model expects {model.input_dim}")
    _, out = _forward(model, _views(model, v), x)
    if model.kind != "linear-regression":
        out = np.argmax(out, axis=1)
    return out[0] if squeeze else out


def accuracy(model: ModelSpec, w, dataset: Dataset) -> float:
    """Fraction of correctly classified examples.

    Given an ``_EvalBatch``, it takes (and clears) the classes ``loss`` left
    there when ``w`` is the very array that call evaluated and the batch is
    this model's, and predicts afresh otherwise.  The key is the array
    object, not its bytes, which would need a copy of the d parameters; so
    ``w`` must not change in between, as in ``federation.apply_replies``,
    which evaluates a fresh array that nothing else holds.
    """
    if model.kind == "linear-regression":
        raise ConfigError("accuracy is a classification metric")
    if isinstance(dataset, _EvalBatch):
        kept, dataset.predicted = dataset.predicted, None
        if kept is not None and kept[0] is w and dataset.model is model:
            return float(np.mean(kept[1] == dataset.data.targets))
        dataset = dataset.data
    return float(np.mean(predict(model, w, dataset.features) == dataset.targets))


# ---------------------------------------------------------------- training

def _batch_indices(rng: RandomSeed, position: int, batch_size: int,
                   n_data: int) -> np.ndarray:
    u = uniform_stream(rng, batch_size, start=position)
    return np.minimum((u * n_data).astype(np.int64), n_data - 1)


def local_sgd(model: ModelSpec, w: np.ndarray, dataset: Dataset, iters: int,
              lr: float, batch_size: int, accum: int = 1, rng: RandomSeed = 0,
              optimizer: str = "sgd") -> tuple[np.ndarray, np.ndarray]:
    """T deterministic local steps; returns (w_end, delta = w_start - w_end).

    Each step averages ``accum`` micro-batch gradients taken at the current
    iterate.  A batch_size covering the dataset uses every example once per
    micro-batch (full-batch step) instead of sampling.  The delta is the
    accumulated sum of steps, so one full-batch sgd step gives
    ``delta == lr * grad(w_start)`` bit-exactly.
    """
    if iters < 1:
        raise InvalidDimensionError("need at least one local iteration")
    if batch_size < 1 or accum < 1:
        raise InvalidDimensionError("batch_size and accum must be >= 1")
    if not (math.isfinite(lr) and lr >= 0.0):
        raise InvalidDimensionError("learning rate must be finite and >= 0")
    if optimizer not in OPTIMIZERS:
        raise ConfigError(f"unknown optimizer {optimizer!r}; options {OPTIMIZERS}")
    if len(dataset) == 0:
        raise InvalidDimensionError("empty dataset")

    v0 = _check_params(model, w)
    x_all, y_all = _as_arrays(model, dataset)
    n = x_all.shape[0]
    full_batch = batch_size >= n

    acc = np.zeros_like(v0)
    cur = v0.copy()
    if optimizer == "adam":
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        m1 = np.zeros_like(v0)
        m2 = np.zeros_like(v0)

    position = 0
    for t in range(iters):
        for a in range(accum):
            if full_batch:
                xb, yb = x_all, y_all
            else:
                idx = _batch_indices(rng, position, batch_size, n)
                position += batch_size
                xb, yb = x_all[idx], y_all[idx]
            step_loss, gb = _loss_grad(model, cur, xb, yb, want_grad=True)
            if not math.isfinite(step_loss):
                raise DivergedError("local loss became non-finite", iteration=t)
            if a == 0:
                ghat = gb
            else:
                ghat += gb
        if accum > 1:
            ghat /= accum

        if optimizer == "sgd":
            step = np.multiply(ghat, lr, out=ghat)
        else:
            m1 = beta1 * m1 + (1.0 - beta1) * ghat
            m2 = beta2 * m2 + (1.0 - beta2) * ghat * ghat
            mhat = m1 / (1.0 - beta1 ** (t + 1))
            vhat = m2 / (1.0 - beta2 ** (t + 1))
            step = lr * mhat / (np.sqrt(vhat) + eps)
        if not np.all(np.isfinite(step)):
            raise DivergedError("local step became non-finite", iteration=t)
        # ghat starts as the first gradient, not as 0.0 + it, so it may hold
        # -0.0; acc starts at +0.0 and a round-to-nearest sum is -0.0 only
        # when both terms are, so acc and cur never see that sign
        acc += step
        np.subtract(v0, acc, out=cur)

    return cur, acc


# ---------------------------------------------------------------- data

def _normal_values(seed: RandomSeed, n: int) -> np.ndarray:
    return trunc_gauss_stream(seed, n, bound=_DATA_TRUNC)


def synthetic_regression(n: int, input_dim: int, output_dim: int = 1,
                         seed: RandomSeed = 0, noise_std: float = 0.1) -> Dataset:
    """Linear ground truth plus gaussian label noise, fully seed-determined."""
    sx = derive_subseed(seed, block=0)
    sw = derive_subseed(seed, block=1)
    sn = derive_subseed(seed, block=2)
    x = _normal_values(sx, n * input_dim).reshape(n, input_dim)
    w_true = _normal_values(sw, input_dim * output_dim).reshape(input_dim, output_dim)
    w_true /= math.sqrt(input_dim)
    y = x @ w_true + noise_std * _normal_values(sn, n * output_dim).reshape(n, output_dim)
    return Dataset(x, y[:, 0] if output_dim == 1 else y)


def synthetic_classification(n: int, input_dim: int, num_classes: int,
                             seed: RandomSeed = 0, margin_noise: float = 0.5) -> Dataset:
    """Labels from a hidden linear scorer with pre-argmax noise."""
    if num_classes < 2:
        raise InvalidDimensionError("need at least two classes")
    sx = derive_subseed(seed, block=0)
    sw = derive_subseed(seed, block=1)
    sn = derive_subseed(seed, block=2)
    x = _normal_values(sx, n * input_dim).reshape(n, input_dim)
    w_true = _normal_values(sw, input_dim * num_classes).reshape(input_dim, num_classes)
    scores = x @ w_true / math.sqrt(input_dim) \
        + margin_noise * _normal_values(sn, n * num_classes).reshape(n, num_classes)
    return Dataset(x, np.argmax(scores, axis=1).astype(np.int64))


def save_csv(dataset: Dataset, path: str) -> None:
    """Columnar layout: f0..f{p-1}, target (single-target datasets only)."""
    if dataset.targets.ndim != 1:
        raise ShapeMismatchError("csv export needs a single target column")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(dataset.num_features)] + ["target"])
        for i in range(len(dataset)):
            row = [repr(float(v)) for v in dataset.features[i]]
            t = dataset.targets[i]
            row.append(str(int(t)) if dataset.is_classification else repr(float(t)))
            writer.writerow(row)


def load_csv(path: str, classification: bool = False) -> Dataset:
    """Read the ``save_csv`` layout; last column is the target."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2 or len(rows[0]) < 2:
        raise ConfigError(f"{path}: need a header row plus data rows", line=1)
    body = []
    for ln, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise ConfigError(f"{path}: ragged row", line=ln)
        try:
            body.append([float(v) for v in row])
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}", line=ln) from exc
    arr = np.asarray(body, dtype=np.float64)
    targets = arr[:, -1]
    if classification:
        bad = np.flatnonzero(_not_whole(targets))
        if bad.size:
            first = float(targets[bad[0]])
            raise ConfigError(f"{path}: class target {first!r} is not a whole "
                              "number", line=int(bad[0]) + 2)
        targets = targets.astype(np.int64)
    return Dataset(arr[:, :-1], targets)


def save_npz(dataset: Dataset, path: str) -> None:
    np.savez_compressed(path, features=dataset.features, targets=dataset.targets)


def load_npz(path: str) -> Dataset:
    with np.load(path) as data:
        return Dataset(data["features"], data["targets"])
