"""Desk-scale ablation series, emitted as plain CSV for external plotting.

Four named series compare the seeded-subspace path against zeroth-order
transport on synthetic tasks small enough to run on a laptop:

* ``accuracy-vs-bases``: reconstruction cosine vs the basis budget K.
* ``drift-immunity``: reconstruction cosine vs the local step count T.
* ``allocation-ablation``: reconstruction error under uniform vs norm-scaled
  per-block budgets.
* ``rounds-curve``: global loss per round for all four federation methods on
  a shared toy regression task.

The first two share one construction.  A client runs T plain gradient-descent
steps on f(x) = sum_i sin^2(x_i) and wants the server to know its accumulated
update delta_T = w_0 - w_T.  The subspace path projects delta_T itself, so its
accuracy depends only on d and K.  A zeroth-order client never sees delta_T;
it can only probe loss differences around w_0, so it transports the K-probe
gradient estimate instead.  The curvature of the trajectory rotates delta_T
away from the round-start gradient as T grows, which is exactly the drift the
step-count series measures.

Every series is a pure function of its seed. Rows hold only deterministic
quantities; nothing time- or host-dependent is emitted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidDimensionError
from .federation import FedConfig, run_experiment
from .models import ModelSpec, synthetic_regression
from .normal import norm_ppf
from .projection import (
    BlockPartition,
    UpdateVector,
    allocate_budgets,
    cosine_similarity,
    project,
    reconstruct,
)
from .randbasis import RandomSeed, _open_unit, derive_subseed, rho, uniform_stream
from .zoo import ZOConfig, zo_gradient

SERIES_NAMES = ("accuracy-vs-bases", "drift-immunity", "allocation-ablation",
                "rounds-curve")

# derivation lanes private to this module's draws (distinct per purpose)
_LANE_TARGET = 1
_LANE_BASES = 2
_LANE_BLOCK = 3


@dataclass(frozen=True)
class Series:
    """One plottable table: a header row plus numeric rows."""

    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    seed: RandomSeed

    def column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name)
        return np.array([row[idx] for row in self.rows])


def _normal_vec(seed: RandomSeed, n: int) -> np.ndarray:
    return norm_ppf(_open_unit(uniform_stream(seed, n)))


def _sum_sin_sq(x: np.ndarray) -> float:
    return float(np.sum(np.sin(x) ** 2))


def _sum_sin_sq_grad(x: np.ndarray) -> np.ndarray:
    return np.sin(2.0 * x)


def _descent_delta(w0: np.ndarray, lr: float, steps: int) -> np.ndarray:
    """Accumulated update of `steps` full-gradient descent steps."""
    w = w0.copy()
    for _ in range(steps):
        w -= lr * _sum_sin_sq_grad(w)
    return w0 - w


def accuracy_vs_bases(dim: int = 10_000,
                      budgets: tuple[int, ...] = (64, 128, 256, 512),
                      local_steps: int = 10, lr: float = 0.2,
                      epsilon: float = 0.1, trials: int = 20,
                      seed: RandomSeed = 2024) -> Series:
    """Reconstruction cosine vs K, subspace transport against K-probe ZO."""
    if trials < 1:
        raise InvalidDimensionError("need at least one trial")
    rows = []
    for k in budgets:
        part = BlockPartition((dim,), (k,))
        sub, zo = [], []
        for t in range(trials):
            w0 = _normal_vec(derive_subseed(seed, round_index=t + 1,
                                            basis_index=_LANE_TARGET), dim)
            delta = _descent_delta(w0, lr, local_steps)
            basis_seed = derive_subseed(seed, round_index=t + 1,
                                        basis_index=_LANE_BASES)
            tagged = UpdateVector(values=delta, partition=part)
            sub.append(cosine_similarity(
                reconstruct(project(tagged, basis_seed), part), delta))
            zcfg = ZOConfig(epsilon=epsilon, num_perturbations=k,
                            seed=basis_seed)
            est = zo_gradient(_sum_sin_sq, w0, zcfg)
            zo.append(cosine_similarity(est, delta))
        rows.append((float(k), float(np.mean(sub)), float(np.mean(zo))))
    return Series(name="accuracy-vs-bases",
                  columns=("bases", "subspace_cosine", "zeroth_order_cosine"),
                  rows=tuple(rows), seed=seed)


def drift_immunity(dim: int = 50_000, bases: int = 500,
                   steps: tuple[int, ...] = (1, 5, 10, 20, 35, 50),
                   lr: float = 0.2, epsilon: float = 0.1, trials: int = 1,
                   seed: RandomSeed = 2024) -> Series:
    """Reconstruction cosine vs T: projection is flat, round-start ZO drifts."""
    if trials < 1:
        raise InvalidDimensionError("need at least one trial")
    part = BlockPartition((dim,), (bases,))
    sums = {t: [0.0, 0.0] for t in steps}
    for trial in range(trials):
        w0 = _normal_vec(derive_subseed(seed, round_index=trial + 1,
                                        basis_index=_LANE_TARGET), dim)
        basis_seed = derive_subseed(seed, round_index=trial + 1,
                                    basis_index=_LANE_BASES)
        zcfg = ZOConfig(epsilon=epsilon, num_perturbations=bases,
                        seed=basis_seed)
        # the ZO estimate is probed once at w0; it cannot depend on T
        zo_est = zo_gradient(_sum_sin_sq, w0, zcfg)
        for t in steps:
            delta = _descent_delta(w0, lr, t)
            tagged = UpdateVector(values=delta, partition=part)
            recon = reconstruct(project(tagged, basis_seed), part)
            sums[t][0] += cosine_similarity(recon, delta)
            sums[t][1] += cosine_similarity(zo_est, delta)
    rows = tuple((float(t), sums[t][0] / trials, sums[t][1] / trials)
                 for t in steps)
    return Series(name="drift-immunity",
                  columns=("local_steps", "subspace_cosine",
                           "zeroth_order_cosine"),
                  rows=rows, seed=seed)


def allocation_ablation(block_dims: tuple[int, ...] = (256, 256, 256, 256),
                        block_norms: tuple[float, ...] = (10.0, 1.0, 1.0, 1.0),
                        total_bases: int = 32, trials: int = 100,
                        seed: RandomSeed = 2024) -> Series:
    """Per-trial reconstruction error, uniform vs norm-scaled budgets."""
    if len(block_dims) != len(block_norms):
        raise InvalidDimensionError("one norm per block")
    if trials < 1:
        raise InvalidDimensionError("need at least one trial")
    uniform = BlockPartition(
        block_dims, allocate_budgets([rho(d) for d in block_dims], block_dims,
                                     total_bases))
    scaled = BlockPartition(
        block_dims, allocate_budgets(list(block_norms), block_dims, total_bases))

    rows = []
    for t in range(trials):
        pieces = []
        for l, (d, norm) in enumerate(zip(block_dims, block_norms)):
            v = _normal_vec(derive_subseed(seed, client=l + 1,
                                           round_index=t + 1,
                                           basis_index=_LANE_BLOCK), d)
            pieces.append(v * (norm / float(np.linalg.norm(v))))
        delta = np.concatenate(pieces)
        scale = float(np.linalg.norm(delta))
        basis_seed = derive_subseed(seed, round_index=t + 1,
                                    basis_index=_LANE_BASES)
        errs = []
        for part in (uniform, scaled):
            tagged = UpdateVector(values=delta, partition=part)
            recon = reconstruct(project(tagged, basis_seed), part)
            errs.append(float(np.linalg.norm(recon - delta)) / scale)
        rows.append((float(t), errs[0], errs[1]))
    return Series(name="allocation-ablation",
                  columns=("trial", "uniform_error", "norm_sqrt_error"),
                  rows=tuple(rows), seed=seed)


def rounds_curve(rounds: int = 30, seed: RandomSeed = 21) -> Series:
    """Global loss per round for every method on a shared toy regression."""
    model = ModelSpec(kind="linear-regression", input_dim=15, output_dim=1,
                      init_seed=3)
    data = synthetic_regression(256, 15, seed=9, noise_std=0.1)
    clients = [data] * 4  # homogeneous: every client holds the full set
    columns = ["round"]
    per_method = []
    for method in ("subspace", "fedavg", "fedzo", "fedkseed"):
        cfg = FedConfig(num_clients=4, rounds=rounds, local_iters=10,
                        total_bases=4, local_lr=0.08, root_seed=seed,
                        batch_size=256, method=method)
        records = run_experiment(cfg, model, clients, data)
        columns.append(f"{method}_loss")
        per_method.append([r.global_loss for r in records])
    rows = tuple((float(r), *(series[r] for series in per_method))
                 for r in range(rounds))
    return Series(name="rounds-curve", columns=tuple(columns), rows=rows,
                  seed=seed)


_BUILDERS = {
    "accuracy-vs-bases": accuracy_vs_bases,
    "drift-immunity": drift_immunity,
    "allocation-ablation": allocation_ablation,
    "rounds-curve": rounds_curve,
}


def build_series(name: str, seed: RandomSeed | None = None,
                 trials: int | None = None) -> Series:
    """Named series with optional seed/trial overrides."""
    if name not in _BUILDERS:
        raise ConfigError(
            f"unknown series {name!r}; options {SERIES_NAMES}")
    kwargs = {}
    if seed is not None:
        kwargs["seed"] = seed
    if trials is not None:
        if name == "rounds-curve":
            kwargs["rounds"] = trials
        else:
            kwargs["trials"] = trials
    return _BUILDERS[name](**kwargs)


def format_series_csv(series: Series) -> str:
    """Stable text form: header plus repr-exact floats, newline-terminated."""
    lines = [",".join(series.columns)]
    for row in series.rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


RECORD_COLUMNS = ("round", "loss", "metric", "cumulative_upload",
                  "cumulative_grad_evals", "cumulative_download")


def format_records_csv(records) -> str:
    """Round records as CSV; only run-deterministic columns, so two runs of
    one config produce byte-identical text (wall times go to the summary)."""
    lines = [",".join(RECORD_COLUMNS)]
    for r in records:
        lines.append(",".join((
            str(r.round_index),
            repr(float(r.global_loss)),
            repr(float(r.eval_metric)),
            str(r.cumulative_upload),
            str(r.cumulative_grad_evals),
            str(r.cumulative_download),
        )))
    return "\n".join(lines) + "\n"
