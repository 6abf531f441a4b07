"""Zeroth-order baselines built on the same seeded directions.

Both baselines estimate directional derivatives from forward differences of a
scalar loss evaluator along regenerable random directions:

* ``zo_gradient``: one ascending walk over K directions at a fixed point w.
  Row k is generated once; it forms the probe, gives the scalar g_k, and is
  added into the running sum, which ends as (1/K) sum_k g_k v_k.  Transmitting
  that vector costs O(d).
* ``fedkseed_local_step``: K sequential one-direction steps
  ``w <- w - lr * g_k * v_k``; the (seed, scalars) log replays bit-exactly.

Each walk keeps its direction and probe point in one buffer for the whole
walk, so ``loss_fn`` must not keep the arrays it is given.

Directions here span the whole vector (truncation bound 1/sqrt(d_total)),
matching the flat geometry of the methods being reproduced; block budgets of
a partition are not consulted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidDimensionError, NumericError
from .randbasis import RandomSeed, sample_basis

LossFn = Callable[[np.ndarray], float]


@dataclass(frozen=True)
class ZOConfig:
    epsilon: float
    num_perturbations: int
    seed: RandomSeed

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise InvalidDimensionError("epsilon must be a positive finite float")
        if self.num_perturbations < 1:
            raise InvalidDimensionError("need at least one perturbation")


@dataclass(frozen=True)
class ScalarGrads:
    """Directional-derivative estimates along the directions of one seed."""

    seed: RandomSeed
    values: np.ndarray  # float64, one scalar per direction

    @property
    def count(self) -> int:
        return int(self.values.shape[0])


def _finite_loss(loss_fn: LossFn, w: np.ndarray, index: int | None) -> float:
    """``loss_fn(w)``; a non-finite loss or point raises with ``index``."""
    try:
        value, cause = float(loss_fn(w)), None
    except NumericError as err:  # e.g. the model rejects non-finite parameters
        value, cause = math.nan, err
    if not math.isfinite(value):
        where = "base point" if index is None else f"perturbation {index}"
        raise NumericError(f"loss evaluator returned non-finite value at {where}",
                           index=index) from cause
    return value


def zo_gradient(loss_fn: LossFn, w: np.ndarray, cfg: ZOConfig) -> np.ndarray:
    """Forward-difference estimate (1/K) sum_k g_k v_k: exactly K+1 loss calls.

    g_k = (loss(w + eps v_k) - loss(w)) / eps, summed in ascending k and
    divided by K once at the end.
    """
    w = np.asarray(w, dtype=np.float64)
    d = w.shape[0]
    base = _finite_loss(loss_fn, w, None)
    acc = np.zeros(d, dtype=np.float64)
    v = np.empty(d, dtype=np.float64)
    probe = np.empty(d, dtype=np.float64)
    for k in range(cfg.num_perturbations):
        v[...] = sample_basis(cfg.seed, d, k).values
        np.multiply(v, cfg.epsilon, out=probe)
        probe += w  # fl(eps * v) + w, the same sum as w + fl(eps * v)
        g = (_finite_loss(loss_fn, probe, k) - base) / cfg.epsilon
        acc += np.multiply(v, g, out=probe)
    acc /= cfg.num_perturbations
    return acc


def fedkseed_local_step(w: np.ndarray, loss_fn: LossFn, cfg: ZOConfig,
                        lr: float) -> tuple[np.ndarray, ScalarGrads]:
    """K sequential one-direction steps from a single transmitted seed.

    Step k probes the current iterate along direction k and immediately moves
    against the estimated slope.  Returns the new iterate plus the scalar log;
    replay_scalar_log applied to the same start reproduces it bit-exactly.
    The iterate, the direction and the probe point each live in one buffer
    for the whole walk, so ``loss_fn`` must not keep the arrays it is given.
    """
    w = np.array(w, dtype=np.float64)
    d = w.shape[0]
    vals = np.empty(cfg.num_perturbations, dtype=np.float64)
    v = np.empty(d, dtype=np.float64)
    probe = np.empty(d, dtype=np.float64)
    for k in range(cfg.num_perturbations):
        v[...] = sample_basis(cfg.seed, d, k).values
        base = _finite_loss(loss_fn, w, k)
        np.multiply(v, cfg.epsilon, out=probe)
        probe += w  # fl(eps * v) + w, the same sum as w + fl(eps * v)
        shifted = _finite_loss(loss_fn, probe, k)
        g = (shifted - base) / cfg.epsilon
        vals[k] = g
        w -= np.multiply(v, lr * g, out=probe)
    return w, ScalarGrads(seed=cfg.seed, values=vals)


def replay_scalar_log(w: np.ndarray, log: ScalarGrads, lr: float) -> np.ndarray:
    """Re-apply a fedkseed log to a fresh copy of w (no loss evaluations).

    The direction and its scaled step share one buffer for the whole walk.
    """
    w = np.array(w, dtype=np.float64)
    d = w.shape[0]
    v = np.empty(d, dtype=np.float64)
    for k in range(log.count):
        v[...] = sample_basis(log.seed, d, k).values
        w -= np.multiply(v, lr * float(log.values[k]), out=v)
    return w
