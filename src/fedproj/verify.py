"""Empirical checks for the statistical claims behind the protocol.

Each check measures a quantity the theory pins down (an expectation, a
bound, a rate) and compares it against the stated target at desk scale.
``run_battery`` executes every check with one seed; ``run_check`` runs a
single named check from a ``TheoryCheckConfig``.

One check is expected to fail at its stated tolerance: the Monte Carlo
mean test for reconstruction unbiasedness.  The estimator's own noise
floor sqrt((d-1)/(K*M)) exceeds the tolerance at the stated sizes, so no
correct implementation can pass it; the report says so in its detail.
"""

from __future__ import annotations

import inspect
import math
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from .errors import ConfigError
from .federation import FedConfig, account_costs, partition_data, run_experiment
from .models import ModelSpec, synthetic_regression
from .projection import (BlockPartition, UpdateVector, block_cost,
                         cosine_similarity, project, reconstruct)
from .randbasis import RandomSeed, basis_tile, derive_subseed, rho
from .repro import (_normal_vec, accuracy_vs_bases, allocation_ablation,
                    drift_immunity, format_records_csv)
from .socketmode import run_experiment_sockets
from .zoo import ZOConfig, zo_gradient

# a check that runs one size takes dims and budgets under these names
_ONE_SIZE = {"dims": "dim", "budgets": "budget"}


@dataclass(frozen=True)
class TheoryCheckConfig:
    """One named check, its seed, and the overrides it runs with.

    An unset (None) override takes the default that the check declares as a
    keyword parameter of its ``_check_*`` function.  Construction raises
    ``ConfigError`` for an override the check does not read, for more than
    one ``dims`` or ``budgets`` entry on a check that runs one size, and for
    ``error-bound`` dims and budgets of unequal length.  Every override moves
    some check's measurement or verdict.
    """

    which: str
    seed: RandomSeed = 2024
    trials: int | None = None
    dims: tuple[int, ...] | None = None
    budgets: tuple[int, ...] | None = None
    tolerance: float | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if self.which not in CHECK_NAMES:
            known = ", ".join(CHECK_NAMES)
            raise ConfigError(f"unknown check {self.which!r}; expected one of {known}")
        if self.trials is not None and not _is_count(self.trials):
            raise ConfigError(
                f"trials must be an integer of at least 1, got {self.trials!r}")
        for name in ("tolerance", "epsilon"):
            value = getattr(self, name)
            if value is not None and not _is_positive_real(value):
                raise ConfigError(
                    f"{name} must be a finite real number > 0, got {value!r}")
        for name in ("dims", "budgets"):
            vals = getattr(self, name)
            if vals is None:
                continue
            if not isinstance(vals, (tuple, list)) or len(vals) == 0 \
                    or not all(map(_is_count, vals)):
                raise ConfigError(
                    f"{name} must be a non-empty tuple of integers of at least "
                    f"1, got {vals!r}")
        _check_arguments(self)


def _is_count(value) -> bool:
    """A Python or numpy integer (not a bool, not a float) of at least 1."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) \
        and value >= 1


def _is_positive_real(value) -> bool:
    """A Python or numpy real (not a bool) that is finite and above 0."""
    return isinstance(value, (int, float, np.integer, np.floating)) \
        and not isinstance(value, bool) and math.isfinite(value) and value > 0


def _check_arguments(cfg: TheoryCheckConfig) -> dict:
    """The overrides ``cfg`` sets, as keyword arguments of its check."""
    params = inspect.signature(_CHECKS[cfg.which]).parameters
    kwargs = {}
    for f in fields(cfg)[2:]:  # the overrides: every field after which, seed
        value, one = getattr(cfg, f.name), _ONE_SIZE.get(f.name)
        if value is None:
            continue
        if f.name in params:
            kwargs[f.name] = value
        elif one not in params:
            raise ConfigError(f"check {cfg.which} does not read {f.name}; it "
                              f"reads {', '.join(list(params)[1:]) or 'none'}")
        elif len(value) > 1:
            raise ConfigError(f"check {cfg.which} runs one size; {f.name} has "
                              f"{len(value)} entries")
        else:
            kwargs[one] = value[0]
    if "dims" in params and "budgets" in params:  # error-bound pairs them
        dims, budgets = (len(kwargs.get(n, params[n].default))
                         for n in ("dims", "budgets"))
        if dims != budgets:
            raise ConfigError(f"check {cfg.which} pairs dims with budgets; got "
                              f"{dims} dims and {budgets} budgets")
    return kwargs


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check: a measured statistic against its target."""

    name: str
    passed: bool
    measured: float
    bound: float
    detail: str
    seed: RandomSeed
    runtime_s: float = field(default=0.0, compare=False)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"[{tag}] {self.name}: measured {self.measured:.6g} vs "
                f"target {self.bound:.6g} ({self.detail}) "
                f"[seed={self.seed}, {self.runtime_s:.1f}s]")


def _rel_err(recon: np.ndarray, delta: np.ndarray) -> float:
    return float(np.linalg.norm(recon - delta) / np.linalg.norm(delta))


def _check_unbiased(root: RandomSeed, dim=256, budget=16, trials=20_000,
                    tolerance=0.02):
    """Monte Carlo mean of reconstructions against the original update.

    The mean over M seeds of an unbiased estimator still carries noise
    ~sqrt((d-1)/(K*M)) in relative norm, which at the default sizes is
    above the default tolerance, so this check fails by construction.
    """
    d, k = dim, budget
    part = BlockPartition((d,), (k,))
    delta = _normal_vec(derive_subseed(root, basis_index=1), d)
    update = UpdateVector(values=delta, partition=part)
    acc = np.zeros(d, dtype=np.float64)
    for m in range(trials):
        seed = derive_subseed(root, round_index=m + 1, basis_index=2)
        acc += reconstruct(project(update, seed), part)
    measured = _rel_err(acc / trials, delta)
    floor = math.sqrt((d - 1) / (k * trials))
    detail = (f"relative norm error of the mean over {trials} seeds at "
              f"d={d}, K={k}; estimator noise floor is ~{floor:.4f}")
    if floor > tolerance:
        detail += (f", so a tolerance of {tolerance:g} is unreachable "
                   f"at this sample size")
    return measured <= tolerance, measured, tolerance, detail


def _check_error_bound(root: RandomSeed, dims=(1024, 4096, 16384),
                       budgets=(32, 64, 128), trials=200):
    """Mean reconstruction error stays under the concentration bound."""
    worst = 0.0
    violations = 0
    parts = []
    for i, (d, k) in enumerate(zip(dims, budgets)):
        t = 2.0 * math.log(2.0 * d) / (rho(d) * k)
        bound = max(2.0 * math.sqrt(t), t)
        part = BlockPartition((d,), (k,))
        delta = _normal_vec(derive_subseed(root, client=i + 1, basis_index=1), d)
        update = UpdateVector(values=delta, partition=part)
        errs = []
        for m in range(trials):
            seed = derive_subseed(root, client=i + 1, round_index=m + 1,
                                  basis_index=2)
            errs.append(_rel_err(reconstruct(project(update, seed), part),
                                 delta))
        mean = float(np.mean(errs))
        worst = max(worst, mean / bound)
        violations += int(np.sum(np.asarray(errs) > bound))
        parts.append(f"d={d},K={k}: {mean:.3f}<={bound:.3f}")
    detail = (f"mean relative error vs bound over {trials} seeds, and "
              f"{violations} single-seed violations; " + "; ".join(parts))
    return worst <= 1.0 and violations == 0, worst, 1.0, detail


def _check_zo_connection(root: RandomSeed, dim=512, budget=32, trials=100,
                         epsilon=(0.1, 0.01)):
    """Zeroth-order estimate tracks the projected gradient within beta*eps/2.

    On a beta-smooth quadratic the forward-difference scalar along a unit
    direction differs from the directional derivative by at most beta*eps/2,
    and averaging over the shared basis preserves that gap in norm.  The gap
    and its limit both scale with beta, so their ratio does not depend on it;
    beta stays fixed at 1.
    """
    d, k, beta = dim, budget, 1.0
    eps_values = epsilon if isinstance(epsilon, tuple) else (epsilon,)
    worst = 0.0
    violations = 0
    total = 0
    for e_i, eps in enumerate(eps_values):
        limit = beta * eps / 2.0
        for t in range(trials):
            w = _normal_vec(derive_subseed(root, client=1, round_index=t + 1,
                                           basis_index=e_i + 1), d)
            center = _normal_vec(derive_subseed(root, client=2,
                                                round_index=t + 1,
                                                basis_index=e_i + 1), d)
            grad = beta * (w - center)

            def quad(x, _c=center):
                diff = x - _c
                return 0.5 * beta * float(np.dot(diff, diff))

            bseed = derive_subseed(root, client=3, round_index=t + 1,
                                   basis_index=e_i + 1)
            zo_est = zo_gradient(quad, w, ZOConfig(epsilon=eps,
                                                   num_perturbations=k,
                                                   seed=bseed))
            rows = basis_tile(bseed, 0, d, 0, k).astype(np.float64)
            projected = rows.T @ (rows @ grad) / k
            gap = float(np.linalg.norm(zo_est - projected))
            worst = max(worst, gap / limit)
            violations += gap > limit
            total += 1
    detail = (f"worst-case gap ratio over {total} draws at d={d}, K={k}, "
              f"eps in {tuple(eps_values)}; {violations} draws exceeded "
              f"beta*eps/2")
    return violations == 0, worst, 1.0, detail


def _check_rho_rate(root: RandomSeed,
                    dims=(100, 1_000, 10_000, 100_000, 1_000_000),
                    tolerance=0.05):
    """1/rho grows linearly in d and rho*d approaches 1/3."""
    rhos = np.array([rho(d) for d in dims])
    slope = float(np.polyfit(np.log(np.array(dims, dtype=np.float64)),
                             np.log(1.0 / rhos), 1)[0])
    prod = float(rhos[-1] * dims[-1])
    limit_ok = abs(prod - 1.0 / 3.0) <= (1.0 / 3.0) * 1e-3
    detail = (f"log-log slope of 1/rho over d in {tuple(dims)} "
              f"(want 1 +/- {tolerance:g}); rho*d at d={dims[-1]} is {prod:.6f} "
              f"(want 1/3 within 0.1%)")
    return abs(slope - 1.0) <= tolerance and limit_ok, slope, 1.0, detail


def _check_accuracy_vs_bases(root: RandomSeed, dim=10_000,
                             budgets=(64, 128, 256, 512), epsilon=0.1,
                             trials=20):
    """More bases give a better update direction, and never worse than ZO."""
    series = accuracy_vs_bases(dim=dim, budgets=budgets, epsilon=epsilon,
                               trials=trials, seed=root)
    sub = series.column("subspace_cosine")
    zo = series.column("zeroth_order_cosine")
    monotone = bool(np.all(np.diff(sub) >= 0.0))
    margin = float(np.min(sub - zo))
    pairs = "; ".join(f"K={int(b)}: {s:.3f} vs {z:.3f}"
                      for b, s, z in zip(series.column("bases"), sub, zo))
    detail = ("mean cosine to the true update, subspace vs zeroth-order "
              f"({pairs}); monotone={monotone}")
    return monotone and margin >= 0.0, margin, 0.0, detail


def _check_drift_immunity(root: RandomSeed, dim=50_000, budget=500, trials=1,
                          epsilon=0.1, tolerance=0.02):
    """Subspace accuracy is flat in local steps while ZO accuracy decays."""
    series = drift_immunity(dim=dim, bases=budget, trials=trials, seed=root,
                            epsilon=epsilon)
    sub = series.column("subspace_cosine")
    zo = series.column("zeroth_order_cosine")
    spread = float(sub.max() - sub.min())
    detail = (f"subspace cosine range {spread:.4f} across local steps "
              f"(want < {tolerance:g}); final step: subspace {sub[-1]:.4f} vs "
              f"zeroth-order {zo[-1]:.4f}")
    return spread < tolerance and zo[-1] < sub[-1], spread, tolerance, detail


def _check_block_speedup(root: RandomSeed, dim=1 << 20, budget=256,
                         tolerance=4.0):
    """Splitting into L blocks cuts basis work to d*K/L without moving cosine."""
    d, k, min_speedup = dim, budget, tolerance
    blocks = 16
    single = BlockPartition((d,), (k,))
    split = BlockPartition.equal_split(d, blocks, k)
    exact = (block_cost(single) == d * k
             and block_cost(split) * blocks == d * k)
    delta = _normal_vec(derive_subseed(root, basis_index=1), d)
    seed = derive_subseed(root, basis_index=2)
    timings = {}
    cosines = {}
    for label, part in (("single", single), ("split", split)):
        update = UpdateVector(values=delta, partition=part)
        t0 = time.perf_counter()
        recon = reconstruct(project(update, seed), part)
        timings[label] = time.perf_counter() - t0
        cosines[label] = cosine_similarity(recon, delta)
    speedup = timings["single"] / timings["split"]
    drift = abs(cosines["split"] - cosines["single"])
    detail = (f"d={d}, K={k}, L={blocks}: generated-entry count exact={exact}, "
              f"wall {timings['single']:.2f}s vs {timings['split']:.2f}s, "
              f"cosine moved {drift:.4f} (gate 0.02)")
    passed = exact and speedup >= min_speedup and drift <= 0.02
    return passed, speedup, min_speedup, detail


def _check_allocation(root: RandomSeed, trials=100):
    """Norm-aware budget split beats a uniform split on skewed blocks."""
    series = allocation_ablation(trials=trials, seed=root)
    uniform = float(series.column("uniform_error").mean())
    scaled = float(series.column("norm_sqrt_error").mean())
    ratio = scaled / uniform
    detail = (f"mean reconstruction error over {len(series.rows)} trials: "
              f"norm-aware {scaled:.3f} vs uniform {uniform:.3f}")
    return scaled <= uniform, ratio, 1.0, detail


def _convergence_task():
    # homogeneous setup: every client holds the full dataset, so the only
    # difference between methods is how the local update travels
    model = ModelSpec("linear-regression", input_dim=63, output_dim=1, init_seed=3)
    data = synthetic_regression(n=512, input_dim=63, seed=9)
    clients = [data] * 8
    return model, data, clients


def _rounds_to(records, threshold: float) -> int | None:
    for rec in records:
        if rec.global_loss <= threshold:
            return rec.round_index
    return None


def _check_convergence(root: RandomSeed, tolerance=0.10):
    """Subspace training tracks dense averaging; sequential ZO trails it.

    The rate statement says rounds to an eps-stationary point scale like
    beta * sigma^2 * (f(w_0) - f*) / eps^2 with the compression only entering
    through constants.  Those constants move no measurement, so the check
    exercises the trackable consequence at desk scale instead.
    """
    model, data, clients = _convergence_task()
    rounds = 20
    base = dict(num_clients=8, rounds=rounds, local_iters=10, total_bases=16,
                local_lr=0.05, batch_size=512, root_seed=root)
    runs = {}
    for method in ("fedavg", "subspace", "fedkseed"):
        fc = FedConfig(method=method, **base)
        runs[method] = run_experiment(fc, model, clients, data)
    dense = runs["fedavg"][-1].global_loss
    sub = runs["subspace"][-1].global_loss
    gap = abs(sub - dense) / max(dense, 1e-12)
    threshold = runs["fedavg"][rounds // 2 - 1].global_loss
    sub_cross = _rounds_to(runs["subspace"], threshold)
    kseed_cross = _rounds_to(runs["fedkseed"], threshold)
    ordered = sub_cross is not None and (kseed_cross is None
                                         or kseed_cross > sub_cross)
    detail = (f"final-loss relative gap to dense after {rounds} rounds "
              f"(want <= {tolerance:g}); rounds to the dense round-{rounds // 2} "
              f"loss: subspace {sub_cross}, sequential zeroth-order "
              f"{'never' if kseed_cross is None else kseed_cross}")
    return gap <= tolerance and ordered, gap, tolerance, detail


def _accounting_run(model: ModelSpec, data, method: str, total_bases: int,
                    seed: RandomSeed):
    fc = FedConfig(num_clients=3, rounds=2, local_iters=1,
                   total_bases=total_bases, local_lr=0.01, batch_size=64,
                   method=method, root_seed=seed)
    clients = partition_data(data, fc.num_clients, seed=seed)
    return account_costs(run_experiment(fc, model, clients, data))


def _check_accounting(root: RandomSeed):
    """Upload ratio is exactly (K+1)/d, and the baselines pair up exactly."""
    cases = ((32, 6), (8, 4))
    all_exact = True
    parts = []
    for input_dim, k in cases:
        model = ModelSpec("linear-regression", input_dim=input_dim,
                          output_dim=1, init_seed=3)
        data = synthetic_regression(n=96, input_dim=input_dim, seed=9)
        d = input_dim + 1
        costs = {m: _accounting_run(model, data, m, k, root)
                 for m in ("subspace", "fedavg", "fedkseed", "fedzo")}
        ratio = Fraction(costs["subspace"]["upload_total"],
                         costs["fedavg"]["upload_total"])
        exact = (ratio == Fraction(k + 1, d)
                 and costs["fedkseed"]["upload_total"] == costs["subspace"]["upload_total"]
                 and costs["fedzo"]["upload_total"] == costs["fedavg"]["upload_total"])
        all_exact = all_exact and exact
        parts.append(f"d={d},K={k}: ratio {ratio} (exact={exact})")
    d_big, k_big = 10 ** 6, 4096
    headline = Fraction(k_big + 1, d_big)
    detail = ("per-client upload ratio vs dense on live runs, plus paired "
              "baselines; " + "; ".join(parts) +
              f"; at d={d_big}, K={k_big} the same formula gives {headline}")
    return all_exact, float(headline), (k_big + 1) / d_big, detail


def _check_determinism(root: RandomSeed):
    """Reruns and the socket transport reproduce records byte-for-byte."""
    model = ModelSpec("linear-regression", input_dim=24, output_dim=1, init_seed=3)
    data = synthetic_regression(n=120, input_dim=24, seed=9)
    fc = FedConfig(num_clients=5, rounds=3, local_iters=4, total_bases=8,
                   local_lr=0.05, participation=0.6, batch_size=32,
                   root_seed=root)
    clients = partition_data(data, fc.num_clients, seed=root)
    first = run_experiment(fc, model, clients, data)
    second = run_experiment(fc, model, clients, data)
    socketed = run_experiment_sockets(fc, model, clients, data)
    same_records = first == second == socketed
    same_text = format_records_csv(first) == format_records_csv(socketed)
    detail = (f"two in-process runs and one socket run over {fc.rounds} "
              f"rounds: records equal={same_records}, "
              f"CSV text equal={same_text}")
    passed = same_records and same_text
    return passed, float(passed), 1.0, detail


_CHECKS = {
    "unbiased": _check_unbiased,
    "error-bound": _check_error_bound,
    "zo-connection": _check_zo_connection,
    "rho-rate": _check_rho_rate,
    "accuracy-vs-bases": _check_accuracy_vs_bases,
    "drift-immunity": _check_drift_immunity,
    "block-speedup": _check_block_speedup,
    "allocation": _check_allocation,
    "convergence": _check_convergence,
    "accounting": _check_accounting,
    "determinism": _check_determinism,
}
CHECK_NAMES = tuple(_CHECKS)  # the battery's order


def run_check(cfg: TheoryCheckConfig) -> CheckReport:
    """Execute one named check and wrap the outcome in a report."""
    start = time.perf_counter()
    passed, measured, bound, detail = _CHECKS[cfg.which](cfg.seed,
                                                         **_check_arguments(cfg))
    runtime = time.perf_counter() - start
    return CheckReport(name=cfg.which, passed=bool(passed),
                       measured=float(measured), bound=float(bound),
                       detail=detail, seed=cfg.seed, runtime_s=runtime)


def run_battery(seed: RandomSeed = 2024) -> list[CheckReport]:
    """Run every check in order with a shared seed."""
    return [run_check(TheoryCheckConfig(which=name, seed=seed))
            for name in CHECK_NAMES]
