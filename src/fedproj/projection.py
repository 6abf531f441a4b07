"""Block-wise projection of update vectors onto seeded random subspaces.

A ``BlockPartition`` splits a d-dimensional update into contiguous blocks and
assigns each block a basis budget.  ``project`` compresses an update to one
coordinate vector per block using the inversion-free rule

    gamma_l = (rho_l * K_l)^-1 * V_l^T delta_l

and ``reconstruct`` regenerates the same bases from the embedded seed and
returns ``sum_k gamma_k v_k`` per block, which is an unbiased estimate of the
original update.  Bases are never materialized whole: both directions stream
fixed-size tiles of chunks in ascending basis order, so results are
bit-identical across runs and thread counts.  ``project`` is also independent
of the tile size; ``reconstruct`` sums per tile, so its bits follow
``_TILE_ELEMS``, a frozen engine rule (PROTOCOL.md) rather than a wire rule.

``exact_project`` is the reference route: it solves the block's normal
equations outright and exists to cross-check the inversion-free rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import (
    InfeasibleBudgetError,
    InvalidDimensionError,
    NumericError,
    PartitionError,
    ProtocolError,
    ShapeMismatchError,
)
from .randbasis import (
    RandomSeed,
    TruncGaussStats,
    basis_tile,
    mix64,
    trunc_gauss_stats,
)

PROJECTION_VERSION = 1

# tile budget in elements; small enough to stay cache-friendly, large enough
# to amortize dispatch.  Peak scratch memory is O(min(d_l * K_l, this)).
# Frozen: reconstruct's summation grouping, and so its bits, follow it.
_TILE_ELEMS = 1 << 19


def _even_split(total: int, parts: int) -> list[int]:
    """total as parts integers differing by at most one, larger ones first."""
    sizes = [total // parts] * parts
    for i in range(total % parts):
        sizes[i] += 1
    return sizes


@dataclass(frozen=True)
class BlockPartition:
    """Contiguous block layout plus per-block basis budgets."""

    block_dims: tuple[int, ...]
    block_budgets: tuple[int, ...]
    offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)
    stats: tuple[TruncGaussStats, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.block_dims)
        budgets = tuple(int(k) for k in self.block_budgets)
        if len(dims) == 0:
            raise InvalidDimensionError("a partition needs at least one block")
        if len(dims) != len(budgets):
            raise ShapeMismatchError(
                f"{len(dims)} block dims vs {len(budgets)} budgets")
        for l, (d, k) in enumerate(zip(dims, budgets)):
            if d < 1:
                raise InvalidDimensionError(f"block {l}: dimension {d} < 1")
            if not 1 <= k <= d:
                raise InfeasibleBudgetError(
                    f"block {l}: budget {k} outside [1, {d}]")
        object.__setattr__(self, "block_dims", dims)
        object.__setattr__(self, "block_budgets", budgets)
        offs, o = [], 0
        for d in dims:
            offs.append(o)
            o += d
        object.__setattr__(self, "offsets", tuple(offs))
        object.__setattr__(self, "stats", tuple(trunc_gauss_stats(d) for d in dims))

    @property
    def num_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims)

    @property
    def total_budget(self) -> int:
        return sum(self.block_budgets)

    @property
    def partition_id(self) -> int:
        """32-bit identity of the layout, stable across processes."""
        h = reduce(lambda a, v: mix64(a + v), self.block_dims, mix64(self.num_blocks))
        h = reduce(lambda a, v: mix64(a + v), self.block_budgets, h)
        return h & 0xFFFFFFFF

    @classmethod
    def single(cls, dim: int, budget: int) -> "BlockPartition":
        return cls((dim,), (budget,))

    @classmethod
    def equal_split(cls, dim: int, num_blocks: int, total_budget: int) -> "BlockPartition":
        """Split dim and budget as evenly as integer arithmetic allows."""
        if num_blocks < 1 or dim < num_blocks:
            raise InvalidDimensionError(
                f"cannot split dim {dim} into {num_blocks} blocks")
        return cls(tuple(_even_split(dim, num_blocks)),
                   tuple(_even_split(total_budget, num_blocks)))


@dataclass(frozen=True)
class UpdateVector:
    """A dense model update, optionally tagged with a block partition.

    Gradients and training deltas start life unpartitioned; attach the
    experiment's partition with ``with_partition`` before projecting.
    """

    values: np.ndarray
    partition: BlockPartition | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ShapeMismatchError("update values must be a flat vector")
        if self.partition is not None and v.shape[0] != self.partition.total_dim:
            raise ShapeMismatchError(
                f"update has {v.shape[0]} entries, partition expects "
                f"{self.partition.total_dim}")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])

    def with_partition(self, partition: BlockPartition) -> "UpdateVector":
        return UpdateVector(values=self.values, partition=partition)

    def _require_partition(self) -> BlockPartition:
        if self.partition is None:
            raise PartitionError("update carries no block partition")
        return self.partition

    def block(self, l: int) -> np.ndarray:
        part = self._require_partition()
        o = part.offsets[l]
        return self.values[o:o + part.block_dims[l]]


@dataclass(frozen=True)
class ProjectedUpdate:
    """Per-block subspace coordinates plus the seed that regenerates the bases.

    ``project`` emits float32 coordinates (the wire precision); the exact
    least-squares oracle keeps float64.
    """

    partition_id: int
    seed: RandomSeed
    block_coords: tuple[np.ndarray, ...]  # length K_l each
    version: int = PROJECTION_VERSION

    @property
    def total_coords(self) -> int:
        return sum(int(c.shape[0]) for c in self.block_coords)


def _det_matvec(tile: np.ndarray, vec: np.ndarray) -> np.ndarray:
    # einsum with optimize=False runs a fixed-order single-threaded loop, so
    # accumulation order never depends on the BLAS build or thread count
    return np.einsum("kd,d->k", tile.astype(np.float64), vec, optimize=False)


def _det_vecmat(coeff: np.ndarray, tile: np.ndarray) -> np.ndarray:
    return np.einsum("k,kd->d", coeff, tile.astype(np.float64), optimize=False)


def _tile_rows(dim: int) -> int:
    return max(1, _TILE_ELEMS // max(dim, 1))


def project(update: UpdateVector, seed: RandomSeed) -> ProjectedUpdate:
    """Compress an update to (rho_l K_l)^-1 V_l^T delta_l per block."""
    part = update._require_partition()
    coords = []
    for l in range(part.num_blocks):
        d_l = part.block_dims[l]
        k_l = part.block_budgets[l]
        delta = update.block(l)
        scale = 1.0 / (part.stats[l].rho * k_l)
        gamma = np.empty(k_l, dtype=np.float64)
        step = _tile_rows(d_l)
        for k0 in range(0, k_l, step):
            k1 = min(k0 + step, k_l)
            tile = basis_tile(seed, l, d_l, k0, k1)
            gamma[k0:k1] = _det_matvec(tile, delta)
        # the 32-bit cast may overflow to inf for exploding updates; callers
        # that aggregate turn the resulting non-finite state into an abort
        with np.errstate(over="ignore"):
            coords.append((gamma * scale).astype(np.float32))
    return ProjectedUpdate(partition_id=part.partition_id, seed=seed,
                           block_coords=tuple(coords))


def reconstruct(msg: ProjectedUpdate, partition: BlockPartition) -> UpdateVector:
    """Regenerate the bases from msg.seed and accumulate sum_k gamma_k v_k per block."""
    if msg.version != PROJECTION_VERSION:
        raise ProtocolError(f"unsupported projection version {msg.version}")
    if msg.partition_id != partition.partition_id:
        raise ShapeMismatchError(
            f"projected update was built for partition {msg.partition_id:#010x}, "
            f"not {partition.partition_id:#010x}")
    if len(msg.block_coords) != partition.num_blocks:
        raise ShapeMismatchError(
            f"{len(msg.block_coords)} coordinate blocks vs "
            f"{partition.num_blocks} partition blocks")
    out = np.zeros(partition.total_dim, dtype=np.float64)
    for l in range(partition.num_blocks):
        d_l = partition.block_dims[l]
        k_l = partition.block_budgets[l]
        gamma = np.asarray(msg.block_coords[l])
        if gamma.shape != (k_l,):
            raise ShapeMismatchError(
                f"block {l}: {gamma.shape[0]} coords vs budget {k_l}")
        g64 = gamma.astype(np.float64)
        o = partition.offsets[l]
        acc = out[o:o + d_l]
        step = _tile_rows(d_l)
        for k0 in range(0, k_l, step):  # ascending basis order, fixed tiles
            k1 = min(k0 + step, k_l)
            tile = basis_tile(msg.seed, l, d_l, k0, k1)
            acc += _det_vecmat(g64[k0:k1], tile)
    return UpdateVector(values=out, partition=partition)


def exact_project(update: UpdateVector, seed: RandomSeed) -> ProjectedUpdate:
    """Reference route: solve gamma_l = (V_l^T V_l)^-1 V_l^T delta_l outright.

    Materializes each block's basis and keeps float64 coordinates, so this is
    an oracle for tests and small problems, not the transport path.
    """
    part = update._require_partition()
    coords = []
    for l in range(part.num_blocks):
        d_l = part.block_dims[l]
        k_l = part.block_budgets[l]
        v = basis_tile(seed, l, d_l, 0, k_l).astype(np.float64)  # (K_l, d_l)
        gram = v @ v.T
        try:
            gamma = np.linalg.solve(gram, v @ update.block(l))
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"block {l}: singular Gram matrix") from exc
        coords.append(gamma)
    return ProjectedUpdate(partition_id=part.partition_id, seed=seed,
                           block_coords=tuple(coords))


def _largest_remainder(total: int, weights: np.ndarray) -> np.ndarray:
    """Integer split of `total` proportional to `weights` (ties to lower index)."""
    quotas = total * weights / weights.sum()
    base = np.floor(quotas).astype(np.int64)
    left = total - int(base.sum())
    if left > 0:
        rema = quotas - base
        order = np.lexsort((np.arange(len(weights)), -rema))
        base[order[:left]] += 1
    return base


def allocate_budgets(block_norms, block_stats, total_budget: int) -> tuple[int, ...]:
    """Split a basis budget over blocks proportional to sqrt(norm_l / rho_l).

    Largest-remainder rounding; every block gets at least 1; budgets are
    capped at the block dimension with the overflow re-split by the same rule.
    """
    norms = np.asarray(block_norms, dtype=np.float64)
    stats = tuple(block_stats)
    if norms.ndim != 1 or len(stats) != norms.shape[0]:
        raise ShapeMismatchError("need one norm and one stats entry per block")
    if np.any(norms < 0) or not np.all(np.isfinite(norms)):
        raise InvalidDimensionError("block norms must be finite and non-negative")
    n_blocks = len(stats)
    dims = np.array([s.dim for s in stats], dtype=np.int64)
    if total_budget < n_blocks:
        raise InfeasibleBudgetError(
            f"budget {total_budget} cannot give {n_blocks} blocks one basis each")
    if total_budget > int(dims.sum()):
        raise InfeasibleBudgetError(
            f"budget {total_budget} exceeds total dimension {int(dims.sum())}")

    weights = np.sqrt(norms / np.array([s.rho for s in stats]))
    if weights.sum() == 0.0:
        weights = np.ones(n_blocks)

    alloc = np.zeros(n_blocks, dtype=np.int64)
    fixed = np.zeros(n_blocks, dtype=bool)
    while not fixed.all():
        free = ~fixed
        remaining = total_budget - int(alloc[fixed].sum())
        w = weights[free]
        if w.sum() == 0.0 or remaining < 0:
            w = np.ones(int(free.sum()))
        alloc[free] = _largest_remainder(max(remaining, 0), w)
        low = free & (alloc < 1)
        high = free & (alloc > dims)
        if not low.any() and not high.any():
            return tuple(int(k) for k in alloc)
        alloc[low] = 1
        alloc[high] = dims[high]
        fixed |= low | high

    # every block hit a bound; settle any residual against the slack, one
    # basis at a time (largest weight first when adding, smallest when removing)
    order = np.lexsort((np.arange(n_blocks), -weights))
    while int(alloc.sum()) < total_budget:
        for i in order:
            if alloc[i] < dims[i]:
                alloc[i] += 1
                break
    while int(alloc.sum()) > total_budget:
        for i in order[::-1]:
            if alloc[i] > 1:
                alloc[i] -= 1
                break
    return tuple(int(k) for k in alloc)


def block_cost(partition: BlockPartition) -> int:
    """Generation/multiply cost of one projection pass: sum of d_l * K_l."""
    return sum(d * k for d, k in zip(partition.block_dims, partition.block_budgets))


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between two flat vectors (0.0 if either is zero)."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b / (na * nb))
