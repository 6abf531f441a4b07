"""Seeded truncated-normal random bases.

A basis chunk is one pseudo-random direction of a block, regenerable from a
64-bit seed.  Everything here is counter-based: value ``i`` of a stream is a
pure function of ``(stream_seed, i)``, so chunks can be produced in any order,
in parallel, or in tiles without changing a single bit of the output.

The entry distribution is a standard normal truncated to ``[-1/sqrt(d),
+1/sqrt(d)]`` for a block of dimension ``d``, which bounds every chunk's
2-norm by 1.  ``rho`` is the per-entry second moment of that distribution;
reconstruction divides by it to stay unbiased.  All derivation constants are
frozen in PROTOCOL.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InvalidDimensionError
from .normal import SQRT2, _ppf_central_inplace, norm_ppf

MASK64 = 0xFFFFFFFFFFFFFFFF
GAMMA = 0x9E3779B97F4A7C15          # stream increment (splitmix-style)
MIX_MULT_1 = 0xBF58476D1CE4E5B9     # avalanche multipliers
MIX_MULT_2 = 0x94D049BB133111EB

_U = np.uint64
_GAMMA_U = _U(GAMMA)
_M1_U = _U(MIX_MULT_1)
_M2_U = _U(MIX_MULT_2)
_TWO_NEG53 = 2.0 ** -53

# rho switches from the closed form to a cancellation-free series here
_RHO_SERIES_MIN_DIM = 257

RandomSeed = int


def mix64(x: int) -> int:
    """64-bit avalanche finalizer (bijective on uint64)."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * MIX_MULT_1) & MASK64
    x = ((x ^ (x >> 27)) * MIX_MULT_2) & MASK64
    return x ^ (x >> 31)


def derive_subseed(root: RandomSeed, client: int = 0, round_index: int = 0,
                   block: int = 0, basis_index: int = 0) -> RandomSeed:
    """Fold (client, round, block, basis) into a fresh 64-bit seed.

    Each index is absorbed through one avalanche pass, so permuting the
    indices changes the result.  Indices must be non-negative.
    """
    h = int(root) & MASK64
    for v in (client, round_index, block, basis_index):
        if v < 0:
            raise InvalidDimensionError("derivation indices must be non-negative")
        h = mix64((h + GAMMA + v) & MASK64)
    return h


def _mix64_array(x: np.ndarray) -> np.ndarray:
    # operates in place on a uint64 array
    x ^= x >> _U(30)
    x *= _M1_U
    x ^= x >> _U(27)
    x *= _M2_U
    x ^= x >> _U(31)
    return x


@lru_cache(maxsize=8)
def _counters(n: int) -> np.ndarray:
    c = (np.arange(1, n + 1, dtype=np.uint64) * _GAMMA_U)
    c.flags.writeable = False
    return c


def uniform_stream(seed: RandomSeed, n: int, start: int = 0) -> np.ndarray:
    """n doubles in [0, 1): counter-based, value i depends only on (seed, start+i)."""
    if n < 0:
        raise InvalidDimensionError("stream length must be non-negative")
    if start == 0:
        state = _counters(n) + _U(seed & MASK64)
    else:
        idx = np.arange(start + 1, start + n + 1, dtype=np.uint64)
        state = idx * _GAMMA_U + _U(seed & MASK64)
    z = _mix64_array(state)
    return (z >> _U(11)).astype(np.float64) * _TWO_NEG53


def _rho(dim: int) -> float:
    """Second moment of N(0,1) truncated to [-a, a], a = 1/sqrt(dim)."""
    a = 1.0 / math.sqrt(dim)
    # D = integral_0^a exp(-s^2/2) ds / a, written through erf (no cancellation)
    denom = math.erf(a / SQRT2) * math.sqrt(math.pi / 2.0) / a
    if dim < _RHO_SERIES_MIN_DIM:
        return 1.0 - math.exp(-0.5 * a * a) / denom
    # series for D - exp(-a^2/2); the direct difference cancels for small a
    a2 = a * a
    num = 0.0
    for k in range(8, 0, -1):
        coef = ((-1) ** (k + 1)) * k / (math.factorial(k) * 2.0 ** (k - 1) * (2 * k + 1))
        num = num * a2 + coef
    return num * a2 / denom


@dataclass(frozen=True)
class TruncGaussStats:
    """Truncation geometry of one block: dimension, entry bound, second moment."""

    dim: int
    bound: float
    rho: float


@lru_cache(maxsize=None)
def trunc_gauss_stats(dim: int) -> TruncGaussStats:
    if not isinstance(dim, int) or dim < 1:
        raise InvalidDimensionError(f"block dimension must be a positive integer, got {dim!r}")
    return TruncGaussStats(dim=dim, bound=1.0 / math.sqrt(dim), rho=_rho(dim))


@lru_cache(maxsize=None)
def _clip_bound(dim: int) -> float:
    """Largest float32 b with b*b*dim <= 1 exactly (keeps chunk norms <= 1)."""
    b = np.float32(1.0 / math.sqrt(dim))
    while Fraction(float(b)) ** 2 * dim > 1:
        b = np.nextafter(b, np.float32(0.0))
    return float(b)


def trunc_gauss_stream(seed: RandomSeed, n: int, bound: float, start: int = 0) -> np.ndarray:
    """n truncated-normal draws in [-bound, bound] as float64 (inverse-cdf transform)."""
    if not (math.isfinite(bound) and bound > 0.0):
        raise InvalidDimensionError("truncation bound must be positive and finite")
    lo = 0.5 * math.erfc(bound / SQRT2)            # Phi(-bound)
    width = math.erf(bound / SQRT2)                # Phi(bound) - Phi(-bound)
    u = uniform_stream(seed, n, start=start)
    return norm_ppf(lo + u * width)


@dataclass(frozen=True)
class BasisChunk:
    """One sampled basis direction of one block, identified by (seed, block, basis_index)."""

    seed: RandomSeed
    basis_index: int
    block: int
    values: np.ndarray  # float32, length = block dimension

    @property
    def block_dim(self) -> int:
        return int(self.values.shape[0])


def _trunc_values_inplace(u: np.ndarray, dim: int) -> np.ndarray:
    """Map uniforms in [0,1) to clipped float32 truncated-normal draws for a block."""
    stats = trunc_gauss_stats(dim)
    lo = 0.5 * math.erfc(stats.bound / SQRT2)
    width = math.erf(stats.bound / SQRT2)
    u *= width
    u += lo
    v = _ppf_central_inplace(u)
    b = _clip_bound(dim)
    np.clip(v, -b, b, out=v)
    return v.astype(np.float32)


def sample_basis(seed: RandomSeed, block_dim: int, basis_index: int,
                 block: int = 0) -> BasisChunk:
    """Regenerate the basis chunk for (seed, block, basis_index): one basis_tile row.

    The chunk's stream seed is derive_subseed(seed, 0, 0, block, basis_index),
    so chunks of different blocks or basis indices never share a stream.
    """
    values = basis_tile(seed, block, block_dim, basis_index, basis_index + 1)[0]
    return BasisChunk(seed=seed, basis_index=basis_index, block=block,
                      values=values)


def basis_tile(seed: RandomSeed, block: int, block_dim: int,
               k_lo: int, k_hi: int) -> np.ndarray:
    """Rows k_lo..k_hi-1 of a block's basis as one (k_hi-k_lo, block_dim) float32 array.

    Row k uses the stream derive_subseed(seed, 0, 0, block, k); every row is a
    pure function of its own stream, so any split of the rows gives the same bits.
    """
    if not 0 <= k_lo <= k_hi:
        raise InvalidDimensionError("invalid basis index range")
    trunc_gauss_stats(block_dim)  # validates block_dim
    rows = k_hi - k_lo
    if rows == 0:
        return np.empty((0, block_dim), dtype=np.float32)
    row_seeds = np.array(
        [derive_subseed(seed, 0, 0, block, k) for k in range(k_lo, k_hi)],
        dtype=np.uint64,
    )
    state = row_seeds[:, None] + _counters(block_dim)
    z = _mix64_array(state)
    u = (z >> _U(11)).astype(np.float64)
    u *= _TWO_NEG53
    return _trunc_values_inplace(u, block_dim)
