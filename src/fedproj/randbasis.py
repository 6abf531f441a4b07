"""Seeded truncated-normal random bases.

A basis chunk is one pseudo-random direction of a block, regenerable from a
64-bit seed.  Everything here is counter-based: value ``i`` of a stream is a
pure function of ``(stream_seed, i)``, so chunks can be produced in any order,
in parallel, or in tiles without changing a single bit of the output.
``basis_tile`` and ``trunc_gauss_stream`` fill their output in cache-sized
spans of ``_SPAN`` entries; every step is elementwise, so the span size
changes no bit and no sum.
``sample_basis`` serves each row from a group of consecutive rows of one
stream family, at most one span and 16 rows, so a walk over k shares one
``basis_tile`` call per group; for the same reason the grouping moves no bit.
Generated groups of the current family are kept, up to ``_KEEP_MAX_ENTRIES``
float32 entries, so a walk that re-reads its family's rows (fedkseed's
replay right after its walk) reads them instead of generating them again.

The entry distribution is a standard normal truncated to ``[-1/sqrt(d),
+1/sqrt(d)]`` for a block of dimension ``d``, which bounds every chunk's
2-norm by 1.  ``rho(d)``, the per-entry second moment of that distribution,
is the one number a block needs from its dimension: reconstruction divides by
it to stay unbiased, and it validates ``d`` for the generators.  All
derivation constants are frozen in PROTOCOL.md.  An entry is PPND16's
inverse-cdf value rounded to float32; blocks of about 80 entries and up reach
that value through ``normal``'s cheaper series route, which yields the same
float32 bits.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InvalidDimensionError, ShapeMismatchError
from .normal import (_SPAN, SQRT2, _central_series_terms, _ppf_central_f32_inplace,
                     _ppf_central_inplace, _ppf_span_inplace)

MASK64 = 0xFFFFFFFFFFFFFFFF
GAMMA = 0x9E3779B97F4A7C15          # stream increment (splitmix-style)
MIX_MULT_1 = 0xBF58476D1CE4E5B9     # avalanche multipliers
MIX_MULT_2 = 0x94D049BB133111EB

_U = np.uint64
_GAMMA_U = _U(GAMMA)
_M1_U = _U(MIX_MULT_1)
_M2_U = _U(MIX_MULT_2)
_TWO_NEG53 = 2.0 ** -53

# most rows in one sample_basis group: bounds a group miss on a tiny block to
# 16 derive_subseed calls instead of _SPAN of them
_GROUP_MAX_ROWS = 16

# most float32 entries the row keep holds (4 MiB); the rows of a longer walk
# past them are generated again when they are read again
_KEEP_MAX_ENTRIES = 1 << 20

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
    return _fold(int(root) & MASK64, (client, round_index, block, basis_index))


def _fold(h: int, indices) -> int:
    """Absorb each index into the 64-bit state h by one avalanche pass."""
    for v in indices:
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
    """Read-only counters (i+1)*GAMMA, i < n; basis_tile adds each row seed."""
    c = (np.arange(1, n + 1, dtype=np.uint64) * _GAMMA_U)
    c.flags.writeable = False
    return c


def _uniforms(state: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from uint64 counter states, overwriting state: the top
    53 bits of mix64(state), scaled by 2^-53."""
    _mix64_array(state)
    state >>= _U(11)
    u = state.astype(np.float64)
    u *= _TWO_NEG53
    return u


def uniform_stream(seed: RandomSeed, n: int, start: int = 0) -> np.ndarray:
    """n doubles in [0, 1): counter-based, value i depends only on (seed, start+i)."""
    if n < 0 or start < 0:
        raise InvalidDimensionError("stream length and start must be non-negative")
    state = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    state *= _GAMMA_U
    state += _U(seed & MASK64)
    return _uniforms(state)


def _open_unit(u: np.ndarray) -> np.ndarray:
    """Stream uniforms nudged strictly inside (0, 1) for an inverse cdf, in
    place: 0 moves up by 2^-54, and the top value 1 - 2^-53, which the same
    nudge would round to 1, stays where it is."""
    u += 2.0 ** -54
    return np.minimum(u, 1.0 - _TWO_NEG53, out=u)


@lru_cache(maxsize=None)
def rho(dim: int) -> float:
    """Second moment of N(0,1) truncated to [-a, a], a = 1/sqrt(dim): the
    per-entry variance of a block's basis, which reconstruction divides by."""
    if not isinstance(dim, int) or dim < 1:
        raise InvalidDimensionError(f"block dimension must be a positive integer, got {dim!r}")
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


@lru_cache(maxsize=None)
def _clip_bound(dim: int) -> float:
    """Largest float32 b with b*b*dim <= 1 exactly (keeps chunk norms <= 1)."""
    b = np.float32(1.0 / math.sqrt(dim))
    while Fraction(float(b)) ** 2 * dim > 1:
        b = np.nextafter(b, np.float32(0.0))
    return float(b)


def _phi_band(bound: float) -> tuple[float, float]:
    """(Phi(-bound), Phi(bound) - Phi(-bound)): uniforms map to p = u*width + lo."""
    return 0.5 * math.erfc(bound / SQRT2), math.erf(bound / SQRT2)


def trunc_gauss_stream(seed: RandomSeed, n: int, bound: float) -> np.ndarray:
    """n truncated-normal draws in [-bound, bound] as float64 (inverse-cdf transform).

    Draw i is norm_ppf(u_i * width + lo) for u = uniform_stream(seed, n), made
    one span at a time, so no temporary is larger than a span.
    """
    if not (math.isfinite(bound) and bound > 0.0):
        raise InvalidDimensionError("truncation bound must be positive and finite")
    if n < 0:
        raise InvalidDimensionError("stream length must be non-negative")
    lo, width = _phi_band(bound)
    out = np.empty(n)
    for a in range(0, n, _SPAN):
        u = uniform_stream(seed, min(_SPAN, n - a), start=a)
        u *= width
        u += lo
        out[a:a + _SPAN] = _ppf_span_inplace(u)
    return out


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


@lru_cache(maxsize=None)
def _trunc_plan(dim: int) -> tuple[float, float, int]:
    """A block's inverse-cdf plan: (lo, width, series terms).

    Uniforms map to p = u*width + lo; the series takes ``terms`` terms on
    that band, and 0 keeps PPND16 itself.
    """
    lo, width = _phi_band(1.0 / math.sqrt(dim))
    # p lies in [lo, lo + width]; the slack covers its rounding
    q_max = max(0.5 - lo, lo + width - 0.5) + 2.0 ** -50
    return lo, width, _central_series_terms(q_max)


def _trunc_values_inplace(u: np.ndarray, dim: int, out: np.ndarray) -> None:
    """Map uniforms in [0,1) to clipped truncated-normal draws for a block, into out.

    The float32 values are PPND16's; from about d = 80 up they come by the
    cheaper series route of normal._ppf_central_f32_inplace.  Clipping to a
    float32 bound commutes with rounding to float32, so the clip moves no bit.
    """
    lo, width, terms = _trunc_plan(dim)
    u *= width
    u += lo
    v = _ppf_central_f32_inplace(u, terms) if terms else _ppf_central_inplace(u)
    b = _clip_bound(dim)
    np.clip(v, -b, b, out=v)
    out[...] = v  # float32 out rounds to nearest, as astype(np.float32) does


class _RowKeep:
    """Read-only row groups of one stream family, keyed by their first row.

    Groups are kept first-come up to ``_KEEP_MAX_ENTRIES`` entries; a group
    past that is held alone in ``last`` until the next one replaces it, so a
    walk still reads each group's rows from one ``basis_tile`` call.  A group
    of another family drops everything.  Keys carry the argument types, so a
    hit needs the types of an earlier call that succeeded, and an ill-typed
    block or index still reaches basis_tile's own errors.  Generation runs
    outside the lock; threads that make the same group keep the first copy.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.clear()

    def clear(self) -> None:
        self.family = None
        self.groups = {}
        self.entries = 0
        self.last = (None, None)

    def rows(self, seed: RandomSeed, block: int, block_dim: int,
             k_lo: int, k_hi: int) -> np.ndarray:
        """basis_tile(seed, block, block_dim, k_lo, k_hi), read-only."""
        family = (seed, block, block_dim, type(block), type(block_dim))
        key = (k_lo, type(k_lo))
        with self.lock:
            if family == self.family:
                rows = self.groups.get(key)
                if rows is None and self.last[0] == key:
                    rows = self.last[1]
                if rows is not None:
                    return rows
        rows = basis_tile(seed, block, block_dim, k_lo, k_hi)
        rows.flags.writeable = False
        with self.lock:
            if family != self.family:
                self.clear()
                self.family = family
            if key in self.groups:
                return self.groups[key]
            if self.entries + rows.size <= _KEEP_MAX_ENTRIES:
                self.groups[key] = rows
                self.entries += rows.size
            else:
                self.last = (key, rows)
        return rows


# one keep for the process: sample_basis's callers pass no generation state
_ROW_KEEP = _RowKeep()


def sample_basis(seed: RandomSeed, block_dim: int, basis_index: int,
                 block: int = 0) -> BasisChunk:
    """Regenerate the basis chunk for (seed, block, basis_index): one basis_tile row.

    The chunk's stream seed is derive_subseed(seed, 0, 0, block, basis_index),
    so chunks of different blocks or basis indices never share a stream.  The
    row is copied out of a group of consecutive rows (at most one generation
    span and 16 rows) that the row keep holds while calls stay on one
    (seed, block, block_dim), so a walk makes one basis_tile call per group
    and a second walk over the kept groups makes none; the values are a
    fresh, writable float32 array equal to
    basis_tile(seed, block, block_dim, k, k + 1)[0].
    """
    rho(block_dim)  # validates block_dim before any keep lookup
    if basis_index < 0:
        raise InvalidDimensionError("invalid basis index range")
    rows = max(1, min(_GROUP_MAX_ROWS, _SPAN // block_dim))
    k0 = basis_index - basis_index % rows
    group = _ROW_KEEP.rows(int(seed) & MASK64, block, block_dim, k0, k0 + rows)
    return BasisChunk(seed=seed, basis_index=basis_index, block=block,
                      values=group[basis_index - k0].copy())


def basis_tile(seed: RandomSeed, block: int, block_dim: int,
               k_lo: int, k_hi: int, out: np.ndarray | None = None) -> np.ndarray:
    """Rows k_lo..k_hi-1 of a block's basis as one (k_hi-k_lo, block_dim) float32 array.

    Row k uses the stream derive_subseed(seed, 0, 0, block, k); every row is a
    pure function of its own stream, so any split of the rows gives the same bits.
    The output is filled in spans of about _SPAN entries (a column range of one
    row, or several whole rows), which keeps the temporaries cache-sized.  With
    ``out``, a float32 array of that shape, the rows are written there and
    ``out`` is returned.
    """
    if not 0 <= k_lo <= k_hi:
        raise InvalidDimensionError("invalid basis index range")
    rho(block_dim)  # validates block_dim
    rows = k_hi - k_lo
    if out is None:
        out = np.empty((rows, block_dim), dtype=np.float32)
    elif out.shape != (rows, block_dim) or out.dtype != np.float32:
        raise ShapeMismatchError(
            f"out is {out.dtype}{out.shape}, rows need float32{(rows, block_dim)}")
    # derive_subseed(seed, 0, 0, block, k): the (seed, 0, 0, block) prefix is
    # folded once, and each row absorbs only its k
    prefix = _fold(int(seed) & MASK64, (0, 0, block))
    row_seeds = np.array([mix64(prefix + GAMMA + k) for k in range(k_lo, k_hi)],
                         dtype=np.uint64)
    counters = _counters(block_dim)
    cols = min(block_dim, _SPAN)
    rows_per_span = max(1, _SPAN // block_dim)
    for r0 in range(0, rows, rows_per_span):
        r1 = min(r0 + rows_per_span, rows)
        for c0 in range(0, block_dim, cols):
            c1 = min(c0 + cols, block_dim)
            u = _uniforms(row_seeds[r0:r1, None] + counters[c0:c1])
            _trunc_values_inplace(u, block_dim, out[r0:r1, c0:c1])
    return out
