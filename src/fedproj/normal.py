"""A high-accuracy inverse standard normal cdf.

The inverse cdf follows Wichura's PPND16 rational approximations (three
branches split on the distance from the median), which keeps the relative
error well below 1e-9 over the full open unit interval.  The coefficients
are frozen here so that every installation evaluates the exact same
polynomials; see PROTOCOL.md.

Basis entries are PPND16's central values rounded to float32, and a block
only reaches a narrow band |q| <= q_max around the median (q = p - 0.5).
There ``_ppf_central_f32_inplace`` evaluates a short power series of the
central rational function in s = q*q instead, and recomputes with PPND16
every entry whose float64 value lies close enough to a float32 rounding
midpoint that the two routes could round apart; so the float32 values are
PPND16's, bit for bit.

``norm_ppf`` works in spans of ``_SPAN`` entries, so its temporaries stay
cache-sized whatever the input size: in each span the tail entries are
computed apart and written over the central formula's values for the whole
span.  Every step is elementwise, so no bit depends on the span size.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# generation span in entries: its float64 temporaries stay in L2, where
# whole-array temporaries stream through memory about 3x slower per entry
_SPAN = 1 << 15

# PPND16 central branch, |p - 0.5| <= 0.425
_A = (
    3.3871328727963666080e0, 1.3314166789178437745e2,
    1.9715909503065514427e3, 1.3731693765509461125e4,
    4.5921953931549871457e4, 6.7265770927008700853e4,
    3.3430575583588128105e4, 2.5090809287301226727e3,
)
_B = (
    1.0, 4.2313330701600911252e1,
    6.8718700749205790830e2, 5.3941960214247511077e3,
    2.1213794301586595867e4, 3.9307895800092710610e4,
    2.8729085735721942674e4, 5.2264952788528545610e3,
)
# Taylor coefficients c_j of the central branch's own rational function
# N(r0 - s) / D(r0 - s) about s = 0 (N, D the _A, _B polynomials, r0 = 0.180625
# as a double), each the double nearest the exact value; all are positive.
# They are not the coefficients of the true inverse cdf.
_TAYLOR = (
    2.5066282746310007, 2.6249349909534767,
    5.772533538671212, 15.667608958085413,
    47.035787704765895, 149.82979172181513,
    496.27365205943187, 1689.8653593628196,
    5873.9949490649215, 20746.39251331968,
)
# c_{j+1} <= _TAYLOR_RATIO * c_j for every j: the ratios rise towards
# 1/0.2535, the distance to the nearest zero of D(r0 - s)
_TAYLOR_RATIO = 4.0
_SERIES_MAX_TERMS = 6
# largest series tail, relative to the value, that a plan accepts
_SERIES_TAIL = 2.0 ** -46
# float64 values within this many ulps of a float32 rounding midpoint are
# recomputed with PPND16; the series stays far closer to PPND16 than this
_MIDPOINT_ULPS = 1024
_F32_DROPPED_BITS = (1 << 29) - 1   # float64 mantissa bits float32 rounds off
_F32_HALF = 1 << 28                 # those bits at a float32 rounding midpoint

# near tail, r = sqrt(-log(min(p, 1-p))) in (1.6, 5]
_C = (
    1.42343711074968357734e0, 4.63033784615654529590e0,
    5.76949722146069140550e0, 3.64784832476320460504e0,
    1.27045825245236838258e0, 2.41780725177450611770e-1,
    2.27238449892691845833e-2, 7.74545014278341407640e-4,
)
_D = (
    1.0, 2.05319162663775882187e0,
    1.67638483018380384940e0, 6.89767334985100004550e-1,
    1.48103976427480074590e-1, 1.51986665636164571966e-2,
    5.47593808499534494600e-4, 1.05075007164441684324e-9,
)


def _ppf_central_inplace(p: np.ndarray) -> np.ndarray:
    """PPND16's central formula, overwriting p; minimal temporaries.

    It is norm_ppf for |p - 0.5| <= 0.425.  Its denominator has no zero for
    |p - 0.5| < 0.5 (the nearest lies at (p - 0.5)^2 = 0.2535), so on any p in
    (0, 1) it stays finite and raises no floating-point warning.
    """
    p -= 0.5
    q = p
    r = q * q
    np.subtract(0.180625, r, out=r)
    # r * c7 + c6 starts each Horner chain: the same bits as c7 * r, one pass fewer
    num = np.multiply(r, _A[7])
    num += _A[6]
    for c in _A[5::-1]:
        num *= r
        num += c
    den = np.multiply(r, _B[7])
    den += _B[6]
    for c in _B[5::-1]:
        den *= r
        den += c
    num *= q
    num /= den
    return num


def _central_series_terms(q_max: float) -> int:
    """Series terms for central values with |q| <= q_max; 0 if none will do.

    The fewest terms n (2 to 6) with c_n s^n / (1 - 4 s) <= 2^-46 c_0 at
    s = q_max^2: with positive coefficients and ratios at most 4, that
    bounds the dropped tail relative to the value.
    """
    s = q_max * q_max
    if _TAYLOR_RATIO * s >= 1.0:
        return 0
    for n in range(2, _SERIES_MAX_TERMS + 1):
        if _TAYLOR[n] * s ** n <= _SERIES_TAIL * _TAYLOR[0] * (1.0 - _TAYLOR_RATIO * s):
            return n
    return 0


def _ppf_central_f32_inplace(p: np.ndarray, terms: int) -> np.ndarray:
    """_ppf_central_inplace(p) up to float32 rounding, overwriting p.

    ``terms`` comes from _central_series_terms for a bound on |p - 0.5|.
    Rounded to float32, every value equals PPND16's: the series and PPND16
    differ by a few hundred float64 ulps at most, so they can round apart
    only across a float32 midpoint, and every value within _MIDPOINT_ULPS
    of one is recomputed by _ppf_central_inplace.
    """
    p -= 0.5
    q = p
    s = q * q
    x = np.multiply(s, _TAYLOR[terms - 1])
    x += _TAYLOR[terms - 2]
    for c in reversed(_TAYLOR[:terms - 2]):
        x *= s
        x += c
    x *= q
    # dropped bits within M of the midpoint: (bits - (half - M)) mod 2^29 < 2M
    near = s.view(np.int64)
    np.subtract(x.view(np.int64), _F32_HALF - _MIDPOINT_ULPS, out=near)
    near &= _F32_DROPPED_BITS
    hit = near < 2 * _MIDPOINT_ULPS
    if hit.any():
        # a plan keeps |q| far below 0.25, where q = p - 0.5 is exact, so
        # q + 0.5 is p again
        x[hit] = _ppf_central_inplace(q[hit] + 0.5)
    return x


def _poly(coeffs, r):
    acc = np.full_like(r, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * r + c
    return acc


def _log_cdf_lower(x: float) -> float:
    """log(Phi(x)) for x <= -1, stable down to the smallest positive double."""
    if x > -36.0:
        return math.log(0.5 * math.erfc(-x / SQRT2))
    # Mills-ratio expansion; the truncation error is far below Newton's needs
    inv2 = 1.0 / (x * x)
    series = math.log1p(-inv2 * (1.0 - 3.0 * inv2 * (1.0 - 5.0 * inv2)))
    return -0.5 * x * x - math.log(-x) - 0.5 * math.log(2.0 * math.pi) + series


def _cdf_over_pdf_lower(x: float) -> float:
    """Phi(x)/phi(x) for x <= -1 without underflow."""
    if x > -36.0:
        return 0.5 * math.erfc(-x / SQRT2) / (INV_SQRT_2PI * math.exp(-0.5 * x * x))
    inv2 = 1.0 / (x * x)
    return (-1.0 / x) * (1.0 - inv2 * (1.0 - 3.0 * inv2 * (1.0 - 5.0 * inv2)))


def _ppf_far_tail(p: float) -> float:
    """Lower-tail quantile for p below exp(-25): asymptotic start + Newton polish."""
    log_p = math.log(p)
    t = math.sqrt(-2.0 * log_p)
    x = -(t - (0.5 * math.log(2.0 * math.pi) + math.log(t)) / t)
    for _ in range(4):
        x -= (_log_cdf_lower(x) - log_p) * _cdf_over_pdf_lower(x)
    return x


def _ppf_tail(p: np.ndarray) -> np.ndarray:
    """PPND16's tail branches, for p with |p - 0.5| > 0.425."""
    q = p - 0.5
    pt = np.where(q < 0.0, p, 1.0 - p)
    r = np.sqrt(-np.log(pt))
    near = r <= 5.0
    val = np.empty_like(r)
    val[near] = _poly(_C, r[near] - 1.6) / _poly(_D, r[near] - 1.6)
    for i in np.nonzero(~near)[0]:
        val[i] = -_ppf_far_tail(float(pt[i]))
    return np.where(q < 0.0, -val, val)


def _ppf_span_inplace(p: np.ndarray) -> np.ndarray:
    """norm_ppf of one span of p, overwriting p; span-sized temporaries."""
    if np.any(~((p > 0.0) & (p < 1.0))):
        raise ValueError("norm_ppf requires 0 < p < 1")
    tail = np.flatnonzero(np.abs(p - 0.5) > 0.425)
    tail_values = _ppf_tail(p[tail]) if tail.size else None
    out = _ppf_central_inplace(p)
    if tail.size:
        out[tail] = tail_values
    return out


def norm_ppf(p):
    """Inverse standard normal cdf for p in the open interval (0, 1).

    Relative error stays below 1e-13 except within ~1e-13 of p = 1, where
    the reflection 1 - p itself limits what float64 input can express.
    NaN or any p outside (0, 1) raises ValueError.
    """
    p_arr = np.asarray(p, dtype=np.float64)
    flat = p_arr.reshape(-1)
    out = np.empty(flat.size)
    for a in range(0, flat.size, _SPAN):
        out[a:a + _SPAN] = _ppf_span_inplace(flat[a:a + _SPAN].copy())
    return float(out[0]) if p_arr.ndim == 0 else out.reshape(p_arr.shape)
