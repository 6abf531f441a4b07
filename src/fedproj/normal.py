"""A high-accuracy inverse standard normal cdf.

The inverse cdf follows Wichura's PPND16 rational approximations (three
branches split on the distance from the median), which keeps the relative
error well below 1e-9 over the full open unit interval.  The coefficients
are frozen here so that every installation evaluates the exact same
polynomials; see PROTOCOL.md.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

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
    """norm_ppf restricted to |p - 0.5| <= 0.425, overwriting p; minimal temporaries."""
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


def norm_ppf(p):
    """Inverse standard normal cdf for p in the open interval (0, 1).

    Relative error stays below 1e-13 except within ~1e-13 of p = 1, where
    the reflection 1 - p itself limits what float64 input can express.
    """
    p_arr = np.asarray(p, dtype=np.float64)
    scalar = p_arr.ndim == 0
    p_arr = np.atleast_1d(p_arr)
    if np.any((p_arr <= 0.0) | (p_arr >= 1.0)):
        raise ValueError("norm_ppf requires 0 < p < 1")

    q = p_arr - 0.5
    out = np.empty_like(p_arr)

    central = np.abs(q) <= 0.425
    if np.any(central):
        out[central] = _ppf_central_inplace(p_arr[central])

    tail = ~central
    if np.any(tail):
        pt = np.where(q[tail] < 0.0, p_arr[tail], 1.0 - p_arr[tail])
        r = np.sqrt(-np.log(pt))
        near = r <= 5.0
        val = np.empty_like(r)
        val[near] = _poly(_C, r[near] - 1.6) / _poly(_D, r[near] - 1.6)
        far_idx = np.nonzero(~near)[0]
        for i in far_idx:
            val[i] = -_ppf_far_tail(float(pt[i]))
        out[tail] = np.where(q[tail] < 0.0, -val, val)

    return float(out[0]) if scalar else out.reshape(np.shape(p))
