import hashlib
import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from fedproj import normal
from fedproj.normal import (_A, _B, _SERIES_TAIL, _SPAN, _TAYLOR, _TAYLOR_RATIO,
                            _central_series_terms, _ppf_central_f32_inplace,
                            _ppf_central_inplace, norm_ppf)

mp.mp.dps = 50


def _ppf_oracle(p: float) -> float:
    return float(mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1))


@pytest.mark.parametrize("p", [1e-12, 1e-9, 1e-6, 1e-4, 0.01, 0.1, 0.25, 0.5,
                               0.75, 0.9, 0.99, 1 - 1e-6, 1 - 1e-9])
def test_ppf_relative_accuracy(p):
    # contract: relative error of the inverse cdf at or below 1e-9
    want = _ppf_oracle(p)
    got = norm_ppf(p)
    if want == 0.0:
        assert got == 0.0
    else:
        assert abs(got - want) / abs(want) < 1e-9


def test_ppf_deep_tail_forward_check():
    # verify through Phi because series oracles get shaky out here
    mp.mp.dps = 300
    try:
        for p in (1e-300, 1e-100, 1e-30):
            x = norm_ppf(p)
            achieved = mp.erfc(-mp.mpf(x) / mp.sqrt(2)) / 2
            assert abs(float(achieved / mp.mpf(p)) - 1.0) < 1e-9
    finally:
        mp.mp.dps = 50


def test_ppf_cdf_roundtrip():
    for x in (-7.5, -2.0, -0.3, 0.0, 1.1, 4.0):
        phi = 0.5 * math.erfc(-x / math.sqrt(2.0))
        assert abs(norm_ppf(phi) - x) < 1e-9 * max(1.0, abs(x))


def test_ppf_vectorized_matches_scalar():
    ps = np.array([1e-14, 1e-3, 0.2, 0.5, 0.8, 1 - 1e-5])
    vec = norm_ppf(ps)
    for p, v in zip(ps, vec):
        assert v == norm_ppf(float(p))


def test_ppf_rejects_boundaries():
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            norm_ppf(bad)
    with pytest.raises(ValueError):
        norm_ppf(np.array([0.5, 0.0]))


def test_ppf_rejects_nan():
    with pytest.raises(ValueError, match="0 < p < 1"):
        norm_ppf(float("nan"))
    with pytest.raises(ValueError, match="0 < p < 1"):
        norm_ppf(np.array([0.3, np.nan]))


def _span_boundary_input():
    """p with central, near-tail and far-tail entries on both sides of each
    span boundary, over an even grid that reaches every branch in between."""
    n = 3 * _SPAN + 16
    p = (np.arange(n, dtype=np.float64) + 0.5) / n
    kinds = (0.3, 0.7, 0.02, 0.97, 1e-14, 1 - 1e-12, 1e-300, 0.5)
    for k in range(1, 4):
        b = k * _SPAN
        p[b - 8:b] = kinds
        p[b:b + 8] = kinds[::-1]
    return p


def test_ppf_golden_digest():
    # recorded before norm_ppf worked in spans: no bit depends on the span
    got = norm_ppf(_span_boundary_input())
    assert hashlib.sha256(got.tobytes()).hexdigest() == (
        "039e13867011d0931f75162245e8ed021cb1969e32b8580881c3eb7d16f8a24d")


def test_ppf_span_changes_no_bit(monkeypatch):
    p = _span_boundary_input()[_SPAN - 300:_SPAN + 300]
    want = norm_ppf(p)
    monkeypatch.setattr(normal, "_SPAN", 7)
    np.testing.assert_array_equal(norm_ppf(p), want)
    np.testing.assert_array_equal(norm_ppf(p.reshape(20, 30)), want.reshape(20, 30))


def test_central_formula_is_finite_over_the_unit_interval():
    # a span runs the central formula on its tail entries too, then drops them
    p = np.array([5e-324, 1e-300, 1e-17, 0.01, 0.0749, 0.9251, 0.99, 1 - 2 ** -53])
    with np.errstate(all="raise"):
        assert np.all(np.isfinite(_ppf_central_inplace(p)))


def test_ppf_memory_stays_span_sized():
    # 2^20 values need their 8 MiB output plus span-sized temporaries
    p = _span_boundary_input()
    p = np.resize(p, 1 << 20)
    norm_ppf(p[:10])
    tracemalloc.start()
    try:
        out = norm_ppf(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + (2 << 20)


_R0 = Fraction(0.180625)


def _poly_about_r0(coeffs, n):
    """Coefficients of s^0..s^(n-1) in sum_k coeffs[k] (r0 - s)^k, exactly."""
    return [sum((Fraction(a) * math.comb(k, j) * _R0 ** (k - j) * (-1) ** j
                 for k, a in enumerate(coeffs) if k >= j), Fraction(0))
            for j in range(n)]


def _exact_series(n):
    """First n Taylor coefficients of N(r0 - s) / D(r0 - s) about s = 0."""
    num, den = _poly_about_r0(_A, n), _poly_about_r0(_B, n)
    c = []
    for j in range(n):
        c.append((num[j] - sum(den[i] * c[j - i] for i in range(1, j + 1)))
                 / den[0])
    return c


def test_series_coefficients_are_the_rounded_exact_series():
    exact = _exact_series(len(_TAYLOR))
    assert _TAYLOR == tuple(float(c) for c in exact)


def test_series_ratio_bound_holds():
    # the tail estimate needs c_j > 0 and c_{j+1} <= 4 c_j for every j; the
    # ratios rise towards 1/s* for the zero s* of D(r0 - s) nearest 0
    c = _exact_series(120)
    assert all(cj > 0 for cj in c)
    assert all(c[j + 1] <= _TAYLOR_RATIO * c[j] for j in range(len(c) - 1))
    zeros = _R0 - np.roots(_B[::-1]).astype(complex)
    nearest = min(abs(zeros))
    assert 1.0 / nearest < _TAYLOR_RATIO
    assert float(c[-1] / c[-2]) == pytest.approx(1.0 / nearest, rel=1e-2)


@pytest.mark.parametrize("dim", [80, 100, 256, 1000, 2410, 16384, 65536, 2 ** 20,
                                 2 ** 22])
def test_series_plan_bounds_the_exact_tail(dim):
    q_max = 0.4 / math.sqrt(dim)
    terms = _central_series_terms(q_max)
    assert 2 <= terms <= 6
    s = Fraction(q_max) ** 2
    value = (sum(a * s ** j for j, a in enumerate(_poly_about_r0(_A, 8)))
             / sum(b * s ** j for j, b in enumerate(_poly_about_r0(_B, 8))))
    kept = sum(c * s ** j for j, c in enumerate(_exact_series(terms)))
    assert 0 < (value - kept) / value <= Fraction(_SERIES_TAIL)


def test_series_plan_declines_wide_bands():
    assert _central_series_terms(0.4 / math.sqrt(10)) == 0
    assert _central_series_terms(0.425) == 0
    # once a block is narrow enough for a plan, narrower ones need no more terms
    plans = [_central_series_terms(0.4 / math.sqrt(d)) for d in range(60, 4000, 7)]
    first = next(i for i, n in enumerate(plans) if n)
    assert 0 not in plans[first:]
    assert plans[first:] == sorted(plans[first:], reverse=True)


@pytest.mark.parametrize("terms", [2, 3, 4, 5, 6])
def test_series_sums_exactly_its_terms(terms, monkeypatch):
    # at |q| = 0.04 each further term moves the value by far more than an ulp
    monkeypatch.setattr(normal, "_MIDPOINT_ULPS", 0)
    q = np.array([-0.04, 0.013, 0.04])
    got = _ppf_central_f32_inplace(q + 0.5, terms)
    for qi, xi in zip(q, got):
        s = Fraction(float(Fraction(qi) ** 2))
        kept = Fraction(qi) * sum(Fraction(c) * s ** j
                                  for j, c in enumerate(_TAYLOR[:terms]))
        assert abs(Fraction(xi) / kept - 1) < 2 ** -48


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def _near_midpoint_p(q_max, count, seed):
    """p in the band |p - 0.5| <= q_max whose PPND16 value is near a float32
    rounding midpoint, with that value's distance in float64 ulps.

    For random float32 midpoints m, bisection on the bits of p ends at two
    adjacent doubles whose PPND16 values bracket m; both are kept.
    """
    x_lo, x_hi = _ppf_central_inplace(np.array([0.5 - q_max, 0.5 + q_max]))
    y = np.random.default_rng(seed).uniform(x_lo, x_hi, count).astype(np.float32)
    m = (y.astype(np.float64)
         + np.nextafter(y, np.float32(np.inf)).astype(np.float64)) / 2
    m = m[(m > x_lo) & (m < x_hi)]
    lo = np.full(m.size, _bits(0.5 - q_max))
    hi = np.full(m.size, _bits(0.5 + q_max))
    while np.any(hi - lo > 1):
        mid = (lo + hi) // 2
        below = _ppf_central_inplace(mid.view(np.float64).copy()) <= m
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    p = np.concatenate([lo, hi]).view(np.float64)
    x = _ppf_central_inplace(p.copy())
    return p, np.abs(_bits(x) - _bits(np.concatenate([m, m])))


@pytest.mark.parametrize("dim", [100, 256, 1024, 16384])
def test_values_near_a_float32_midpoint_take_ppnd16(dim, monkeypatch):
    q_max = 0.4 / math.sqrt(dim)
    terms = _central_series_terms(q_max)
    p, ulps = _near_midpoint_p(q_max, 4000, seed=dim)
    want = _ppf_central_inplace(p.copy())
    got = _ppf_central_f32_inplace(p.copy(), terms)
    # within a few ulps of a midpoint: flagged, so PPND16's own float64
    close = ulps <= 4
    assert np.count_nonzero(close) >= 10
    np.testing.assert_array_equal(_bits(got[close]), _bits(want[close]))
    np.testing.assert_array_equal(got.astype(np.float32), want.astype(np.float32))
    # the unchecked series rounds some of these across the midpoint
    monkeypatch.setattr(normal, "_MIDPOINT_ULPS", 0)
    raw = _ppf_central_f32_inplace(p.copy(), terms)
    assert np.any(raw.astype(np.float32) != want.astype(np.float32))
