import math

import mpmath as mp
import numpy as np
import pytest

from fedproj.normal import norm_ppf

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
