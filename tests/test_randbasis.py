import math
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest

from fedproj.errors import InvalidDimensionError
from fedproj.randbasis import (
    GAMMA,
    MASK64,
    _clip_bound,
    basis_tile,
    derive_subseed,
    mix64,
    sample_basis,
    trunc_gauss_stats,
    trunc_gauss_stream,
    uniform_stream,
)

mp.mp.dps = 50

M64 = (1 << 64) - 1


def _mix_reference(x: int) -> int:
    # independent pure-int reimplementation of the avalanche step
    x &= M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & M64
    return x ^ (x >> 31)


def _rho_oracle(dim: int) -> float:
    a = 1 / mp.sqrt(dim)
    return float(1 - 2 * a * mp.npdf(a) / mp.erf(a / mp.sqrt(2)))


# ---------------------------------------------------------------- seeds

def test_mix64_matches_pure_python_reference():
    for x in (0, 1, 42, 0xDEADBEEF, M64, 2**63 + 12345):
        assert mix64(x) == _mix_reference(x)


def test_derive_subseed_frozen_vectors():
    # frozen from the reference implementation; guards cross-platform drift
    assert derive_subseed(42) == 0xC16129ECD0DC5B93
    assert derive_subseed(42, 1, 2) == 0x8D6FD8C26D26726E
    assert derive_subseed((1 << 64) - 1, 5, 7, 3, 11) == 0xE0ABE6145455C597


def test_derive_subseed_deterministic_and_distinct():
    seen = set()
    for client in range(4):
        for rnd in range(4):
            for block in range(3):
                for k in range(3):
                    s = derive_subseed(99, client, rnd, block, k)
                    assert s == derive_subseed(99, client, rnd, block, k)
                    assert 0 <= s <= M64
                    seen.add(s)
    assert len(seen) == 4 * 4 * 3 * 3


def test_derive_subseed_order_sensitive():
    assert derive_subseed(7, 1, 2) != derive_subseed(7, 2, 1)
    assert derive_subseed(7, 0, 0, 1, 0) != derive_subseed(7, 0, 0, 0, 1)


def test_derive_subseed_rejects_negative_indices():
    with pytest.raises(InvalidDimensionError):
        derive_subseed(7, -1)


def test_uniform_stream_counter_based():
    full = uniform_stream(0x123, 10)
    assert np.array_equal(full[4:], uniform_stream(0x123, 6, start=4))
    # frozen reference values for the first outputs of seed 0x123
    expect = [0x90F506BB95A34BA8, 0x6E5DCF332DB76A11, 0x3CAE483008BCA96B]
    want = np.array([(z >> 11) * 2.0 ** -53 for z in expect])
    np.testing.assert_array_equal(full[:3], want)
    assert np.all((full >= 0.0) & (full < 1.0))


def test_uniform_stream_matches_scalar_reference():
    seed, n = 0xABCDEF, 64
    got = uniform_stream(seed, n)
    want = np.array([
        (_mix_reference((seed + (i + 1) * GAMMA) & M64) >> 11) * 2.0 ** -53
        for i in range(n)
    ])
    np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------- rho

def test_rho_frozen_values():
    # mpmath oracle, 50 digits, frozen
    for dim, want in [
        (1, 0.29112509477279321119),
        (16, 0.02066024105448210883),
        (256, 0.0013014052911107833468),
        (257, 0.0012963440848367855235),
        (10**6, 3.3333328888889100529e-7),
    ]:
        got = trunc_gauss_stats(dim).rho
        assert abs(got - want) / want < 1e-12


def test_rho_matches_oracle_across_scales():
    for dim in (1, 2, 3, 7, 50, 255, 256, 257, 300, 1000, 4096, 10**4, 10**6, 10**9):
        got = trunc_gauss_stats(dim).rho
        want = _rho_oracle(dim)
        assert abs(got - want) / want < 1e-12, dim


def test_rho_times_dim_approaches_one_third():
    assert abs(trunc_gauss_stats(10**6).rho * 10**6 - 1.0 / 3.0) < 1e-3 / 3.0


def test_rho_strictly_decreasing():
    dims = list(range(1, 129)) + [200, 500, 1000, 2000, 5000, 10**4]
    rhos = [trunc_gauss_stats(d).rho for d in dims]
    assert all(a > b for a, b in zip(rhos, rhos[1:]))


def test_stats_validation():
    with pytest.raises(InvalidDimensionError):
        trunc_gauss_stats(0)
    with pytest.raises(InvalidDimensionError):
        trunc_gauss_stats(-3)
    s = trunc_gauss_stats(10)
    assert s.bound == 1.0 / math.sqrt(10)


# ---------------------------------------------------------------- chunks

def test_chunk_regeneration_identical():
    a = sample_basis(1234, 512, 7, block=1)
    b = sample_basis(1234, 512, 7, block=1)
    assert np.array_equal(a.values, b.values)
    assert a.values.dtype == np.float32
    assert a.block_dim == 512


def test_chunk_golden_head():
    # float32 values frozen from the first verified run; the 64-bit pipeline
    # has ~29 spare mantissa bits so these are platform-stable
    c = sample_basis(42, 64, 0)
    np.testing.assert_array_equal(
        c.values[:4],
        np.array([0.07386088371276855, 0.10561760514974594,
                  -0.044631682336330414, 0.11861422657966614], dtype=np.float32))
    c2 = sample_basis(7, 4096, 5, block=2)
    np.testing.assert_array_equal(
        c2.values[:4],
        np.array([-0.007199936080724001, -0.0038917120546102524,
                  -0.010689489543437958, 0.008789685554802418], dtype=np.float32))


def test_distinct_indices_give_distinct_chunks():
    base = sample_basis(5, 128, 0, block=0).values
    assert not np.array_equal(base, sample_basis(5, 128, 1, block=0).values)
    assert not np.array_equal(base, sample_basis(5, 128, 0, block=1).values)
    assert not np.array_equal(base, sample_basis(6, 128, 0, block=0).values)


def test_entries_respect_bound_and_norm():
    for dim in (1, 2, 17, 64, 1000):
        stats = trunc_gauss_stats(dim)
        for k in range(3):
            v = sample_basis(321, dim, k).values
            assert np.all(np.abs(v.astype(np.float64)) <= stats.bound)
            assert float(np.linalg.norm(v.astype(np.float64))) <= 1.0


def test_tile_equals_chunks_any_split():
    dim, seed, block = 257, 99, 3
    whole = basis_tile(seed, block, dim, 0, 12)
    for k in range(12):
        np.testing.assert_array_equal(
            whole[k], sample_basis(seed, dim, k, block=block).values)
    np.testing.assert_array_equal(whole[4:9], basis_tile(seed, block, dim, 4, 9))
    assert basis_tile(seed, block, dim, 5, 5).shape == (0, dim)


def test_tile_rows_are_clipped_trunc_gauss_streams():
    # basis_tile and norm_ppf share one PPND16 evaluator, so a row is its
    # stream's public truncated-normal draws, clipped and rounded to float32
    dim, seed, block = 1000, 11, 2
    tile = basis_tile(seed, block, dim, 0, 4)
    bound, clip = trunc_gauss_stats(dim).bound, _clip_bound(dim)
    for k in range(4):
        stream = trunc_gauss_stream(derive_subseed(seed, 0, 0, block, k), dim, bound)
        np.testing.assert_array_equal(
            tile[k], np.clip(stream, -clip, clip).astype(np.float32))


def test_parallel_generation_equals_serial():
    dim, seed = 640, 2024
    serial = [sample_basis(seed, dim, k).values for k in range(16)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda k: sample_basis(seed, dim, k).values,
                                 range(16)))
    for a, b in zip(serial, parallel):
        assert np.array_equal(a, b)


def test_pooled_second_moment_matches_rho():
    # spec-scale check: d = 64, 1e4 chunks, pooled E[v^2] within 1% of rho
    dim, m = 64, 10_000
    tile = basis_tile(777, 0, dim, 0, m).astype(np.float64)
    second = float(np.mean(tile * tile))
    rho = trunc_gauss_stats(dim).rho
    assert abs(second - rho) / rho < 0.01
    # pooled mean near zero
    assert abs(float(tile.mean())) < 4.0 / math.sqrt(m * dim)


def test_off_diagonal_covariance_shrinks():
    dim, m = 16, 100_000
    tile = basis_tile(31337, 0, dim, 0, m).astype(np.float64)
    cov = tile.T @ tile / m
    off = cov - np.diag(np.diag(cov))
    assert float(np.abs(off).max()) < 5.0 / math.sqrt(m)


def test_trunc_gauss_stream_respects_bound():
    vals = trunc_gauss_stream(888, 4096, 0.25)
    assert np.all(np.abs(vals) <= 0.25)
    assert vals.dtype == np.float64
    with pytest.raises(InvalidDimensionError):
        trunc_gauss_stream(888, 16, 0.0)


def test_sample_basis_validation():
    with pytest.raises(InvalidDimensionError):
        sample_basis(1, 0, 0)
    with pytest.raises(InvalidDimensionError):
        sample_basis(1, 16, -1)
