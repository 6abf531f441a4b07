import hashlib
import math
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest

from fedproj import randbasis
from fedproj.errors import InvalidDimensionError, ShapeMismatchError
from fedproj.randbasis import (
    GAMMA,
    MASK64,
    _clip_bound,
    basis_tile,
    derive_subseed,
    mix64,
    rho,
    sample_basis,
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


def test_streams_reject_negative_length_and_start():
    for call in (lambda: uniform_stream(1, -1), lambda: uniform_stream(1, 3, start=-2),
                 lambda: trunc_gauss_stream(1, -1, 1.0)):
        with pytest.raises(InvalidDimensionError):
            call()


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
        got = rho(dim)
        assert abs(got - want) / want < 1e-12


def test_rho_matches_oracle_across_scales():
    for dim in (1, 2, 3, 7, 50, 255, 256, 257, 300, 1000, 4096, 10**4, 10**6, 10**9):
        got = rho(dim)
        want = _rho_oracle(dim)
        assert abs(got - want) / want < 1e-12, dim


def test_rho_times_dim_approaches_one_third():
    assert abs(rho(10**6) * 10**6 - 1.0 / 3.0) < 1e-3 / 3.0


def test_rho_strictly_decreasing():
    dims = list(range(1, 129)) + [200, 500, 1000, 2000, 5000, 10**4]
    rhos = [rho(d) for d in dims]
    assert all(a > b for a, b in zip(rhos, rhos[1:]))


def test_rho_validation():
    for dim in (0, -3, 2.0, np.int64(10)):
        with pytest.raises(InvalidDimensionError):
            rho(dim)


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
        for k in range(3):
            v = sample_basis(321, dim, k).values
            assert np.all(np.abs(v.astype(np.float64)) <= 1.0 / math.sqrt(dim))
            assert float(np.linalg.norm(v.astype(np.float64))) <= 1.0


def test_tile_equals_chunks_any_split():
    dim, seed, block = 257, 99, 3
    whole = basis_tile(seed, block, dim, 0, 12)
    for k in range(12):
        np.testing.assert_array_equal(
            whole[k], sample_basis(seed, dim, k, block=block).values)
    np.testing.assert_array_equal(whole[4:9], basis_tile(seed, block, dim, 4, 9))
    assert basis_tile(seed, block, dim, 5, 5).shape == (0, dim)


@pytest.mark.parametrize("seed,block,k_lo", [
    (11, 2, 0), (2 ** 64 - 1, 0, 2 ** 40), (-3, 7, 5), (2 ** 70 + 5, 1, 16)])
def test_tile_rows_are_clipped_trunc_gauss_streams(seed, block, k_lo):
    # basis_tile's float32 values are PPND16's, whether or not the series
    # route made them, so a row is its stream's public truncated-normal
    # draws (norm_ppf), clipped and rounded to float32; the row seeds are
    # derive_subseed's for any seed and index, however basis_tile folds them
    dim = 1000
    tile = basis_tile(seed, block, dim, k_lo, k_lo + 4)
    bound, clip = 1.0 / math.sqrt(dim), _clip_bound(dim)
    for k in range(k_lo, k_lo + 4):
        stream = trunc_gauss_stream(derive_subseed(seed, 0, 0, block, k), dim, bound)
        np.testing.assert_array_equal(
            tile[k - k_lo], np.clip(stream, -clip, clip).astype(np.float32))


@pytest.mark.parametrize("k_hi", [0, 3])
def test_tile_rejects_a_negative_block(k_hi):
    with pytest.raises(InvalidDimensionError, match="non-negative"):
        basis_tile(7, -1, 10, 0, k_hi)


@pytest.mark.parametrize("dim", [100, 256, 1000, 2410, 2560, 4096, 16384,
                                 65536, 1 << 20, 1 << 22])
def test_series_route_gives_ppnd16_bytes(dim, monkeypatch):
    plan = randbasis._trunc_plan
    assert plan(dim)[2] > 0
    rows = max(1, (1 << 20) // dim)
    series = [basis_tile(seed, 1, dim, 3, 3 + rows) for seed in (0, 5, 2 ** 63 + 9)]
    monkeypatch.setattr(randbasis, "_trunc_plan", lambda dim: plan(dim)[:2] + (0,))
    for seed, tile in zip((0, 5, 2 ** 63 + 9), series):
        assert tile.tobytes() == basis_tile(seed, 1, dim, 3, 3 + rows).tobytes()


def test_narrow_blocks_only_take_the_series():
    dims = (1, 10, 80, 256, 2410, 65536, 1 << 22)
    terms = {d: randbasis._trunc_plan(d)[2] for d in dims}
    assert terms == {1: 0, 10: 0, 80: 6, 256: 5, 2410: 4, 65536: 3, 1 << 22: 2}


# sha256 of basis_tile(seed, block=3, d, 17, 17 + rows).tobytes(), frozen from
# the whole-tile generator: one span, several column spans, a partial last
# span, several rows per span, zero rows and d = 1
_TILE_DIGESTS = {
    (1, 3): "1738a7fe7d5f063613c66f8e06922e5154e2ffb54c1c8f626bf81419fa4cff3d",
    (10, 10): "76289b1aa8aee7f89b7daf61e7badc5adcdbf556f725ed4e7b413bc119fb2c16",
    (256, 82): "ff05d482f4cbca9a2a96354ef73eb09c208575e9aec7649c454f32e069bef20b",
    (2410, 1): "fbf062cd9d94de5b1cc271ed29a51e551ce8246867720cf14970106f17a03dd3",
    (32769, 2): "e9b7c7fe76bdb5ba060f653409255a7f96b5318402bc2d9e9287130eb99a8480",
    (65536, 8): "cdf4d66e17db6c1a50041d27fb849515c052f6fa6018669051bff73f42efe85f",
    (1 << 20, 1): "651fa8b3cf1a0266c3e4af1010efff337a9bdbf197a619339d0cf1dd6da0a9fe",
    (4096, 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}


@pytest.mark.parametrize("dim,rows", sorted(_TILE_DIGESTS))
def test_tile_golden_digest(dim, rows):
    tile = basis_tile(0x1234ABCD5678EF01, 3, dim, 17, 17 + rows)
    assert tile.shape == (rows, dim) and tile.dtype == np.float32
    assert hashlib.sha256(tile.tobytes()).hexdigest() == _TILE_DIGESTS[dim, rows]


@pytest.mark.parametrize("dim,rows", [(2410, 13), (40000, 1), (10, 7)])
def test_tile_into_out_equals_fresh_tile(dim, rows):
    buf = np.full((rows + 2, dim), np.nan, dtype=np.float32)
    got = basis_tile(77, 1, dim, 5, 5 + rows, out=buf[1:rows + 1])
    assert got.base is buf
    assert np.array_equal(got, basis_tile(77, 1, dim, 5, 5 + rows))
    assert np.isnan(buf[0]).all() and np.isnan(buf[-1]).all()


@pytest.mark.parametrize("shape,dtype", [((3, 10), np.float64), ((2, 10), np.float32),
                                         ((3, 11), np.float32)])
def test_tile_rejects_an_out_of_another_shape_or_type(shape, dtype):
    with pytest.raises(ShapeMismatchError):
        basis_tile(77, 1, 10, 0, 3, out=np.empty(shape, dtype=dtype))


def test_tile_scratch_memory_stays_span_sized():
    # a d = 2^20 row needs its 4 MiB output plus span-sized temporaries, not
    # ~40 MiB of whole-row float64 temporaries
    basis_tile(12345, 0, 1 << 20, 0, 1)  # fills the per-dim counter cache
    tracemalloc.start()
    try:
        out = basis_tile(12345, 0, 1 << 20, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + (2 << 20)


def test_parallel_generation_equals_serial():
    # interleaved streams share sample_basis's row cache across threads; a short
    # switch interval makes the threads trade places inside it
    calls = [(2024, dim, k, block) for k in range(16)
             for dim, block in ((640, 0), (2410, 1), (1, 2))]
    serial = [sample_basis(seed, dim, k, block=block).values
              for seed, dim, k, block in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(
                lambda c: sample_basis(c[0], c[1], c[2], block=c[3]).values, calls))
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, parallel):
        assert np.array_equal(a, b)


def test_pooled_second_moment_matches_rho():
    # spec-scale check: d = 64, 1e4 chunks, pooled E[v^2] within 1% of rho
    dim, m = 64, 10_000
    tile = basis_tile(777, 0, dim, 0, m).astype(np.float64)
    second = float(np.mean(tile * tile))
    want = rho(dim)
    assert abs(second - want) / want < 0.01
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


# sha256 of trunc_gauss_stream(0x5EED, n, bound) bytes, recorded before the
# stream was made in spans: no bit depends on the span.  Bound 1/16 stays in
# PPND16's central branch and 3.0 reaches the near tail; at 40.0 the stream
# covers nearly all of (0, 1), though its 2^-53 lattice reaches the far tail
# (p < exp(-25)) too rarely to show here (norm_ppf's own digest covers that).
# The lengths straddle one and three 2^15-entry spans.
_STREAM_DIGESTS = {
    (1 / 16, 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (1 / 16, 1): "02f1f691d7e23b18f967a174c005912fce3de3d482a2efc1b3b30cba547d4ba4",
    (1 / 16, 32_767): "be19243b5ec3b6f6d7aef7c68a07d2c9ef0c5b8857bccb06820253949dc5da2f",
    (1 / 16, 32_768): "007431054258657272208735af47f320c3695762facb211cf5c37c51d42afe04",
    (1 / 16, 32_769): "d93d3e658df82d9296fe421e545e3505690fc387f25c0e26f66c01d541fec7aa",
    (1 / 16, 98_311): "18220e3c424fac1c474a8e60a5b4a05ab8669640d5f55b1c5967fd6593b9ef3d",
    (1 / 16, 512_000): "97b07f780603b46587b9b05a47fe591809960d19f63ba4121f048036391b49b7",
    (3.0, 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (3.0, 1): "ed215910042b174d021f1359eb3c5e2dcc13b9da914945d5a8314251c612b3a1",
    (3.0, 32_767): "b013f7fcef2ca5d5d51a36d2fd0be27d217624736a4324754c69ef7c79d3e34d",
    (3.0, 32_768): "0cca5ac18b5d70d8cae3e1aee858f93d0890cd00accd63ec348b0adab7cc13eb",
    (3.0, 32_769): "95e26ffb89fcd37f0f5c7fb943ad2903ac37f0c1c3e4036fd3240c1bc5b57ee9",
    (3.0, 98_311): "2e609032807af8c247246e1f14fba60b66c00508892bf2432207fe9fad0d6f99",
    (3.0, 512_000): "48337e571ffc6bbfc82e73efd88f36fab92bb09bf7bd1bcff3bab9ecffda32f7",
    (40.0, 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (40.0, 1): "3b21a341cdf1042fc8d0334951bbd725723ea3ae858f1a91fc81b2eff094b61c",
    (40.0, 32_767): "f54f4d24ce26f6f46ffea76fe436bd6128bfaeafe2a5ced8e011fc674f5c763f",
    (40.0, 32_768): "8d71af950da6df64ca186bcaa1ca39f6642ddd8fcb81df7fab16b11a0c772bc3",
    (40.0, 32_769): "36da2a701331e9ae11268f345277588ee993d7f9e396c8d9d78e4de368720419",
    (40.0, 98_311): "5bbe11a121672acd419c1f074d7cb75b1a1480d47b1d75e1820fc89f3bbccdd0",
    (40.0, 512_000): "829685a5d434fe4e942652eefd94f5cb79d3b86e84941198aa84c69db7b8b95d",
}


@pytest.mark.parametrize("bound,n", sorted(_STREAM_DIGESTS))
def test_trunc_gauss_stream_golden_digest(bound, n):
    vals = trunc_gauss_stream(0x5EED, n, bound)
    assert vals.shape == (n,) and vals.dtype == np.float64
    assert hashlib.sha256(vals.tobytes()).hexdigest() == _STREAM_DIGESTS[bound, n]


def test_trunc_gauss_stream_memory_stays_span_sized():
    # 2^20 draws need their 8 MiB output plus span-sized temporaries, not the
    # whole-stream uniforms and inverse-cdf temporaries
    trunc_gauss_stream(12345, 1, 3.0)
    tracemalloc.start()
    try:
        out = trunc_gauss_stream(12345, 1 << 20, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + (2 << 20)


def test_sample_basis_validation():
    # the same errors on a cold and on a primed row cache: the primed group
    # holds (seed, block 0, d = 2410) rows 0-12
    seed = 0x5EED_0A11
    for _ in range(2):
        with pytest.raises(InvalidDimensionError):
            sample_basis(seed, np.int64(2410), 1)
        with pytest.raises(InvalidDimensionError):
            sample_basis(seed, 0, 0)
        with pytest.raises(InvalidDimensionError):
            sample_basis(seed, 2410, -1)
        sample_basis(seed, 2410, 0)


# sample_basis row groups hold 16 rows up to d = 2048, then 32768 // d rows,
# then one row
_ROW_CACHE_DIMS = (1, 2, 2047, 2048, 2049, 2410, 32767, 32768, 32769)


def _group_rows(dim: int) -> int:
    return max(1, min(16, 32768 // dim))


def _row_orders(dim: int) -> dict[str, list[int]]:
    # K = 2G + 3 rows: no multiple of the group size G unless G = 1
    k_total = 2 * _group_rows(dim) + 3
    shuffled = list(range(k_total))
    random.Random(dim).shuffle(shuffled)
    return {"ascending": list(range(k_total)),
            "descending": list(range(k_total - 1, -1, -1)),
            "strided": list(range(0, k_total, 3)) + list(range(1, k_total, 3)),
            "shuffled": shuffled}


@pytest.mark.parametrize("dim", _ROW_CACHE_DIMS)
def test_sample_basis_rows_equal_tile_rows_in_any_order(dim):
    seed, block = 0xC0FFEE, 2
    orders = _row_orders(dim)
    want = [basis_tile(seed, block, dim, k, k + 1)[0] for k in orders["ascending"]]
    for order in orders.values():
        for k in order:
            got = sample_basis(seed, dim, k, block=block).values
            assert got.dtype == np.float32 and got.shape == (dim,)
            np.testing.assert_array_equal(got, want[k])


@pytest.mark.parametrize("dim", _ROW_CACHE_DIMS)
def test_sample_basis_groups_hold_one_span_and_at_most_16_rows(dim, monkeypatch):
    groups = []

    def counting_tile(seed, block, block_dim, k_lo, k_hi):
        groups.append((k_lo, k_hi))
        return basis_tile(seed, block, block_dim, k_lo, k_hi)

    monkeypatch.setattr(randbasis, "basis_tile", counting_tile)
    rows = _group_rows(dim)
    ks = _row_orders(dim)["ascending"]
    for k in ks:
        sample_basis(0xB10C, dim, k, block=5)
    assert groups == [(k0, k0 + rows) for k0 in range(0, len(ks), rows)]


def test_sample_basis_rows_equal_tile_rows_across_interleaved_streams():
    # (seed, block, d): streams that share a seed, a block or both, and a
    # seed given as its 64-bit two's complement
    streams = [(3, 0, 1), (3, 1, 2047), (4, 0, 2049), (-1, 0, 32767),
               (2**64 - 1, 0, 2410), (3, 0, 32769)]
    walks = [(stream, _row_orders(stream[2])["strided"]) for stream in streams]
    for step in range(max(len(order) for _, order in walks)):
        for (seed, block, dim), order in walks:
            if step < len(order):
                k = order[step]
                np.testing.assert_array_equal(
                    sample_basis(seed, dim, k, block=block).values,
                    basis_tile(seed, block, dim, k, k + 1)[0])


def test_sample_basis_returns_independent_writable_rows():
    seed, dim = 99, 2410
    first = sample_basis(seed, dim, 3).values
    assert first.flags.writeable and first.dtype == np.float32
    first[:] = 7.0
    again = sample_basis(seed, dim, 3).values
    neighbour = sample_basis(seed, dim, 4).values
    assert not np.shares_memory(again, first)
    np.testing.assert_array_equal(again, basis_tile(seed, 0, dim, 3, 4)[0])
    np.testing.assert_array_equal(neighbour, basis_tile(seed, 0, dim, 4, 5)[0])
