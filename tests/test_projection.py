import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedproj import projection, randbasis
from fedproj.errors import (
    InfeasibleBudgetError,
    InvalidDimensionError,
    PartitionError,
    ProtocolError,
    ShapeMismatchError,
)
from fedproj.projection import (
    BlockPartition,
    ProjectedUpdate,
    UpdateVector,
    allocate_budgets,
    block_cost,
    cosine_similarity,
    exact_project,
    project,
    reconstruct,
)
from fedproj.randbasis import basis_tile, rho, trunc_gauss_stream


def _gauss(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(n)


def _materialize(seed: int, part: BlockPartition, block: int) -> np.ndarray:
    # full (K_l, d_l) basis in float64, the oracle's view
    return basis_tile(seed, block, part.block_dims[block], 0,
                      part.block_budgets[block]).astype(np.float64)


# ---------------------------------------------------------------- types

def test_partition_validation():
    with pytest.raises(InvalidDimensionError):
        BlockPartition((), ())
    with pytest.raises(ShapeMismatchError):
        BlockPartition((4, 4), (1,))
    with pytest.raises(InfeasibleBudgetError):
        BlockPartition((4,), (5,))
    with pytest.raises(InfeasibleBudgetError):
        BlockPartition((4,), (0,))
    p = BlockPartition((6, 10), (2, 3))
    assert p.total_dim == 16 and p.total_budget == 5
    assert p.offsets == (0, 6)


def test_partition_id_stable_and_layout_sensitive():
    a = BlockPartition((6, 10), (2, 3))
    assert a.partition_id == BlockPartition((6, 10), (2, 3)).partition_id
    assert a.partition_id != BlockPartition((10, 6), (3, 2)).partition_id
    assert a.partition_id != BlockPartition((6, 10), (3, 2)).partition_id
    assert 0 <= a.partition_id < 2 ** 32


def test_equal_split():
    p = BlockPartition.equal_split(10, 3, 7)
    assert p.block_dims == (4, 3, 3)
    assert p.block_budgets == (3, 2, 2)


def test_update_vector_validation():
    part = BlockPartition((4,), (2,))
    with pytest.raises(ShapeMismatchError):
        UpdateVector(np.zeros(5), part)
    with pytest.raises(ShapeMismatchError):
        UpdateVector(np.zeros((2, 2)), part)
    with pytest.raises(TypeError):  # the partition is required
        UpdateVector(np.arange(4.0))
    with pytest.raises(PartitionError):
        UpdateVector(np.arange(4.0), None)
    u = UpdateVector(np.arange(4), part)
    assert u.values.dtype == np.float64 and u.partition is part


# ---------------------------------------------------------------- project

def test_project_zero_gives_zero_coords():
    part = BlockPartition((32, 16), (4, 2))
    proj = project(UpdateVector(np.zeros(48), part), seed=9)
    for c in proj.block_coords:
        assert np.all(c == 0.0)


def test_project_explicit_small_oracle():
    # d = 4, K = 2, seed = 42: coords equal (rho K)^-1 V^T delta computed
    # from the materialized 64-bit basis
    part = BlockPartition((4,), (2,))
    delta = np.array([1.0, 2.0, 3.0, 4.0])
    proj = project(UpdateVector(delta, part), seed=42)
    v = _materialize(42, part, 0)  # (2, 4)
    want = (v @ delta) / (rho(4) * 2)
    np.testing.assert_allclose(proj.block_coords[0],
                               want.astype(np.float32), rtol=1e-6)
    assert proj.block_coords[0].dtype == np.float32
    assert proj.seed == 42
    assert proj.partition_id == part.partition_id


def test_project_scaling_linearity():
    part = BlockPartition((128,), (8,))
    delta = _gauss(0, 128)
    base = project(UpdateVector(delta, part), seed=5)
    scaled = project(UpdateVector(-3.5 * delta, part), seed=5)
    np.testing.assert_allclose(scaled.block_coords[0],
                               -3.5 * base.block_coords[0], rtol=1e-6)


def test_project_additive_linearity():
    part = BlockPartition((64, 64), (4, 4))
    d1, d2 = _gauss(1, 128), _gauss(2, 128)
    pa = project(UpdateVector(d1, part), seed=3)
    pb = project(UpdateVector(d2, part), seed=3)
    pc = project(UpdateVector(d1 + d2, part), seed=3)
    for l in range(2):
        np.testing.assert_allclose(
            pc.block_coords[l],
            pa.block_coords[l].astype(np.float64) + pb.block_coords[l],
            rtol=1e-5, atol=1e-7)


def test_project_deterministic_repeat():
    part = BlockPartition((100, 28), (6, 3))
    u = UpdateVector(_gauss(8, 128), part)
    a = project(u, seed=77)
    b = project(u, seed=77)
    for ca, cb in zip(a.block_coords, b.block_coords):
        assert np.array_equal(ca, cb)


@pytest.mark.parametrize("dim,budget", [(4096, 256), (1000, 64)])
def test_project_bits_do_not_depend_on_tile_size(monkeypatch, dim, budget):
    # every coordinate is one full-row dot product, so the row grouping never
    # reaches project's sums; reconstruct's grouping does (PROTOCOL.md)
    u = UpdateVector(_gauss(21, dim), BlockPartition((dim,), (budget,)))
    want = project(u, seed=5).block_coords[0]
    for span in (1 << 12, 1 << 19):
        monkeypatch.setattr(projection, "_SPAN", span)
        assert np.array_equal(project(u, seed=5).block_coords[0], want)


@pytest.mark.parametrize("dim,budget", [(4096, 256), (1000, 64), (799, 82)])
def test_reconstruct_bits_do_not_depend_on_column_pieces(monkeypatch, dim, budget):
    # each entry's group sum runs over k in ascending order whatever the
    # column piece holding it, a last piece one column wide included
    part = BlockPartition((dim,), (budget,))
    msg = project(UpdateVector(_gauss(22, dim), part), seed=6)
    want = reconstruct(msg, part)
    for span in (1 << 6, 1 << 8, 1 << 10, 1 << 17):
        monkeypatch.setattr(projection, "_SPAN", span)
        assert np.array_equal(reconstruct(msg, part), want)


# sha256 of project's float32 coordinates, block by block, then reconstruct's
# float64 output, for trunc_gauss_stream(31, d, bound=3.0) at seed 0x5EED0F00D;
# frozen from the implementation that converted whole row groups to float64.
# Budgets are not multiples of either row group, 799 = 2 * 399 + 1 leaves a
# one-column last piece, and the rest are the subspace-mlp blocks
_ROUNDTRIP_DIGESTS = {
    ((1,), (1,)): "2c73d294cfc59a2125cd35c97643477ffec77c99cb89763a88d7ce2360d3a724",
    ((10,), (7,)): "3a8bea116041e2067b4a2a7e08e3b903b1cc7298e1c9c38407e68bc164202983",
    ((4095,), (141,)): "d73c328cec21d3461d80df06a4897ec4838105abcdd0ac279a434c62f72aa8ab",
    ((4096,), (141,)): "168c4c2845e3b9872286aebb0d3f8d477bda44ee7d036945fdf4f882b3988b85",
    ((4097,), (141,)): "bb72bc5998d938edaccc0e7e2cea7abe2c68348660ff15dad1bf20db1feb8b03",
    ((32767,), (37,)): "9ed49b178971b673d1c0691ed785528a4467e859e6ba3170fe4048e1c191ab1e",
    ((32768,), (37,)): "c01221558614a50df7a7a4a02bd908da4d4f85a225f0a0d7d254fb0bd267816f",
    ((32769,), (37,)): "9d5e46fc17d4664e5467844c75a76d9f0169399968f9489fd42861f3a8979bb4",
    ((65536,), (19,)): "a4207450ad21a2069392fe9a97339f04c1599260bf098d85622f06e70f832a51",
    ((799,), (82,)): "db8ff1a49cae65cb24c5a386524e906fb3d1c112e1c37258828c193664a73dfb",
    ((2560,), (82,)): "c838dd48d953e1ad913ecb8fd426f1e1a077103626bd3905161ecd0022bf5f1e",
    ((256,), (82,)): "6b9b091a696feb8028798e042bf1bc6e37f682035179e5aea8bd5b82f40ca76a",
    ((16384,), (32,)): "7929793bafc341b7b1cd518a89b189af9418ce1cf6c03ed1d3ea42b23849c063",
    ((65536,), (8,)): "b00709a43cd5ac717f6843c55001170b12dd89a24803956917f2e72cb85be48c",
    ((4097, 10, 1), (141, 7, 1)):
        "d15dfd280bd3b75e1e2c5726b3deb8b353353b3fdb691cd13a7714cd98410cbd",
}


@pytest.mark.parametrize("dims,budgets", list(_ROUNDTRIP_DIGESTS))
def test_roundtrip_golden_digest(dims, budgets):
    part = BlockPartition(dims, budgets)
    u = UpdateVector(trunc_gauss_stream(31, part.total_dim, bound=3.0), part)
    msg = project(u, seed=0x5EED0F00D)
    h = hashlib.sha256()
    for coords in msg.block_coords:
        h.update(coords.tobytes())
    h.update(reconstruct(msg, part).tobytes())
    assert h.hexdigest() == _ROUNDTRIP_DIGESTS[dims, budgets]


@pytest.mark.parametrize("dim,budget", [(4096, 256), (1000, 64), (65536, 8)])
def test_bits_do_not_depend_on_generation_span(monkeypatch, dim, budget):
    # generation spans are elementwise and feed no sum, so basis_tile,
    # project and reconstruct keep their bits at any span size, including
    # spans shorter than one row
    u = UpdateVector(_gauss(23, dim), BlockPartition((dim,), (budget,)))
    tile = basis_tile(9, 0, dim, 0, budget)
    msg = project(u, seed=9)
    back = reconstruct(msg, u.partition)
    for span in (1 << 10, 1 << 12, 1 << 17):
        monkeypatch.setattr(randbasis, "_SPAN", span)
        assert np.array_equal(basis_tile(9, 0, dim, 0, budget), tile)
        coords = project(u, seed=9).block_coords[0]
        assert np.array_equal(coords, msg.block_coords[0])
        assert np.array_equal(reconstruct(msg, u.partition), back)


def test_blockwise_equals_per_block_oracle():
    # multi-block projection equals independently computed per-block products
    part = BlockPartition((96, 32), (5, 3))
    delta = _gauss(4, 128)
    proj = project(UpdateVector(delta, part), seed=11)
    for l, (off, d_l, k_l) in enumerate(zip(part.offsets, part.block_dims,
                                            part.block_budgets)):
        v = _materialize(11, part, l)
        want = (v @ delta[off:off + d_l]) / (rho(d_l) * k_l)
        np.testing.assert_allclose(proj.block_coords[l],
                                   want.astype(np.float32), rtol=1e-5)


# ---------------------------------------------------------------- reconstruct

def test_reconstruct_zero_roundtrip():
    part = BlockPartition((24,), (3,))
    out = reconstruct(project(UpdateVector(np.zeros(24), part), 1), part)
    assert type(out) is np.ndarray
    assert out.dtype == np.float64 and out.shape == (part.total_dim,)
    assert np.all(out == 0.0)


def test_reconstruct_single_coordinate_returns_chunk():
    part = BlockPartition((40,), (4,))
    coords = np.zeros(4, dtype=np.float32)
    coords[2] = 1.0
    msg = ProjectedUpdate(part.partition_id, 13, (coords,))
    out = reconstruct(msg, part)
    want = basis_tile(13, 0, 40, 2, 3)[0].astype(np.float64)
    np.testing.assert_array_equal(out, want)


def test_roundtrip_matches_materialized_oracle():
    part = BlockPartition((512,), (16,))
    delta = _gauss(6, 512)
    got = reconstruct(project(UpdateVector(delta, part), seed=21), part)
    v = _materialize(21, part, 0)  # (16, 512)
    scale = 1.0 / (rho(512) * 16)
    coords32 = (scale * (v @ delta)).astype(np.float32)
    want = v.T @ coords32.astype(np.float64)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_roundtrip_multiblock_matches_oracle():
    part = BlockPartition((100, 156), (8, 8))
    delta = _gauss(7, 256)
    got = reconstruct(project(UpdateVector(delta, part), seed=2), part)
    for l, (off, d_l, k_l) in enumerate(zip(part.offsets, part.block_dims,
                                            part.block_budgets)):
        v = _materialize(2, part, l)
        coords32 = ((v @ delta[off:off + d_l]) /
                    (rho(d_l) * k_l)).astype(np.float32)
        want = v.T @ coords32.astype(np.float64)
        np.testing.assert_allclose(got[off:off + d_l], want, rtol=1e-10,
                                   atol=1e-12)


def test_reconstruct_rejects_mismatched_partition():
    part = BlockPartition((16,), (2,))
    other = BlockPartition((16,), (3,))
    msg = project(UpdateVector(np.ones(16), part), 4)
    with pytest.raises(ShapeMismatchError):
        reconstruct(msg, other)


def test_reconstruct_rejects_unknown_version():
    part = BlockPartition((16,), (2,))
    msg = project(UpdateVector(np.ones(16), part), 4)
    bad = ProjectedUpdate(msg.partition_id, msg.seed, msg.block_coords, version=99)
    with pytest.raises(ProtocolError):
        reconstruct(bad, part)


def test_reconstruct_rejects_wrong_coord_length():
    part = BlockPartition((16,), (2,))
    bad = ProjectedUpdate(part.partition_id, 4, (np.zeros(3, np.float32),))
    with pytest.raises(ShapeMismatchError):
        reconstruct(bad, part)


def test_unbiasedness_error_scales_as_inverse_sqrt_trials():
    # slope of log error against log trials stays near -1/2
    d, k, seeds = 64, 8, 10_000
    part = BlockPartition((d,), (k,))
    delta = _gauss(10, d)
    u = UpdateVector(delta, part)
    acc = np.zeros(d)
    errs, marks = [], (100, 1000, 10_000)
    for s in range(seeds):
        acc += reconstruct(project(u, seed=s), part)
        if s + 1 in marks:
            errs.append(np.linalg.norm(acc / (s + 1) - delta))
    slope = np.polyfit(np.log10(marks), np.log10(errs), 1)[0]
    assert -0.6 < slope < -0.4


def test_error_bound_holds_over_trials():
    # worst-case bound from the tail inequality; loose but must never trip
    d, k, trials = 1024, 32, 50
    part = BlockPartition((d,), (k,))
    delta = _gauss(11, d)
    u = UpdateVector(delta, part)
    rho_k = rho(d) * k
    t = 2.0 * math.log(2 * d) / rho_k
    bound = max(2.0 * math.sqrt(t), t)
    norm = np.linalg.norm(delta)
    rels = []
    for s in range(trials):
        err = reconstruct(project(u, seed=1000 + s), part) - delta
        rels.append(np.linalg.norm(err) / norm)
    assert np.mean(rels) <= bound
    assert max(rels) <= bound


def test_cosine_improves_with_budget():
    # paired seeds, averaged; more bases must not hurt alignment
    d = 1000
    delta = _gauss(12, d)
    means = []
    for k in (16, 64, 256):
        part = BlockPartition((d,), (k,))
        u = UpdateVector(delta, part)
        cs = [cosine_similarity(reconstruct(project(u, seed=s), part),
                                delta) for s in range(5)]
        means.append(np.mean(cs))
    assert means[0] < means[1] < means[2]


# ---------------------------------------------------------------- exact oracle

def test_exact_project_interpolates_when_square():
    d = 32
    part = BlockPartition((d,), (d,))
    delta = _gauss(13, d)
    out = reconstruct(exact_project(UpdateVector(delta, part), seed=3), part)
    assert np.linalg.norm(out - delta) / np.linalg.norm(delta) < 1e-5


def test_exact_project_residual_optimality():
    d, k, seed = 64, 8, 7
    part = BlockPartition((d,), (k,))
    delta = _gauss(14, d)
    u = UpdateVector(delta, part)
    v = _materialize(seed, part, 0)
    res_exact = np.linalg.norm(
        v.T @ np.asarray(exact_project(u, seed).block_coords[0]) - delta)
    res_approx = np.linalg.norm(
        v.T @ project(u, seed).block_coords[0].astype(np.float64) - delta)
    assert res_exact <= res_approx + 1e-12


def test_gram_matrix_concentrates():
    # V^T V / (rho d) approaches the identity; justifies skipping the inverse
    d, k = 4096, 32
    v = basis_tile(17, 0, d, 0, k).astype(np.float64)
    gram = v @ v.T / (rho(d) * d)
    dev = np.abs(gram - np.eye(k)).max()
    assert dev < 0.15


# ---------------------------------------------------------------- budgets

def test_allocate_spec_examples():
    assert allocate_budgets([1, 1, 1, 1], (64,) * 4, 16) == (4, 4, 4, 4)
    assert allocate_budgets([16, 1], (64, 64), 15) == (12, 3)
    assert allocate_budgets([10, 0, 3], (64,) * 3, 6)[1] == 1


def test_allocate_caps_redistribute():
    alloc = allocate_budgets([100, 1], (2, 64), 10)
    assert alloc[0] == 2 and sum(alloc) == 10


def test_allocate_all_zero_norms_uniform():
    assert allocate_budgets([0, 0, 0, 0], (8,) * 4, 8) == (2, 2, 2, 2)


def test_allocate_favors_low_rho_blocks():
    # same norms: the wider block (smaller rho) deserves more bases
    alloc = allocate_budgets([1.0, 1.0], (16, 4096), 12)
    assert alloc[1] > alloc[0]


def test_allocate_infeasible():
    dims = (4, 4, 4)
    with pytest.raises(InfeasibleBudgetError):
        allocate_budgets([1, 1, 1], dims, 2)
    with pytest.raises(InfeasibleBudgetError):
        allocate_budgets([1, 1, 1], dims, 13)
    with pytest.raises(InvalidDimensionError):
        allocate_budgets([-1, 1, 1], dims, 6)
    with pytest.raises(ShapeMismatchError):
        allocate_budgets([1, 1], dims, 6)
    with pytest.raises(InvalidDimensionError):
        allocate_budgets([1, 1, 1], (4, 0, 4), 6)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 50), st.floats(0, 100)),
                min_size=1, max_size=6), st.data())
def test_allocate_properties(blocks, data):
    dims = [b[0] for b in blocks]
    norms = [b[1] for b in blocks]
    total = data.draw(st.integers(len(blocks), sum(dims)))
    alloc = allocate_budgets(norms, dims, total)
    assert sum(alloc) == total
    assert all(1 <= k <= d for k, d in zip(alloc, dims))


# ---------------------------------------------------------------- cost

def test_block_cost():
    assert block_cost(BlockPartition((8,), (8,))) == 64
    assert block_cost(BlockPartition((3, 6), (2, 5))) == 36
    equal = BlockPartition.equal_split(2 ** 20, 16, 256)
    assert block_cost(equal) == 2 ** 20 * 256 // 16


def test_block_cost_below_dense_cost_when_split():
    p = BlockPartition((16, 16, 32), (2, 4, 2))
    assert block_cost(p) < p.total_dim * p.total_budget


def test_cosine_similarity_basics():
    assert cosine_similarity(np.ones(4), np.ones(4)) == pytest.approx(1.0)
    assert cosine_similarity(np.ones(4), -np.ones(4)) == pytest.approx(-1.0)
    assert cosine_similarity(np.zeros(4), np.ones(4)) == 0.0
