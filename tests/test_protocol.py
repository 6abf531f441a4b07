"""PROTOCOL.md against the code: every frozen constant it states must match."""

import re
from pathlib import Path

import pytest

from fedproj import federation, projection, randbasis, wire

PROTOCOL = (Path(__file__).resolve().parents[1] / "PROTOCOL.md").read_text()


def _stated(pattern: str) -> str:
    found = re.findall(pattern, PROTOCOL)
    assert len(found) == 1, f"{pattern!r} matches {len(found)} times"
    return found[0]


@pytest.mark.parametrize("name", ["GAMMA", "MIX_MULT_1", "MIX_MULT_2"])
def test_mixing_constants(name):
    assert int(_stated(rf"\b{name}\s*=\s*(0x[0-9A-F]+)"), 16) == getattr(randbasis, name)


def test_rho_series_threshold():
    assert int(_stated(r"RHO_SERIES_MIN_DIM = (\d+)")) == randbasis._RHO_SERIES_MIN_DIM


def test_tile_size():
    tile, shift = _stated(r"tiled at `(\d+)` \(`1 << (\d+)`\)")
    assert int(tile) == 1 << int(shift) == projection._TILE_ELEMS
    assert f"max(1, {tile} // d_l)" in PROTOCOL


def test_projection_version():
    assert int(_stated(r"PROJECTION_VERSION = (\d+)")) == projection.PROJECTION_VERSION


def test_max_frame_bytes():
    size, shift = _stated(r"MAX_FRAME_BYTES = (\d+)` \(`1 << (\d+)`\)")
    assert int(size) == 1 << int(shift) == wire.MAX_FRAME_BYTES


def test_tag_values():
    rows = dict(re.findall(r"^\| `(TAG_\w+)` \| `(0x[0-9A-F]{2})` \|", PROTOCOL,
                           flags=re.MULTILINE))
    code = {name: getattr(wire, name) for name in dir(wire) if name.startswith("TAG_")}
    assert {name: int(v, 16) for name, v in rows.items()} == code
    assert len(code) == 6


@pytest.mark.parametrize("name,use", [("_IDX_SAMPLING", "client sampling"),
                                      ("_IDX_PROJECTION", "basis seed"),
                                      ("_IDX_LOCAL_RNG", "batch order"),
                                      ("_IDX_DATA", "data partitioning")])
def test_engine_lanes(name, use):
    lanes = dict(re.findall(r"^\| (\d+) \| (.+) \|$", PROTOCOL, flags=re.MULTILINE))
    assert sorted(lanes) == ["1", "2", "3", "4"]
    assert use in lanes[str(getattr(federation, name))]


def test_lane_2_is_per_client_and_round():
    block, lane = _stated(r"derive_subseed\(root, client \+ 1, round \+ 1, (\d+), (\d+)\)")
    cfg = federation.FedConfig(num_clients=4, rounds=1, local_iters=1,
                               total_bases=1, local_lr=0.1, root_seed=9)
    for round_index, client in ((0, 0), (3, 1), (5, 3)):
        want = randbasis.derive_subseed(9, client + 1, round_index + 1, int(block),
                                        int(lane))
        assert federation.projection_seed(cfg, round_index, client) == want


def test_sample_basis_row_group():
    rows, span = _stated(r"G = max\(1, min\((\d+), (\d+) // dim\)\)")
    assert int(rows) == randbasis._GROUP_MAX_ROWS
    assert int(span) == randbasis._SPAN
