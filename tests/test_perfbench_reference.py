"""The benchmark's stored outputs: each workload's output at seed 0 equals
``perfbench/reference.json``, so a change that moves a digest fails here and
not only in a ``perfbench/run.py --seed 0`` run."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import workloads  # noqa: E402

REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())


def test_reference_covers_every_workload():
    assert set(REFERENCE) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_output_at_seed_0(name):
    assert workloads.WORKLOADS[name].reference_output(0) == REFERENCE[name]
