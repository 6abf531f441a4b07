"""Tests for the statistical check harness (downscaled where needed)."""

import math
from dataclasses import fields
from functools import cache

import numpy as np
import pytest

from fedproj import verify
from fedproj.errors import ConfigError
from fedproj.verify import (CHECK_NAMES, CheckReport, TheoryCheckConfig,
                            run_battery, run_check)


# the overrides each check reads; a check given any other one is
# misconfigured, so construction must refuse it before anything runs
_READS = {
    "unbiased": {"dims", "budgets", "trials", "tolerance"},
    "error-bound": {"dims", "budgets", "trials"},
    "zo-connection": {"dims", "budgets", "trials", "epsilon"},
    "rho-rate": {"dims", "tolerance"},
    "accuracy-vs-bases": {"dims", "budgets", "trials", "epsilon"},
    "drift-immunity": {"dims", "budgets", "trials", "epsilon", "tolerance"},
    "block-speedup": {"dims", "budgets", "tolerance"},
    "allocation": {"trials"},
    "convergence": {"tolerance"},
    "accounting": set(),
    "determinism": set(),
}
_VALUES = {"trials": 3, "dims": (64,), "budgets": (8,), "tolerance": 0.5,
           "epsilon": 0.1}

# per check, a small base run and, for each override the check reads, a value
# that moves its (measured, passed); a tolerance moves it by flipping the
# verdict.  The drift-immunity base is a draw whose verdict epsilon decides.
_MOVES = {
    "unbiased": (dict(dims=(64,), budgets=(8,), trials=50, tolerance=1.0),
                 dict(dims=(32,), budgets=(4,), trials=40, tolerance=1e-6)),
    "error-bound": (dict(dims=(128,), budgets=(16,), trials=5),
                    dict(dims=(64,), budgets=(8,), trials=4)),
    "zo-connection": (dict(dims=(64,), budgets=(8,), trials=3, epsilon=0.1),
                      dict(dims=(32,), budgets=(4,), trials=1, epsilon=0.01)),
    "rho-rate": (dict(dims=(100, 1000, 10_000), tolerance=0.05),
                 dict(dims=(100, 1000), tolerance=1e-9)),
    "accuracy-vs-bases": (
        dict(dims=(400,), budgets=(16, 64), trials=3, epsilon=0.1),
        dict(dims=(200,), budgets=(32, 64), trials=2, epsilon=0.01)),
    "drift-immunity": (
        dict(seed=2025, dims=(16,), budgets=(2,), trials=1, epsilon=10.0,
             tolerance=1.0),
        dict(dims=(32,), budgets=(4,), trials=2, epsilon=0.1, tolerance=1e-9)),
    "block-speedup": (dict(dims=(1 << 14,), budgets=(32,), tolerance=0.5),
                      dict(dims=(1 << 13,), budgets=(16,), tolerance=1e9)),
    "allocation": (dict(trials=3), dict(trials=2)),
    "convergence": (dict(tolerance=0.1), dict(tolerance=1e-9)),
    "accounting": ({}, {}),
    "determinism": ({}, {}),
}


class TestTheoryCheckConfig:
    def test_accepts_known_names(self):
        for name in CHECK_NAMES:
            assert TheoryCheckConfig(which=name).which == name

    def test_rejects_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown check"):
            TheoryCheckConfig(which="spectral-gap")

    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigError, match="trials"):
            TheoryCheckConfig(which="unbiased", trials=0)

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ConfigError, match="tolerance"):
            TheoryCheckConfig(which="unbiased", tolerance=0.0)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ConfigError, match="epsilon"):
            TheoryCheckConfig(which="zo-connection", epsilon=-0.1)

    @pytest.mark.parametrize("field", ["tolerance", "epsilon"])
    @pytest.mark.parametrize("value", ["0.5", True, math.inf, -math.inf, math.nan])
    def test_rejects_non_real_or_non_finite_overrides(self, field, value):
        which = {"epsilon": "zo-connection", "tolerance": "unbiased"}[field]
        with pytest.raises(ConfigError, match=f"^{field} must be a finite real"):
            TheoryCheckConfig(which=which, **{field: value})

    def test_accepts_integer_and_numpy_real_overrides(self):
        cfg = TheoryCheckConfig(which="drift-immunity", tolerance=np.int64(1),
                                epsilon=np.float32(0.5))
        assert (cfg.tolerance, cfg.epsilon) == (1, 0.5)

    def test_rejects_bad_dims_and_budgets(self):
        with pytest.raises(ConfigError, match="dims"):
            TheoryCheckConfig(which="unbiased", dims=())
        with pytest.raises(ConfigError, match="budgets"):
            TheoryCheckConfig(which="unbiased", budgets=(0,))

    @pytest.mark.parametrize("field,value", [
        ("trials", 2.5), ("trials", 2.0), ("trials", True), ("trials", "3"),
        ("dims", (64.0,)), ("dims", (True,)), ("dims", 64),
        ("budgets", (8.5,)), ("budgets", (np.float64(8.0),)),
        ("budgets", (False,)),
    ])
    def test_rejects_sizes_that_are_not_integers(self, field, value):
        # floats that equal an integer and bools used to pass construction
        # and then die in the check with a bare TypeError, or run as ints
        which = "allocation" if field == "trials" else "unbiased"
        with pytest.raises(ConfigError, match=field):
            TheoryCheckConfig(which=which, **{field: value})

    def test_accepts_numpy_integer_sizes(self):
        cfg = TheoryCheckConfig(which="unbiased", trials=np.int64(3),
                                dims=(np.int32(64),), budgets=(8,))
        assert cfg.trials == 3 and cfg.dims == (64,)

    def test_reads_table_covers_every_check(self):
        assert set(_READS) == set(CHECK_NAMES)

    def test_every_override_is_read_by_some_check(self):
        overrides = {f.name for f in fields(TheoryCheckConfig)[2:]}
        assert overrides == set().union(*_READS.values()) == set(_VALUES)

    @pytest.mark.parametrize("which", CHECK_NAMES)
    def test_accepts_every_override_its_check_reads(self, which):
        TheoryCheckConfig(which=which,
                          **{f: _VALUES[f] for f in _READS[which]})

    @pytest.mark.parametrize("which,field", [
        (which, field) for which in CHECK_NAMES for field in _VALUES
        if field not in _READS[which]])
    def test_rejects_every_override_its_check_ignores(self, which, field):
        with pytest.raises(ConfigError, match=f"does not read {field}"):
            TheoryCheckConfig(which=which, **{field: _VALUES[field]})

    @pytest.mark.parametrize("which,field", [
        ("unbiased", "dims"), ("unbiased", "budgets"),
        ("zo-connection", "dims"), ("zo-connection", "budgets"),
        ("accuracy-vs-bases", "dims"),
        ("drift-immunity", "dims"), ("drift-immunity", "budgets"),
        ("block-speedup", "dims"), ("block-speedup", "budgets"),
    ])
    def test_one_size_checks_reject_two_sizes(self, which, field):
        with pytest.raises(ConfigError, match="runs one size"):
            TheoryCheckConfig(which=which, **{field: (64, 128)})

    @pytest.mark.parametrize("sizes", [
        dict(dims=(128, 256), budgets=(16,)),
        dict(dims=(128, 256)),
        dict(budgets=(8, 16, 32, 64)),
    ])
    def test_error_bound_rejects_unpaired_sizes(self, sizes):
        with pytest.raises(ConfigError, match="pairs dims with budgets"):
            TheoryCheckConfig(which="error-bound", **sizes)

    def test_error_bound_takes_paired_sizes(self):
        # the benchmark's reduced configuration
        cfg = TheoryCheckConfig(which="error-bound", trials=1,
                                dims=(1024, 4096, 16384),
                                budgets=(32, 64, 128))
        assert cfg.dims == (1024, 4096, 16384) and cfg.budgets == (32, 64, 128)

    def test_battery_has_eleven_checks(self):
        assert len(CHECK_NAMES) == 11
        assert len(set(CHECK_NAMES)) == 11


class TestCheckReport:
    def test_line_embeds_verdict_and_seed(self):
        rep = CheckReport(name="toy", passed=True, measured=0.5, bound=1.0,
                          detail="why", seed=7, runtime_s=0.25)
        line = rep.line()
        assert line.startswith("[PASS] toy: measured 0.5 vs target 1")
        assert "seed=7" in line and "(why)" in line

    def test_failed_line(self):
        rep = CheckReport(name="toy", passed=False, measured=2.0, bound=1.0,
                          detail="why", seed=7)
        assert rep.line().startswith("[FAIL]")

    def test_equality_ignores_runtime(self):
        a = CheckReport("toy", True, 0.5, 1.0, "why", 7, runtime_s=0.1)
        b = CheckReport("toy", True, 0.5, 1.0, "why", 7, runtime_s=9.9)
        assert a == b


class TestRunCheckSmall:
    """Each check at a reduced scale where its property still holds."""

    def test_unbiased_passes_above_its_noise_floor(self):
        rep = run_check(TheoryCheckConfig(which="unbiased", dims=(64,),
                                          budgets=(8,), trials=400,
                                          tolerance=1.0))
        assert rep.passed and rep.measured < 1.0
        assert "noise floor" in rep.detail

    def test_unbiased_fails_below_its_noise_floor(self):
        rep = run_check(TheoryCheckConfig(which="unbiased", dims=(64,),
                                          budgets=(8,), trials=50,
                                          tolerance=1e-6))
        assert not rep.passed
        assert "unreachable" in rep.detail

    def test_error_bound(self):
        rep = run_check(TheoryCheckConfig(which="error-bound", dims=(128,),
                                          budgets=(16,), trials=10))
        assert rep.passed and rep.measured <= 1.0
        assert "0 single-seed violations" in rep.detail

    def test_zo_connection(self):
        rep = run_check(TheoryCheckConfig(which="zo-connection", dims=(64,),
                                          budgets=(8,), trials=3, epsilon=0.1))
        assert rep.passed and rep.measured <= 1.0

    def test_rho_rate(self):
        rep = run_check(TheoryCheckConfig(which="rho-rate",
                                          dims=(100, 1000, 10_000)))
        assert rep.passed
        assert abs(rep.measured - 1.0) < 0.05

    def test_accuracy_vs_bases(self):
        rep = run_check(TheoryCheckConfig(which="accuracy-vs-bases",
                                          dims=(400,), budgets=(16, 64),
                                          trials=5))
        assert rep.passed and rep.measured >= 0.0
        assert "monotone=True" in rep.detail

    def test_drift_immunity(self):
        rep = run_check(TheoryCheckConfig(which="drift-immunity", dims=(2000,),
                                          budgets=(100,), tolerance=0.2))
        assert rep.passed and rep.measured < 0.2

    def test_block_speedup(self):
        # threshold lowered: at this size the wall-clock ratio is noisy
        rep = run_check(TheoryCheckConfig(which="block-speedup",
                                          dims=(1 << 16,), budgets=(64,),
                                          tolerance=2.0))
        assert rep.passed
        assert "exact=True" in rep.detail

    def test_allocation(self):
        rep = run_check(TheoryCheckConfig(which="allocation", trials=5))
        assert rep.passed and rep.measured <= 1.0

    def test_accounting(self):
        rep = run_check(TheoryCheckConfig(which="accounting"))
        assert rep.passed
        assert "4097/1000000" in rep.detail

    def test_convergence(self):
        rep = run_check(TheoryCheckConfig(which="convergence"))
        assert rep.passed
        assert "sequential zeroth-order" in rep.detail

    def test_determinism(self):
        rep = run_check(TheoryCheckConfig(which="determinism"))
        assert rep.passed and rep.measured == 1.0

    def test_reports_embed_their_seed(self):
        rep = run_check(TheoryCheckConfig(which="allocation", trials=2,
                                          seed=99))
        assert rep.seed == 99 and "seed=99" in rep.line()

    def test_same_seed_same_report(self):
        cfg = TheoryCheckConfig(which="allocation", trials=3, seed=5)
        assert run_check(cfg) == run_check(cfg)


@cache
def _base_report(which: str) -> CheckReport:
    return run_check(TheoryCheckConfig(which=which, **_MOVES[which][0]))


@pytest.mark.parametrize("which,field", [
    (which, field) for which in CHECK_NAMES for field in sorted(_READS[which])])
def test_every_override_moves_its_check(which, field):
    base, moved = _MOVES[which]
    assert set(moved) == _READS[which]
    report = run_check(TheoryCheckConfig(which=which,
                                         **{**base, field: moved[field]}))
    before = _base_report(which)
    assert (report.measured, report.passed) != (before.measured, before.passed)


class TestRunBattery:
    def test_covers_every_check_in_order(self, monkeypatch):
        ran = []

        def stub(name):
            # a check is called with the root seed and the overrides set;
            # the battery sets none
            def check(root, **overrides):
                ran.append((name, root, overrides))
                return True, 0.0, 1.0, "stub"
            return check

        monkeypatch.setattr(verify, "_CHECKS",
                            {name: stub(name) for name in CHECK_NAMES})
        reports = run_battery(seed=5)
        assert ran == [(name, 5, {}) for name in CHECK_NAMES]
        assert all(r.seed == 5 for r in reports)
        assert [r.name for r in reports] == list(CHECK_NAMES)

    def test_run_check_passes_only_the_set_overrides(self, monkeypatch):
        seen = []

        def check(root, dim=1, trials=2, tolerance=3.0):
            seen.append((root, dim, trials, tolerance))
            return True, 0.0, 1.0, "stub"

        monkeypatch.setitem(verify._CHECKS, "unbiased", check)
        run_check(TheoryCheckConfig(which="unbiased", seed=4, dims=(9,),
                                    tolerance=0.5))
        assert seen == [(4, 9, 2, 0.5)]
