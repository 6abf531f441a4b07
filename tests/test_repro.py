"""Tests for the desk-scale study series."""

import numpy as np
import pytest

from fedproj.errors import ConfigError, InvalidDimensionError
from fedproj.federation import RoundRecord
from fedproj.repro import (RECORD_COLUMNS, SERIES_NAMES, Series,
                           accuracy_vs_bases, allocation_ablation,
                           build_series, drift_immunity, format_records_csv,
                           format_series_csv, rounds_curve)


class TestSeries:
    def test_column_lookup(self):
        s = Series(name="toy", columns=("x", "y"),
                   rows=((1.0, 2.0), (3.0, 4.0)), seed=0)
        assert np.array_equal(s.column("y"), [2.0, 4.0])

    def test_unknown_column_raises(self):
        s = Series(name="toy", columns=("x",), rows=((1.0,),), seed=0)
        with pytest.raises(ValueError):
            s.column("nope")


class TestAccuracyVsBases:
    def test_shape_and_budget_column(self):
        s = accuracy_vs_bases(dim=400, budgets=(16, 64), trials=3, seed=5)
        assert s.columns == ("bases", "subspace_cosine", "zeroth_order_cosine")
        assert len(s.rows) == 2
        assert np.array_equal(s.column("bases"), [16.0, 64.0])

    def test_cosines_are_valid_and_grow_with_budget(self):
        s = accuracy_vs_bases(dim=400, budgets=(16, 64), trials=5, seed=5)
        sub = s.column("subspace_cosine")
        assert np.all(np.abs(sub) <= 1.0)
        # a 4x budget at this dim moves the mean cosine far beyond noise
        assert sub[1] > sub[0]

    def test_deterministic_in_seed(self):
        a = accuracy_vs_bases(dim=300, budgets=(8,), trials=2, seed=7)
        b = accuracy_vs_bases(dim=300, budgets=(8,), trials=2, seed=7)
        c = accuracy_vs_bases(dim=300, budgets=(8,), trials=2, seed=8)
        assert a.rows == b.rows
        assert a.rows != c.rows

    def test_rejects_zero_trials(self):
        with pytest.raises(InvalidDimensionError):
            accuracy_vs_bases(dim=100, budgets=(8,), trials=0)


class TestDriftImmunity:
    def test_shape_and_step_column(self):
        s = drift_immunity(dim=1500, bases=64, steps=(1, 10), trials=1, seed=5)
        assert s.columns == ("local_steps", "subspace_cosine",
                             "zeroth_order_cosine")
        assert np.array_equal(s.column("local_steps"), [1.0, 10.0])

    def test_projection_flat_while_zo_decays(self):
        s = drift_immunity(dim=2000, bases=100, steps=(1, 50), trials=1, seed=5)
        sub = s.column("subspace_cosine")
        zo = s.column("zeroth_order_cosine")
        # projecting the realized update is insensitive to the step count
        assert abs(sub[1] - sub[0]) < 0.05
        # the round-start probe loses alignment as the trajectory curves
        assert zo[1] < zo[0]

    def test_deterministic_in_seed(self):
        a = drift_immunity(dim=800, bases=32, steps=(5,), trials=2, seed=3)
        b = drift_immunity(dim=800, bases=32, steps=(5,), trials=2, seed=3)
        assert a.rows == b.rows


class TestAllocationAblation:
    def test_columns_and_trial_index(self):
        s = allocation_ablation(trials=4, seed=11)
        assert s.columns == ("trial", "uniform_error", "norm_sqrt_error")
        assert np.array_equal(s.column("trial"), [0.0, 1.0, 2.0, 3.0])

    def test_norm_aware_split_wins_on_skewed_norms(self):
        s = allocation_ablation(trials=6, seed=11)
        assert s.column("norm_sqrt_error").mean() \
            < s.column("uniform_error").mean()

    def test_mismatched_norms_rejected(self):
        with pytest.raises(InvalidDimensionError):
            allocation_ablation(block_dims=(8, 8), block_norms=(1.0,))


class TestRoundsCurve:
    def test_columns_and_losses(self):
        s = rounds_curve(rounds=3, seed=21)
        assert s.columns == ("round", "subspace_loss", "fedavg_loss",
                             "fedzo_loss", "fedkseed_loss")
        assert np.array_equal(s.column("round"), [0.0, 1.0, 2.0])
        for name in s.columns[1:]:
            col = s.column(name)
            assert np.all(np.isfinite(col)) and np.all(col > 0)

    def test_first_order_methods_make_progress(self):
        s = rounds_curve(rounds=4, seed=21)
        assert s.column("subspace_loss")[-1] < s.column("subspace_loss")[0]
        assert s.column("fedavg_loss")[-1] < s.column("fedavg_loss")[0]


class TestBuildSeries:
    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            build_series("no-such-series")

    def test_all_names_buildable(self):
        assert set(SERIES_NAMES) == {"accuracy-vs-bases", "drift-immunity",
                                     "allocation-ablation", "rounds-curve"}

    def test_trials_override_maps_to_rounds(self):
        s = build_series("rounds-curve", trials=2)
        assert len(s.rows) == 2

    def test_trials_override_for_sampled_series(self):
        s = build_series("allocation-ablation", trials=3)
        assert len(s.rows) == 3

    def test_seed_override_changes_rows(self):
        a = build_series("allocation-ablation", seed=1, trials=2)
        b = build_series("allocation-ablation", seed=2, trials=2)
        assert a.rows != b.rows


class TestCsvFormatting:
    def test_series_csv_layout(self):
        s = Series(name="toy", columns=("x", "y"), rows=((1.0, 0.5),), seed=0)
        assert format_series_csv(s) == "x,y\n1.0,0.5\n"

    def test_records_csv_header_and_types(self):
        rec = RoundRecord(round_index=0, global_loss=0.5, eval_metric=0.25,
                          cumulative_upload=10, cumulative_download=20,
                          cumulative_grad_evals=30, wall_local=1.0,
                          wall_aggregate=2.0)
        text = format_records_csv([rec])
        lines = text.splitlines()
        assert lines[0] == ",".join(RECORD_COLUMNS)
        # counters stay integers, losses keep full float precision
        assert lines[1] == "0,0.5,0.25,10,30,20"

    def test_records_csv_empty_run_is_header_only(self):
        assert format_records_csv([]) == ",".join(RECORD_COLUMNS) + "\n"

    def test_records_csv_ignores_wall_times(self):
        a = RoundRecord(0, 0.5, 0.25, 1, 2, 3, wall_local=1.0)
        b = RoundRecord(0, 0.5, 0.25, 1, 2, 3, wall_local=9.0)
        assert format_records_csv([a]) == format_records_csv([b])
