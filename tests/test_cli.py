"""End-to-end tests for the command-line front end."""

import json
from fractions import Fraction

import pytest

from fedproj.cli import OUTPUT_DIR_ENV, load_experiment_config, main
from fedproj.errors import ConfigError
from fedproj.models import save_csv, save_npz, synthetic_regression
from fedproj.repro import RECORD_COLUMNS


def base_config(tmp_path, **federation):
    fed = dict(num_clients=3, rounds=2, local_iters=2, total_bases=4,
               local_lr=0.05, batch_size=16, root_seed=7)
    fed.update(federation)
    return {
        "model": {"kind": "linear-regression", "input_dim": 8,
                  "output_dim": 1, "init_seed": 3},
        "data": {"source": "synthetic-regression", "n": 64, "input_dim": 8,
                 "seed": 9},
        "federation": fed,
        "output": {"records_csv": str(tmp_path / "records.csv"),
                   "summary_json": str(tmp_path / "summary.json")},
    }


def dump(tmp_path, cfg, name="exp.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestRun:
    def test_writes_records_and_summary(self, tmp_path):
        cfg = base_config(tmp_path)
        assert main(["run", dump(tmp_path, cfg)]) == 0
        lines = (tmp_path / "records.csv").read_text().splitlines()
        assert lines[0] == ",".join(RECORD_COLUMNS)
        assert len(lines) == 1 + cfg["federation"]["rounds"]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"] == cfg
        assert summary["costs"]["rounds"] == 2
        assert summary["wall_local_total"] >= 0.0
        assert summary["wall_aggregate_total"] >= 0.0

    def test_identical_configs_give_byte_identical_csvs(self, tmp_path):
        cfg_a = base_config(tmp_path)
        cfg_a["output"] = {"records_csv": str(tmp_path / "a.csv")}
        cfg_b = base_config(tmp_path)
        cfg_b["output"] = {"records_csv": str(tmp_path / "b.csv")}
        assert main(["run", dump(tmp_path, cfg_a, "a.json")]) == 0
        assert main(["run", dump(tmp_path, cfg_b, "b.json")]) == 0
        assert (tmp_path / "a.csv").read_bytes() \
            == (tmp_path / "b.csv").read_bytes()

    def test_zero_rounds_yields_header_only_csv(self, tmp_path):
        cfg = base_config(tmp_path, rounds=0)
        assert main(["run", dump(tmp_path, cfg)]) == 0
        assert (tmp_path / "records.csv").read_text() \
            == ",".join(RECORD_COLUMNS) + "\n"

    def test_multi_output_regression_trains(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["model"]["output_dim"] = 2
        cfg["data"]["output_dim"] = 2
        assert main(["run", dump(tmp_path, cfg)]) == 0
        lines = (tmp_path / "records.csv").read_text().splitlines()
        assert len(lines) == 1 + cfg["federation"]["rounds"]

    def test_malformed_json_exits_2_with_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "model": oops\n}')
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad.json:2:12" in err

    @pytest.mark.parametrize("section,key", [
        (None, "extra"),
        ("model", "depth"),
        ("data", "foo"),
        ("federation", "unknown_knob"),
        ("output", "plots"),
    ])
    def test_unknown_keys_rejected_everywhere(self, tmp_path, capsys,
                                              section, key):
        cfg = base_config(tmp_path)
        target = cfg if section is None else cfg[section]
        target[key] = 1
        assert main(["run", dump(tmp_path, cfg)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("partition_policy", "by-group"),
                                           ("seed_policy", "per-round")])
    def test_removed_federation_settings_exit_2(self, tmp_path, capsys, key,
                                                value):
        # settings that changed no run are gone; a config that still sets
        # one, even to its old default, is refused by name
        cfg = base_config(tmp_path, **{key: value})
        assert main(["run", dump(tmp_path, cfg)]) == 2
        assert f"unknown key(s) in federation: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value", [
        ("model", "input_dim", "8"),
        ("data", "n", "64"),
        ("federation", "rounds", "2"),
        ("federation", "local_lr", "0.1"),
        ("federation", "num_clients", 2.5),
        ("data", "n", 64.0),
        ("federation", "total_bases", None),
        ("data", "skew", 5),
        ("federation", "rounds", True),
        ("output", "records_csv", 5),
        ("output", "records_csv", None),
        ("output", "summary_json", ["x"]),
        (None, "model", 5),
        (None, "data", [1, 2]),
        (None, "federation", "fedavg"),
        (None, "output", None),
    ])
    def test_wrong_typed_values_exit_2(self, tmp_path, capsys, section, key,
                                       value):
        cfg = base_config(tmp_path)
        (cfg if section is None else cfg[section])[key] = value
        assert main(["run", dump(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        where = "config" if section is None else section
        assert f"{where}.{key} must be" in err and json.dumps(value) in err
        assert not (tmp_path / "records.csv").exists()

    @pytest.mark.parametrize("section,key", [
        ("model", "output_dim"),
        ("data", "n"),
        ("data", "source"),
        ("federation", "local_lr"),
        ("output", "records_csv"),
    ])
    def test_missing_required_keys_exit_2(self, tmp_path, capsys, section,
                                          key):
        cfg = base_config(tmp_path)
        del cfg[section][key]
        assert main(["run", dump(tmp_path, cfg)]) == 2
        assert f"missing required key {key!r} in {section}" \
            in capsys.readouterr().err

    def test_null_summary_json_writes_records_only(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["output"]["summary_json"] = None
        assert main(["run", dump(tmp_path, cfg)]) == 0
        assert (tmp_path / "records.csv").exists()
        assert not (tmp_path / "summary.json").exists()

    def test_integer_fills_a_float_field(self, tmp_path):
        cfg = base_config(tmp_path, local_lr=1, server_lr=1)
        assert main(["run", dump(tmp_path, cfg)]) == 0
        assert load_experiment_config(dump(tmp_path, cfg)).federation.local_lr == 1

    def test_missing_section_exits_2(self, tmp_path):
        cfg = base_config(tmp_path)
        del cfg["model"]
        assert main(["run", dump(tmp_path, cfg)]) == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json")]) == 2

    def test_missing_data_path_exits_2(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["data"] = {"source": "csv", "path": str(tmp_path / "absent.csv")}
        assert main(["run", dump(tmp_path, cfg)]) == 2

    def test_label_skew_on_regression_targets_exits_2(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        cfg["data"]["skew"] = "label-skew(0.5)"
        assert main(["run", dump(tmp_path, cfg)]) == 2
        assert "class targets" in capsys.readouterr().err
        assert not (tmp_path / "records.csv").exists()

    def test_non_finite_label_skew_exits_2(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        cfg["model"] = {"kind": "logistic-regression", "input_dim": 8,
                        "output_dim": 3}
        cfg["data"] = {"source": "synthetic-classification", "n": 64,
                       "input_dim": 8, "num_classes": 3,
                       "skew": "label-skew(inf)"}
        assert main(["run", dump(tmp_path, cfg)]) == 2
        assert "label-skew(inf)" in capsys.readouterr().err
        assert not (tmp_path / "records.csv").exists()

    def test_feature_count_mismatch_exits_2(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        cfg["data"]["input_dim"] = 9
        assert main(["run", dump(tmp_path, cfg)]) == 2
        assert "features" in capsys.readouterr().err

    def test_divergence_exits_3(self, tmp_path, capsys):
        cfg = base_config(tmp_path, local_lr=1e12, local_iters=60)
        assert main(["run", dump(tmp_path, cfg)]) == 3
        assert "diverged" in capsys.readouterr().err

    def test_output_dir_override(self, tmp_path, monkeypatch):
        outdir = tmp_path / "redirected"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(outdir))
        cfg = base_config(tmp_path)   # absolute paths under tmp_path
        assert main(["run", dump(tmp_path, cfg)]) == 0
        assert (outdir / "records.csv").exists()
        assert (outdir / "summary.json").exists()
        assert not (tmp_path / "records.csv").exists()

    def test_csv_data_source(self, tmp_path):
        data = synthetic_regression(48, 8, seed=9)
        save_csv(data, str(tmp_path / "data.csv"))
        cfg = base_config(tmp_path)
        cfg["data"] = {"source": "csv", "path": str(tmp_path / "data.csv")}
        assert main(["run", dump(tmp_path, cfg)]) == 0

    def test_csv_task_kind_comes_from_the_model(self, tmp_path, capsys):
        # load_csv's classification flag follows model.kind, never the config
        save_csv(synthetic_regression(48, 8, seed=9), str(tmp_path / "data.csv"))
        cfg = base_config(tmp_path)
        cfg["data"] = {"source": "csv", "path": str(tmp_path / "data.csv"),
                       "classification": False}
        assert main(["run", dump(tmp_path, cfg)]) == 2
        assert "classification" in capsys.readouterr().err

    def test_npz_data_source(self, tmp_path):
        data = synthetic_regression(48, 8, seed=9)
        save_npz(data, str(tmp_path / "data.npz"))
        cfg = base_config(tmp_path)
        cfg["data"] = {"source": "npz", "path": str(tmp_path / "data.npz")}
        assert main(["run", dump(tmp_path, cfg)]) == 0

    def test_upload_ratio_between_methods(self, tmp_path):
        ratios = {}
        for method in ("subspace", "fedavg"):
            cfg = base_config(tmp_path, method=method)
            cfg["output"] = {"records_csv": str(tmp_path / f"{method}.csv"),
                             "summary_json": str(tmp_path / f"{method}.json")}
            assert main(["run", dump(tmp_path, cfg, f"{method}.json.cfg")]) == 0
            summary = json.loads((tmp_path / f"{method}.json").read_text())
            ratios[method] = summary["costs"]["upload_total"]
        # d = 9 parameters, K = 4 bases: coords + seed over raw values
        assert Fraction(ratios["subspace"], ratios["fedavg"]) == Fraction(5, 9)


class TestLoadExperimentConfig:
    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{,}")
        with pytest.raises(ConfigError) as info:
            load_experiment_config(str(path))
        assert info.value.line == 1 and info.value.column == 2

    def test_non_object_top_level_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_experiment_config(str(path))

    def test_unknown_data_source_rejected(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["data"] = {"source": "parquet", "path": "x"}
        with pytest.raises(ConfigError, match="parquet"):
            load_experiment_config(dump(tmp_path, cfg))

    def test_skew_key_is_accepted(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["data"]["skew"] = "iid"
        loaded = load_experiment_config(dump(tmp_path, cfg))
        assert loaded.skew == "iid"


class TestVerifyCommand:
    def test_passing_check_exits_0(self, capsys):
        assert main(["verify", "--check", "rho-rate"]) == 0
        assert "[PASS] rho-rate" in capsys.readouterr().out

    def test_failing_check_exits_1(self, capsys):
        assert main(["verify", "--check", "unbiased", "--trials", "50",
                     "--tolerance", "1e-9"]) == 1
        assert "[FAIL] unbiased" in capsys.readouterr().out

    def test_unknown_check_exits_2(self, capsys):
        assert main(["verify", "--check", "bogus"]) == 2

    def test_battery_rejects_single_check_flags(self, capsys):
        assert main(["verify", "--trials", "3"]) == 2
        assert "--check" in capsys.readouterr().err

    def test_invalid_trials_exit_2(self):
        assert main(["verify", "--check", "unbiased", "--trials", "0"]) == 2

    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    def test_invalid_tolerance_exits_2(self, capsys, value):
        assert main(["verify", "--check", "unbiased", "--tolerance", value]) == 2
        assert "tolerance must be a finite real" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--check", "determinism", "--trials", "5"],
        ["--check", "determinism", "--trials", "5", "--epsilon", "3"],
        ["--check", "rho-rate", "--epsilon", "0.5"],
        ["--check", "allocation", "--tolerance", "0.1"],
    ])
    def test_flag_the_check_does_not_read_exits_2(self, capsys, argv):
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert "does not read" in captured.err and captured.out == ""


class TestReproCommand:
    def test_writes_series_csv(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["repro", "rounds-curve", "--trials", "2",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("round,subspace_loss")
        assert len(lines) == 3

    def test_unknown_series_exits_2(self):
        assert main(["repro", "no-such-series"]) == 2

    def test_default_name_lands_in_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
        assert main(["repro", "allocation-ablation", "--trials", "2"]) == 0
        assert (tmp_path / "allocation-ablation.csv").exists()

    def test_seed_changes_output(self, tmp_path):
        outs = []
        for seed in (1, 2):
            out = tmp_path / f"s{seed}.csv"
            assert main(["repro", "allocation-ablation", "--trials", "2",
                         "--seed", str(seed), "--out", str(out)]) == 0
            outs.append(out.read_text())
        assert outs[0] != outs[1]


class TestProtocolDump:
    def test_prints_frozen_constants(self, capsys):
        assert main(["protocol-dump"]) == 0
        out = capsys.readouterr().out
        for token in ("0x9E3779B97F4A7C15", "0xBF58476D1CE4E5B9",
                      "0x94D049BB133111EB", "TAG_SHUTDOWN  = 0x7F",
                      "MAX_FRAME_BYTES = 268435456",
                      "series expansion at dim >= 257",
                      "PROJECTION_VERSION = 1",
                      "frame = u32 little-endian length (tag byte plus body), "
                      "u8 tag, body"):
            assert token in out
