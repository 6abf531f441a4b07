"""Command-line front end.

Four verbs:

* ``run CONFIG`` trains from a JSON experiment config and writes the
  per-round records CSV plus a JSON summary.
* ``verify [--check NAME]`` runs one named statistical check, or the whole
  battery, printing one line per check.
* ``repro NAME`` emits the x/y series behind one of the desk-scale studies
  as CSV for external plotting.
* ``protocol-dump`` prints the frozen generation and wire constants.

Exit codes: 0 success (and every check passed), 1 a check failed, 2 bad
config / unknown name / infeasible sizes, 3 the run diverged.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import typing
from dataclasses import dataclass

from .errors import ConfigError, DivergedError, FedprojError, NumericError
from .federation import (FedConfig, account_costs, partition_data,
                         run_experiment)
from .models import (Dataset, ModelSpec, load_csv, load_npz,
                     synthetic_classification, synthetic_regression)
from .projection import PROJECTION_VERSION, _TILE_ELEMS
from .randbasis import GAMMA, MIX_MULT_1, MIX_MULT_2, _RHO_SERIES_MIN_DIM, rho
from .repro import SERIES_NAMES, build_series, format_records_csv, \
    format_series_csv
from .verify import CHECK_NAMES, TheoryCheckConfig, run_battery, run_check
from . import wire

OUTPUT_DIR_ENV = "FEDPROJ_OUTPUT_DIR"

_DATA_BUILDERS = {
    "synthetic-regression": synthetic_regression,
    "synthetic-classification": synthetic_classification,
    "csv": load_csv,
    "npz": load_npz,
}
DATA_SOURCES = tuple(_DATA_BUILDERS)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, fully determined: model, data, schedule, outputs."""

    model: ModelSpec
    federation: FedConfig
    dataset: Dataset
    skew: str
    records_csv: str
    summary_json: str | None
    raw: dict


# the JSON values each annotated parameter type accepts, and how to say so
_JSON_TYPES = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
               float: ((int, float), "a number"), str: ((str,), "a string"),
               dict: ((dict,), "an object")}


def _check_types(section: dict, target, where: str) -> None:
    """Reject values whose JSON type does not fit ``target``'s annotations.

    Only a bool parameter takes true or false, though Python counts them as
    integers; a ``T | None`` parameter also takes null; keys ``target`` does
    not annotate are left alone.
    """
    hints = typing.get_type_hints(target)
    for key, value in section.items():
        want = hints.get(key)
        options = typing.get_args(want)
        if type(None) in options:
            if value is None:
                continue
            want = next(t for t in options if t is not type(None))
        if want not in _JSON_TYPES:
            continue
        accepts, expected = _JSON_TYPES[want]
        if (isinstance(value, bool) != (want is bool)
                or not isinstance(value, accepts)):
            raise ConfigError(f"{where}.{key} must be {expected}, "
                              f"got {json.dumps(value)}")


def _arguments(section: dict, target, where: str, held=()) -> dict:
    """``section`` as keyword arguments of ``target``, checked by its signature.

    Every key must name a parameter of ``target`` other than the ``held``
    ones, every parameter without a default must be given, and every value
    must fit its parameter's annotation.
    """
    params = [p for p in inspect.signature(target).parameters.values()
              if p.name not in held]
    allowed = [p.name for p in params]
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}; "
                          f"allowed: {', '.join(allowed)}")
    for p in params:
        if p.default is p.empty and p.name not in section:
            raise ConfigError(f"missing required key {p.name!r} in {where}")
    _check_types(section, target, where)
    return section


def _redirect_output(path: str) -> str:
    """Honor the output-directory override: basename lands in the override dir."""
    override = os.environ.get(OUTPUT_DIR_ENV)
    if not override:
        return path
    return os.path.join(override, os.path.basename(path))


def load_experiment_config(path: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment config file."""
    if not os.path.exists(path):
        raise ConfigError(f"config file does not exist: {path}")
    with open(path) as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}",
                          line=exc.lineno, column=exc.colno) from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return _experiment(raw, **_arguments(raw, _experiment, "config",
                                         held=("raw",)))


def _experiment(raw: dict, model: dict, data: dict, federation: dict,
                output: dict) -> ExperimentConfig:
    """Build each section's object from its keys; ``raw`` is the whole file."""
    spec = ModelSpec(**_arguments(model, ModelSpec, "model"))

    if "source" not in data:
        raise ConfigError("missing required key 'source' in data")
    if data["source"] not in DATA_SOURCES:
        raise ConfigError(f"unknown data source {data['source']!r}; expected "
                          "one of " + ", ".join(DATA_SOURCES))
    builder = _DATA_BUILDERS[data["source"]]
    body = {k: v for k, v in data.items() if k not in ("source", "skew")}
    _arguments(body, builder, "data", held=("classification",))
    skew = data.get("skew", "iid")
    _check_types({"skew": skew}, partition_data, "data")
    if "path" in body and not os.path.exists(body["path"]):
        raise ConfigError(f"data path does not exist: {body['path']}")
    if builder is load_csv:
        body["classification"] = spec.kind != "linear-regression"
    dataset = builder(**body)
    if dataset.num_features != spec.input_dim:
        raise ConfigError(f"data has {dataset.num_features} features but the "
                          f"model expects {spec.input_dim}")

    fed = FedConfig(**_arguments(federation, FedConfig, "federation"))
    records_csv, summary_json = _output_paths(
        **_arguments(output, _output_paths, "output"))
    return ExperimentConfig(model=spec, federation=fed, dataset=dataset,
                            skew=skew, records_csv=records_csv,
                            summary_json=summary_json, raw=raw)


def _output_paths(records_csv: str, summary_json: str | None = None):
    """The output section's paths, moved under the output-directory override."""
    return (_redirect_output(records_csv),
            None if summary_json is None else _redirect_output(summary_json))


def _write_text(path: str, text: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def cmd_run(args) -> int:
    cfg = load_experiment_config(args.config)
    clients = partition_data(cfg.dataset, cfg.federation.num_clients,
                             skew=cfg.skew, seed=cfg.federation.root_seed)
    records = run_experiment(cfg.federation, cfg.model, clients, cfg.dataset)
    _write_text(cfg.records_csv, format_records_csv(records))
    written = [cfg.records_csv]
    if cfg.summary_json is not None:
        summary = {
            "config": cfg.raw,
            "costs": account_costs(records),
            "wall_local_total": sum(r.wall_local for r in records),
            "wall_aggregate_total": sum(r.wall_aggregate for r in records),
        }
        _write_text(cfg.summary_json,
                    json.dumps(summary, indent=2, sort_keys=True) + "\n")
        written.append(cfg.summary_json)
    print("wrote " + ", ".join(written))
    return 0


def cmd_verify(args) -> int:
    if args.check is None:
        if any(v is not None for v in (args.trials, args.tolerance,
                                       args.epsilon)):
            raise ConfigError("--trials/--tolerance/--epsilon apply to a "
                              "single check; pass --check NAME")
        reports = run_battery(seed=args.seed)
    else:
        reports = [run_check(TheoryCheckConfig(which=args.check,
                                               seed=args.seed,
                                               trials=args.trials,
                                               tolerance=args.tolerance,
                                               epsilon=args.epsilon))]
    for report in reports:
        print(report.line())
    return 0 if all(r.passed for r in reports) else 1


def cmd_repro(args) -> int:
    series = build_series(args.name, seed=args.seed, trials=args.trials)
    out = _redirect_output(args.out if args.out else f"{args.name}.csv")
    _write_text(out, format_series_csv(series))
    print(f"wrote {out}")
    return 0


def cmd_protocol_dump(args) -> int:
    lines = [
        "seed derivation",
        f"  GAMMA        = 0x{GAMMA:016X}",
        f"  MIX_MULT_1   = 0x{MIX_MULT_1:016X}",
        f"  MIX_MULT_2   = 0x{MIX_MULT_2:016X}",
        "  mix64(x): x ^= x>>30; x *= MIX_MULT_1; x ^= x>>27; "
        "x *= MIX_MULT_2; x ^= x>>31  (mod 2^64)",
        "  subseed(root, client, round, block, basis): h = root; "
        "for v in (client, round, block, basis): h = mix64(h + GAMMA + v)",
        "  uniform value i of a stream: mix64((i+1)*GAMMA + seed) >> 11, "
        "times 2^-53",
        "basis entries",
        "  standard normal truncated to [-b, +b] via inverse CDF, where b is "
        "the largest float32 with b*b*dim <= 1 (every chunk norm <= 1)",
        "  entries stored as float32; reconstruction divides by rho(dim)",
        f"  rho switches to a series expansion at dim >= {_RHO_SERIES_MIN_DIM}",
        f"  rho(10^6) = {rho(1_000_000)!r}",
        f"  reconstruct row-group size = {_TILE_ELEMS} entries",
        "wire format",
        f"  PROJECTION_VERSION = {PROJECTION_VERSION}",
        "  frame = u32 little-endian length (tag byte plus body), u8 tag, body",
        f"  TAG_PROJECTED = 0x{wire.TAG_PROJECTED:02X}",
        f"  TAG_SCALAR    = 0x{wire.TAG_SCALAR:02X}",
        f"  TAG_RAW       = 0x{wire.TAG_RAW:02X}",
        f"  TAG_ROUND     = 0x{wire.TAG_ROUND:02X}",
        f"  TAG_DONE      = 0x{wire.TAG_DONE:02X}",
        f"  TAG_SHUTDOWN  = 0x{wire.TAG_SHUTDOWN:02X}",
        f"  MAX_FRAME_BYTES = {wire.MAX_FRAME_BYTES}",
    ]
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedproj",
        description="Federated training with seeded random-subspace updates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train from a JSON experiment config")
    p_run.add_argument("config", help="path to the experiment config file")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify",
                              help="check the statistical claims empirically")
    p_verify.add_argument("--check", choices=CHECK_NAMES, default=None,
                          help="run one named check (default: the full battery)")
    p_verify.add_argument("--seed", type=int, default=2024)
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--tolerance", type=float, default=None)
    p_verify.add_argument("--epsilon", type=float, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_repro = sub.add_parser("repro",
                             help="emit the series behind a desk-scale study")
    p_repro.add_argument("name", choices=SERIES_NAMES)
    p_repro.add_argument("--out", default=None,
                         help="output CSV path (default: <name>.csv)")
    p_repro.add_argument("--seed", type=int, default=None)
    p_repro.add_argument("--trials", type=int, default=None)
    p_repro.set_defaults(func=cmd_repro)

    p_dump = sub.add_parser("protocol-dump",
                            help="print the frozen generation and wire constants")
    p_dump.set_defaults(func=cmd_protocol_dump)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DivergedError as exc:
        print(f"error: run diverged: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return 3
    except FedprojError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
