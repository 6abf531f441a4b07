"""fedproj benchmark: one workload per run, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload subspace-mlp --seed 0 --seconds 25 --trace 0

``--workload all`` runs every workload in turn, each in its own process, and
ends with one combined JSON line. The run imports fedproj from ``src/`` next to this directory, sets the
workload up several times, warms it up, runs it as a closed loop for ``--seconds``, checks
its outputs and prints the metrics, one per line, then one JSON object as the
last line. With ``--trace 0`` the JSON holds the end-to-end metrics that
BENCHMARK.json bounds (all but ``UNGATED``). With
``--trace 1`` half the time runs untraced and half with a span around every
layer call, and the JSON holds the per-layer metrics. Results and spans are
also written under ``perfbench/out/``. The exit code is 1 when an output or
counter check fails, and 2 when fedproj's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

# Printed, but left out of the result line and BENCHMARK.json: on a shared
# host the rounds flip between a fast and a ~1.4x slower state for seconds at
# a time, so a run's mean throughput and median round depend on how long it
# spent in each state. round_s_min (the fast state) and round_s_tail (the slow
# state) each sit in one state and vary less from run to run.
UNGATED = ("updates_per_s", "round_s_p50")


def _load_fedproj() -> bool:
    """Import fedproj from this checkout's src/, and nothing else."""
    package = ROOT / "src" / "fedproj"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no fedproj sources at {package}", file=sys.stderr)
        return False
    sys.path.insert(0, str(ROOT / "src"))
    import fedproj

    if Path(fedproj.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported fedproj from {fedproj.__file__}, "
              f"not {package}", file=sys.stderr)
        return False
    return True


def _peak_rss_mb(sockets: bool) -> tuple[float, str]:
    # ru_maxrss is in KiB on Linux; for children it is the largest child
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if not sockets:
        return own, "benchmark process"
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6
    return own + worker, f"benchmark process {own:.1f} + largest worker {worker:.1f}"


def _stop_resource_tracker() -> None:
    """multiprocessing starts a tracker process with the socket worker; stop
    it and wait for it so that the run leaves no process behind."""
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _print_metric(name: str, value: float, unit: str, note: str) -> None:
    print(f"{name:<42} {value:>14.6g} {unit:<10} {note}")


def _run_all(args, names) -> int:
    """Run every workload in its own process; end with one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (ValueError, IndexError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not _load_fedproj():
        return 2

    import machine
    import workloads
    from tracing import Tracer, write_spans

    if args.workload == "all":
        return _run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload; choose all or one of {list(workloads.WORKLOADS)}")
    spec = workloads.WORKLOADS[args.workload]

    head = machine.header(ROOT)
    print("# machine: " + " | ".join(f"{k}={v}" for k, v in head.items()))
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}; closed loop, one caller")

    session = spec.session(args.seed, ROOT)
    setup_reps = session.setup()
    warmup = session.warm_up()
    tracer = None
    if args.trace:
        plain = session.timed(args.seconds / 2, None)
        tracer = workloads.install(Tracer())
        try:
            traced = session.timed(args.seconds / 2, tracer)
        finally:
            tracer.restore()
        runs = (warmup, plain, traced)
        errors = session.check_traced(tracer.spans)
    else:
        plain = session.timed(args.seconds, None)
        runs = (warmup, plain)
        errors = []
    errors = [e for r in runs for e in r.errors] + errors
    errors += session.checks(workloads.load_reference(args.workload, args.seed))
    _stop_resource_tracker()

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    unit_name, op_name = spec.update_name, spec.op_name
    p50 = statistics.median(plain.op_times) if plain.op_times else 0.0
    tail, pct, n = workloads.tail(plain.op_times)
    rss, rss_note = _peak_rss_mb(spec.sockets)
    e2e = {
        "updates_per_s": (plain.updates_per_s, "1/s",
                          f"{plain.done} {unit_name} / {plain.window_s:.3f} s"),
        "round_s_p50": (p50, "s", f"median per {op_name}, n={len(plain.op_times)}"),
        "round_s_min": (min(plain.op_times, default=0.0), "s",
                        f"fastest {op_name}, n={len(plain.op_times)}"),
        "round_s_tail": (tail, "s", f"p{pct:.1f}, n={n}"
                         + (" (20 samples or fewer: reports the median)" if n <= 20 else "")),
        "setup_s": (statistics.median(setup_reps), "s",
                    f"median of {len(setup_reps)}: "
                    + ", ".join(f"{x:.3f}" for x in setup_reps)),
        "peak_rss_mb": (rss, "MB", rss_note),
        "upload_values_per_update": (plain.upload_values / plain.done if plain.done else 0.0,
                                     "values", f"over {plain.done} {unit_name}"),
    }
    print(f"# warm-up, untimed: {len(warmup.op_times)} x {op_name}, "
          f"{warmup.window_s:.3f} s")
    print("# end-to-end" + (" (untraced half)" if args.trace else ""))
    for name, (value, unit, note) in e2e.items():
        _print_metric(name, value, unit, note + (" (not bounded)" if name in UNGATED else ""))
    _print_metric("error_rate", failed / attempted, "ratio",
                  f"{failed} failed / {attempted} attempted")

    metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items()
               if k not in UNGATED}
    if tracer is not None:
        overhead = plain.updates_per_s / traced.updates_per_s if traced.updates_per_s else 0.0
        layers = workloads.per_layer(tracer.spans, len(traced.op_times), overhead)
        print(f"# per layer, per traced {op_name} ({len(traced.op_times)} traced); "
              f"tracing overhead: untraced {plain.updates_per_s:.4g} vs traced "
              f"{traced.updates_per_s:.4g} {unit_name}/s")
        if spec.sockets:
            print("# the socket worker is a separate process and is not traced; "
                  "socket and wire figures are the server side")
        for name, (value, unit) in layers.items():
            _print_metric(name, value, unit, "")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}

    correct = not errors and failed == 0
    print("# checks: " + ("all passed" if correct else f"{len(errors)} failed"))
    for err in errors:
        print("#   " + err.replace("\n", "\n#     "))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"machine": head, "args": vars(args), "errors": errors,
         "metrics": metrics, "op_times_s": plain.op_times}, indent=1),
        encoding="utf-8")
    if tracer is not None:
        write_spans(tracer.spans, OUT / f"{stem}.spans.jsonl")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
