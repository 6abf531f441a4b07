"""The benchmark's workloads: seeded inputs, set-up, a timed loop and output checks.

Each workload is a closed loop with one caller: the next round, or the next
``run_check`` call, starts when the previous one returns. Workloads drive
fedproj only through its public functions. Where the benchmark needs to see
inside a round it rebinds names at their call sites (see ``tracing``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

from fedproj import (
    FedConfig,
    ModelSpec,
    TheoryCheckConfig,
    block_cost,
    federation,
    format_records_csv,
    partition_data,
    projection,
    socketmode,
    synthetic_classification,
    verify,
    zoo,
)
from tracing import Span, SpanStats, Tracer, counts_by_trace, summarize

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")

SETUP_REPS = 5          # set-ups per run; setup_s is their median
WARMUP_S = 1.0          # untimed operations after set-up; first rounds run slow
MIN_OPS = 3             # rounds or checks every timed loop completes
DIGEST_ROUNDS = 3       # leading records compared with the reference
REPLAY_ROUNDS = 1       # rounds re-run under a counting tracer
ROUNDS_PER_CONNECTION = 16

_TAG_NAMES = {0x01: "projected", 0x02: "scalar", 0x03: "raw",
              0x10: "round", 0x11: "done", 0x7F: "shutdown"}
_METHOD_TAG = {"subspace": "projected", "fedkseed": "scalar", "fedavg": "raw"}

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import fedproj; "
                 "print(time.perf_counter() - t)")


# ---------------------------------------------------------------- results

@dataclass
class Timed:
    """One timed loop: per-operation seconds and the update counts."""

    op_times: list[float] = field(default_factory=list)
    window_s: float = 0.0
    attempted: int = 0      # client updates, or projection round trips
    failed: int = 0
    upload_values: int = 0  # upload values over the completed updates
    errors: list[str] = field(default_factory=list)

    @property
    def done(self) -> int:
        return self.attempted - self.failed

    @property
    def updates_per_s(self) -> float:
        return self.done / self.window_s if self.window_s > 0 else 0.0


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest order statistic with ten samples
    beyond it. With 20 samples or fewer none lies above the median, so the
    median is returned with percentile 50."""
    n = len(values)
    ordered = sorted(values)
    rank = n - 10
    if n == 0:
        return 0.0, 0.0, 0
    if rank < (n + 1) / 2:
        return statistics.median(ordered), 50.0, n
    return ordered[rank - 1], 100.0 * rank / n, n


def closed_loop(seconds: float, min_ops: int, units: int, op) -> Timed:
    """Call op() back to back for `seconds` and at least min_ops times.

    op returns None or an error message; either way the call is timed. An
    exception counts the call's units as failed and ends the loop.
    """
    out = Timed()
    start = t1 = time.perf_counter()
    while t1 - start < seconds or len(out.op_times) < min_ops:
        t0 = time.perf_counter()
        out.attempted += units
        try:
            error = op()
        except Exception as exc:  # counted, reported, and the loop ends
            out.failed += units
            out.errors.append(f"operation {len(out.op_times) + 1}: {exc!r}")
            break
        finally:
            t1 = time.perf_counter()
        out.op_times.append(t1 - t0)
        if error:
            out.failed += units
            out.errors.append(error)
    out.window_s = t1 - start
    return out


def setup_time_reps(root: Path, build) -> tuple[list[float], object]:
    """Set up SETUP_REPS times: a fresh interpreter's ``import fedproj`` plus
    ``build()``. Returns the per-rep seconds and the last build's result."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    reps, built = [], None
    for _ in range(SETUP_REPS):
        probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                               capture_output=True, text=True, env=env,
                               cwd=root, timeout=120, check=True)
        t0 = time.perf_counter()
        built = build()
        reps.append(float(probe.stdout.strip()) + time.perf_counter() - t0)
    return reps, built


# ---------------------------------------------------------------- tracing

def _entries(args, kwargs, result) -> dict:
    return {"entries": int(result.size)}


def _chunk_entries(args, kwargs, result) -> dict:
    return {"entries": int(result.values.size)}


def _projected(args, kwargs, result) -> dict:
    return {"block_cost": block_cost(args[0].partition),
            "upload": result.total_coords + 1}


def _frame(args, kwargs, result) -> dict:
    tag = _TAG_NAMES.get(result[4], "other")
    return {"bytes": len(result), f"bytes.{tag}": len(result), f"frames.{tag}": 1}


def _sent(args, kwargs, result) -> dict:
    return {"bytes": len(args[1])}


def _received(args, kwargs, result) -> dict:
    return {"bytes": 5 + len(result.body)}


# (module, attribute, span name, measure); the attribute is rebound in that
# module, so only callers that look it up there are traced
CALL_SITES = (
    (projection, "basis_tile", "randbasis.basis_tile", _entries),
    (zoo, "sample_basis", "randbasis.sample_basis", _chunk_entries),
    (federation, "project", "projection.project", _projected),
    (federation, "reconstruct", "projection.reconstruct", None),
    (verify, "project", "projection.project", _projected),
    (verify, "reconstruct", "projection.reconstruct", None),
    (federation, "encode_client_update", "wire.encode", _frame),
    (socketmode, "encode_frame", "wire.encode", _frame),
    (federation, "decode_frame", "wire.decode", None),
    (federation, "decode_client_update", "wire.decode", None),
    (federation, "local_sgd", "models.local_sgd", None),
    (federation, "loss", "models.loss", None),
    (federation, "accuracy", "models.accuracy", None),
    (federation, "fedkseed_local_step", "zoo.fedkseed_local_step", None),
    (federation, "replay_scalar_log", "zoo.replay_scalar_log", None),
    (federation, "client_update_frame", "federation.client_update_frame", None),
    (federation, "apply_replies", "federation.apply_replies", None),
    (socketmode, "apply_replies", "federation.apply_replies", None),
    (socketmode, "recv_frame", "socketmode.recv", _received),
    (socketmode, "send_frame", "socketmode.send", _sent),
)

# call sites that begin an operation: each call starts a new trace id
ROOT_SITES = (
    (federation, "run_round", "federation.run_round", None),
    (socketmode, "encode_round", "wire.encode", _frame),
    (verify, "run_check", "verify.run_check", None),
)


def install(tracer: Tracer, full: bool = True) -> Tracer:
    """Rebind the root call sites and, when full, every layer call site.

    The untraced run installs only the roots: one span per operation, which
    marks where a socket round starts and ends.
    """
    for module, attr, name, measure in ROOT_SITES:
        traced = tracer.wrap(name, getattr(module, attr), measure)

        def root(*args, _traced=traced, **kwargs):
            tracer.new_trace()
            return _traced(*args, **kwargs)

        tracer.rebind(module, attr, root)
    if full:
        for module, attr, name, measure in CALL_SITES:
            tracer.install(module, attr, name, measure)
    return tracer


def _probe(module, attr: str, name: str, measure=None) -> Tracer:
    """The untraced run's tracer: the root call sites plus one more."""
    tracer = install(Tracer(), full=False)
    tracer.install(module, attr, name, measure)
    return tracer


def check_counts(spans: list[Span], expected: dict[str, int],
                 what: str) -> list[str]:
    """Compare every operation's exact counters with the analytic values."""
    errors = []
    rows = {t: row for t, row in counts_by_trace(spans).items() if t > 0}
    if not rows:
        return [f"{what}: no traced operations"]
    for trace_id, row in sorted(rows.items()):
        for key, want in expected.items():
            got = row.get(key, 0)
            if got != want:
                errors.append(f"{what}, operation {trace_id}: {key} = {got}, "
                              f"expected {want}")
    return errors[:10]


SPAN_METRICS = (
    "randbasis.basis_tile", "randbasis.sample_basis",
    "projection.project", "projection.reconstruct",
    "wire.encode", "wire.decode",
    "models.local_sgd", "models.loss", "models.accuracy",
    "zoo.fedkseed_local_step", "zoo.replay_scalar_log",
    "federation.client_update_frame", "federation.apply_replies",
    "socketmode.recv", "socketmode.send",
    "verify.run_check",
)
# spans with traced children, whose self time excludes those children
SELF_METRICS = (
    "projection.project", "projection.reconstruct",
    "zoo.fedkseed_local_step", "zoo.replay_scalar_log",
    "federation.client_update_frame", "federation.apply_replies",
    "verify.run_check",
)
# for the socket spans the time is the wait, named as such
BUSY_NAMES = {"socketmode.recv": "socketmode.recv_wait_s",
              "socketmode.send": "socketmode.send_s"}


def per_layer(spans: list[Span], ops: int, overhead: float) -> dict:
    """Per-layer metrics, per traced operation unless the unit says otherwise."""
    stats = summarize(spans)
    get = lambda name: stats.get(name, SpanStats())  # noqa: E731
    m = {}
    for name in SPAN_METRICS:
        s = get(name)
        m[f"{name}.calls"] = (s.calls / ops, "calls/op")
        m[BUSY_NAMES.get(name, f"{name}.busy_s")] = (s.busy_s / ops, "s/op")
        m[f"{name}.errors"] = (s.errors, "count")
        if name in SELF_METRICS:
            m[f"{name}.self_s"] = (s.self_s / ops, "s/op")
    for name in ("randbasis.basis_tile", "randbasis.sample_basis"):
        s = get(name)
        entries = s.counts["entries"]
        m[f"{name}.entries"] = (entries / ops, "entries/op")
        m[f"{name}.ns_per_entry"] = (1e9 * s.busy_s / entries if entries else 0.0,
                                     "ns/entry")
    cost = get("projection.project").counts["block_cost"]
    m["projection.entries_per_block_cost"] = (
        get("randbasis.basis_tile").counts["entries"] / cost if cost else 0.0, "ratio")
    enc = get("wire.encode").counts
    for tag in ("projected", "scalar", "raw", "round"):
        frames = enc[f"frames.{tag}"]
        m[f"wire.frame_bytes.{tag}"] = (enc[f"bytes.{tag}"] / frames if frames else 0.0,
                                        "B/frame")
    m["socketmode.bytes_in"] = (get("socketmode.recv").counts["bytes"] / ops, "B/op")
    m["socketmode.bytes_out"] = (get("socketmode.send").counts["bytes"] / ops, "B/op")
    m["trace.overhead"] = (overhead, "ratio")
    m["trace.spans"] = (len(spans) / ops, "spans/op")
    return m


# ---------------------------------------------------------------- engines

def frame_bytes(tag: str, dim: int, budgets: tuple[int, ...], k: int) -> int:
    """Frame size from the codec layout in ``fedproj.wire``."""
    head = 4 + 1                   # u32 length, u8 tag
    envelope = 4 + 4               # u32 client id, u32 round
    if tag == "projected":         # u8 version, u32 partition, u64 seed, blocks
        return head + envelope + 1 + 4 + 8 + sum(4 + 4 * b for b in budgets)
    if tag == "scalar":            # u64 seed, u32 n, f64 * K
        return head + envelope + 8 + 4 + 8 * k
    if tag == "raw":               # u32 n, f64 * d
        return head + envelope + 4 + 8 * dim
    if tag == "round":             # u32 round, u32 n, f64 * d
        return head + 4 + 4 + 8 * dim
    raise ValueError(tag)


@dataclass(frozen=True)
class Engine:
    """A federated workload: method, MLP shape, sampling and transport."""

    name: str
    method: str
    input_dim: int
    hidden_dim: int
    participation: float
    sockets: bool = False
    examples: int = 2000
    num_clients: int = 10
    num_classes: int = 10
    total_bases: int = 256
    local_iters: int = 5
    batch_size: int = 32
    local_lr: float = 0.05

    update_name: ClassVar[str] = "client updates"
    op_name: ClassVar[str] = "round"

    def inputs(self, seed: int, rounds: int = 0):
        model = ModelSpec("mlp", self.input_dim, self.num_classes,
                          hidden_dim=self.hidden_dim, init_seed=seed)
        data = synthetic_classification(self.examples, self.input_dim,
                                        self.num_classes, seed=seed)
        clients = partition_data(data, self.num_clients, seed=seed)
        cfg = FedConfig(num_clients=self.num_clients, rounds=rounds,
                        local_iters=self.local_iters,
                        total_bases=self.total_bases, local_lr=self.local_lr,
                        participation=self.participation, method=self.method,
                        batch_size=self.batch_size, root_seed=seed)
        return cfg, model, clients, data

    def expected_counts(self, cfg: FedConfig, model: ModelSpec, partition) -> dict:
        """Exact per-round counters of an in-process round."""
        p, k = cfg.clients_per_round, cfg.total_bases
        tag = _METHOD_TAG[cfg.method]
        budgets = partition.block_budgets if partition is not None else ()
        sequential = 2 * k * p if cfg.method == "fedkseed" else 0
        return {
            "randbasis.basis_tile.entries":
                2 * block_cost(partition) * p if cfg.method == "subspace" else 0,
            "randbasis.sample_basis.calls": sequential,
            "models.loss.calls": sequential + 1,
            "models.local_sgd.calls": p if cfg.method in ("subspace", "fedavg") else 0,
            f"wire.encode.frames.{tag}": p,
            f"wire.encode.bytes.{tag}": p * frame_bytes(tag, model.dim, budgets, k),
        }

    def server_counts(self, cfg: FedConfig, model: ModelSpec) -> dict:
        """Exact per-round counters the socket server sees."""
        p = cfg.clients_per_round
        raw = frame_bytes("raw", model.dim, (), cfg.total_bases)
        return {
            "socketmode.recv.calls": p,
            "socketmode.recv.bytes": p * raw,
            "wire.encode.bytes.raw": p * raw,
            "wire.encode.bytes.round": frame_bytes("round", model.dim, (), 0),
            "randbasis.basis_tile.entries": 0,
            "models.local_sgd.calls": 0,
            "models.loss.calls": 1,
        }

    def reference_output(self, seed: int) -> str:
        """sha256 of the records CSV of the first DIGEST_ROUNDS rounds."""
        cfg, model, clients, data = self.inputs(seed, rounds=DIGEST_ROUNDS)
        run = socketmode.run_experiment_sockets if self.sockets else federation.run_experiment
        return _digest(run(cfg, model, clients, data))

    def session(self, seed: int, root: Path) -> "EngineSession":
        cls = SocketSession if self.sockets else EngineSession
        return cls(self, seed, root)


def _digest(records) -> str:
    return hashlib.sha256(format_records_csv(records).encode()).hexdigest()


def _reference_errors(records, reference: str | None) -> list[str]:
    """The leading records against the stored digest, when there is one."""
    if reference is None or _digest(records[:DIGEST_ROUNDS]) == reference:
        return []
    return [f"records CSV sha256 {_digest(records[:DIGEST_ROUNDS])} differs from "
            f"the reference {reference}:\n"
            + format_records_csv(records[:DIGEST_ROUNDS]).rstrip()]


def _check_records(records, cfg: FedConfig, model: ModelSpec) -> list[str]:
    """Records are finite and the upload total matches the upload formula."""
    errors = []
    per_update = cfg.total_bases + 1 if cfg.method in ("subspace", "fedkseed") else model.dim
    for i, r in enumerate(records):
        if not (math.isfinite(r.global_loss) and 0.0 <= r.eval_metric <= 1.0):
            errors.append(f"round {i}: loss {r.global_loss}, accuracy {r.eval_metric}")
        want = (i + 1) * cfg.clients_per_round * per_update
        if r.cumulative_upload != want:
            errors.append(f"round {i}: cumulative_upload {r.cumulative_upload}, "
                          f"expected {want}")
    return errors[:10]


class EngineSession:
    """In-process rounds of one experiment, continued across timed loops."""

    def __init__(self, spec: Engine, seed: int, root: Path):
        self.spec, self.seed, self.root = spec, seed, root
        self.records = []

    def setup(self) -> list[float]:
        def build():
            cfg, model, clients, data = self.spec.inputs(self.seed)
            return cfg, model, clients, data, federation.setup_experiment(
                cfg, model, clients, data)

        reps, built = setup_time_reps(self.root, build)
        self.cfg, self.model, self.clients, self.data, self.state = built
        return reps

    def timed(self, seconds: float, tracer: Tracer | None,
              min_ops: int = MIN_OPS) -> Timed:
        def one_round():
            _, record, _ = federation.run_round(self.state, self.clients, self.cfg)
            self.records.append(record)

        out = closed_loop(seconds, min_ops, self.cfg.clients_per_round, one_round)
        out.upload_values = out.done * self.upload_per_update()
        return out

    def warm_up(self) -> Timed:
        """Untimed operations before the timed loop."""
        return self.timed(WARMUP_S, None, min_ops=1)

    def upload_per_update(self) -> float:
        return self.records[-1].cumulative_upload / (
            len(self.records) * self.cfg.clients_per_round) if self.records else 0.0

    def check_traced(self, spans: list[Span]) -> list[str]:
        return check_counts(spans, self.spec.expected_counts(
            self.cfg, self.model, self.state.partition), "traced rounds")

    def checks(self, reference: str | None) -> list[str]:
        """Records, counters on a replay, and the default-seed digest."""
        errors = _check_records(self.records, self.cfg, self.model)
        cfg = dataclasses.replace(self.cfg, rounds=REPLAY_ROUNDS)
        with install(Tracer()) as tracer:
            replay = federation.run_experiment(cfg, self.model, self.clients, self.data)
        if replay != self.records[:REPLAY_ROUNDS]:
            errors.append("a replay of the first rounds gave other records")
        errors += check_counts(tracer.spans, self.spec.expected_counts(
            cfg, self.model, self.state.partition), "replayed rounds")
        return errors + _reference_errors(self.records, reference)


class SocketSession(EngineSession):
    """Rounds over ``run_experiment_sockets``, ROUNDS_PER_CONNECTION per worker."""

    def __init__(self, spec: Engine, seed: int, root: Path):
        super().__init__(spec, seed, root)
        self.connections = []

    def setup(self) -> list[float]:
        def build():
            cfg, model, clients, data = self.spec.inputs(self.seed)
            socketmode.run_experiment_sockets(cfg, model, clients, data)
            return cfg, model, clients, data

        reps, built = setup_time_reps(self.root, build)
        self.cfg, self.model, self.clients, self.data = built
        self.cfg = dataclasses.replace(self.cfg, rounds=ROUNDS_PER_CONNECTION)
        return reps

    def timed(self, seconds: float, tracer: Tracer | None,
              min_ops: int = MIN_OPS) -> Timed:
        out = Timed()
        per_run = self.cfg.rounds * self.cfg.clients_per_round
        t = tracer or _probe(socketmode, "apply_replies", "federation.apply_replies")
        try:
            while out.window_s < seconds or len(out.op_times) < min_ops:
                first, trace0 = len(t.spans), t.trace_id
                out.attempted += per_run
                try:
                    records = socketmode.run_experiment_sockets(
                        self.cfg, self.model, self.clients, self.data)
                except Exception as exc:  # counted, reported, and the loop ends
                    out.failed += per_run
                    out.errors.append(f"connection {len(self.connections)}: {exc!r}")
                    break
                spans = t.spans[first:]
                start = next(s.start for s in spans if s.trace_id > trace0)
                end = max(s.end for s in spans if s.name == "federation.apply_replies")
                out.window_s += end - start
                out.op_times += [r.wall_local + r.wall_aggregate for r in records]
                self.connections.append(records)
        finally:
            if tracer is None:
                t.restore()
        self.records = self.connections[0] if self.connections else []
        out.upload_values = out.done * self.upload_per_update()
        return out

    def warm_up(self) -> Timed:
        """None: every connection starts a cold worker, so a warm-up
        connection would not warm the timed ones."""
        return Timed()

    def check_traced(self, spans: list[Span]) -> list[str]:
        return check_counts(spans, self.spec.server_counts(self.cfg, self.model),
                            "traced socket rounds (server side)")

    def checks(self, reference: str | None) -> list[str]:
        """Every connection's records equal one in-process run of the config."""
        errors = _check_records(self.records, self.cfg, self.model)
        with install(Tracer()) as tracer:
            inproc = federation.run_experiment(self.cfg, self.model, self.clients, self.data)
        for i, records in enumerate(self.connections):
            if records != inproc:
                errors.append(f"connection {i}: socket records differ from "
                              f"the in-process run_experiment")
        errors += check_counts(tracer.spans, self.spec.expected_counts(
            self.cfg, self.model, None), "in-process rounds")
        return errors + _reference_errors(self.records, reference)


# ---------------------------------------------------------------- verify

@dataclass(frozen=True)
class ErrorBound:
    """``run_check(error-bound)`` called back to back with reduced trials."""

    name: str
    trials: int = 1
    dims: tuple[int, ...] = (1024, 4096, 16384)
    budgets: tuple[int, ...] = (32, 64, 128)

    sockets: ClassVar[bool] = False
    update_name: ClassVar[str] = "round trips"
    op_name: ClassVar[str] = "run_check call"

    def config(self, seed: int) -> TheoryCheckConfig:
        return TheoryCheckConfig(which="error-bound", seed=seed, trials=self.trials,
                                 dims=self.dims, budgets=self.budgets)

    def expected_counts(self) -> dict:
        """Exact counters of one call: each round trip generates its basis twice."""
        trips = self.trials * len(self.dims)
        return {
            "projection.project.calls": trips,
            "projection.reconstruct.calls": trips,
            "randbasis.basis_tile.entries":
                self.trials * sum(2 * d * k for d, k in zip(self.dims, self.budgets)),
        }

    def reference_output(self, seed: int) -> str:
        return repr(verify.run_check(self.config(seed)).measured)

    def session(self, seed: int, root: Path) -> "CheckSession":
        return CheckSession(self, seed, root)


class CheckSession:
    def __init__(self, spec: ErrorBound, seed: int, root: Path):
        self.spec, self.seed, self.root = spec, seed, root
        self.reports = []

    def setup(self) -> list[float]:
        reps, self.cfg = setup_time_reps(self.root, lambda: self.spec.config(self.seed))
        return reps

    def timed(self, seconds: float, tracer: Tracer | None,
              min_ops: int = MIN_OPS) -> Timed:
        def one_check():
            report = verify.run_check(self.cfg)
            self.reports.append(report)
            return None if report.passed else report.line()

        trips = self.spec.trials * len(self.spec.dims)
        t = tracer or _probe(verify, "project", "projection.project", _projected)
        first = len(t.spans)
        try:
            out = closed_loop(seconds, min_ops, trips, one_check)
        finally:
            if tracer is None:
                t.restore()
        projected = [s for s in t.spans[first:] if s.name == "projection.project"]
        out.upload_values = sum(s.counts.get("upload", 0) for s in projected)
        return out

    def warm_up(self) -> Timed:
        """Untimed calls before the timed loop."""
        return self.timed(WARMUP_S, None, min_ops=1)

    def check_traced(self, spans: list[Span]) -> list[str]:
        return check_counts(spans, self.spec.expected_counts(), "traced checks")

    def checks(self, reference: str | None) -> list[str]:
        """Repeated calls agree, a counted call matches the formulas, and the
        measured value matches the reference at the default seed."""
        errors = []
        measured = {repr(r.measured) for r in self.reports}
        if len(measured) != 1:
            errors.append(f"repeated calls measured {sorted(measured)}")
        with install(Tracer()) as tracer:
            verify.run_check(self.cfg)
        errors += check_counts(tracer.spans, self.spec.expected_counts(), "counted check")
        if reference is not None and self.reports:
            got = repr(self.reports[0].measured)
            if got != reference:
                errors.append(f"CheckReport.measured {got} differs from the "
                              f"reference {reference}")
        return errors


# ---------------------------------------------------------------- registry

WORKLOADS = {w.name: w for w in (
    # generation-bound: basis_tile is most of a round
    Engine("subspace-mlp", "subspace", input_dim=256, hidden_dim=256,
           participation=0.2),
    # one small sample_basis row per call, 1,024 calls and 1,025 losses a round
    Engine("fedkseed-mlp", "fedkseed", input_dim=64, hidden_dim=32,
           participation=0.2),
    # no basis generation; raw frames and the ROUND snapshot over loopback TCP
    Engine("fedavg-sockets", "fedavg", input_dim=256, hidden_dim=256,
           participation=1.0, sockets=True),
    # back-to-back reconstruct(project(u, s)), the shape that dominates tier-1
    ErrorBound("verify-error-bound"),
)}


def load_reference(name: str, seed: int) -> str | None:
    """The stored output for the default seed; None for any other seed."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))[name]
