"""Round engines: seeded-subspace aggregation plus three baselines.

One round, any method: the server snapshots w, every sampled client runs its
local routine against that snapshot, and the server folds the replies back in
ascending client-id order with ``w <- w - server_lr * mean(delta_i)``.  The
methods differ only in what a reply carries:

* ``subspace``: first-order local steps, delta projected onto seeded random
  bases; the reply is (seed, per-block float32 coordinates), K + 1 numbers.
* ``fedavg``: the raw d-dimensional delta.
* ``fedzo``: local steps driven by zeroth-order forward differences; still a
  raw delta on the wire.
* ``fedkseed``: K sequential one-direction zeroth-order steps; the reply is
  (seed, K scalars) and the server replays it.

Every reply is routed through the byte codec in ``wire`` even when client and
server share a process, so the in-process simulator and the socket demo see
exactly the same numbers.  All sampling (client selection, batch draws,
label-skew splits) runs on the package's own counter-based streams, making a
whole experiment a pure function of its config.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    DivergedError,
    InvalidDimensionError,
    PartitionError,
    ProtocolError,
)
from .models import (
    Dataset,
    Example,
    ModelSpec,
    ParamVector,
    accuracy,
    init_params,
    local_sgd,
    loss,
)
from .normal import norm_ppf
from .projection import (
    BlockPartition,
    ProjectedUpdate,
    UpdateVector,
    _even_split,
    allocate_budgets,
    exact_project,
    project,
    reconstruct,
)
from .randbasis import RandomSeed, derive_subseed, trunc_gauss_stats, uniform_stream
from .wire import decode_client_update, decode_frame, encode_client_update
from .zoo import ScalarGrads, ZOConfig, fedkseed_local_step, replay_scalar_log, zo_reconstruct, zo_scalar_grads

METHODS = ("subspace", "fedavg", "fedzo", "fedkseed")
ALLOCATION_POLICIES = ("uniform", "norm-sqrt")
SEED_POLICIES = ("per-round", "static")
PARTITION_POLICIES = ("by-group", "single")

# reserved basis_index lanes for engine-level subseed derivations, so protocol
# streams (which always start from their own derived roots) cannot collide
_IDX_SAMPLING = 1
_IDX_PROJECTION = 2
_IDX_LOCAL_RNG = 3
_IDX_DATA = 4

_MAX_SKEW_ATTEMPTS = 1000


@dataclass(frozen=True)
class FedConfig:
    """Experiment knobs; a config plus datasets fully determines a run."""

    num_clients: int
    rounds: int
    local_iters: int
    total_bases: int
    local_lr: float
    server_lr: float = 1.0
    participation: float = 1.0
    method: str = "subspace"
    partition_policy: str = "by-group"
    allocation_policy: str = "uniform"
    seed_policy: str = "per-round"
    root_seed: RandomSeed = 0
    batch_size: int = 16
    accum: int = 1
    optimizer: str = "sgd"
    zo_epsilon: float = 1e-3
    exact_projection: bool = False

    def __post_init__(self):
        if self.num_clients < 1:
            raise InvalidDimensionError("need at least one client")
        if self.rounds < 0:
            raise InvalidDimensionError("rounds must be >= 0")
        if self.local_iters < 1:
            raise InvalidDimensionError("need at least one local iteration")
        if self.total_bases < 1:
            raise InvalidDimensionError("need at least one basis")
        if not 0.0 < self.participation <= 1.0:
            raise InvalidDimensionError("participation must lie in (0, 1]")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; options {METHODS}")
        if self.partition_policy not in PARTITION_POLICIES:
            raise ConfigError(f"unknown partition policy {self.partition_policy!r}")
        if self.allocation_policy not in ALLOCATION_POLICIES:
            raise ConfigError(f"unknown allocation policy {self.allocation_policy!r}")
        if self.seed_policy not in SEED_POLICIES:
            raise ConfigError(f"unknown seed policy {self.seed_policy!r}")

    @property
    def clients_per_round(self) -> int:
        # the epsilon absorbs float noise like 0.1 * 30 = 3.0000000000000004
        return max(1, math.ceil(self.participation * self.num_clients - 1e-9))


@dataclass
class ClientDataset:
    """One client's shard plus a human-readable skew descriptor."""

    client_id: int
    examples: list[Example]
    skew_label: str = "iid"

    def __post_init__(self):
        if len(self.examples) == 0:
            raise PartitionError(f"client {self.client_id} received no examples")

    @cached_property
    def data(self) -> Dataset:
        classification = isinstance(self.examples[0].target, (int, np.integer))
        return Dataset.from_examples(self.examples, classification=classification)


@dataclass(frozen=True)
class ClientUpdateMsg:
    """Decoded reply from one client; upload_units counts payload numbers."""

    client_id: int
    round_index: int
    payload: object
    upload_units: int


@dataclass(frozen=True)
class RoundRecord:
    """Per-round trajectory row; wall times never participate in equality."""

    round_index: int
    global_loss: float
    eval_metric: float
    cumulative_upload: int
    cumulative_download: int
    cumulative_grad_evals: int
    wall_local: float = field(default=0.0, compare=False)
    wall_aggregate: float = field(default=0.0, compare=False)


@dataclass
class ExperimentState:
    """Mutable server-side state threaded through the rounds."""

    model: ModelSpec
    w: ParamVector
    partition: BlockPartition | None
    eval_data: Dataset
    round_index: int = 0
    cumulative_upload: int = 0
    cumulative_download: int = 0
    cumulative_grad_evals: int = 0


# ---------------------------------------------------------------- streams

class StreamRng:
    """Cursor over one uniform stream, with derived normal/gamma/dirichlet draws."""

    def __init__(self, seed: RandomSeed):
        self.seed = seed
        self.position = 0

    def uniform(self, n: int) -> np.ndarray:
        out = uniform_stream(self.seed, n, start=self.position)
        self.position += n
        return out

    def normal(self) -> float:
        # nudge off the lattice endpoints so the inverse cdf stays in (0, 1)
        u = float(self.uniform(1)[0]) + 2.0 ** -54
        return float(norm_ppf(u))

    def gamma(self, alpha: float) -> float:
        """One Gamma(alpha, 1) draw (squeeze-accept with a cubed-normal proposal)."""
        if alpha < 1.0:
            u = max(float(self.uniform(1)[0]), 2.0 ** -53)
            return self.gamma(alpha + 1.0) * u ** (1.0 / alpha)
        d = alpha - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        while True:
            x = self.normal()
            v = (1.0 + c * x) ** 3
            if v <= 0.0:
                continue
            u = max(float(self.uniform(1)[0]), 2.0 ** -53)
            if math.log(u) < 0.5 * x * x + d - d * v + d * math.log(v):
                return d * v

    def dirichlet(self, alpha: float, size: int) -> np.ndarray:
        draws = np.array([self.gamma(alpha) for _ in range(size)])
        total = draws.sum()
        if total <= 0.0:
            return np.full(size, 1.0 / size)
        return draws / total

    def shuffled(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) (inside-out swaps)."""
        idx = np.arange(n)
        u = self.uniform(max(n - 1, 0))
        for i in range(n - 1):
            j = i + min(int(u[i] * (n - i)), n - i - 1)
            idx[i], idx[j] = idx[j], idx[i]
        return idx


# ---------------------------------------------------------------- data split

def _parse_skew(skew: str) -> tuple[str, float]:
    if skew == "iid":
        return "iid", 0.0
    if skew.startswith("label-skew(") and skew.endswith(")"):
        try:
            alpha = float(skew[len("label-skew("):-1])
        except ValueError:
            alpha = -1.0
        if alpha > 0.0:
            return "label-skew", alpha
    raise PartitionError(
        f"unknown skew {skew!r}; use 'iid' or 'label-skew(alpha)'")


def _largest_remainder_counts(total: int, props: np.ndarray) -> np.ndarray:
    quota = total * props
    base = np.floor(quota).astype(np.int64)
    short = total - int(base.sum())
    order = np.lexsort((np.arange(len(props)), -(quota - base)))
    base[order[:short]] += 1
    return base


def _skewed_split(examples: list[Example], targets: np.ndarray, n_clients: int,
                  alpha: float, rng: StreamRng) -> list[list[int]] | None:
    classes = np.unique(targets)
    pools = {c: list(np.flatnonzero(targets == c)) for c in classes}
    sizes = _even_split(len(examples), n_clients)
    shards: list[list[int]] = []
    for i in range(n_clients):
        props = rng.dirichlet(alpha, len(classes))
        want = _largest_remainder_counts(sizes[i], props)
        shard: list[int] = []
        for c, count in zip(classes, want):
            take = min(int(count), len(pools[c]))
            shard.extend(pools[c][:take])
            del pools[c][:take]
        while len(shard) < sizes[i]:  # top up from the fullest leftover pool
            c = max(pools, key=lambda k: len(pools[k]))
            if not pools[c]:
                return None
            shard.append(pools[c].pop(0))
        shards.append(shard)
    if any(len(s) == 0 for s in shards):
        return None
    return shards


def partition_data(full, num_clients: int, skew: str = "iid",
                   seed: RandomSeed = 0) -> list[ClientDataset]:
    """Split examples over clients: uniform, or Dirichlet(alpha) label skew."""
    examples = full.examples() if isinstance(full, Dataset) else list(full)
    if num_clients < 1:
        raise PartitionError("need at least one client")
    if len(examples) < num_clients:
        raise PartitionError(
            f"{len(examples)} examples cannot cover {num_clients} clients")
    kind, alpha = _parse_skew(skew)

    if kind == "iid" or num_clients == 1:
        rng = StreamRng(derive_subseed(seed, basis_index=_IDX_DATA))
        order = rng.shuffled(len(examples))
        shards, at = [], 0
        for size in _even_split(len(examples), num_clients):
            shards.append([int(i) for i in order[at:at + size]])
            at += size
        label = "iid" if kind == "iid" else skew
    else:
        targets = np.array([e.target for e in examples])
        shards = None
        for attempt in range(_MAX_SKEW_ATTEMPTS):
            rng = StreamRng(derive_subseed(seed, round_index=attempt,
                                           basis_index=_IDX_DATA))
            shards = _skewed_split(examples, targets, num_clients, alpha, rng)
            if shards is not None:
                break
        if shards is None:
            raise PartitionError(
                f"could not build a non-empty label-skew({alpha}) split")
        label = skew

    return [ClientDataset(client_id=i,
                          examples=[examples[j] for j in shard],
                          skew_label=label)
            for i, shard in enumerate(shards)]


# ---------------------------------------------------------------- seeds

def sample_clients(cfg: FedConfig, round_index: int) -> list[int]:
    """The round's participants, ascending; identical on server and workers."""
    n = cfg.clients_per_round
    if n >= cfg.num_clients:
        return list(range(cfg.num_clients))
    rng = StreamRng(derive_subseed(cfg.root_seed, round_index=round_index + 1,
                                   basis_index=_IDX_SAMPLING))
    return sorted(int(i) for i in rng.shuffled(cfg.num_clients)[:n])


def projection_seed(cfg: FedConfig, round_index: int, client_id: int) -> RandomSeed:
    r = round_index if cfg.seed_policy == "per-round" else 0
    return derive_subseed(cfg.root_seed, client=client_id + 1,
                          round_index=r + 1, basis_index=_IDX_PROJECTION)


def _local_rng(cfg: FedConfig, round_index: int, client_id: int) -> RandomSeed:
    return derive_subseed(cfg.root_seed, client=client_id + 1,
                          round_index=round_index + 1, basis_index=_IDX_LOCAL_RNG)


# ---------------------------------------------------------------- clients

def _grad_evals_per_client(cfg: FedConfig) -> int:
    if cfg.method in ("subspace", "fedavg"):
        return cfg.local_iters * cfg.accum
    if cfg.method == "fedzo":
        return cfg.local_iters * (cfg.total_bases + 1)
    return 2 * cfg.total_bases  # fedkseed: base + probe per sequential step


def _zo_local_delta(cfg: FedConfig, model: ModelSpec, w_values: np.ndarray,
                    data: Dataset, zo_seed: RandomSeed) -> np.ndarray:
    """fedzo client: local_iters steps along zeroth-order gradient estimates."""
    part = BlockPartition.single(w_values.shape[0], 1)
    cur = w_values.copy()
    for t in range(cfg.local_iters):
        zcfg = ZOConfig(epsilon=cfg.zo_epsilon,
                        num_perturbations=cfg.total_bases,
                        seed=derive_subseed(zo_seed, round_index=t + 1))
        grads = zo_scalar_grads(lambda v: loss(model, v, data), cur, zcfg)
        step = zo_reconstruct(grads, part).values
        if not np.all(np.isfinite(step)):
            raise DivergedError("zeroth-order step became non-finite", iteration=t)
        cur -= cfg.local_lr * step
    return w_values - cur


def client_update_frame(cfg: FedConfig, model: ModelSpec,
                        partition: BlockPartition | None, w_values: np.ndarray,
                        client: ClientDataset, round_index: int) -> bytes:
    """Run one client's local routine and encode its reply frame.

    This single code path serves both the in-process simulator and the socket
    worker, which is what makes their byte streams identical.
    """
    w = ParamVector(values=w_values, layout=model.layout)
    try:
        if cfg.method in ("subspace", "fedavg"):
            _, delta = local_sgd(model, w, client.data, iters=cfg.local_iters,
                                 lr=cfg.local_lr, batch_size=cfg.batch_size,
                                 accum=cfg.accum,
                                 rng=_local_rng(cfg, round_index, client.client_id),
                                 optimizer=cfg.optimizer)
            if cfg.method == "fedavg":
                payload = delta
            else:
                seed = projection_seed(cfg, round_index, client.client_id)
                tagged = delta.with_partition(partition)
                payload = (exact_project if cfg.exact_projection else project)(
                    tagged, seed)
        elif cfg.method == "fedzo":
            delta = _zo_local_delta(cfg, model, w_values, client.data,
                                    projection_seed(cfg, round_index,
                                                    client.client_id))
            payload = UpdateVector(values=delta)
        else:  # fedkseed
            zcfg = ZOConfig(epsilon=cfg.zo_epsilon,
                            num_perturbations=cfg.total_bases,
                            seed=projection_seed(cfg, round_index,
                                                 client.client_id))
            _, payload = fedkseed_local_step(
                w_values, lambda v: loss(model, v, client.data), zcfg,
                lr=cfg.local_lr)
    except DivergedError as err:
        raise DivergedError(str(err), iteration=err.iteration,
                            round_index=round_index,
                            client_id=client.client_id) from err
    return encode_client_update(client.client_id, round_index, payload)


# ---------------------------------------------------------------- server

def _decode_reply(frame_bytes: bytes) -> ClientUpdateMsg:
    frame, used = decode_frame(frame_bytes)
    if used != len(frame_bytes):
        raise ProtocolError(f"{len(frame_bytes) - used} trailing bytes in reply")
    client_id, round_index, payload = decode_client_update(frame)
    if isinstance(payload, ProjectedUpdate):
        units = payload.total_coords
    elif isinstance(payload, ScalarGrads):
        units = payload.count
    else:
        units = int(payload.shape[0])
    return ClientUpdateMsg(client_id=client_id, round_index=round_index,
                           payload=payload, upload_units=units)


def _client_delta(msg: ClientUpdateMsg, state: ExperimentState,
                  cfg: FedConfig) -> np.ndarray:
    payload = msg.payload
    if isinstance(payload, ProjectedUpdate):
        if state.partition is None:
            raise ProtocolError("projected reply without a partition")
        return reconstruct(payload, state.partition).values
    if isinstance(payload, ScalarGrads):
        replayed = replay_scalar_log(state.w.values, payload, lr=cfg.local_lr)
        return state.w.values - replayed
    if payload.shape[0] != state.model.dim:
        raise ProtocolError(
            f"raw delta has {payload.shape[0]} entries, model has "
            f"{state.model.dim}")
    return payload


def _seed_bearing(cfg: FedConfig) -> bool:
    return cfg.method in ("subspace", "fedkseed")


def apply_replies(state: ExperimentState, cfg: FedConfig,
                  frames: list[bytes], wall_local: float = 0.0
                  ) -> tuple[ParamVector, RoundRecord, list[ClientUpdateMsg]]:
    """Fold one round of encoded replies into the global model.

    Decodes, reconstructs per-client deltas, averages them in ascending
    client-id order, applies the server step, and extends the accounting.
    """
    t0 = time.perf_counter()
    msgs = sorted((_decode_reply(b) for b in frames),
                  key=lambda m: m.client_id)
    if not msgs:
        raise ProtocolError("a round needs at least one reply")
    for m in msgs:
        if m.round_index != state.round_index:
            raise ProtocolError(
                f"client {m.client_id} replied for round {m.round_index} "
                f"during round {state.round_index}")

    total = np.zeros(state.model.dim, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for m in msgs:
            total += _client_delta(m, state, cfg)
        step = cfg.server_lr * (total / len(msgs))
        new_w = state.w.replace(state.w.values - step)
    if not np.all(np.isfinite(new_w.values)):
        raise DivergedError("aggregated parameters are not finite", 0,
                            round_index=state.round_index)

    n = len(msgs)
    per_client_upload = sum(m.upload_units for m in msgs) // n
    seed_unit = 1 if _seed_bearing(cfg) else 0
    state.cumulative_upload += sum(m.upload_units for m in msgs) + seed_unit * n
    if _seed_bearing(cfg):
        down = (n - 1) * (per_client_upload + seed_unit) * n
    else:
        down = state.model.dim * n
    state.cumulative_download += down
    state.cumulative_grad_evals += _grad_evals_per_client(cfg) * n

    state.w = new_w
    record = RoundRecord(
        round_index=state.round_index,
        global_loss=loss(state.model, new_w, state.eval_data),
        eval_metric=_metric(state.model, new_w, state.eval_data),
        cumulative_upload=state.cumulative_upload,
        cumulative_download=state.cumulative_download,
        cumulative_grad_evals=state.cumulative_grad_evals,
        wall_local=wall_local,
        wall_aggregate=time.perf_counter() - t0,
    )
    state.round_index += 1
    return new_w, record, msgs


def _metric(model: ModelSpec, w: ParamVector, data: Dataset) -> float:
    if model.kind == "linear-regression":
        return loss(model, w, data)
    return accuracy(model, w, data)


def run_round(state: ExperimentState, clients: list[ClientDataset],
              cfg: FedConfig) -> tuple[ParamVector, RoundRecord, list[ClientUpdateMsg]]:
    """One synchronized round: sample, run clients, aggregate."""
    picked = sample_clients(cfg, state.round_index)
    by_id = {c.client_id: c for c in clients}
    t0 = time.perf_counter()
    frames = [client_update_frame(cfg, state.model, state.partition,
                                  state.w.values, by_id[i], state.round_index)
              for i in picked]
    wall_local = time.perf_counter() - t0
    return apply_replies(state, cfg, frames, wall_local=wall_local)


# ---------------------------------------------------------------- experiment

def _block_layout(cfg: FedConfig, model: ModelSpec) -> tuple[int, ...]:
    return (model.dim,) if cfg.partition_policy == "single" else model.block_dims


def build_partition(cfg: FedConfig, model: ModelSpec,
                    block_norms: np.ndarray | None = None) -> BlockPartition:
    """Block layout from the model's parameter groups plus a budget split."""
    dims = _block_layout(cfg, model)
    stats = [trunc_gauss_stats(d) for d in dims]
    if cfg.allocation_policy == "uniform" or block_norms is None:
        # equal weights: the allocator sees sqrt(norm / rho) = 1 for every block
        norms = [s.rho for s in stats]
    else:
        norms = list(np.asarray(block_norms, dtype=np.float64))
    budgets = allocate_budgets(norms, stats, cfg.total_bases)
    return BlockPartition(tuple(dims), budgets)


def _calibration_norms(cfg: FedConfig, model: ModelSpec, w: ParamVector,
                       clients: list[ClientDataset]) -> np.ndarray:
    """Per-block delta norms from the first round-0 participant's local run."""
    first_id = sample_clients(cfg, 0)[0]
    client = next(c for c in clients if c.client_id == first_id)
    _, delta = local_sgd(model, w, client.data, iters=cfg.local_iters,
                         lr=cfg.local_lr, batch_size=cfg.batch_size,
                         accum=cfg.accum, rng=_local_rng(cfg, 0, first_id),
                         optimizer=cfg.optimizer)
    norms, at = [], 0
    for d in _block_layout(cfg, model):
        norms.append(float(np.linalg.norm(delta.values[at:at + d])))
        at += d
    return np.asarray(norms)


def setup_experiment(cfg: FedConfig, model: ModelSpec,
                     clients: list[ClientDataset],
                     eval_data: Dataset | None = None) -> ExperimentState:
    """Initial parameters, eval split, and (for subspace) the frozen partition."""
    if len(clients) != cfg.num_clients:
        raise PartitionError(
            f"config expects {cfg.num_clients} clients, got {len(clients)}")
    w = init_params(model)
    if eval_data is None:
        eval_data = Dataset.from_examples(
            [e for c in clients for e in c.examples],
            classification=model.kind != "linear-regression")
    partition = None
    if cfg.method == "subspace":
        norms = None
        if cfg.allocation_policy == "norm-sqrt":
            norms = _calibration_norms(cfg, model, w, clients)
        partition = build_partition(cfg, model, norms)
    return ExperimentState(model=model, w=w, partition=partition,
                           eval_data=eval_data)


def run_experiment(cfg: FedConfig, model: ModelSpec,
                   clients: list[ClientDataset],
                   eval_data: Dataset | None = None) -> list[RoundRecord]:
    """R rounds of the configured method; deterministic in cfg.root_seed."""
    state = setup_experiment(cfg, model, clients, eval_data)
    records = []
    for _ in range(cfg.rounds):
        try:
            _, record, _ = run_round(state, clients, cfg)
        except DivergedError as err:
            raise DivergedError(
                str(err), iteration=err.iteration,
                round_index=err.round_index if err.round_index is not None
                else state.round_index,
                client_id=err.client_id) from err
        records.append(record)
    return records


def account_costs(records: list[RoundRecord]) -> dict:
    """Totals and per-round means of the communication/compute counters."""
    if not records:
        return {"rounds": 0, "upload_total": 0, "download_total": 0,
                "grad_evals_total": 0, "upload_per_round": 0.0,
                "download_per_round": 0.0, "grad_evals_per_round": 0.0,
                "final_loss": float("nan"), "final_metric": float("nan")}
    last = records[-1]
    n = len(records)
    return {
        "rounds": n,
        "upload_total": last.cumulative_upload,
        "download_total": last.cumulative_download,
        "grad_evals_total": last.cumulative_grad_evals,
        "upload_per_round": last.cumulative_upload / n,
        "download_per_round": last.cumulative_download / n,
        "grad_evals_per_round": last.cumulative_grad_evals / n,
        "final_loss": last.global_loss,
        "final_metric": last.eval_metric,
    }
