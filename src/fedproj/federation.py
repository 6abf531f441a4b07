"""Round engines: seeded-subspace aggregation plus three baselines.

One round, any method: the server snapshots w, every sampled client runs its
local routine against that snapshot, and the server takes exactly one reply
per sampled client, in ascending client-id order, folding each into a running
sum as it reads it and then applying ``w <- w - server_lr * mean(delta_i)``.
``_METHODS`` holds what a reply carries:

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
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DivergedError,
    FedprojError,
    InvalidDimensionError,
    NumericError,
    PartitionError,
    ProtocolError,
)
from .models import (
    OPTIMIZERS,
    Dataset,
    ModelSpec,
    _as_arrays,
    _CheckedBatch,
    _EvalBatch,
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
    _largest_remainder,
    allocate_budgets,
    project,
    reconstruct,
)
from .randbasis import RandomSeed, _open_unit, derive_subseed, rho, uniform_stream
from .wire import (TAG_PROJECTED, TAG_RAW, TAG_SCALAR, decode_client_update,
                   decode_frame, encode_client_update)
from .zoo import LossFn, ScalarGrads, ZOConfig, fedkseed_local_step, replay_scalar_log, zo_gradient

ALLOCATION_POLICIES = ("uniform", "norm-sqrt")

# reserved basis_index lanes for engine-level subseed derivations, so protocol
# streams (which always start from their own derived roots) cannot collide
_IDX_SAMPLING = 1
_IDX_PROJECTION = 2
_IDX_LOCAL_RNG = 3
_IDX_DATA = 4


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
    allocation_policy: str = "uniform"
    root_seed: RandomSeed = 0
    batch_size: int = 16
    accum: int = 1
    optimizer: str = "sgd"
    zo_epsilon: float = 1e-3

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
        if self.batch_size < 1 or self.accum < 1:
            raise InvalidDimensionError("batch_size and accum must be >= 1")
        if not (math.isfinite(self.local_lr) and self.local_lr >= 0.0):
            raise InvalidDimensionError("local_lr must be finite and >= 0")
        if not math.isfinite(self.server_lr):
            raise InvalidDimensionError("server_lr must be finite")
        if not (math.isfinite(self.zo_epsilon) and self.zo_epsilon > 0.0):
            raise InvalidDimensionError("zo_epsilon must be finite and > 0")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; options {METHODS}")
        if self.allocation_policy not in ALLOCATION_POLICIES:
            raise ConfigError(f"unknown allocation policy {self.allocation_policy!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}; "
                              f"options {OPTIMIZERS}")

    @property
    def clients_per_round(self) -> int:
        # the epsilon absorbs float noise like 0.1 * 30 = 3.0000000000000004
        return max(1, math.ceil(self.participation * self.num_clients - 1e-9))


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
    w: np.ndarray
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
        return float(norm_ppf(_open_unit(self.uniform(1)))[0])

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
        if 0.0 < alpha < math.inf:
            return "label-skew", alpha
    raise PartitionError(
        f"unknown skew {skew!r}; use 'iid' or 'label-skew(alpha)'")


def _skewed_split(n: int, targets: np.ndarray, n_clients: int,
                  alpha: float, rng: StreamRng) -> list[list[int]]:
    classes = np.unique(targets)
    pools = {c: list(np.flatnonzero(targets == c)) for c in classes}
    sizes = _even_split(n, n_clients)
    shards: list[list[int]] = []
    for i in range(n_clients):
        props = rng.dirichlet(alpha, len(classes))
        want = _largest_remainder(sizes[i], sizes[i] * props)
        shard: list[int] = []
        for c, count in zip(classes, want):
            take = min(int(count), len(pools[c]))
            shard.extend(pools[c][:take])
            del pools[c][:take]
        # top up from the fullest leftover pool; the pools hold exactly the
        # examples no shard has taken, so it is never empty here
        while len(shard) < sizes[i]:
            c = max(pools, key=lambda k: len(pools[k]))
            shard.append(pools[c].pop(0))
        shards.append(shard)
    return shards


def partition_data(full: Dataset, num_clients: int, skew: str = "iid",
                   seed: RandomSeed = 0) -> list[Dataset]:
    """Split examples over clients: uniform, or Dirichlet(alpha) label skew.

    Client i is the i-th shard: its position is its id in every seed."""
    n = len(full)
    if num_clients < 1:
        raise PartitionError("need at least one client")
    if n < num_clients:
        raise PartitionError(f"{n} examples cannot cover {num_clients} clients")
    kind, alpha = _parse_skew(skew)

    rng = StreamRng(derive_subseed(seed, basis_index=_IDX_DATA))
    if kind == "iid" or num_clients == 1:
        order = rng.shuffled(n)
        shards, at = [], 0
        for size in _even_split(n, num_clients):
            shards.append([int(i) for i in order[at:at + size]])
            at += size
    else:
        if full.targets.ndim != 1:
            raise PartitionError("label skew needs a single target column")
        if not full.is_classification:
            raise PartitionError("label skew needs integer class targets")
        shards = _skewed_split(n, full.targets, num_clients, alpha, rng)
    return [full.take(shard) for shard in shards]


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
    """The client's fresh seed for the round's bases or probe directions."""
    return derive_subseed(cfg.root_seed, client=client_id + 1,
                          round_index=round_index + 1, basis_index=_IDX_PROJECTION)


def _local_rng(cfg: FedConfig, round_index: int, client_id: int) -> RandomSeed:
    return derive_subseed(cfg.root_seed, client=client_id + 1,
                          round_index=round_index + 1, basis_index=_IDX_LOCAL_RNG)


# ---------------------------------------------------------------- methods

def _walk_loss(model: ModelSpec, data: Dataset) -> LossFn:
    """One client walk's loss evaluator, ``v -> loss(model, v, data)``.

    Its first call checks ``data`` in full, so a bad shard raises what it
    always did, at the same step; later calls reuse the arrays that call
    validated.  Parameters are still checked on every call: a step that
    overflows them must fail at that step.
    """
    batch = _CheckedBatch(model, data)
    return lambda v: loss(model, v, batch)


def _client_sgd(cfg: FedConfig, model: ModelSpec, partition: BlockPartition | None,
                w: np.ndarray, client_id: int, data: Dataset, round_index: int
                ) -> np.ndarray:
    """The client's first-order local run; returns its delta, fedavg's reply."""
    _, delta = local_sgd(model, w, data, iters=cfg.local_iters,
                         lr=cfg.local_lr, batch_size=cfg.batch_size,
                         accum=cfg.accum,
                         rng=_local_rng(cfg, round_index, client_id),
                         optimizer=cfg.optimizer)
    return delta


def _subspace_client(cfg: FedConfig, model: ModelSpec, partition: BlockPartition,
                     w: np.ndarray, client_id: int, data: Dataset, round_index: int
                     ) -> ProjectedUpdate:
    """subspace client: the local run's delta projected onto seeded bases."""
    delta = _client_sgd(cfg, model, partition, w, client_id, data, round_index)
    return project(UpdateVector(delta, partition),
                   projection_seed(cfg, round_index, client_id))


def _zo_client(cfg: FedConfig, model: ModelSpec, partition: None, w: np.ndarray,
               client_id: int, data: Dataset, round_index: int) -> np.ndarray:
    """fedzo client: local_iters steps along zeroth-order gradient estimates."""
    zo_seed = projection_seed(cfg, round_index, client_id)
    cur = w.copy()
    loss_fn = _walk_loss(model, data)
    for t in range(cfg.local_iters):
        zcfg = ZOConfig(epsilon=cfg.zo_epsilon, num_perturbations=cfg.total_bases,
                        seed=derive_subseed(zo_seed, round_index=t + 1))
        try:
            step = zo_gradient(loss_fn, cur, zcfg)
        except NumericError as err:
            raise DivergedError(str(err), iteration=t) from err
        if not np.all(np.isfinite(step)):
            raise DivergedError("zeroth-order step became non-finite", iteration=t)
        cur -= cfg.local_lr * step
    return w - cur


def _kseed_client(cfg: FedConfig, model: ModelSpec, partition: None, w: np.ndarray,
                  client_id: int, data: Dataset, round_index: int) -> ScalarGrads:
    """fedkseed client: K sequential one-direction steps; replies their log."""
    zcfg = ZOConfig(epsilon=cfg.zo_epsilon, num_perturbations=cfg.total_bases,
                    seed=projection_seed(cfg, round_index, client_id))
    try:
        return fedkseed_local_step(w, _walk_loss(model, data),
                                   zcfg, lr=cfg.local_lr)[1]
    except NumericError as err:  # err.index is the sequential step
        raise DivergedError(str(err), iteration=err.index) from err


class _Method(NamedTuple):
    """One method's reply tag and client and server halves; a reply carries a
    seed exactly when its tag is not ``TAG_RAW``.  Each routine looks up the
    module globals it calls when it runs, so rebinding one reaches every round."""

    tag: int
    client: Callable  # (cfg, model, partition, w, client_id, data, round) -> payload
    delta: Callable  # (payload, state, cfg) -> the client's delta
    units: Callable  # payload -> upload units
    grad_evals: Callable  # cfg -> gradient evaluations per client per round


_METHODS = {
    "subspace": _Method(TAG_PROJECTED, _subspace_client,
                        lambda p, state, cfg: reconstruct(p, state.partition),
                        lambda p: p.total_coords,
                        lambda cfg: cfg.local_iters * cfg.accum),
    "fedavg": _Method(TAG_RAW, _client_sgd, lambda p, state, cfg: p, len,
                      lambda cfg: cfg.local_iters * cfg.accum),
    "fedzo": _Method(TAG_RAW, _zo_client, lambda p, state, cfg: p, len,
                     lambda cfg: cfg.local_iters * (cfg.total_bases + 1)),
    # fedkseed evaluates a base and a probe loss per sequential step
    "fedkseed": _Method(TAG_SCALAR, _kseed_client,
                        lambda p, state, cfg: state.w - replay_scalar_log(
                            state.w, p, lr=cfg.local_lr),
                        lambda p: p.count, lambda cfg: 2 * cfg.total_bases),
}
METHODS = tuple(_METHODS)


def client_update_frame(cfg: FedConfig, model: ModelSpec,
                        partition: BlockPartition | None, w_values: np.ndarray,
                        client_id: int, data: Dataset, round_index: int) -> bytes:
    """Run one client's local routine and encode its reply frame.

    This single code path serves both the in-process simulator and the socket
    worker, which is what makes their byte streams identical.
    """
    method = _METHODS[cfg.method]
    try:
        payload = method.client(cfg, model, partition, w_values, client_id, data,
                                round_index)
    except DivergedError as err:
        raise DivergedError(str(err), iteration=err.iteration,
                            round_index=round_index, client_id=client_id) from err
    return encode_client_update(method.tag, client_id, round_index, payload)


# ---------------------------------------------------------------- server

def _decode_reply(frame_bytes: bytes, method: _Method, units: int) -> tuple:
    """(client_id, round, payload) of one reply, which must carry the method's
    tag and ``units`` payload numbers."""
    frame, used = decode_frame(frame_bytes)
    if used != len(frame_bytes):
        raise ProtocolError(f"{len(frame_bytes) - used} trailing bytes in reply")
    client_id, round_index, payload = decode_client_update(frame)
    if frame.tag != method.tag:
        raise ProtocolError(f"client {client_id} replied in round {round_index} with "
                            f"tag {frame.tag:#04x}, not the method's {method.tag:#04x}")
    count = method.units(payload)
    if count != units:
        raise ProtocolError(f"client {client_id} replied in round {round_index} with "
                            f"{count} numbers, not {units}")
    return client_id, round_index, payload


def apply_replies(state: ExperimentState, cfg: FedConfig, replies: Iterable
                  ) -> tuple[np.ndarray, RoundRecord, list[int]]:
    """Fold one round of encoded replies into the global model, one at a time.

    Each reply is decoded, checked and added to a running sum, then dropped
    before the next is read.  Takes exactly one reply per sampled client, in
    ascending client id and in the method's format, or raises ProtocolError
    before the state changes.  ``wall_local`` is the time spent waiting on
    ``replies``; ``wall_aggregate`` is the rest of the call.  Returns the new
    parameters, the round's record and the folded client ids, ascending.
    """
    t0 = time.perf_counter()
    method = _METHODS[cfg.method]
    units = state.model.dim if method.tag == TAG_RAW else cfg.total_bases
    total = np.zeros(state.model.dim, dtype=np.float64)
    got, wall_local, t = [], 0.0, time.perf_counter()
    for frame in replies:
        wall_local += time.perf_counter() - t
        client_id, round_index, payload = _decode_reply(frame, method, units)
        with np.errstate(over="ignore", invalid="ignore"):
            total += method.delta(payload, state, cfg)
        got.append((client_id, round_index))
        del frame, payload  # so the next reply is read with this one dropped
        t = time.perf_counter()
    wall_local += time.perf_counter() - t
    picked = sample_clients(cfg, state.round_index)
    due = [(c, state.round_index) for c in picked]
    if got != due:
        raise ProtocolError(
            f"round {state.round_index} takes one reply from each sampled client "
            f"in ascending id, as (client, round) {due}, not {got}")

    n = len(got)
    with np.errstate(over="ignore", invalid="ignore"):
        total /= n
        total *= cfg.server_lr  # the bits of server_lr * (total / n)
        new_w = state.w - total
    if not np.all(np.isfinite(new_w)):
        raise DivergedError("aggregated parameters are not finite", 0,
                            round_index=state.round_index)

    # one forward pass: a classifier's loss leaves its classes for accuracy;
    # an evaluation that raises leaves the state as it was
    batch = _EvalBatch(state.model, state.eval_data)
    global_loss = loss(state.model, new_w, batch)
    eval_metric = (global_loss if state.model.kind == "linear-regression"
                   else accuracy(state.model, new_w, batch))

    seeded = method.tag != TAG_RAW
    state.w = new_w
    state.cumulative_upload += (units + seeded) * n
    state.cumulative_download += ((n - 1) * (units + 1) * n if seeded
                                  else state.model.dim * n)
    state.cumulative_grad_evals += method.grad_evals(cfg) * n
    record = RoundRecord(
        round_index=state.round_index,
        global_loss=global_loss,
        eval_metric=eval_metric,
        cumulative_upload=state.cumulative_upload,
        cumulative_download=state.cumulative_download,
        cumulative_grad_evals=state.cumulative_grad_evals,
        wall_local=wall_local,
        wall_aggregate=time.perf_counter() - t0 - wall_local,
    )
    state.round_index += 1
    return new_w, record, picked


def run_round(state: ExperimentState, clients: list[Dataset],
              cfg: FedConfig) -> tuple[np.ndarray, RoundRecord, list[int]]:
    """One synchronized round; each client runs when the server asks for its reply."""
    w, r = state.w, state.round_index
    replies = (client_update_frame(cfg, state.model, state.partition, w, i,
                                   clients[i], r)
               for i in sample_clients(cfg, r))
    return apply_replies(state, cfg, replies)


# ---------------------------------------------------------------- experiment

def build_partition(cfg: FedConfig, model: ModelSpec,
                    block_norms: np.ndarray | None = None) -> BlockPartition:
    """Block layout from the model's parameter groups plus a budget split."""
    dims = model.block_dims
    if cfg.allocation_policy == "uniform" or block_norms is None:
        # equal weights: the allocator sees sqrt(norm / rho) = 1 for every block
        norms = [rho(d) for d in dims]
    else:
        norms = list(np.asarray(block_norms, dtype=np.float64))
    return BlockPartition(dims, allocate_budgets(norms, dims, cfg.total_bases))


def _calibration_norms(cfg: FedConfig, model: ModelSpec, w: np.ndarray,
                       clients: list[Dataset]) -> np.ndarray:
    """Per-block delta norms from the first round-0 participant's local run."""
    first = sample_clients(cfg, 0)[0]
    delta = _client_sgd(cfg, model, None, w, first, clients[first], 0)
    norms, at = [], 0
    for d in model.block_dims:
        norms.append(float(np.linalg.norm(delta[at:at + d])))
        at += d
    return np.asarray(norms)


def setup_experiment(cfg: FedConfig, model: ModelSpec,
                     clients: list[Dataset],
                     eval_data: Dataset | None = None) -> ExperimentState:
    """Initial parameters, eval split, and (for subspace) the frozen partition.

    ``clients[i]`` is client i's shard.  Every shard and a given ``eval_data``
    are checked against the model here, before any client trains or a socket
    worker starts; a shard's error names its client."""
    if len(clients) != cfg.num_clients:
        raise PartitionError(
            f"config expects {cfg.num_clients} clients, got {len(clients)}")
    for i, data in enumerate(clients):
        if len(data) == 0:
            raise PartitionError(f"client {i} received no examples")
        try:
            _as_arrays(model, data)
        except FedprojError as err:
            raise type(err)(f"client {i}: {err}") from err
    w = init_params(model)
    if eval_data is not None:
        _as_arrays(model, eval_data)
    else:
        eval_data = Dataset(np.concatenate([c.features for c in clients]),
                            np.concatenate([c.targets for c in clients]))
    partition = None
    if _METHODS[cfg.method].tag == TAG_PROJECTED:
        norms = (_calibration_norms(cfg, model, w, clients)
                 if cfg.allocation_policy == "norm-sqrt" else None)
        partition = build_partition(cfg, model, norms)
    return ExperimentState(model=model, w=w, partition=partition,
                           eval_data=eval_data)


def run_experiment(cfg: FedConfig, model: ModelSpec,
                   clients: list[Dataset],
                   eval_data: Dataset | None = None) -> list[RoundRecord]:
    """R rounds of the configured method; deterministic in cfg.root_seed."""
    state = setup_experiment(cfg, model, clients, eval_data)
    records = []
    for _ in range(cfg.rounds):
        _, record, _ = run_round(state, clients, cfg)
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
