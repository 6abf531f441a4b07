"""Federated full-parameter tuning with seeded random-subspace update compression."""

from types import ModuleType as _ModuleType

from .errors import (
    ConfigError,
    DivergedError,
    FedprojError,
    InfeasibleBudgetError,
    InvalidDimensionError,
    NumericError,
    PartitionError,
    ProtocolError,
    ShapeMismatchError,
)
from .federation import (
    METHODS,
    ExperimentState,
    FedConfig,
    RoundRecord,
    StreamRng,
    account_costs,
    build_partition,
    partition_data,
    projection_seed,
    run_experiment,
    run_round,
    sample_clients,
    setup_experiment,
)
from .models import (
    MODEL_KINDS,
    Dataset,
    ModelSpec,
    accuracy,
    grad,
    init_params,
    load_csv,
    load_npz,
    local_sgd,
    loss,
    predict,
    save_csv,
    save_npz,
    synthetic_classification,
    synthetic_regression,
)
from .projection import (
    PROJECTION_VERSION,
    BlockPartition,
    ProjectedUpdate,
    UpdateVector,
    allocate_budgets,
    block_cost,
    cosine_similarity,
    exact_project,
    project,
    reconstruct,
)
from .randbasis import (
    BasisChunk,
    RandomSeed,
    basis_tile,
    derive_subseed,
    mix64,
    rho,
    sample_basis,
    uniform_stream,
)
from .repro import (
    SERIES_NAMES,
    Series,
    accuracy_vs_bases,
    allocation_ablation,
    build_series,
    drift_immunity,
    format_records_csv,
    format_series_csv,
    rounds_curve,
)
from .socketmode import run_experiment_sockets
from .verify import (
    CHECK_NAMES,
    CheckReport,
    TheoryCheckConfig,
    run_battery,
    run_check,
)
from .zoo import (
    ScalarGrads,
    ZOConfig,
    fedkseed_local_step,
    replay_scalar_log,
    zo_gradient,
)

__version__ = "0.1.0"

# every imported public object, so the list cannot drift from the imports
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__.append("__version__")
