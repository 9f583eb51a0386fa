"""Temporal Bell inequalities for consecutive dichotomic measurements.

Exact qubit predictions for sequential projective measurements, a
joint-reality hidden-variable model with perfect correlation, Monte Carlo
run ensembles for both, inequality evaluation with error bars, and a
numerical search for maximally violating measurement directions.
"""

from .qubit import (
    Direction,
    Outcome,
    PureState,
    Z_AXIS,
    bloch_vector,
    born_prob,
    direction_from_spherical,
    dot,
    eigenstate,
    state_from_bloch,
)
from .lhv import (
    Disturbance,
    HiddenCountTable,
    Setting,
    TripleDistribution,
    hidden_marginal,
)
from .engine import (
    EnsembleResult,
    Mode,
    Model,
    ProtocolConfig,
    RunCountTable,
    cell_law,
    run_ensemble,
    run_two_series,
)
from .inequalities import (
    InequalityReport,
    check_count_inequality,
    eq5_ratio,
    estimate_expectation,
    estimate_pair_prob,
    eval_eq6,
    eval_eq7,
    eval_eq8,
    eval_eq10,
    lhs16,
    lhs18,
    quantum_pair_prob,
    two_series_estimate,
)
from .search import SearchConfig, TripleConfiguration, grid_oracle, maximize
from .config import ExperimentConfig, load_config, parse_config

__version__ = "0.1.0"

__all__ = [
    "Direction",
    "Disturbance",
    "EnsembleResult",
    "ExperimentConfig",
    "HiddenCountTable",
    "InequalityReport",
    "Mode",
    "Model",
    "Outcome",
    "ProtocolConfig",
    "PureState",
    "RunCountTable",
    "SearchConfig",
    "Setting",
    "TripleConfiguration",
    "TripleDistribution",
    "Z_AXIS",
    "bloch_vector",
    "born_prob",
    "cell_law",
    "check_count_inequality",
    "direction_from_spherical",
    "dot",
    "eigenstate",
    "eq5_ratio",
    "estimate_expectation",
    "estimate_pair_prob",
    "eval_eq6",
    "eval_eq7",
    "eval_eq8",
    "eval_eq10",
    "grid_oracle",
    "hidden_marginal",
    "lhs16",
    "lhs18",
    "load_config",
    "maximize",
    "parse_config",
    "quantum_pair_prob",
    "run_ensemble",
    "run_two_series",
    "state_from_bloch",
    "two_series_estimate",
    "__version__",
]
