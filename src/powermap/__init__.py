"""Genetic-algorithm learning of statistical power surfaces on discretized
parameter grids, with k-nearest-neighbor prediction for unseen points."""

from .evaluate import (
    EvaluationReport,
    SweepRow,
    brute_force_manifold,
    evaluate,
    rmse,
    score,
    write_sweep_csv,
)
from .ga import (
    GaConfig,
    GaReport,
    IterationStats,
    PowerDictionary,
    crossover_best_two,
    initialize_population,
    mutate,
    reproduce,
    run,
    selection_probabilities,
)
from .grid import Chromosome, GridError, ParameterRange, SearchSpace
from .knn import Neighbor, NeighborQuery, QueryError, k_nearest
from .oracle import OracleConfig, OracleError, PowerOracle, estimate_power
from .regression import (
    DegenerateFitError,
    OlsFit,
    SingularDesignError,
    TestResult,
    TestSpec,
    ols_fit,
    run_test,
)
from .special import (
    NumericalError,
    f_cdf,
    regularized_incomplete_beta,
    student_t_cdf,
)

__all__ = [
    "Chromosome",
    "DegenerateFitError",
    "EvaluationReport",
    "GaConfig",
    "GaReport",
    "GridError",
    "IterationStats",
    "Neighbor",
    "NeighborQuery",
    "NumericalError",
    "OlsFit",
    "OracleConfig",
    "OracleError",
    "ParameterRange",
    "PowerDictionary",
    "PowerOracle",
    "QueryError",
    "SearchSpace",
    "SingularDesignError",
    "SweepRow",
    "TestResult",
    "TestSpec",
    "brute_force_manifold",
    "crossover_best_two",
    "estimate_power",
    "evaluate",
    "f_cdf",
    "initialize_population",
    "k_nearest",
    "mutate",
    "ols_fit",
    "regularized_incomplete_beta",
    "reproduce",
    "rmse",
    "run",
    "run_test",
    "score",
    "selection_probabilities",
    "student_t_cdf",
    "write_sweep_csv",
]

__version__ = "0.1.0"
