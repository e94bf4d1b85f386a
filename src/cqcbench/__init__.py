"""Doubly robust estimation of the equal-quantile outcome map.

Given observational data (outcome, covariates, binary treatment), the
package estimates the function sending an untreated outcome to the treated
outcome occupying the same conditional quantile, along with derived
quantities (the signed outcome gap and quantile treatment effects), plus
baselines, simulation DGPs with closed-form truths, a Monte-Carlo benchmark
runner, and a CSV-based CLI.
"""

from .kernels import DegenerateMassError, KernelSpec, nw_weight_matrix, resolve_weights
from .isotonic import IsotonicResult, pava_project
from .nuisance import CcdfEvaluator, Dataset, PropensityEvaluator, SingleArmError, make_split
from .pseudo import PseudoOutcomeKind
from .estimator import (
    ContrastFit,
    CqcFit,
    build_grid,
    cqc_to_cqte,
    cross_fit_contrast,
    estimate_cqc_many,
    fit_contrast,
    fit_cqc,
    fit_oracle_contrast,
    surface_eval,
)
from .baselines import DrEstimator, IpwEstimator, OracleEstimator, SeparateEstimator
from .simlab import (
    DgpSpec,
    ErrorReport,
    EstimatorResult,
    FailureRecord,
    TruthOracle,
    run_experiment,
    sample_dgp,
    sample_holdout,
    truth,
)

__version__ = "0.1.0"
