"""stabilab: replace-one stability measurements and the bounds they certify.

The package measures how far a learning algorithm's output moves when a
single training example is replaced (its argument stability), turns that
coefficient into confidence-ball and Rademacher-complexity estimates, and
evaluates the resulting generalization-gap bounds against seeded Monte-Carlo
experiments at desk scale.
"""

__version__ = "0.1.0"

from .exceptions import ConvergenceError, DomainError, NonFiniteIterateError
from .vectorspace import parallelogram_defect
from .losses import LossModel, certify_loss, make_loss
from .learners import (
    PenaltySpec,
    Sample,
    SgdSpec,
    fit_rerm,
    make_algorithm,
)
from .datagen import (
    DistributionSpec,
    LinearNoise,
    LogisticTeacher,
    SignFlip,
    draw_sample,
    draw_samples,
)
from .stability import (
    StabilityReport,
    check_penalty_condition,
    lp_penalty_constant,
    measure_argument_stability,
    rerm_alpha,
    sgd_alpha,
    theoretical_alpha,
)
from .complexity import (
    AlgorithmicBall,
    RademacherEstimate,
    ball_rademacher,
    ball_radius,
    brute_force_rademacher,
)
from .bounds import (
    BoundBreakdown,
    complexity_bound,
    deformed_gap,
    fast_rate_bound,
    plain_gap_bound,
    rerm_gap_bound,
    sgd_gap_bound,
)
from .concentration import (
    DoobDecomposition,
    TailExperiment,
    center_concentration_experiment,
    doob_decomposition,
    pinelis_tail_experiment,
)
from .lab import (
    ExperimentConfig,
    ExperimentReport,
    check_report,
    fitted_rate_slope,
    report_digest,
    run_experiment,
    validate_bound_coverage,
)

__all__ = [
    "ConvergenceError",
    "DomainError",
    "NonFiniteIterateError",
    "parallelogram_defect",
    "LossModel",
    "make_loss",
    "certify_loss",
    "Sample",
    "PenaltySpec",
    "SgdSpec",
    "fit_rerm",
    "make_algorithm",
    "DistributionSpec",
    "LinearNoise",
    "LogisticTeacher",
    "SignFlip",
    "draw_sample",
    "draw_samples",
    "StabilityReport",
    "measure_argument_stability",
    "theoretical_alpha",
    "rerm_alpha",
    "sgd_alpha",
    "lp_penalty_constant",
    "check_penalty_condition",
    "AlgorithmicBall",
    "RademacherEstimate",
    "ball_radius",
    "ball_rademacher",
    "brute_force_rademacher",
    "BoundBreakdown",
    "complexity_bound",
    "plain_gap_bound",
    "fast_rate_bound",
    "rerm_gap_bound",
    "sgd_gap_bound",
    "deformed_gap",
    "TailExperiment",
    "DoobDecomposition",
    "pinelis_tail_experiment",
    "doob_decomposition",
    "center_concentration_experiment",
    "ExperimentConfig",
    "ExperimentReport",
    "run_experiment",
    "report_digest",
    "validate_bound_coverage",
    "check_report",
    "fitted_rate_slope",
]
