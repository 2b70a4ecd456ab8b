"""relkin: relative kinematics of anchorless mobile networks from two-way ranging.

The pipeline runs timestamp exchanges -> polynomial range coefficients ->
kinematic Gram matrices -> relative positions, velocities and the velocity
rotation, with Cramer-Rao bounds and a Monte Carlo harness alongside.
"""

__version__ = "0.1.0"

from .exceptions import (
    ConfigError,
    DegenerateGeometryError,
    EmbeddingClampWarning,
    EmbeddingFailureError,
    IllPosedRotationError,
    InputError,
    RankDeficiencyError,
    RelkinError,
    UnsupportedCovarianceError,
)
from .kinematics import (
    RangeDerivatives,
    RangeMatrices,
    TrajectorySet,
    builtin_trajectory,
    canonical_pairs,
    centering_matrix,
    load_trajectory,
    range_derivatives,
    range_matrices,
)
from .twr import (
    ExchangeConfig,
    NoiseModel,
    SPEED_OF_LIGHT,
    TimestampExchangeSet,
    effective_noise_covariance,
    generate_timestamps,
    simulate_exchanges,
)
from .ranging import (
    DesignSystem,
    RangeCoefficients,
    RangeCrb,
    build_design,
    crb_theta,
    pairwise_solve,
    wls_solve,
)
from .embedding import (
    KinematicGrams,
    RelativeSolution,
    classical_mds,
    estimate_rotation,
    grams_from_ranges,
    procrustes_align,
    solve_relative,
    spectral_embed,
)
from .bounds import (
    FisherInfo,
    RangeNoiseCovariances,
    crb_trace,
    fim_position,
    fim_velocity,
)
from .experiments import (
    ExperimentConfig,
    RmseReport,
    check_report,
    default_suite,
    emit_outputs,
    run_experiment,
)
