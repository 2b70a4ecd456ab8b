"""Exception and warning types shared across the package."""


class RelkinError(Exception):
    """Base class for package-specific errors."""


class DegenerateGeometryError(RelkinError):
    """Node geometry makes a quantity undefined (e.g. coincident nodes)."""


class RankDeficiencyError(RelkinError):
    """A design or normal system lost full column rank."""


class EmbeddingFailureError(RelkinError):
    """A Gram matrix admits no valid low-dimensional embedding."""


class IllPosedRotationError(RelkinError):
    """The rotation-recovery system is rank deficient."""


class UnsupportedCovarianceError(RelkinError):
    """Noise structure outside the pairwise-independent model."""


class ConfigError(RelkinError):
    """Invalid experiment or CLI configuration."""


class InputError(RelkinError, ValueError):
    """Malformed input data, such as an exchange CSV that breaks its format."""


class EmbeddingClampWarning(UserWarning):
    """Negative eigenvalues were clamped to zero during an embedding."""


class DegenerateVelocityWarning(UserWarning):
    """All relative velocities vanish; the velocity information matrix is degenerate."""


class RegularizedInverseWarning(UserWarning):
    """A singular covariance was ridge-regularized before inversion."""
