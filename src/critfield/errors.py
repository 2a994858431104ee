"""Exception types raised across the package.

Every rejected input gets its own class so callers (and the CLI) can map
failures to distinct exit codes without parsing messages.
"""


class CritfieldError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(CritfieldError, ValueError):
    """A matrix-ensemble or numeric parameter is outside its valid range."""


class DegenerateEnsembleError(CritfieldError, ValueError):
    """Operation requires an eigenvalue density, which the degenerate
    ensemble (c = -1/N, every trace 0) lacks; its expectations are
    available by either method."""


class InvalidCovarianceError(CritfieldError, ValueError):
    """Covariance derivatives fail the sign conditions of a smooth isotropic field."""


class ImpossibleFieldError(CritfieldError, ValueError):
    """Requested moments violate the variance bound no isotropic field can exceed."""


class RegimeError(CritfieldError, ValueError):
    """Operation is restricted to a regime the given model is not in."""


class MethodError(CritfieldError, ValueError):
    """Requested numerical method is unavailable for these inputs."""


class UndefinedDistributionError(CritfieldError, ValueError):
    """A height distribution is requested where the expected count vanishes."""


class InsufficientDataError(CritfieldError, ValueError):
    """Too few detected points to form a stable empirical distribution."""


class ConfigError(CritfieldError, ValueError):
    """A job configuration is malformed or incomplete."""
