"""Critical points of smooth isotropic Gaussian fields on R^N.

The field X has unit variance and covariance rho(|t - s|^2) with
rho' = rho'(0) < 0 and rho'' = rho''(0) > 0.  Two derived shape parameters
control everything:

    eta^2 = -rho' / rho''        (a squared length scale)
    kappa^2 = rho'^2 / rho''     (dimensionless second-moment ratio)

kappa^2 can never exceed (N+2)/N for a valid field; equality is the
boundary regime, where the second conditional spectral moment degenerates
(the field satisfies a Helmholtz equation and height distributions develop
one-sided supports).

Expected counts per unit volume of index-i critical points, with or without
a height threshold, reduce to GOI expectations; N = 2 additionally has
closed forms, used by default.  Heights of index-i critical points have
density h_i and upper-tail fraction F_i = (count above u) / (total count).
On R^N the sphere's Hessian law holds with curvature 0, so the model
supplies only its shape and prefactor; the law itself
(_kacrice.IsotropicModel), its N = 2 closed forms and the operations on
it, shared with the sphere, live in _kacrice, and the operations are
re-exported here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ._kacrice import (REGIME_TOL, CountProblem, CritResult,  # noqa: F401
                       IsotropicModel, check_finite, expected_crit_above,
                       expected_crit_total, height_cdf, height_density,
                       resolve_method, shape_ratios)
from .errors import InvalidCovarianceError


@dataclass(frozen=True)
class EuclideanModel(IsotropicModel):
    """Validated covariance-derivative data of an isotropic field on R^N."""

    space = "euclidean"
    gap_name = "kappa^2"
    curvature = 0.0

    n: int
    rho1: float  # rho'(0) < 0
    rho2: float  # rho''(0) > 0

    @property
    def eta2(self) -> float:
        return -self.rho1 / self.rho2

    @property
    def raw_kappa2(self) -> float:
        return self.rho1 * self.rho1 / self.rho2

    @property
    def log_prefactor(self) -> float:
        return 0.5 * self.n * math.log(2.0 / math.pi) - self.n * math.log(self.eta)


def model_from_rho(n: int, rho1: float, rho2: float) -> EuclideanModel:
    """Build a model from covariance derivatives, enforcing feasibility.

    Raises InvalidCovarianceError for sign violations or a dimension that
    is not an integer >= 1, and ImpossibleFieldError when kappa^2 =
    rho'^2/rho'' exceeds (N+2)/N, the variance bound satisfied by every
    twice-differentiable isotropic field (IsotropicModel checks both).
    """
    check_finite(("rho'(0)", rho1), ("rho''(0)", rho2))
    if not (rho1 < 0.0):
        raise InvalidCovarianceError(
            f"rho'(0) must be negative (got {rho1}); the field would have "
            "no gradient variance")
    if not (rho2 > 0.0):
        raise InvalidCovarianceError(
            f"rho''(0) must be positive (got {rho2}); the field would have "
            "no second-derivative variance")
    return EuclideanModel(n=n, rho1=float(rho1), rho2=float(rho2))


def model_from_shape(n: int, eta2: float, kappa2: float) -> EuclideanModel:
    """Model with prescribed (eta^2, kappa^2); rho' = -kappa^2/eta^2 etc."""
    r1, r2 = shape_ratios(eta2, kappa2)
    return model_from_rho(n, -r1, r2)

