"""Critical points of smooth isotropic Gaussian fields on the unit sphere S^N.

The field has unit variance and covariance C(<t, s>) of the inner product,
with C' = C'(1) > 0 and C'' = C''(1) > 0.  Shape parameters (both
dimensionless on the unit sphere):

    eta^2 = C' / C''
    kappa^2 = C'^2 / C''

Feasibility requires kappa^2 - eta^2 <= (N+2)/N; equality is the boundary
regime (spherical harmonics of a single degree live exactly there).  All
counts are per unit surface area; multiply by the sphere area for whole-
sphere totals.  The alternating sum over the index reproduces the Euler
characteristic of S^N, which is the module's main exactness check.

eta^2 enters the Hessian law only as its curvature term; the law, with
its N = 2 height densities, and the count operations are the ones of R^N
(see _kacrice): expected_counts, height_pdf_result and height_cdf_result
take a SphereModel as they take a EuclideanModel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import gammaln

from ._kacrice import (CritResult, IsotropicModel, check_finite, check_integer,
                       expected_counts, shape_ratios)
from .errors import InvalidCovarianceError
from .goi import NumericConfig


@dataclass(frozen=True)
class SphereModel(IsotropicModel):
    """Validated covariance-derivative data of an isotropic field on S^N."""

    space = "sphere"
    gap_name = "kappa^2 - eta^2"

    n: int
    c1: float  # C'(1) > 0
    c2: float  # C''(1) > 0

    @property
    def eta2(self) -> float:
        return self.c1 / self.c2

    @property
    def raw_kappa2(self) -> float:
        return self.c1 * self.c1 / self.c2

    @property
    def curvature(self) -> float:
        return self.eta2

    @property
    def log_prefactor(self) -> float:
        return -0.5 * self.n * math.log(math.pi) - self.n * math.log(self.eta)


def model_from_C(n: int, c1: float, c2: float) -> SphereModel:
    """Build a sphere model from C'(1), C''(1), enforcing feasibility.

    kappa^2 - eta^2 = C'(C' - 1)/C'' may not exceed (N+2)/N; violation
    raises ImpossibleFieldError since no isotropic field on S^N attains it
    (IsotropicModel checks it, and that N is an integer >= 1).
    """
    check_finite(("C'(1)", c1), ("C''(1)", c2))
    if not (c1 > 0.0):
        raise InvalidCovarianceError(
            f"C'(1) must be positive (got {c1}); the field would have no "
            "gradient variance")
    if not (c2 > 0.0):
        raise InvalidCovarianceError(
            f"C''(1) must be positive (got {c2}); the second-derivative "
            "structure degenerates")
    return SphereModel(n=n, c1=float(c1), c2=float(c2))


def model_from_shape(n: int, eta2: float, kappa2: float) -> SphereModel:
    """Sphere model with prescribed (eta^2, kappa^2)."""
    return model_from_C(n, *shape_ratios(eta2, kappa2))


def model_from_legendre(degree: int) -> SphereModel:
    """S^2 model of a random degree-l spherical harmonic (Legendre covariance).

    C(t) = P_l(t) gives C'(1) = l(l+1)/2 and C''(1) = (l-1)l(l+1)(l+2)/8,
    which sits exactly on the boundary regime for every degree l >= 2.
    """
    check_integer("degree", degree, 2)   # degree 1 has C''(1) = 0
    l = degree
    c1 = l * (l + 1) / 2.0
    c2 = (l - 1) * l * (l + 1) * (l + 2) / 8.0
    return model_from_C(2, c1, c2)


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^N (as a subset of R^(N+1))."""
    return 2.0 * math.exp(0.5 * (n + 1) * math.log(math.pi)
                          - gammaln(0.5 * (n + 1)))


def euler_characteristic(model: SphereModel, method: str = "auto",
                         config: NumericConfig | None = None) -> CritResult:
    """Alternating index sum of whole-sphere counts; equals chi(S^N).

    Morse theory forces area(S^N) * sum_i (-1)^i E[count_i] to be exactly 2
    for even N and 0 for odd N, independent of the covariance, which makes
    this a sharp end-to-end consistency check of the count machinery.
    """
    area = sphere_area(model.n)
    acc = 0.0
    err = 0.0
    totals = expected_counts(model, range(model.n + 1), method=method,
                             config=config)
    for i, r in enumerate(totals):
        acc += (-1) ** i * r.value
        err += r.error
    return CritResult(area * acc, area * err, totals[-1].method)
