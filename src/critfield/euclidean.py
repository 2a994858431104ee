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
The model supplies the count template's parameters and the N = 2 closed
forms; the operations on it (shared with the sphere) live in _kacrice and
are re-exported here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from ._kacrice import (REGIME_TOL, CountProblem, CritResult,  # noqa: F401
                       _upper_tail_quad, expected_crit_above,
                       expected_crit_total, height_cdf, height_density,
                       resolve_method)
from .errors import ImpossibleFieldError, InvalidCovarianceError

SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class EuclideanModel:
    """Validated covariance-derivative data of an isotropic field on R^N."""

    space = "euclidean"

    n: int
    rho1: float  # rho'(0) < 0
    rho2: float  # rho''(0) > 0

    @property
    def eta2(self) -> float:
        return -self.rho1 / self.rho2

    @property
    def eta(self) -> float:
        return math.sqrt(self.eta2)

    @property
    def kappa2(self) -> float:
        k2 = self.rho1 * self.rho1 / self.rho2
        return min(k2, self.kappa2_bound)

    @property
    def kappa(self) -> float:
        return math.sqrt(self.kappa2)

    @property
    def kappa2_bound(self) -> float:
        return (self.n + 2.0) / self.n

    @property
    def boundary(self) -> bool:
        raw = self.rho1 * self.rho1 / self.rho2
        return raw >= self.kappa2_bound - REGIME_TOL

    @property
    def regime(self) -> str:
        return "boundary" if self.boundary else "nonboundary"

    def problem(self) -> CountProblem:
        n = self.n
        return CountProblem(
            n=n,
            log_prefactor=0.5 * n * math.log(2.0 / math.pi) - n * math.log(self.eta),
            c_total=0.5,
            c_cond=(1.0 - self.kappa2) / 2.0,
            shift_coeff=self.kappa / math.sqrt(2.0),
            cap_coeff=math.sqrt((n + 2.0) / (2.0 * n)),
            boundary=self.boundary,
        )

    def closed_total_n2(self, i: int) -> float:
        base = 1.0 / (math.sqrt(3.0) * math.pi * self.eta2)
        return 2.0 * base if i == 1 else base

    def closed_pdf_n2(self, i: int, x):
        x = np.asarray(x, dtype=float)
        if self.boundary:
            if i == 1:
                return _h1_n2_boundary(x)
            return _h2_n2_boundary(x) if i == 2 else _h2_n2_boundary(-x)
        k2 = self.kappa2
        if i == 1:
            return _h1_n2(x, k2)
        return _h2_n2(x, k2) if i == 2 else _h2_n2(-x, k2)

    def closed_cdf_n2(self, i: int, u: float) -> float:
        """Upper-tail fraction F_i(u) for N = 2, exact up to 1-d integration."""
        if u == math.inf:       # the maxima tail below reads inf * 0 there
            return 0.0
        if self.boundary:
            if i == 1:
                return float(ndtr(-u * math.sqrt(3.0)))
            if i == 2:
                a = max(u, 0.0)
                val = (2.0 * math.sqrt(3.0) / SQRT2PI
                       * (a * math.exp(-0.5 * a * a)
                          + math.sqrt(2.0 * math.pi / 3.0) * ndtr(-a * math.sqrt(3.0))))
                return float(val)
        elif i == 1:
            return float(ndtr(-u * math.sqrt(3.0 / (3.0 - self.kappa2))))
        return _upper_tail_quad(lambda t: self.closed_pdf_n2(i, t), u)


def model_from_rho(n: int, rho1: float, rho2: float) -> EuclideanModel:
    """Build a model from covariance derivatives, enforcing feasibility.

    Raises InvalidCovarianceError for sign violations and
    ImpossibleFieldError when kappa^2 = rho'^2/rho'' exceeds (N+2)/N, the
    variance bound satisfied by every twice-differentiable isotropic field.
    """
    if n < 1:
        raise InvalidCovarianceError(f"dimension must be >= 1, got {n}")
    if not (rho1 < 0.0):
        raise InvalidCovarianceError(
            f"rho'(0) must be negative (got {rho1}); the field would have "
            "no gradient variance")
    if not (rho2 > 0.0):
        raise InvalidCovarianceError(
            f"rho''(0) must be positive (got {rho2}); the field would have "
            "no second-derivative variance")
    k2 = rho1 * rho1 / rho2
    bound = (n + 2.0) / n
    if k2 > bound + REGIME_TOL:
        raise ImpossibleFieldError(
            f"kappa^2 = rho'^2/rho'' = {k2:.12g} exceeds (N+2)/N = {bound:.12g}; "
            f"no isotropic field on R^{n} attains this")
    return EuclideanModel(n=n, rho1=float(rho1), rho2=float(rho2))


def model_from_shape(n: int, eta2: float, kappa2: float) -> EuclideanModel:
    """Model with prescribed (eta^2, kappa^2); rho' = -kappa^2/eta^2 etc."""
    if eta2 <= 0 or kappa2 <= 0:
        raise InvalidCovarianceError("eta^2 and kappa^2 must be positive")
    return model_from_rho(n, -kappa2 / eta2, kappa2 / (eta2 * eta2))


# ---------------------------------------------------------------------------
# closed-form height densities, N = 2
# ---------------------------------------------------------------------------


def _h1_n2(x, k2):
    b = 3.0 - k2
    return np.sqrt(3.0 / (2.0 * math.pi * b)) * np.exp(-1.5 * x * x / b)


def _h2_n2(x, k2):
    k = math.sqrt(k2)
    a = 2.0 - k2
    b = 3.0 - k2
    phi = np.exp(-0.5 * x * x) / SQRT2PI
    t1 = math.sqrt(3.0) * k2 * (x * x - 1.0) * phi * ndtr(k * x / math.sqrt(a))
    t2 = k * math.sqrt(3.0 * a) / (2.0 * math.pi) * x * np.exp(-x * x / a)
    t3 = (math.sqrt(6.0 / (math.pi * b)) * np.exp(-1.5 * x * x / b)
          * ndtr(k * x / math.sqrt(a * b)))
    return t1 + t2 + t3


def _h2_n2_boundary(x):
    x = np.asarray(x, dtype=float)
    out = (2.0 * math.sqrt(3.0) / SQRT2PI
           * ((x * x - 1.0) * np.exp(-0.5 * x * x) + np.exp(-1.5 * x * x)))
    return np.where(x >= 0.0, out, 0.0)


def _h1_n2_boundary(x):
    return math.sqrt(3.0) / SQRT2PI * np.exp(-1.5 * np.asarray(x, dtype=float) ** 2)
