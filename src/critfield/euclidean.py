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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import ndtr

from . import _kacrice as kr
from ._kacrice import CountProblem, CritResult
from .errors import (ImpossibleFieldError, InvalidCovarianceError,
                     MethodError, ParameterError)
from .goi import GoiEnsemble, NumericConfig, validate_ensemble

# kappa^2 within this distance of the (N+2)/N bound snaps to the boundary
# regime; beyond it the model is rejected as impossible.
REGIME_TOL = 1e-9

SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class EuclideanModel:
    """Validated covariance-derivative data of an isotropic field on R^N."""

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


@dataclass(frozen=True)
class HessianEnsembles:
    """GOI representation of the field Hessian at a point.

    Unconditionally grad^2 X ~ scale * M with M ~ GOI(1/2); conditionally on
    X = x, grad^2 X ~ scale * (M - shift_coeff * x * I) with M ~ GOI(c_cond).
    At the boundary c_cond hits -1/N exactly and the conditional ensemble is
    degenerate.
    """

    scale: float
    unconditional: GoiEnsemble
    conditional: GoiEnsemble
    shift_coeff: float


def hessian_ensembles(model: EuclideanModel) -> HessianEnsembles:
    scale = math.sqrt(8.0 * model.rho2)
    return HessianEnsembles(
        scale=scale,
        unconditional=validate_ensemble(model.n, 0.5),
        conditional=validate_ensemble(model.n, (1.0 - model.kappa2) / 2.0),
        shift_coeff=model.kappa / math.sqrt(2.0),
    )


def _problem(model: EuclideanModel) -> CountProblem:
    n = model.n
    return CountProblem(
        n=n,
        log_prefactor=0.5 * n * math.log(2.0 / math.pi) - n * math.log(model.eta),
        c_total=0.5,
        c_cond=(1.0 - model.kappa2) / 2.0,
        shift_coeff=model.kappa / math.sqrt(2.0),
        cap_coeff=math.sqrt((n + 2.0) / (2.0 * n)),
        boundary=model.boundary,
    )


# ---------------------------------------------------------------------------
# closed forms, N = 2
# ---------------------------------------------------------------------------


def _closed_total_n2(model: EuclideanModel, i: int) -> float:
    base = 1.0 / (math.sqrt(3.0) * math.pi * model.eta2)
    return 2.0 * base if i == 1 else base


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


def _closed_pdf_n2(model: EuclideanModel, i: int, x):
    x = np.asarray(x, dtype=float)
    if model.boundary:
        if i == 1:
            return _h1_n2_boundary(x)
        return _h2_n2_boundary(x) if i == 2 else _h2_n2_boundary(-x)
    k2 = model.kappa2
    if i == 1:
        return _h1_n2(x, k2)
    return _h2_n2(x, k2) if i == 2 else _h2_n2(-x, k2)


def _upper_tail_quad(pdf, u: float) -> float:
    """int_u^inf pdf(t) dt by 1-d quadrature on [max(u, -OUTER_TAIL),
    max(u, 0) + OUTER_TAIL].  Minima integrate their own density
    h_0(t) = h_2(-t): the complement 1 - F_2(-u) cancels to rounding in
    their upper tail."""
    lo = max(u, -kr.OUTER_TAIL)
    hi = max(lo, 0.0) + kr.OUTER_TAIL
    val, _ = integrate.quad(lambda t: float(pdf(t)), lo, hi,
                            epsabs=1e-13, epsrel=1e-11, limit=200)
    return min(val, 1.0)


def _closed_cdf_n2(model: EuclideanModel, i: int, u: float) -> float:
    """Upper-tail fraction F_i(u) for N = 2, exact up to 1-d integration."""
    if model.boundary:
        if i == 1:
            return float(ndtr(-u * math.sqrt(3.0)))
        if i == 2:
            a = max(u, 0.0)
            val = (2.0 * math.sqrt(3.0) / SQRT2PI
                   * (a * math.exp(-0.5 * a * a)
                      + math.sqrt(2.0 * math.pi / 3.0) * ndtr(-a * math.sqrt(3.0))))
            return float(val)
    elif i == 1:
        return float(ndtr(-u * math.sqrt(3.0 / (3.0 - model.kappa2))))
    return _upper_tail_quad(lambda t: _closed_pdf_n2(model, i, t), u)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _resolve_method(model: EuclideanModel, method: str, threshold: bool) -> str:
    # Defaults: N=2 closed forms; quadrature where affordable (N<=3 totals,
    # N<=2 thresholded, since the latter nests an outer integral); MC beyond.
    if method != "auto":
        return method
    if model.n == 2:
        return "closed-form"
    if model.n > 3 or (model.n == 3 and threshold):
        return "monte-carlo"
    return "quadrature"


def expected_crit_total(model: EuclideanModel, i: int, method: str = "auto",
                        config: NumericConfig | None = None) -> CritResult:
    """Expected number of index-i critical points per unit volume."""
    _check_index(model, i)
    cfg = config or NumericConfig()
    method = _resolve_method(model, method, threshold=False)
    if method == "closed-form":
        _require_n2(model)
        return CritResult(_closed_total_n2(model, i), 1e-15, "closed-form")
    if method == "quadrature":
        return kr.total_quadrature(_problem(model), i, cfg)
    if method == "monte-carlo":
        return kr.total_mc(_problem(model), i, cfg)
    raise MethodError(f"unknown method {method!r}")


def expected_crit_above(model: EuclideanModel, i: int, u: float,
                        method: str = "auto",
                        config: NumericConfig | None = None) -> CritResult:
    """Expected number per unit volume of index-i critical points above u."""
    _check_index(model, i)
    cfg = config or NumericConfig()
    if math.isinf(u) and u < 0:
        return expected_crit_total(model, i, method, config)
    method = _resolve_method(model, method, threshold=True)
    if method == "closed-form":
        _require_n2(model)
        tot = _closed_total_n2(model, i)
        frac = _closed_cdf_n2(model, i, u)
        return CritResult(tot * frac, tot * 1e-11, "closed-form")
    if method == "quadrature":
        return kr.above_quadrature(_problem(model), i, u, cfg)
    if method == "monte-carlo":
        return kr.above_mc(_problem(model), i, u, cfg)
    raise MethodError(f"unknown method {method!r}")


def height_density(model: EuclideanModel, i: int, x, method: str = "auto",
                   config: NumericConfig | None = None):
    """Density h_i of the height of a typical index-i critical point.

    Scalar x gives a float; array x gives an array.  The general path
    (quadrature / monte-carlo) evaluates pointwise; closed forms vectorize.
    """
    _check_index(model, i)
    cfg = config or NumericConfig()
    method = _resolve_method(model, method, threshold=True)
    if method == "closed-form":
        _require_n2(model)
        out = _closed_pdf_n2(model, i, x)
        return float(out) if np.isscalar(x) else out
    p = _problem(model)
    if np.isscalar(x):
        return kr.height_pdf_general(p, i, float(x), method, cfg).value
    return np.array([kr.height_pdf_general(p, i, float(v), method, cfg).value
                     for v in np.asarray(x, dtype=float)])


def height_cdf(model: EuclideanModel, i: int, u, method: str = "auto",
               config: NumericConfig | None = None):
    """Upper-tail fraction F_i(u): expected share of index-i points above u.

    F_i is nonincreasing with F_i(-inf) = 1; the complementary lower-tail
    distribution is 1 - F_i(u).
    """
    _check_index(model, i)
    cfg = config or NumericConfig()
    method = _resolve_method(model, method, threshold=True)
    if method == "closed-form":
        _require_n2(model)
        if np.isscalar(u):
            return _closed_cdf_n2(model, i, float(u))
        return np.array([_closed_cdf_n2(model, i, float(v))
                         for v in np.asarray(u, dtype=float)])
    p = _problem(model)
    if np.isscalar(u):
        return kr.height_cdf_general(p, i, float(u), method, cfg).value
    return np.array([kr.height_cdf_general(p, i, float(v), method, cfg).value
                     for v in np.asarray(u, dtype=float)])


def _check_index(model: EuclideanModel, i: int):
    if not 0 <= i <= model.n:
        raise ParameterError(f"index must lie in 0..{model.n}, got {i}")


def _require_n2(model: EuclideanModel):
    if model.n != 2:
        raise MethodError("closed forms are available only for N = 2")
