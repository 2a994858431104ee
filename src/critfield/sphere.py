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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, ndtr

from . import _kacrice as kr
from ._kacrice import CountProblem, CritResult
from .errors import (ImpossibleFieldError, InvalidCovarianceError,
                     MethodError, ParameterError)
from .euclidean import REGIME_TOL, _upper_tail_quad
from .goi import GoiEnsemble, NumericConfig, validate_ensemble

SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class SphereModel:
    """Validated covariance-derivative data of an isotropic field on S^N."""

    n: int
    c1: float  # C'(1) > 0
    c2: float  # C''(1) > 0

    @property
    def eta2(self) -> float:
        return self.c1 / self.c2

    @property
    def eta(self) -> float:
        return math.sqrt(self.eta2)

    @property
    def kappa2(self) -> float:
        k2 = self.c1 * self.c1 / self.c2
        return min(k2, self.eta2 + self.gap_bound)

    @property
    def kappa(self) -> float:
        return math.sqrt(self.kappa2)

    @property
    def gap_bound(self) -> float:
        return (self.n + 2.0) / self.n

    @property
    def boundary(self) -> bool:
        raw = self.c1 * self.c1 / self.c2 - self.eta2
        return raw >= self.gap_bound - REGIME_TOL

    @property
    def regime(self) -> str:
        return "boundary" if self.boundary else "nonboundary"


def model_from_C(n: int, c1: float, c2: float) -> SphereModel:
    """Build a sphere model from C'(1), C''(1), enforcing feasibility.

    kappa^2 - eta^2 = C'(C' - 1)/C'' may not exceed (N+2)/N; violation
    raises ImpossibleFieldError since no isotropic field on S^N attains it.
    """
    if n < 1:
        raise InvalidCovarianceError(f"dimension must be >= 1, got {n}")
    if not (c1 > 0.0):
        raise InvalidCovarianceError(
            f"C'(1) must be positive (got {c1}); the field would have no "
            "gradient variance")
    if not (c2 > 0.0):
        raise InvalidCovarianceError(
            f"C''(1) must be positive (got {c2}); the second-derivative "
            "structure degenerates")
    gap = (c1 * c1 - c1) / c2
    bound = (n + 2.0) / n
    if gap > bound + REGIME_TOL:
        raise ImpossibleFieldError(
            f"kappa^2 - eta^2 = C'(C'-1)/C'' = {gap:.12g} exceeds "
            f"(N+2)/N = {bound:.12g}; no isotropic field on S^{n} attains this")
    return SphereModel(n=n, c1=float(c1), c2=float(c2))


def model_from_shape(n: int, eta2: float, kappa2: float) -> SphereModel:
    """Sphere model with prescribed (eta^2, kappa^2)."""
    if eta2 <= 0 or kappa2 <= 0:
        raise InvalidCovarianceError("eta^2 and kappa^2 must be positive")
    return model_from_C(n, kappa2 / eta2, kappa2 / (eta2 * eta2))


def model_from_legendre(degree: int) -> SphereModel:
    """S^2 model of a random degree-l spherical harmonic (Legendre covariance).

    C(t) = P_l(t) gives C'(1) = l(l+1)/2 and C''(1) = (l-1)l(l+1)(l+2)/8,
    which sits exactly on the boundary regime for every degree l >= 2.
    """
    l = int(degree)
    if l < 2:
        raise InvalidCovarianceError(
            "degree must be >= 2: degree 1 has C''(1) = 0")
    c1 = l * (l + 1) / 2.0
    c2 = (l - 1) * l * (l + 1) * (l + 2) / 8.0
    return model_from_C(2, c1, c2)


@dataclass(frozen=True)
class HessianEnsemblesSphere:
    """GOI representation of the covariant Hessian on S^N (cf. Euclidean)."""

    scale: float
    unconditional: GoiEnsemble
    conditional: GoiEnsemble
    shift_coeff: float


def hessian_ensembles_sphere(model: SphereModel) -> HessianEnsemblesSphere:
    scale = math.sqrt(2.0 * model.c2)
    return HessianEnsemblesSphere(
        scale=scale,
        unconditional=validate_ensemble(model.n, (1.0 + model.eta2) / 2.0),
        conditional=validate_ensemble(
            model.n, (1.0 + model.eta2 - model.kappa2) / 2.0),
        shift_coeff=model.kappa / math.sqrt(2.0),
    )


def _problem(model: SphereModel) -> CountProblem:
    n = model.n
    return CountProblem(
        n=n,
        log_prefactor=-0.5 * n * math.log(math.pi) - n * math.log(model.eta),
        c_total=(1.0 + model.eta2) / 2.0,
        c_cond=(1.0 + model.eta2 - model.kappa2) / 2.0,
        shift_coeff=model.kappa / math.sqrt(2.0),
        cap_coeff=math.sqrt((n + 2.0 + n * model.eta2) / (2.0 * n)),
        boundary=model.boundary,
    )


# ---------------------------------------------------------------------------
# closed forms, N = 2
# ---------------------------------------------------------------------------


def _closed_total_n2(model: SphereModel, i: int) -> float:
    e2 = model.eta2
    if i == 1:
        return 1.0 / (math.pi * e2 * math.sqrt(3.0 + e2))
    return 1.0 / (4.0 * math.pi) + 1.0 / (2.0 * math.pi * e2 * math.sqrt(3.0 + e2))


def _h1_n2(x, e2, k2):
    b = 3.0 + e2 - k2
    return np.sqrt((3.0 + e2) / (2.0 * math.pi * b)) * np.exp(-0.5 * (3.0 + e2) * x * x / b)


def _h2_n2(x, e2, k2):
    k = math.sqrt(k2)
    a = 2.0 + e2 - k2
    b = 3.0 + e2 - k2
    pref = 2.0 * math.sqrt(3.0 + e2) / (2.0 + e2 * math.sqrt(3.0 + e2))
    phi = np.exp(-0.5 * x * x) / SQRT2PI
    t1 = (e2 + k2 * (x * x - 1.0)) * phi * ndtr(k * x / math.sqrt(a))
    t2 = k * math.sqrt(a) / (2.0 * math.pi) * x * np.exp(-0.5 * (2.0 + e2) * x * x / a)
    t3 = (np.sqrt(2.0 / (math.pi * b)) * np.exp(-0.5 * (3.0 + e2) * x * x / b)
          * ndtr(k * x / math.sqrt(a * b)))
    return pref * (t1 + t2 + t3)


def _h2_n2_boundary(x, e2):
    x = np.asarray(x, dtype=float)
    pref = 2.0 * math.sqrt(3.0 + e2) / (SQRT2PI * (2.0 + e2 * math.sqrt(3.0 + e2)))
    out = pref * (((e2 + 2.0) * x * x - 2.0) * np.exp(-0.5 * x * x)
                  + 2.0 * np.exp(-0.5 * (3.0 + e2) * x * x))
    return np.where(x >= 0.0, out, 0.0)


def _h1_n2_boundary(x, e2):
    x = np.asarray(x, dtype=float)
    return math.sqrt(3.0 + e2) / SQRT2PI * np.exp(-0.5 * (3.0 + e2) * x * x)


def _closed_pdf_n2(model: SphereModel, i: int, x):
    x = np.asarray(x, dtype=float)
    e2 = model.eta2
    if model.boundary:
        if i == 1:
            return _h1_n2_boundary(x, e2)
        return _h2_n2_boundary(x, e2) if i == 2 else _h2_n2_boundary(-x, e2)
    k2 = model.kappa2
    if i == 1:
        return _h1_n2(x, e2, k2)
    return _h2_n2(x, e2, k2) if i == 2 else _h2_n2(-x, e2, k2)


def _closed_cdf_n2(model: SphereModel, i: int, u: float) -> float:
    if u == math.inf:       # the maxima tail below reads inf * 0 there
        return 0.0
    e2 = model.eta2
    if model.boundary:
        if i == 1:
            return float(ndtr(-u * math.sqrt(3.0 + e2)))
        if i == 2:
            a = max(u, 0.0)
            pref = (2.0 * math.sqrt(3.0 + e2)
                    / (SQRT2PI * (2.0 + e2 * math.sqrt(3.0 + e2))))
            val = pref * ((e2 + 2.0) * a * math.exp(-0.5 * a * a)
                          + e2 * SQRT2PI * ndtr(-a)
                          + 2.0 * SQRT2PI / math.sqrt(3.0 + e2)
                          * ndtr(-a * math.sqrt(3.0 + e2)))
            return float(min(val, 1.0))
    elif i == 1:
        return float(ndtr(-u * math.sqrt((3.0 + e2) / (3.0 + e2 - model.kappa2))))
    return _upper_tail_quad(lambda t: _closed_pdf_n2(model, i, t), u)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _resolve_method(model: SphereModel, method: str, threshold: bool) -> str:
    if method != "auto":
        return method
    if model.n == 2:
        return "closed-form"
    if model.n > 3 or (model.n == 3 and threshold):
        return "monte-carlo"
    return "quadrature"


def expected_crit_total_sphere(model: SphereModel, i: int, method: str = "auto",
                               config: NumericConfig | None = None) -> CritResult:
    """Expected number of index-i critical points per unit surface area."""
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


def expected_crit_above_sphere(model: SphereModel, i: int, u: float,
                               method: str = "auto",
                               config: NumericConfig | None = None) -> CritResult:
    """Expected number per unit area of index-i critical points above u."""
    _check_index(model, i)
    cfg = config or NumericConfig()
    if math.isinf(u) and u < 0:
        return expected_crit_total_sphere(model, i, method, config)
    method = _resolve_method(model, method, threshold=True)
    if method == "closed-form":
        _require_n2(model)
        tot = _closed_total_n2(model, i)
        return CritResult(tot * _closed_cdf_n2(model, i, u), tot * 1e-11,
                          "closed-form")
    if method == "quadrature":
        return kr.above_quadrature(_problem(model), i, u, cfg)
    if method == "monte-carlo":
        return kr.above_mc(_problem(model), i, u, cfg)
    raise MethodError(f"unknown method {method!r}")


def height_density_sphere(model: SphereModel, i: int, x, method: str = "auto",
                          config: NumericConfig | None = None):
    """Density h_i of the height of a typical index-i critical point."""
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


def height_cdf_sphere(model: SphereModel, i: int, u, method: str = "auto",
                      config: NumericConfig | None = None):
    """Upper-tail fraction F_i(u) of index-i critical point heights."""
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
    cfg = config or NumericConfig()
    area = sphere_area(model.n)
    acc = 0.0
    err = 0.0
    tag = method
    for i in range(model.n + 1):
        r = expected_crit_total_sphere(model, i, method, cfg)
        acc += (-1) ** i * r.value
        err += r.error
        tag = r.method
    return CritResult(area * acc, area * err, tag)


def _check_index(model: SphereModel, i: int):
    if not 0 <= i <= model.n:
        raise ParameterError(f"index must lie in 0..{model.n}, got {i}")


def _require_n2(model: SphereModel):
    if model.n != 2:
        raise MethodError("closed forms are available only for N = 2")
