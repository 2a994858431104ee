"""Shared Kac-Rice count engine.

Both geometries reduce expected critical-point counts to the same template:

    E[count of index i]          = pref * E_GOI(c_tot)[g_i(0)]
    E[count of index i above u]  = pref * int_u^inf phi(x) E_GOI(c_cnd)[g_i(b x)] dx
    boundary regime              = pref * E_GOI(c_tot)[g_i(0); mean(lam) <= -gamma u]

where g_i(a) is the indexed absolute-determinant functional with shift a.
IsotropicModel writes the Hessian law of both geometries once, with the
sphere's eta^2 as a curvature term (0 on R^N): shape, regime, (pref, c_tot,
c_cnd, b, gamma) through problem(), and the N = 2 height laws.  A geometry
(euclidean.EuclideanModel, sphere.SphereModel) adds its curvature,
prefactor and N = 2 totals.  This module holds the public operations on
either model, evaluates the template by quadrature or Monte Carlo and
propagates error estimates.  Every
unshifted or trace-capped expectation is one goi.goi_expectation call; only
the shifted numerators (heights as a batch axis) and the boundary trace
slice call the quadrature engine directly.  Height
densities and upper-tail height fractions follow as ratios of the same
quantities, so prefactors cancel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy import integrate
from scipy.special import ndtr, ndtri

from .errors import (InvalidCovarianceError, MethodError, ParameterError,
                     UndefinedDistributionError)
from .goi import (
    GoiEnsemble,
    IndexedFunctional,
    NumericConfig,
    NODE_LADDER,
    _gauss_on,
    abs_prod_weight,
    batch_mean,
    eigen_batches,
    goi_expectation,
    nested_ordered_quadrature,
    validate_ensemble,
)

SQRT2PI = math.sqrt(2.0 * math.pi)

# kappa^2 within this distance of its feasibility bound snaps to the boundary
# regime; beyond it the model is rejected as impossible.
REGIME_TOL = 1e-9

# Outer threshold integrals run on [u, u + OUTER_TAIL]; beyond that the
# standard normal envelope contributes below any tolerance used here.
OUTER_TAIL = 13.0
# Gauss nodes per piece of the outer height integral (first rung of
# goi.NODE_LADDER, cap), and heights handed to the quadrature engine per call.
OUTER_START_NODES = 24
OUTER_MAX_NODES = 256
OUTER_CHUNK = 8


@dataclass(frozen=True)
class CritResult:
    """A computed expected count (or derived scalar) with its error estimate.

    error is one standard error for monte-carlo results.  For quadrature it
    covers the whole quadrature error: on every axis (gaps, trace, and the
    outer height integral) the difference to the rule with the next smaller
    Gauss node count, a bound on every truncated tail, and a rounding
    allowance.
    Closed forms report a nominal floating point / 1-d integration residual.
    The height functions on an array of heights hold arrays of its shape.
    """

    value: float
    error: float
    method: str


@dataclass(frozen=True)
class CountProblem:
    """Geometry-resolved parameters of the count template (see module doc)."""

    n: int
    log_prefactor: float
    c_total: float
    c_cond: float
    shift_coeff: float
    cap_coeff: float
    boundary: bool

    def total_ensemble(self) -> GoiEnsemble:
        return validate_ensemble(self.n, self.c_total)

    def cond_ensemble(self) -> GoiEnsemble:
        return validate_ensemble(self.n, self.c_cond)


class IsotropicModel:
    """Shape, regime, count parameters and N = 2 height laws of a
    unit-variance isotropic field on R^N or S^N.

    A geometry is a frozen dataclass of its covariance derivatives and
    supplies n, eta2, raw_kappa2 (the unclamped kappa^2), curvature (how
    eta^2 enters the Hessian law: 0 on R^N, eta^2 on S^N), log_prefactor
    and closed_total_n2(i).  With e2 = curvature the Hessian law reads
    c_tot = (1 + e2)/2, c_cnd = (1 + e2 - kappa^2)/2, and feasibility
    requires kappa^2 - e2 <= (N+2)/N, with equality the boundary regime.
    """

    def __post_init__(self):
        derivs = {f.name: getattr(self, f.name) for f in fields(self)
                  if f.name != "n"}
        if not all(math.isfinite(v) for v in derivs.values()):
            raise InvalidCovarianceError(
                f"covariance derivatives must be finite, got {derivs}")

    @property
    def eta(self) -> float:
        return math.sqrt(self.eta2)

    @property
    def gap_bound(self) -> float:
        """(N+2)/N, the largest kappa^2 - curvature of any such field."""
        return (self.n + 2.0) / self.n

    @property
    def kappa2(self) -> float:
        return min(self.raw_kappa2, self.curvature + self.gap_bound)

    @property
    def kappa(self) -> float:
        return math.sqrt(self.kappa2)

    @property
    def boundary(self) -> bool:
        return self.raw_kappa2 - self.curvature >= self.gap_bound - REGIME_TOL

    @property
    def regime(self) -> str:
        return "boundary" if self.boundary else "nonboundary"

    def problem(self) -> CountProblem:
        n = self.n
        e2 = self.curvature
        return CountProblem(
            n=n,
            log_prefactor=self.log_prefactor,
            c_total=(1.0 + e2) / 2.0,
            c_cond=(1.0 + e2 - self.kappa2) / 2.0,
            shift_coeff=self.kappa / math.sqrt(2.0),
            cap_coeff=math.sqrt((n + 2.0 + n * e2) / (2.0 * n)),
            boundary=self.boundary,
        )

    def closed_pdf_n2(self, i: int, x):
        x = np.asarray(x, dtype=float)
        e2 = self.curvature
        if self.boundary:
            if i == 1:
                return _h1_n2_boundary(x, e2)
            return _h2_n2_boundary(x, e2) if i == 2 else _h2_n2_boundary(-x, e2)
        k2 = self.kappa2
        if i == 1:
            return _h1_n2(x, e2, k2)
        return _h2_n2(x, e2, k2) if i == 2 else _h2_n2(-x, e2, k2)

    def closed_cdf_n2(self, i: int, u: float) -> float:
        """Upper-tail fraction F_i(u) for N = 2, exact up to 1-d integration."""
        if u == math.inf:       # the maxima tail below reads inf * 0 there
            return 0.0
        e2 = self.curvature
        if self.boundary:
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
            return float(ndtr(-u * math.sqrt((3.0 + e2) / (3.0 + e2 - self.kappa2))))
        return _upper_tail_quad(lambda t: self.closed_pdf_n2(i, t), u)


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / SQRT2PI


# ---------------------------------------------------------------------------
# totals
# ---------------------------------------------------------------------------


def _index_total(p: CountProblem, i: int, method: str, cfg: NumericConfig,
                 trace_cap: float | None = None) -> tuple[float, float]:
    """E_GOI(c_tot)[g_i(0)], restricted to mean(lam) <= trace_cap if one
    is given, and its error."""
    fn = IndexedFunctional(index=i, trace_cap=trace_cap)
    return goi_expectation(p.total_ensemble(), fn, method, cfg)


def count_total(p: CountProblem, i: int, method: str, cfg: NumericConfig,
                trace_cap: float | None = None) -> CritResult:
    """Expected index-i count pref * E_GOI(c_tot)[g_i(0)]; with a trace cap
    -gamma u, the boundary-regime count above u."""
    val, err = _index_total(p, i, method, cfg, trace_cap)
    pref = math.exp(p.log_prefactor)
    return CritResult(pref * val, pref * err, method)


# ---------------------------------------------------------------------------
# counts above a threshold
# ---------------------------------------------------------------------------


def _frobenius_moments(n: int, c: float) -> list[float]:
    """Upper bounds on E ||M||_F^k, k = 0..N, for M ~ GOI(c).

    ||M||_F^2 = |diag|^2 + 2 sum_(i<j) M_ij^2 has mean T = N (1 + c) +
    N (N - 1) / 2 and variance 2 tr((I + c 1 1^T)^2) + N (N - 1); Lyapunov's
    inequality gives E ||M||_F^k <= (E ||M||_F^4)^(k/4) for k <= 4.
    """
    t = n * (1.0 + c) + 0.5 * n * (n - 1)
    m4 = t * t + 2.0 * n * (1.0 + 2.0 * c + c * c * n) + n * (n - 1)
    return [m4 ** (0.25 * k) for k in range(n + 1)]


def _normal_tail_moment(h: float, k: int) -> float:
    """int_h^inf x^k phi(x) dx for h >= 0."""
    if k == 0:
        return float(ndtr(-h))
    if k == 1:
        return _phi(h)
    return h ** (k - 1) * _phi(h) + (k - 1) * _normal_tail_moment(h, k - 2)


def _outer_tail_bound(p: CountProblem, h: float) -> float:
    """Bound on int_(|x| >= h, one side) phi(x) E_GOI(c_cnd)[g_i(b x)] dx.

    g_i(b x) <= prod_j (|lam_j| + |b x|) <= (||M||_F + |b x|)^N; expand the
    binomial and integrate each power of x against the normal tail.
    """
    b = abs(p.shift_coeff)
    mom = _frobenius_moments(p.n, p.c_cond)
    return sum(math.comb(p.n, k) * b ** (p.n - k) * mom[k]
               * _normal_tail_moment(h, p.n - k) for k in range(p.n + 1))


def _shifted_expectations(p: CountProblem, i: int, x: np.ndarray,
                          cfg: NumericConfig) -> tuple[np.ndarray, np.ndarray]:
    """E_GOI(c_cnd)[g_i(b x)] and its error at each height x; the heights
    are a batch axis of the quadrature engine, taken OUTER_CHUNK at a time."""
    vals, errs = [np.zeros(0)], [np.zeros(0)]
    for s in range(0, x.size, OUTER_CHUNK):
        beta = p.shift_coeff * x[s:s + OUTER_CHUNK]
        v, e = nested_ordered_quadrature(
            p.n, p.c_cond, abs_prod_weight(beta), n_lower=i, split=beta,
            epsabs=cfg.quad_abs_tol, epsrel=cfg.quad_rel_tol)
        vals.append(v)
        errs.append(e)
    return np.concatenate(vals), np.concatenate(errs)


def above_quadrature(p: CountProblem, i: int, u: float,
                     cfg: NumericConfig) -> CritResult:
    if math.isinf(u):
        return CritResult(0.0, 0.0, "quadrature")
    if p.boundary:
        return count_total(p, i, "quadrature", cfg, trace_cap=-p.cap_coeff * u)

    # The outer integrand phi(x) E[g_i(b x)] is a polynomial times the normal
    # density, so only [-OUTER_TAIL, OUTER_TAIL] (shifted right for large u)
    # is integrated, with a Gauss rule split at x = 0 (where the boundary
    # limit of the integrand has its kink); the cut tails are bounded.
    lo = max(u, -OUTER_TAIL)
    hi = max(lo, 0.0) + OUTER_TAIL
    edges = [lo, 0.0, hi] if lo < 0.0 < hi else [lo, hi]
    levels: dict = {}

    def level(m: int):
        if m not in levels:
            x, w = _gauss_on(np.array(edges[:-1]), np.array(edges[1:]), m)
            e, e_err = _shifted_expectations(p, i, x, cfg)
            wphi = w * np.exp(-0.5 * x * x) / SQRT2PI
            levels[m] = (float(wphi @ e), float(wphi @ e_err))
        return levels[m]

    k = NODE_LADDER.index(OUTER_START_NODES)
    while True:
        val, inner_err = level(NODE_LADDER[k])
        err = abs(val - level(NODE_LADDER[k - 1])[0]) + inner_err
        if (err <= max(cfg.quad_abs_tol, cfg.quad_rel_tol * abs(val))
                or NODE_LADDER[k] >= OUTER_MAX_NODES):
            break
        k += 1
    err += _outer_tail_bound(p, hi) + (_outer_tail_bound(p, -lo) if u < lo else 0.0)
    pref = math.exp(p.log_prefactor)
    return CritResult(pref * val, pref * err, "quadrature")


def above_mc(p: CountProblem, i: int, u: float, cfg: NumericConfig) -> CritResult:
    if p.boundary:
        return count_total(p, i, "monte-carlo", cfg, trace_cap=-p.cap_coeff * u)

    # Double sampling: x from the normal upper tail above u (one matrix per
    # x), scaled by the tail mass so the estimator stays unbiased.  The
    # uniforms lie in (0, 1], which keeps ndtri away from its -inf endpoint.
    ens = p.cond_ensemble()
    tail = float(ndtr(-u))
    if tail == 0.0:
        return CritResult(0.0, 0.0, "monte-carlo")

    def values(uni, lam):
        x = -ndtri(tail * uni)
        beta = p.shift_coeff * x
        vals = np.abs(lam - beta[:, None]).prod(axis=1)
        return np.where((lam < beta[:, None]).sum(axis=1) == i, vals, 0.0)

    batches = eigen_batches(ens, cfg, tail_uniforms=True)
    mean, se = batch_mean((values(uni, lam) for uni, lam in batches),
                          int(cfg.mc_samples))
    pref = math.exp(p.log_prefactor)
    return CritResult(pref * tail * mean, pref * tail * se, "monte-carlo")


def count_above(p: CountProblem, i: int, u: float, method: str,
                cfg: NumericConfig) -> CritResult:
    """Expected index-i count above u by quadrature or Monte Carlo."""
    if math.isinf(u) and u < 0:
        return count_total(p, i, method, cfg)
    if method == "quadrature":
        return above_quadrature(p, i, u, cfg)
    if method == "monte-carlo":
        return above_mc(p, i, u, cfg)
    raise MethodError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# height distributions, general path
# ---------------------------------------------------------------------------


def _over_heights(x, point, *cols):
    """(values, errors) of point(u, *row) -> (value, error) at every height
    u of x, where row holds the entries at u of the columns cols (flat
    arrays over x): floats for a scalar x, arrays of x's shape otherwise."""
    xs = np.asarray(x, dtype=float)
    out = np.array([point(float(u), *row) for u, *row in zip(xs.ravel(), *cols)])
    if np.isscalar(x):
        return float(out[0, 0]), float(out[0, 1])
    out = out.reshape(xs.shape + (2,))
    return out[..., 0], out[..., 1]


def _check_total(tot: float, i: int) -> None:
    if tot <= 0.0:
        raise UndefinedDistributionError(
            f"expected count of index-{i} points vanishes; heights undefined")


def height_pdf_general(p: CountProblem, i: int, x, method: str,
                       cfg: NumericConfig) -> CritResult:
    """h_i at the heights x (a scalar or an array), the height density of
    index-i critical points; the index total is computed once for all x.

    This is the exact integrand ratio
    h_i(u) = phi(u) E_GOI(c_cnd)[g_i(b u)] / E_GOI(c_tot)[g_i(0)].  In the
    boundary regime c_cnd = -1/N: Monte Carlo samples that degenerate
    ensemble as it is, and quadrature, which needs a density, integrates on
    the trace slice mean(lam) = -gamma u instead.  Quadrature numerators
    take the heights as a batch axis of the engine.
    """
    if method not in ("quadrature", "monte-carlo"):
        raise MethodError(f"unknown general-path method {method!r}")
    tot, tot_err = _index_total(p, i, method, cfg)
    _check_total(tot, i)
    if p.boundary and method == "quadrature":
        return _height_pdf_boundary(p, i, x, tot, tot_err, cfg)
    us = np.asarray(x, dtype=float).ravel()
    if method == "quadrature":
        num, num_err = _shifted_expectations(p, i, us, cfg)
    else:
        ens = p.cond_ensemble()
        num, num_err = np.array([
            goi_expectation(ens, IndexedFunctional(index=i, shift=p.shift_coeff * u),
                            method, cfg)
            for u in us.tolist()]).reshape(-1, 2).T

    def point(u, num, num_err):
        val = _phi(u) * num / tot
        rel = 0.0
        if num > 0:
            rel = math.hypot(num_err / num, tot_err / tot)
        return val, abs(val) * rel + _phi(u) * num_err / tot

    return CritResult(*_over_heights(x, point, num, num_err), method)


def _height_pdf_boundary(p: CountProblem, i: int, x, tot: float,
                         tot_err: float, cfg: NumericConfig) -> CritResult:
    # h_i(u) = -d/du E[g_i(0); mean(lam) <= -gamma u] / total: the
    # integrand on the slice mean(lam) = -gamma u, times gamma
    def point(u):
        dens, dens_err = nested_ordered_quadrature(
            p.n, p.c_total, abs_prod_weight(0.0), n_lower=i, split=0.0,
            trace_cap=-p.cap_coeff * u, cap_derivative=True,
            epsabs=cfg.quad_abs_tol, epsrel=cfg.quad_rel_tol)
        val = p.cap_coeff * dens / tot
        return val, p.cap_coeff * dens_err / tot + abs(val) * tot_err / tot

    return CritResult(*_over_heights(x, point), "quadrature")


def height_cdf_general(p: CountProblem, i: int, u, method: str,
                       cfg: NumericConfig) -> CritResult:
    """Upper-tail fraction F_i at the heights u (a scalar or an array):
    expected share of index-i points above u, over one index total."""
    tot = count_total(p, i, method, cfg)
    _check_total(tot.value, i)

    def point(v):
        ab = count_above(p, i, v, method, cfg)
        val = ab.value / tot.value
        rel = tot.error / tot.value
        if ab.value > 0:
            rel = math.hypot(ab.error / ab.value, rel)
            return val, val * rel
        return val, ab.error / tot.value

    return CritResult(*_over_heights(u, point), method)


# ---------------------------------------------------------------------------
# closed forms, N = 2: height densities (e2 = curvature) and the upper tail
# ---------------------------------------------------------------------------


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


def _upper_tail_quad(pdf, u: float) -> float:
    """int_u^inf pdf(t) dt by 1-d quadrature on [max(u, -OUTER_TAIL),
    max(u, 0) + OUTER_TAIL].  Minima integrate their own density
    h_0(t) = h_2(-t): the complement 1 - F_2(-u) cancels to rounding in
    their upper tail."""
    lo = max(u, -OUTER_TAIL)
    hi = max(lo, 0.0) + OUTER_TAIL
    val, _ = integrate.quad(lambda t: float(pdf(t)), lo, hi,
                            epsabs=1e-13, epsrel=1e-11, limit=200)
    return min(val, 1.0)


# ---------------------------------------------------------------------------
# public operations on either model
# ---------------------------------------------------------------------------


def resolve_method(model, method: str, threshold: bool) -> str:
    """The route `auto` takes for a model: the N = 2 closed forms;
    quadrature where affordable (N <= 3 totals, N <= 2 thresholded, since
    the latter nests an outer integral); Monte Carlo beyond.  Any other
    method passes through."""
    if method != "auto":
        return method
    if model.n == 2:
        return "closed-form"
    if model.n > 3 or (model.n == 3 and threshold):
        return "monte-carlo"
    return "quadrature"


def _check_index(model, i: int) -> None:
    if not 0 <= i <= model.n:
        raise ParameterError(f"index must lie in 0..{model.n}, got {i}")


def _require_n2(model) -> None:
    if model.n != 2:
        raise MethodError("closed forms are available only for N = 2")


def expected_crit_total(model, i: int, method: str = "auto",
                        config: NumericConfig | None = None) -> CritResult:
    """Expected number of index-i critical points per unit volume (R^N) or
    per unit surface area (S^N)."""
    _check_index(model, i)
    cfg = config or NumericConfig()
    method = resolve_method(model, method, threshold=False)
    if method == "closed-form":
        _require_n2(model)
        return CritResult(model.closed_total_n2(i), 1e-15, "closed-form")
    return count_total(model.problem(), i, method, cfg)


def expected_crit_above(model, i: int, u: float, method: str = "auto",
                        config: NumericConfig | None = None) -> CritResult:
    """Expected number per unit volume (area) of index-i critical points
    above u."""
    _check_index(model, i)
    cfg = config or NumericConfig()
    if math.isinf(u) and u < 0:
        return expected_crit_total(model, i, method, config)
    method = resolve_method(model, method, threshold=True)
    if method == "closed-form":
        _require_n2(model)
        tot = model.closed_total_n2(i)
        frac = model.closed_cdf_n2(i, u)
        return CritResult(tot * frac, tot * 1e-11, "closed-form")
    return count_above(model.problem(), i, u, method, cfg)


def height_pdf_result(model, i: int, x, method: str = "auto",
                      config: NumericConfig | None = None) -> CritResult:
    """h_i at the heights x with its error.  Value and error are floats for
    a scalar x and arrays of x's shape otherwise; a closed form states one
    nominal error for every height."""
    _check_index(model, i)
    cfg = config or NumericConfig()
    method = resolve_method(model, method, threshold=True)
    if method == "closed-form":
        _require_n2(model)
        val = model.closed_pdf_n2(i, x)
        return CritResult(float(val) if np.isscalar(x) else val, 1e-15,
                          "closed-form")
    return height_pdf_general(model.problem(), i, x, method, cfg)


def height_cdf_result(model, i: int, u, method: str = "auto",
                      config: NumericConfig | None = None) -> CritResult:
    """F_i at the heights u with its error, shaped as in height_pdf_result."""
    _check_index(model, i)
    cfg = config or NumericConfig()
    method = resolve_method(model, method, threshold=True)
    if method == "closed-form":
        _require_n2(model)
        val, _ = _over_heights(u, lambda v: (model.closed_cdf_n2(i, v), 0.0))
        return CritResult(val, 1e-11, "closed-form")
    return height_cdf_general(model.problem(), i, u, method, cfg)


def height_density(model, i: int, x, method: str = "auto",
                   config: NumericConfig | None = None):
    """Density h_i of the height of a typical index-i critical point.

    Scalar x gives a float; array x gives an array.
    """
    return height_pdf_result(model, i, x, method, config).value


def height_cdf(model, i: int, u, method: str = "auto",
               config: NumericConfig | None = None):
    """Upper-tail fraction F_i(u): expected share of index-i points above u.

    F_i is nonincreasing with F_i(-inf) = 1; the complementary lower-tail
    distribution is 1 - F_i(u).
    """
    return height_cdf_result(model, i, u, method, config).value
