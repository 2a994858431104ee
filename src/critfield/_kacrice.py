"""Shared Kac-Rice count engine.

Both geometries reduce expected critical-point counts to the same template:

    E[count of index i]          = pref * E_GOI(c_tot)[g_i(0)]
    E[count of index i above u]  = pref * int_u^inf phi(x) E_GOI(c_cnd)[g_i(b x)] dx
    boundary regime              = pref * E_GOI(c_tot)[g_i(0); mean(lam) <= -gamma u]

where g_i(a) is the indexed absolute-determinant functional with shift a.
The geometry modules supply (pref, c_tot, c_cnd, b, gamma); this module
evaluates the template by quadrature or Monte Carlo and propagates error
estimates.  Height densities and upper-tail height fractions follow as
ratios of the same quantities, so prefactors cancel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import MethodError, UndefinedDistributionError
from .goi import (
    GoiEnsemble,
    IndexedFunctional,
    NumericConfig,
    NODE_LADDER,
    QUADRATURE_MAX_N,
    _gauss_on,
    batch_mean,
    eigen_batches,
    mc_eigen_expectation,
    nested_ordered_quadrature,
    validate_ensemble,
)

SQRT2PI = math.sqrt(2.0 * math.pi)

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


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / SQRT2PI


def _abs_prod_weight(shift):
    """prod_j |lam_j - shift| on the engine's (batch, points) arrays; an
    array shift holds one entry per batch row."""
    shift = np.asarray(shift, dtype=float)
    if shift.ndim:
        shift = shift[:, None]

    def weight(lam):
        out = lam[0] - shift
        for v in lam[1:]:
            out *= v - shift
        return np.abs(out, out=out)
    return weight


# ---------------------------------------------------------------------------
# totals
# ---------------------------------------------------------------------------


def total_quadrature(p: CountProblem, i: int, cfg: NumericConfig) -> CritResult:
    if p.n > QUADRATURE_MAX_N:
        raise MethodError(
            f"quadrature supports N <= {QUADRATURE_MAX_N}; use monte-carlo")
    val, err = nested_ordered_quadrature(
        p.n, p.c_total, _abs_prod_weight(0.0), n_lower=i, split=0.0,
        epsabs=cfg.quad_abs_tol, epsrel=cfg.quad_rel_tol)
    pref = math.exp(p.log_prefactor)
    return CritResult(pref * val, pref * err, "quadrature")


def total_mc(p: CountProblem, i: int, cfg: NumericConfig) -> CritResult:
    ens = p.total_ensemble()
    fn = IndexedFunctional(index=i, shift=0.0)
    val, err = mc_eigen_expectation(ens, fn.evaluate, cfg)
    pref = math.exp(p.log_prefactor)
    return CritResult(pref * val, pref * err, "monte-carlo")


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
    vals, errs = [], []
    for s in range(0, x.size, OUTER_CHUNK):
        beta = p.shift_coeff * x[s:s + OUTER_CHUNK]
        v, e = nested_ordered_quadrature(
            p.n, p.c_cond, _abs_prod_weight(beta), n_lower=i, split=beta,
            epsabs=cfg.quad_abs_tol, epsrel=cfg.quad_rel_tol)
        vals.append(v)
        errs.append(e)
    return np.concatenate(vals), np.concatenate(errs)


def above_quadrature(p: CountProblem, i: int, u: float,
                     cfg: NumericConfig) -> CritResult:
    if math.isinf(u) and u < 0:
        return total_quadrature(p, i, cfg)
    if p.n > QUADRATURE_MAX_N:
        raise MethodError(
            f"quadrature supports N <= {QUADRATURE_MAX_N}; use monte-carlo")
    if math.isinf(u):
        return CritResult(0.0, 0.0, "quadrature")
    pref = math.exp(p.log_prefactor)
    if p.boundary:
        cap = -p.cap_coeff * u
        val, err = nested_ordered_quadrature(
            p.n, p.c_total, _abs_prod_weight(0.0), n_lower=i, split=0.0,
            trace_cap=cap, epsabs=cfg.quad_abs_tol, epsrel=cfg.quad_rel_tol)
        return CritResult(pref * val, pref * err, "quadrature")

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
    return CritResult(pref * val, pref * err, "quadrature")


def above_mc(p: CountProblem, i: int, u: float, cfg: NumericConfig) -> CritResult:
    if math.isinf(u) and u < 0:
        return total_mc(p, i, cfg)
    pref = math.exp(p.log_prefactor)
    if p.boundary:
        ens = p.total_ensemble()
        fn = IndexedFunctional(index=i, shift=0.0, trace_cap=-p.cap_coeff * u)
        val, err = mc_eigen_expectation(ens, fn.evaluate, cfg)
        return CritResult(pref * val, pref * err, "monte-carlo")

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
    return CritResult(pref * tail * mean, pref * tail * se, "monte-carlo")


# ---------------------------------------------------------------------------
# height distributions, general path
# ---------------------------------------------------------------------------


def _total_raw(p: CountProblem, i: int, method: str,
               cfg: NumericConfig) -> tuple[float, float]:
    if method == "quadrature":
        return nested_ordered_quadrature(
            p.n, p.c_total, _abs_prod_weight(0.0), n_lower=i, split=0.0,
            epsabs=cfg.quad_abs_tol, epsrel=cfg.quad_rel_tol)
    ens = p.total_ensemble()
    fn = IndexedFunctional(index=i, shift=0.0)
    return mc_eigen_expectation(ens, fn.evaluate, cfg)


def height_pdf_general(p: CountProblem, i: int, u: float, method: str,
                       cfg: NumericConfig) -> CritResult:
    """h_i(u), the height density of index-i critical points.

    This is the exact integrand ratio
    h_i(u) = phi(u) E_GOI(c_cnd)[g_i(b u)] / E_GOI(c_tot)[g_i(0)].  In the
    boundary regime c_cnd = -1/N: Monte Carlo samples that degenerate
    ensemble as it is, and quadrature, which needs a density, integrates on
    the trace slice mean(lam) = -gamma u instead.
    """
    if method not in ("quadrature", "monte-carlo"):
        raise MethodError(f"unknown general-path method {method!r}")
    if p.boundary and method == "quadrature":
        return _height_pdf_boundary(p, i, u, cfg)
    tot, tot_err = _total_raw(p, i, method, cfg)
    if tot <= 0.0:
        raise UndefinedDistributionError(
            f"expected count of index-{i} points vanishes; heights undefined")
    beta = p.shift_coeff * u
    if method == "quadrature":
        num, num_err = nested_ordered_quadrature(
            p.n, p.c_cond, _abs_prod_weight(beta), n_lower=i, split=beta,
            epsabs=cfg.quad_abs_tol, epsrel=cfg.quad_rel_tol)
    else:
        ens = p.cond_ensemble()
        fn = IndexedFunctional(index=i, shift=beta)
        num, num_err = mc_eigen_expectation(ens, fn.evaluate, cfg)
    val = _phi(u) * num / tot
    rel = 0.0
    if num > 0:
        rel = math.hypot(num_err / num, tot_err / tot)
    return CritResult(val, abs(val) * rel + _phi(u) * num_err / tot, method)


def _height_pdf_boundary(p: CountProblem, i: int, u: float,
                         cfg: NumericConfig) -> CritResult:
    # h_i(u) = -d/du E[g_i(0); mean(lam) <= -gamma u] / total: the
    # integrand on the slice mean(lam) = -gamma u, times gamma
    tot, tot_err = _total_raw(p, i, "quadrature", cfg)
    if tot <= 0.0:
        raise UndefinedDistributionError(
            f"expected count of index-{i} points vanishes; heights undefined")
    dens, dens_err = nested_ordered_quadrature(
        p.n, p.c_total, _abs_prod_weight(0.0), n_lower=i, split=0.0,
        trace_cap=-p.cap_coeff * u, cap_derivative=True,
        epsabs=cfg.quad_abs_tol, epsrel=cfg.quad_rel_tol)
    val = p.cap_coeff * dens / tot
    err = p.cap_coeff * dens_err / tot + abs(val) * tot_err / tot
    return CritResult(val, err, "quadrature")


def height_cdf_general(p: CountProblem, i: int, u: float, method: str,
                       cfg: NumericConfig) -> CritResult:
    """Upper-tail fraction F_i(u): expected share of index-i points above u."""
    if method == "quadrature":
        tot = total_quadrature(p, i, cfg)
        ab = above_quadrature(p, i, u, cfg)
    elif method == "monte-carlo":
        tot = total_mc(p, i, cfg)
        ab = above_mc(p, i, u, cfg)
    else:
        raise MethodError(f"unknown general-path method {method!r}")
    if tot.value <= 0.0:
        raise UndefinedDistributionError(
            f"expected count of index-{i} points vanishes; heights undefined")
    val = ab.value / tot.value
    rel = tot.error / tot.value
    if ab.value > 0:
        rel = math.hypot(ab.error / ab.value, rel)
        err = val * rel
    else:
        err = ab.error / tot.value
    return CritResult(val, err, method)
