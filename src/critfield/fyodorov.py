"""GOI determinant expectations through a one-size-larger GOE.

For c > 0 the indexed absolute-determinant expectation under GOI(c) equals
a weighted eigenvalue expectation under the plain GOE of size N + 1:

    E_GOI(c)[ prod_j |lam_j - a| ; index = i0 ]
        = Gamma((N+1)/2) / sqrt(pi c)
          * E_GOE(N+1)[ exp(mu^2/2 - (mu - a)^2 / (2 c)) ],

where mu is the (i0+1)-th smallest GOE eigenvalue (goi_to_goe_np1,
reduced_expectation).  This trades an N-dimensional constrained integral
for a scalar function of one ordered eigenvalue.  Monte Carlo reads it off
the eigenvalues of the seed's tridiagonal GOE(N+1) draw, which one
batched root-free QL pass solves once per draw (goi._tridiagonal_eigvals;
no dense matrix is made), so with a seed every index and threshold after
the first costs one weight per sample.  A count of index i above u
integrates it at shift a = b x under GOI(c_cnd) against phi(x) over x > u,
a normal tail in closed form (log_threshold_factor), so
fyodorov_expected_crit has one weight for every u, mu^2/2 +
log_threshold_factor(mu, b, c_cnd, u), its constant factor sqrt(c_cnd /
c_tot) taken into the prefactor; at u = -inf its tail is 1 and, as c_cnd +
b^2 = c_tot, it is the total's.  That weight is even in mu, so quadrature
integrates the totals of indices i and N - i once (_fyodorov_counts).

The route exists only where the relevant conditional ensemble has c > 0:
kappa^2 < 1 on R^N and kappa^2 - eta^2 < 1 on S^N.  Outside that regime use
the general engine (expected_crit_above / goi_expectation).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, log_ndtr

from ._kacrice import CountProblem, CritResult, IsotropicModel
from .errors import MethodError, ParameterError, RegimeError
from .goi import (
    GoiEnsemble,
    IndexedFunctional,
    NumericConfig,
    _check_finite,
    _goe_draw,
    _mean_error,
    nested_ordered_quadrature,
    validate_ensemble,
)


@dataclass(frozen=True)
class GoeReduction:
    """A GOI(N, c) indexed functional rewritten over GOE(N + 1).

    eigen_position is the 0-based position of the weighted eigenvalue in
    ascending order (position i0 carries the index-i0 information).
    """

    goe: GoiEnsemble
    eigen_position: int
    shift: float
    coupling: float
    log_prefactor: float

    def log_weight(self, mu: np.ndarray) -> np.ndarray:
        mu = np.asarray(mu, dtype=float)
        d = mu - self.shift
        return 0.5 * mu * mu - d * d / (2.0 * self.coupling)


def goi_to_goe_np1(ensemble: GoiEnsemble, functional: IndexedFunctional) -> GoeReduction:
    """Map (GOI(N, c>0), indexed functional) to its GOE(N+1) weight form."""
    if ensemble.c <= 0.0:
        raise RegimeError(
            f"the GOE(N+1) rewrite needs c > 0, got c={ensemble.c}; evaluate "
            "with goi_expectation instead")
    if functional.trace_cap is not None:
        raise MethodError(
            "trace-capped functionals have no GOE(N+1) rewrite; use the "
            "general engine (goi_expectation / boundary count path)")
    if not 0 <= functional.index <= ensemble.n:
        raise ParameterError(
            f"index {functional.index} out of range for N={ensemble.n}")
    n = ensemble.n
    return GoeReduction(
        goe=validate_ensemble(n + 1, 0.0),
        eigen_position=functional.index,
        shift=functional.shift,
        coupling=ensemble.c,
        log_prefactor=float(gammaln(0.5 * (n + 1))) - 0.5 * math.log(math.pi * ensemble.c),
    )


def goe_method(goe_size: int, method: str = "auto") -> str:
    """The route `auto` takes for an expectation over GOE(goe_size):
    quadrature up to GOE(2), Monte Carlo beyond.  Any other method passes
    through."""
    if method != "auto":
        return method
    # quadrature over the ordered GOE(3) region takes 35-60 ms per value
    # and 0.1-0.3 s with a threshold (2-core machine, one BLAS thread);
    # auto still samples from GOE(3) up
    return "quadrature" if goe_size <= 2 else "monte-carlo"


def reduced_expectation(reduction: GoeReduction, method: str = "auto",
                        config: NumericConfig | None = None) -> tuple[float, float]:
    """Evaluate the reduced expectation; returns (value, error_estimate)."""
    half = 9.0 * max(1.0, math.sqrt(reduction.coupling)) + abs(reduction.shift)
    val, err = _goe_expectation(reduction.goe.n, reduction.eigen_position,
                                reduction.log_weight, half, method,
                                config or NumericConfig())
    pref = math.exp(reduction.log_prefactor)
    return pref * val, pref * err


def _goe_expectation(m: int, pos: int, log_w, half: float, method: str,
                     cfg: NumericConfig) -> tuple[float, float]:
    """E_GOE(m)[exp(log_w(lam_pos))] and its error by the route `method`
    (`auto` as goe_method); quadrature truncates to the box |mean(lam)| <=
    half, gaps up to 2 half."""
    method = goe_method(m, method)
    if method == "monte-carlo":
        return _goe_weighted_mc(validate_ensemble(m, 0.0), pos,
                                lambda mu: np.exp(log_w(mu)), cfg)
    if method == "quadrature":
        return nested_ordered_quadrature(
            m, 0.0, lambda lam: np.exp(log_w(lam[pos])), n_lower=0,
            split=None, box_half=half)
    raise MethodError(f"unknown method {method!r}")


def _goe_weighted_mc(goe: GoiEnsemble, pos: int, weight_fn, cfg: NumericConfig):
    # a weight that overflows is caught by _check_finite
    with np.errstate(over="ignore"):
        w = weight_fn(_goe_draw(goe.n, cfg).lam[:, pos])
    mean, err = _check_finite(_mean_error(w)[0], goe.n - 1)
    return float(mean), float(err)


def _log_tail(mu: np.ndarray, b: float, c: float, t: float, u: float) -> np.ndarray:
    """log_threshold_factor(mu, b, c, u) + log(t/c) / 2 for t = c + b^2:
    -mu^2/(2t) + log Phi-bar((u - b mu/t) sqrt(t/c)), exactly -mu^2/(2t) at
    u = -inf."""
    mu = np.asarray(mu, dtype=float)
    return -mu * mu / (2.0 * t) + log_ndtr((b * mu / t - u) * math.sqrt(t / c))


def log_threshold_factor(mu: np.ndarray, b: float, c: float, u: float) -> np.ndarray:
    """log of int_u^inf phi(x) exp(-(mu - b x)^2 / (2 c)) dx.

    Gaussian in x, so the integral is a normal tail: with t = c + b^2 it is
    sqrt(c/t) exp(-mu^2/(2t)) Phi-bar((u - b mu/t) sqrt(t/c)).  At u = -inf
    the tail is exactly 1, and no two terms cancel as c -> 0.
    """
    t = c + b * b
    return _log_tail(mu, b, c, t, u) - 0.5 * math.log(t / c)


def _check_regime(model) -> CountProblem:
    if not isinstance(model, IsotropicModel):
        raise ParameterError(f"unsupported model type {type(model).__name__}")
    p = model.problem()
    if p.c_cond <= 0.0:
        if model.space == "euclidean":
            detail = f"kappa^2 = {model.kappa2:.12g} must be < 1"
        else:
            detail = (f"kappa^2 - eta^2 = {model.kappa2 - model.eta2:.12g} "
                      "must be < 1")
        raise RegimeError(
            f"GOE(N+1) route unavailable: {detail}; use the general count "
            "path (expected_crit_above / expected_crit_total)")
    return p


def fyodorov_expected_crit(model, i: int, u: float | None = None,
                           method: str = "auto",
                           config: NumericConfig | None = None) -> CritResult:
    """Expected index-i count above u (None or -inf: the total) via the
    GOE(N+1) route: 0 +- 0 at u = inf, else one weighted expectation,
    exp(mu^2/2) times the closed-form height integral of the conditional
    reduction (log_threshold_factor).

    Works for EuclideanModel and SphereModel in their restricted regimes.
    The result carries method tag "fyodorov"; its error estimate is one
    standard error (MC) or the quadrature error (rule differences, a
    truncation bound and rounding; see goi.nested_ordered_quadrature).
    """
    return _fyodorov_counts(model, [i], u, method, config)[0]


def _fyodorov_counts(model, indices, u: float | None, method: str,
                     config: NumericConfig | None) -> list[CritResult]:
    """fyodorov_expected_crit of each index in indices, in that order.  At
    u = -inf the weight is even in mu and GOE(N+1) is invariant under
    lam -> -lam, which maps position i to N - i, so quadrature integrates a
    total once per mirror pair {i, N - i}, at min(i, N - i).  Monte Carlo
    keeps one value per index."""
    cfg = config or NumericConfig()
    p = _check_regime(model)
    for i in indices:
        if not 0 <= i <= p.n:
            raise ParameterError(f"index must lie in 0..{p.n}, got {i}")
    u = -math.inf if u is None else u
    if u == math.inf:
        return [CritResult(0.0, 0.0, "fyodorov") for _ in indices]
    m = p.n + 1
    c, b, t = p.c_cond, p.shift_coeff, p.c_total

    # log_threshold_factor with its constant sqrt(c/t) moved to the scale,
    # so the weight is O(1) and at u = -inf is that of the total under
    # GOI(c_tot) (t = c + b^2)
    def log_w(mu):
        return 0.5 * np.asarray(mu, dtype=float) ** 2 + _log_tail(mu, b, c, t, u)

    # the box reaches |u| further out for a finite threshold
    half = 9.0 * max(1.0, math.sqrt(t))
    if u > -math.inf:
        half += abs(u)
    scale = math.exp(p.log_prefactor) * math.exp(
        float(gammaln(0.5 * m)) - 0.5 * math.log(math.pi * t))
    mirror = u == -math.inf and goe_method(m, method) == "quadrature"
    done: dict = {}
    out = []
    for i in indices:
        pos = min(i, p.n - i) if mirror else i
        if pos not in done:
            done[pos] = _goe_expectation(m, pos, log_w, half, method, cfg)
        val, err = done[pos]
        out.append(CritResult(scale * val, scale * err, "fyodorov"))
    return out
