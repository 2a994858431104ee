"""GOI determinant expectations through a one-size-larger GOE.

For c > 0 the indexed absolute-determinant expectation under GOI(c) equals
a weighted eigenvalue expectation under the plain GOE of size N + 1:

    E_GOI(c)[ prod_j |lam_j - a| ; index = i0 ]
        = Gamma((N+1)/2) / sqrt(pi c)
          * E_GOE(N+1)[ exp(mu^2/2 - (mu - a)^2 / (2 c)) ],

where mu is the (i0+1)-th smallest GOE eigenvalue.  This trades an
N-dimensional constrained integral for a scalar function of one ordered
eigenvalue, which Monte Carlo handles at roughly eigensolver cost, and
makes thresholded Kac-Rice counts cheap: the outer height integral of the
weight against the normal density is Gaussian and is done in closed form
here (`log_threshold_factor`).

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
    return _mean_error(weight_fn(_goe_draw(goe.n, cfg).lam[:, pos]))


def log_threshold_factor(mu: np.ndarray, b: float, c: float, u: float) -> np.ndarray:
    """log of int_u^inf phi(x) exp(-(mu - b x)^2 / (2 c)) dx.

    Gaussian-in-x, so the integral collapses to a normal tail: with
    A = 1 + b^2/c and B = b mu / c the value is
    exp(B^2/(2A) - mu^2/(2c)) Phi-bar((u - B/A) sqrt(A)) / sqrt(A).
    """
    mu = np.asarray(mu, dtype=float)
    a = 1.0 + b * b / c
    bb = b * mu / c
    m = bb / a
    if math.isinf(u) and u < 0:
        tail = 0.0
    else:
        tail = log_ndtr(-(u - m) * math.sqrt(a))
    return bb * bb / (2.0 * a) - mu * mu / (2.0 * c) + tail - 0.5 * math.log(a)


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
    """Expected index-i count (above u if given) via the GOE(N+1) route.

    Works for EuclideanModel and SphereModel in their restricted regimes.
    The result carries method tag "fyodorov"; its error estimate is one
    standard error (MC) or the quadrature error (rule differences, a
    truncation bound and rounding; see goi.nested_ordered_quadrature).
    """
    cfg = config or NumericConfig()
    p = _check_regime(model)
    if not 0 <= i <= p.n:
        raise ParameterError(f"index must lie in 0..{p.n}, got {i}")
    pref = math.exp(p.log_prefactor)
    m = p.n + 1

    if u is None or (math.isinf(u) and u < 0):
        # unconditional route: one reduction at shift 0 under c_total
        red = goi_to_goe_np1(validate_ensemble(p.n, p.c_total),
                             IndexedFunctional(index=i, shift=0.0))
        val, err = reduced_expectation(red, method, cfg)
        return CritResult(pref * val, pref * err, "fyodorov")

    # thresholded route: weight exp(mu^2/2) times the closed-form height
    # integral of the conditional reduction
    c = p.c_cond
    b = p.shift_coeff
    log_pref_red = float(gammaln(0.5 * m)) - 0.5 * math.log(math.pi * c)

    def log_w(mu):
        return 0.5 * np.asarray(mu, dtype=float) ** 2 \
            + log_threshold_factor(mu, b, c, u)

    half = 9.0 * max(1.0, math.sqrt(c + b * b)) + abs(u)
    val, err = _goe_expectation(m, i, log_w, half, method, cfg)
    scale = pref * math.exp(log_pref_red)
    return CritResult(scale * val, scale * err, "fyodorov")
