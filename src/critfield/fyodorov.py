"""GOI determinant expectations through a one-size-larger GOE.

For c > 0 the indexed absolute-determinant expectation under GOI(c) equals
a weighted eigenvalue expectation under the plain GOE of size N + 1:

    E_GOI(c)[ prod_j |lam_j - a| ; index = i0 ]
        = Gamma((N+1)/2) / sqrt(pi c)
          * E_GOE(N+1)[ exp(mu^2/2 - (mu - a)^2 / (2 c)) ],

where mu is the (i0+1)-th smallest GOE eigenvalue (GoeReduction,
reduced_expectation).  This trades an N-dimensional constrained integral
for a scalar function of one ordered eigenvalue, whose trace quadrature
integrates in closed form (GoeReduction.gauss_weight).  Monte Carlo reads
it off the eigenvalues of the seed's tridiagonal GOE(N+1) draw, which one
batched root-free QL pass solves once per draw (goi._tridiagonal_eigvals;
no dense matrix is made), so with a seed every index and threshold after
the first costs one weight per sample.

A count of index i above u integrates that expectation at shift a + b x
against phi(x) over x > u.  The weight is Gaussian in x, so with d = mu -
a and t = c + b^2 the integral is a normal tail: int_u^inf phi(x) exp(-(d
- b x)^2 / (2c)) dx = sqrt(c/t) exp(-d^2/(2t)) Phi-bar((u - b d/t)
sqrt(t/c)).  So one weight serves every u: GoeReduction's log_weight with
spread b and threshold u, its constant factor sqrt(c/t) taken into
log_prefactor; at b = 0 and u = -inf it is the weight above.  The shared
count template evaluates counts this way (_kacrice.count_above, method
"fyodorov"); the route exists only where the conditional ensemble has
c > 0: kappa^2 < 1 on R^N and kappa^2 - eta^2 < 1 on S^N.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, log_ndtr

from .errors import MethodError
from .goi import (
    GaussEdgeWeight,
    GoiEnsemble,
    NumericConfig,
    _check_finite,
    _goe_draw,
    _mean_error,
    nested_ordered_quadrature,
)


@dataclass(frozen=True)
class GoeReduction:
    """A GOI(N, c) indexed functional rewritten over GOE(N + 1).

    eigen_position is the 0-based position of the weighted eigenvalue in
    ascending order (position i0 carries the index-i0 information).  With
    spread b and threshold u the functional's shift is a + b x, integrated
    against phi(x) over x > u (b = 0, u = -inf: the shift a alone).
    """

    goe: GoiEnsemble
    eigen_position: int
    shift: float
    coupling: float
    spread: float = 0.0
    threshold: float = -math.inf

    @property
    def total_coupling(self) -> float:
        """t = c + b^2."""
        return self.coupling + self.spread * self.spread

    @property
    def log_prefactor(self) -> float:
        """log(Gamma((N+1)/2) / sqrt(pi t)), the weight's constant factor."""
        return (float(gammaln(0.5 * self.goe.n))
                - 0.5 * math.log(math.pi * self.total_coupling))

    def log_weight(self, mu: np.ndarray) -> np.ndarray:
        """mu^2/2 plus the log of the module doc's height integral at d = mu
        - a without its sqrt(c/t): -d^2/(2t) + log Phi-bar((u - b d/t)
        sqrt(t/c)), exactly 0 at u = -inf; no two terms cancel as c -> 0."""
        mu = np.asarray(mu, dtype=float)
        b, c, t, u = self.spread, self.coupling, self.total_coupling, self.threshold
        d = mu - self.shift
        return 0.5 * mu * mu + (-d * d / (2.0 * t)
                                + log_ndtr((b * d / t - u) * math.sqrt(t / c)))

    def gauss_weight(self) -> GaussEdgeWeight:
        """exp(log_weight) as the quadrature engine's GaussEdgeWeight: in y =
        mu - a, mu^2/2 - y^2/(2t) = (1 - 1/t) y^2/2 + a y + a^2/2 and the edge
        is Phi(b y / sqrt(t c) - u sqrt(t/c)).  The gaps are cut at 2 half,
        half = 9 max(1, sqrt(t)) + |a|, plus |u| for a finite threshold."""
        a, b, c, t, u = (self.shift, self.spread, self.coupling,
                         self.total_coupling, self.threshold)
        half = 9.0 * max(1.0, math.sqrt(t)) + abs(a)
        if u > -math.inf:
            half += abs(u)
        return GaussEdgeWeight(
            position=self.eigen_position, centre=a, k2=0.5 - 0.5 / t, k1=a,
            k0=0.5 * a * a, e0=-u * math.sqrt(t / c), e1=b / math.sqrt(t * c),
            gap_top=2.0 * half)


def goe_method(goe_size: int, method: str = "auto") -> str:
    """The route `auto` takes for an expectation over GOE(goe_size):
    quadrature up to GOE(2), Monte Carlo beyond.  Any other method passes
    through."""
    if method != "auto":
        return method
    # quadrature over the ordered GOE(3) region takes 1.3-4.2 ms per value,
    # with or without a threshold, and GOE(2) 0.7-0.9 ms (2-core machine,
    # one BLAS thread, best of 5); auto still samples from GOE(3) up
    return "quadrature" if goe_size <= 2 else "monte-carlo"


def reduced_expectation(reduction: GoeReduction, method: str = "auto",
                        config: NumericConfig | None = None) -> tuple[float, float]:
    """Evaluate the reduced expectation by the route `method` (`auto` as
    goe_method); returns (value, error_estimate).  Quadrature integrates
    GoeReduction.gauss_weight: the trace in closed form, the gaps by a
    Gauss rule up to the weight's cut."""
    red = reduction
    m, pos = red.goe.n, red.eigen_position
    method = goe_method(m, method)
    if method == "monte-carlo":
        val, err = _goe_weighted_mc(red.goe, pos, lambda mu: np.exp(red.log_weight(mu)),
                                    config or NumericConfig())
    elif method == "quadrature":
        val, err = nested_ordered_quadrature(m, 0.0, red.gauss_weight())
    else:
        raise MethodError(f"unknown method {method!r}")
    pref = math.exp(red.log_prefactor)
    return pref * val, pref * err


def _goe_weighted_mc(goe: GoiEnsemble, pos: int, weight_fn, cfg: NumericConfig):
    # a weight that overflows is caught by _check_finite
    with np.errstate(over="ignore"):
        w = weight_fn(_goe_draw(goe.n, cfg).lam[:, pos])
    mean, err = _check_finite(_mean_error(w)[0], goe.n - 1)
    return float(mean), float(err)
