"""Gaussian orthogonal-invariant (GOI) matrix ensembles.

A GOI(c) matrix is a symmetric N x N centered Gaussian matrix M with

    E[M_ij M_kl] = (delta_ik delta_jl + delta_il delta_jk) / 2
                   + c delta_ij delta_kl,

so off-diagonal entries are independent N(0, 1/2) and the diagonal has
covariance I_N + c 1 1^T.  The family is a valid covariance exactly when
c >= -1/N; at c = 0 it reduces to the GOE, and at c = -1/N the diagonal
covariance is singular (every sample has exactly zero trace).

This module provides validation, sampling, the ordered-eigenvalue density,
and expectations of indexed absolute-determinant functionals

    g(lam) = prod_j |lam_j - a| * 1{lam_i < a < lam_(i+1)}
             (* Phi((trace_cap - mean(lam)) / cap_edge)),

(cap_edge = 0 is the hard cap 1{mean(lam) <= trace_cap}) evaluated either
by a product rule in trace-gap coordinates over the ordered region (N <=
3; Gauss on the gaps, exact on the trace, where the weight is a polynomial
in it) or by Monte Carlo on sampled matrices (any N).  The same rule takes
the GOE(N+1) route's weight (fyodorov.py), GaussEdgeWeight, whose trace
integral is a Gaussian closed form.  Monte Carlo
draws GOE(N) matrices only, in the tridiagonal form of Dumitriu and
Edelman, and solves no eigenproblem for these expectations: a GOI(c)
matrix is a GOE matrix plus beta(c) times its trace on the diagonal, so
every GOI(c) of one size reads one seeded GOE draw with each row's height
moved by beta(c) times its own trace, and one pass of LDL^T pivots over a
draw at a given shift and trace cap gives |det| and the index of every
row, hence every index.  A draw's eigenvalues are solved only when read
(by the GOE(N+1) route of fyodorov.py), by a batched QL pass over its
tridiagonal rows (_tridiagonal_eigvals).
These expectations are the matrix-side ingredient of every Kac-Rice count
computed elsewhere in the package.
"""
from __future__ import annotations

import copy
import functools
import itertools
import math
import numbers
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.special import chdtrc, gammaln, ndtr, owens_t

from .errors import DegenerateEnsembleError, MethodError, ParameterError

# |c + 1/N| at or below this is treated as exactly the degenerate boundary.
DEGENERACY_TOL = 1e-9

# Quadrature is available only for small matrices; MC covers the rest.
QUADRATURE_MAX_N = 3


@dataclass(frozen=True)
class GoiEnsemble:
    """A validated GOI(c) ensemble of N x N symmetric matrices.

    Attributes
    ----------
    n : int
        Matrix size, N >= 1.
    c : float
        Diagonal coupling; must satisfy c >= -1/N.
    degenerate : bool
        True when c is within tolerance of -1/N (trace_root is 0).  Every
        matrix of a degenerate ensemble has trace exactly 0: it can be
        sampled and integrated (a trace law of width 0) but has no
        eigenvalue density.
    """

    n: int
    c: float
    degenerate: bool = field(default=False)

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"matrix size must be >= 1, got {self.n}")


def validate_ensemble(n: int, c: float) -> GoiEnsemble:
    """Check (N, c) and return the ensemble, flagging the degenerate case.

    Raises
    ------
    ParameterError
        If c is not finite, or c < -1/N beyond tolerance; the message names
        the -1/N bound.
    """
    if n < 1:
        raise ParameterError(f"matrix size must be >= 1, got {n}")
    if not math.isfinite(c):
        raise ParameterError(f"GOI coupling must be finite, got c={c}")
    if c + 1.0 / n < -DEGENERACY_TOL:
        raise ParameterError(
            f"c={c} is not a valid GOI coupling for N={n}: the diagonal "
            f"covariance I + c 1 1^T requires c >= -1/N = {-1.0 / n}")
    return GoiEnsemble(n=n, c=float(c), degenerate=trace_root(n, c) == 0.0)


def trace_root(n: int, c: float) -> float:
    """sqrt(1 + N c), the scale of a GOI(c) trace against the GOE's: exactly
    0 when c + 1/N <= DEGENERACY_TOL, the degenerate ensemble, whose every
    matrix has trace 0."""
    if c + 1.0 / n <= DEGENERACY_TOL:
        return 0.0
    return math.sqrt(1.0 + n * c)


class EigenvalueVector:
    """An eigenvalue tuple with non-decreasing order enforced on construction."""

    __slots__ = ("values",)

    def __init__(self, values: Sequence[float]):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ParameterError("eigenvalues must form a 1-d sequence")
        if np.any(np.diff(arr) < 0):
            raise ParameterError("eigenvalues must be in non-decreasing order")
        self.values = arr

    def __len__(self):
        return self.values.size

    def __repr__(self):
        return f"EigenvalueVector({self.values.tolist()})"


@dataclass(frozen=True)
class IndexedFunctional:
    """Absolute determinant restricted to a fixed inertia index.

    Represents g(lam) = prod_j |lam_j - shift| on the event that exactly
    ``index`` eigenvalues lie below ``shift`` (lam_0 = -inf, lam_(N+1) = +inf
    conventions make index 0 and index N the extreme cases).  When
    ``trace_cap`` is set, g is also weighted by the trace cap's Gaussian
    edge Phi((trace_cap - mean(lam)) / cap_edge); with cap_edge = 0 (the
    boundary regime) that is the event mean(lam) <= trace_cap.  Counts
    above a height are this weight with the height integrated out.
    """

    index: int
    shift: float = 0.0
    trace_cap: float | None = None
    cap_edge: float = 0.0

    def __post_init__(self):
        if self.index < 0:
            raise ParameterError(f"index must be >= 0, got {self.index}")
        if not 0.0 <= self.cap_edge < math.inf:
            raise ParameterError(
                f"cap_edge must be finite and >= 0, got {self.cap_edge}")
        for name, v in (("shift", self.shift), ("trace_cap", self.trace_cap)):
            if v is not None and not math.isfinite(v):
                raise ParameterError(f"{name} must be finite, got {v}")

    def evaluate(self, lam: NDArray[np.float64]) -> NDArray[np.float64]:
        """Evaluate g on a batch of ascending eigenvalue rows (k, N)."""
        lam = np.atleast_2d(lam)
        vals = np.abs(lam - self.shift).prod(axis=1)
        below = (lam < self.shift).sum(axis=1)
        mask = below == self.index
        if self.trace_cap is None:
            return np.where(mask, vals, 0.0)
        mean = lam.mean(axis=1)
        if not self.cap_edge:
            return np.where(mask & (mean <= self.trace_cap), vals, 0.0)
        return np.where(mask, vals, 0.0) * ndtr((self.trace_cap - mean) / self.cap_edge)


@dataclass(frozen=True)
class NumericConfig:
    """The two settings of Monte Carlo evaluation.

    mc_samples (an integer >= 2) is the number of matrices drawn, from one
    stream derived from ``seed`` (None, or an integer >= 0), so a fixed
    seed gives the same results on every run.  Quadrature has no settings:
    it refines to QUAD_ABS_TOL and QUAD_REL_TOL.

    With a seed, every Monte Carlo value over GOI(c) matrices of one size N
    reads the same GOE(N) draw, each row at its own height for
    c != 0 (see mc_eigen_expectation; up to BANK_ENTRIES = 2 sizes are
    kept).  So the rows of one command, and the GOI(N+1, c_tot) and
    GOE(N+1) routes, use common random numbers and their errors are
    correlated.  One pass over that draw at a given coupling, shift and
    trace cap gives the values of every index, and the draw keeps them
    (up to STATS_PER_DRAW), so the other indices of a height read them.
    Without a seed each value draws afresh; its pass and reduction are
    those of a seeded draw.
    """

    mc_samples: int = 200_000
    seed: int | None = None

    def __post_init__(self):
        if not _is_int(self.mc_samples) or self.mc_samples < 2:
            raise ParameterError(
                f"mc_samples must be an integer >= 2, got {self.mc_samples!r}")
        if self.seed is not None and (not _is_int(self.seed) or self.seed < 0):
            raise ParameterError(
                f"seed must be None or an integer >= 0, got {self.seed!r}")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def log_k_norm(n: int) -> float:
    """log K_N with K_N = 2^(N/2) prod_{i=1..N} Gamma(i/2)."""
    if n < 1:
        raise ParameterError(f"matrix size must be >= 1, got {n}")
    return 0.5 * n * math.log(2.0) + float(sum(gammaln(0.5 * i) for i in range(1, n + 1)))


def k_norm(n: int) -> float:
    """Normalization constant K_N of the ordered-eigenvalue density."""
    return math.exp(log_k_norm(n))


def sample_goi(ensemble: GoiEnsemble, size: int | None = None,
               rng: np.random.Generator | None = None) -> NDArray[np.float64]:
    """Draw dense GOI(c) matrices.

    Monte Carlo expectations do not call this: they read tridiagonal GOE
    draws (see _GoeDraw), which have the same eigenvalue law.  The
    diagonal is generated as B z with z standard normal and
    B = I + ((sqrt(1 + N c) - 1)/N) 1 1^T, a symmetric square root of
    I + c 1 1^T.  For the degenerate ensemble the root's trace factor is
    exactly zero (trace_root), so the zero eigendirection is dropped exactly
    and every sample has zero trace up to rounding in the subtraction.

    Parameters
    ----------
    ensemble : GoiEnsemble
    size : int or None
        None returns one (N, N) matrix, an int returns (size, N, N).
    rng : numpy Generator, default-constructed if omitted.
    """
    if rng is None:
        rng = np.random.default_rng()
    n = ensemble.n
    k = 1 if size is None else int(size)
    m = rng.standard_normal((k, n, n))
    # symmetrize in place, row by row: (g_ij + g_ji) / 2 has off-diagonal
    # variance 1/2, and no second k x N x N array is made
    for i in range(n - 1):
        half = m[:, i, i + 1:] + m[:, i + 1:, i]
        half /= 2.0
        m[:, i, i + 1:] = half
        m[:, i + 1:, i] = half
    z = rng.standard_normal((k, n))
    diag = z + trace_shift(ensemble) * z.sum(axis=1, keepdims=True)
    idx = np.arange(n)
    m[:, idx, idx] = diag
    return m[0] if size is None else m


def trace_shift(ensemble: GoiEnsemble) -> float:
    """beta(c) = (sqrt(1 + N c) - 1) / N: M_0 + beta tr(M_0) I is GOI(c)
    for a GOE matrix M_0, and the GOI(c) draw of sample_goi is that of the
    GOE draw of the same stream (0 at c = 0, -1/N for the degenerate
    ensemble)."""
    return (trace_root(ensemble.n, ensemble.c) - 1.0) / ensemble.n


def ordered_eigenvalue_density(ensemble: GoiEnsemble,
                               lam: "EigenvalueVector | Sequence[float]") -> float:
    """Joint density of the ordered eigenvalues at lam.

    f_c(lam) = (K_N sqrt(1 + N c))^-1
               * exp(-sum lam_i^2 / 2 + c (sum lam_i)^2 / (2 (1 + N c)))
               * prod_{i<j} (lam_j - lam_i)

    on lam_1 <= ... <= lam_N.  Unordered input returns 0.0.  The degenerate
    ensemble has no density (mass concentrates on the zero-trace set).
    """
    if ensemble.degenerate:
        raise DegenerateEnsembleError(
            f"GOI(c) with c = -1/N (N={ensemble.n}) concentrates on the "
            "zero-trace hyperplane and has no eigenvalue density; sample it "
            "or use monte-carlo expectations instead")
    arr = lam.values if isinstance(lam, EigenvalueVector) else np.asarray(lam, dtype=float)
    if arr.ndim != 1 or arr.size != ensemble.n:
        raise ParameterError(
            f"expected {ensemble.n} eigenvalues, got shape {arr.shape}")
    if np.any(np.diff(arr) < 0):
        return 0.0
    n, c = ensemble.n, ensemble.c
    log_norm = log_k_norm(n) + 0.5 * math.log1p(n * c)
    s = float(arr.sum())
    expo = -0.5 * float(arr @ arr) + c * s * s / (2.0 * (1.0 + n * c)) - log_norm
    vand = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            vand *= arr[j] - arr[i]
    return float(vand * math.exp(expo))


# ---------------------------------------------------------------------------
# quadrature in trace-gap coordinates
# ---------------------------------------------------------------------------
#
# Write lam = (s/N) 1 + mu(d): s = sum(lam) is the trace and mu the ordered
# traceless part, fixed by its N-1 gaps d >= 0.  Then |lam|^2 = s^2/N + |mu|^2
# and dlam = ds dd / N, so with z = s / sigma, sigma^2 = N (1 + N c),
#
#     f_c(lam) dlam = exp(-z^2/2) dz * exp(-|mu|^2/2) V(mu) dd / (sqrt(N) K_N),
#
# V the Vandermonde product.  The trace is N(0, sigma^2), independent of mu,
# and the law of mu does not depend on c.  The index region
# lam_k < a < lam_(k+1) and a trace cap s <= N cap are limits on z at each
# d.  A cap with a Gaussian edge of width w (in mean(lam)) instead weights
# the integrand by Phi((cap - s/N) / w).  On the index region every
# lam_j - a has a fixed sign, so the indexed |det| weight prod_j |lam_j - a|
# is (-1)^k prod_j (lam_j - a), a polynomial of degree N in z: its z
# integral between the limits is exact, from truncated moments of
# exp(-z^2/2) (truncated_moments), or of exp(-z^2/2) Phi(alpha - beta z)
# under an edge (edged_moments).  The other weight, a GaussEdgeWeight over
# the whole simplex, is exp(quadratic) Phi(linear) in one eigenvalue, hence
# in z: its z integral over the line is a closed form (trace_integral).
# Either way only the gaps take a Gauss-Legendre rule, and the integrand is
# smooth in d off kinks: planes alpha + beta.d = 0 where two limits cross,
# a steep limit passes z = 0 or z = +-EDGE_BAND, or an index limit crosses
# the cap, or either end of its edge's band where the edge is steep too.
# Gap axis j, at fixed earlier gaps, splits at the d_j of each vertex that
# N - 1 - j planes among the kinks and the faces d_m = 0 (m > j) make in
# the axes j.., if its later gaps lie in [0, gap_top]; on the last axis,
# where each kink crosses it.  The degenerate ensemble (c = -1/N) is a
# trace law of width sigma = 0: the z axis is the single point s = 0, with
# weight sqrt(2 pi) (the z rule's share of the normalization), and a limit
# passing it is a kink.

# |z| beyond this carries 2 Phi(-Z_TRUNC) = 3.6e-33 of the trace law.
Z_TRUNC = 12.0
# Gaps are cut at this; d_j <= sqrt(2) |mu|, so the cut mass is at most
# P(|mu|^2 > 162) = 7e-36 (N = 2) or 4e-33 (N = 3).
GAP_TOP = 18.0
# Gauss nodes per piece of a gap axis (refine_on_ladder); first rung, cap.
# With the trace exact, nearly every call ends at 32-48.
NODE_LADDER = (8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256)
START_NODES = 24
MAX_NODES = 256
# The line where a limit passes z = 0 is a breakpoint when that limit
# crosses one standard deviation of z within this many units of gap.
STEEP_WIDTH = 0.5
# A steep step in z (the cap's edge, or a steep index limit passing the
# center of the trace law) also kinks the gap axes where a limit crosses
# either end of its band, this many of its standard deviations out;
# Phi(-EDGE_BAND) = 6.2e-16 is the edge's weight there.
EDGE_BAND = 8.0
# Points evaluated per vectorized block; keeps temporaries near 128 kB each.
BLOCK_POINTS = 1 << 14
# Refinement stops once the error is within max(QUAD_ABS_TOL, QUAD_REL_TOL
# |value|).
QUAD_ABS_TOL = 1e-12
QUAD_REL_TOL = 1e-9


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], by Newton's
    method on the three-term recurrence (no eigensolver, so no LAPACK
    workspace is touched)."""
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)   # P_n'(x)
        step = p1 / dp
        x = x - step
        if np.abs(step).max() < 1e-15:
            break
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def _gauss_on(lo: np.ndarray, hi: np.ndarray, n: int):
    """Nodes and weights of n-point rules on the pieces [lo, hi] (..., P),
    flattened to (..., P n); empty pieces get zero weights."""
    t, w = _gauss_legendre(n)
    half = np.maximum(hi - lo, 0.0)[..., None] / 2.0
    x = lo[..., None] + half * (t + 1.0)
    wt = half * w
    shape = lo.shape[:-1] + (-1,)
    return x.reshape(shape), wt.reshape(shape)


def refine_on_ladder(integrate: Callable, start, cap, abs_tol: float,
                     rel_tol: float, floor=0.0):
    """(value, error) of a Gauss rule refined until the error meets
    max(abs_tol, rel_tol |value|) at every batch entry.  integrate(nodes)
    gives (value, int |integrand|) over the batch for nodes[j] nodes per
    piece of axis j; axis j climbs NODE_LADDER from start[j] to cap[j].
    The error is the sum, over the axes, of the difference to the rule one
    rung smaller on that axis, plus floor (a bound on what no rule sees,
    such as a truncated tail) and 100 eps int |integrand| for rounding.
    While an entry misses the tolerance, each axis below its cap whose
    difference there exceeds its share of the tolerance climbs one rung."""
    rung = [NODE_LADDER.index(m) for m in start]
    run = functools.lru_cache(maxsize=None)(
        lambda rungs: integrate(tuple(NODE_LADDER[r] for r in rungs)))
    while True:
        val, absval = run(tuple(rung))
        diffs = [np.abs(val - run(tuple(rung[:j] + [r - 1] + rung[j + 1:]))[0])
                 for j, r in enumerate(rung)]
        err = sum(diffs, floor) + 100.0 * np.finfo(float).eps * absval
        tol = np.maximum(abs_tol, rel_tol * np.abs(val))
        bad = err > tol
        share = tol[bad] / max(len(rung), 1)
        grow = [j for j, d in enumerate(diffs)
                if NODE_LADDER[rung[j]] < cap[j] and (d[bad] > share).any()]
        if not grow:
            return val, err
        for j in grow:
            rung[j] += 1


def truncated_moments(lo: np.ndarray, hi: np.ndarray, k_max: int) -> list:
    """M_k = int_lo^hi y^k exp(-z^2/2) dz, y = z - t, k = 0..k_max, about
    the centre t of each interval [lo, hi] (arrays): M_0 = sqrt(2 pi)
    (Phi(hi) - Phi(lo)), reflected where lo >= 0 to keep an upper tail's
    digits, and M_k = (k-1) M_(k-2) - t M_(k-1) - [y^(k-1) exp(-z^2/2)]."""
    t = 0.5 * (lo + hi)
    r = 0.5 * (hi - lo)
    e_lo, e_hi = np.exp(-0.5 * lo * lo), np.exp(-0.5 * hi * hi)
    moments = [math.sqrt(2.0 * math.pi)
               * np.where(lo >= 0.0, ndtr(-lo) - ndtr(-hi), ndtr(hi) - ndtr(lo))]
    power = np.ones_like(r)   # r^(k-1)
    for k in range(1, k_max + 1):
        m_k = -t * moments[k - 1] - power * (e_hi - (-1) ** (k - 1) * e_lo)
        if k > 1:
            m_k += (k - 1) * moments[k - 2]
        moments.append(m_k)
        power = power * r
    return moments


def edged_moments(lo: np.ndarray, hi: np.ndarray, k_max: int, alpha: float,
                  beta: float) -> list:
    """N_k = int_lo^hi y^k exp(-z^2/2) Phi(alpha - beta z) dz, y = z - t,
    k = 0..k_max, about the centre t of each interval [lo, hi] (arrays),
    beta > 0.  By parts, N_k = (k-1) N_(k-2) - t N_(k-1) -
    [y^(k-1) exp(-z^2/2) Phi(alpha - beta z)] - beta J_(k-1), where
    J_m = int y^m exp(-z^2/2) phi(alpha - beta z) dz is a Gaussian of width
    1/r about alpha beta / r^2, r = sqrt(1 + beta^2): truncated_moments in
    r (z - alpha beta / r^2).  N_0 = sqrt(2 pi) P(lo < Z < hi, V <= alpha/r)
    for standard normals Z, V of correlation beta / r: two bivariate normal
    values by Owen's T, reflected (z -> -z) where lo >= 0 to keep an upper
    tail's digits.  Only intervals that meet the edge take them: where
    alpha - beta z >= 8.5 on all of [lo, hi], Phi rounds to 1 and
    N_k = M_k; where it is <= -38.5, Phi rounds to 0 and N_k = 0."""
    one = alpha - beta * hi >= 8.5
    meet = ~one & (alpha - beta * lo > -38.5)
    if meet.all():
        return _edged_exact(lo, hi, k_max, alpha, beta)
    moments = [np.zeros_like(lo) for _ in range(k_max + 1)]
    if one.any():
        for m, m_k in zip(moments, truncated_moments(lo[one], hi[one], k_max)):
            m[one] = m_k
    if meet.any():
        for m, n_k in zip(moments, _edged_exact(lo[meet], hi[meet], k_max, alpha, beta)):
            m[meet] = n_k
    return moments


def _edged_exact(lo, hi, k_max, alpha, beta) -> list:
    """edged_moments on intervals that meet the edge."""
    t = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    r = math.hypot(1.0, beta)
    a, rho = alpha / r, beta / r
    # P(Z < end, V <= a) at each end; where lo >= 0, of -Z (correlation
    # -rho) at -hi and -lo instead.  Many ends repeat (the box's, and a
    # limit's at gap points it does not tell apart): each distinct one is
    # evaluated once.
    flip = np.concatenate([(lo >= 0.0).ravel()] * 2)
    ends = np.concatenate([hi.ravel(), lo.ravel()])
    ends[flip] *= -1.0
    cdf = np.empty_like(ends)
    for sign, part in ((1.0, ~flip), (-1.0, flip)):
        if part.any():
            value, index = np.unique(ends[part], return_inverse=True)
            cdf[part] = _bivariate_normal(value, a, sign * rho, r)[index]
    upper, lower = cdf.reshape((2,) + lo.shape)
    out = [math.sqrt(2.0 * math.pi) * np.where(lo >= 0.0, lower - upper, upper - lower)]
    edge_lo = np.exp(-0.5 * lo * lo) * ndtr(alpha - beta * lo)
    edge_hi = np.exp(-0.5 * hi * hi) * ndtr(alpha - beta * hi)
    c = a * rho
    gauss = truncated_moments(r * (lo - c), r * (hi - c), max(k_max - 1, 0))
    scale = beta * math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)   # beta J = scale M / r^k
    power = np.ones_like(half)   # half^(k-1)
    for k in range(1, k_max + 1):
        scale /= r
        n_k = (-t * out[k - 1] - power * (edge_hi - (-1) ** (k - 1) * edge_lo)
               - scale * gauss[k - 1])
        if k > 1:
            n_k += (k - 1) * out[k - 2]
        out.append(n_k)
        power = power * half
    return out


def _bivariate_normal(h, k, rho: float, r: float):
    """P(X <= h, Y <= k) for standard normals of correlation rho
    (|rho| = sqrt(1 - 1/r^2)), by Owen's T (Owen, Ann. Math. Stat. 27,
    1956): a part per argument, Phi(h)/2 - T(h, w/h) with w = (k - rho h) r
    and the same with h and k swapped, less 1/2 where h k < 0 (or h k = 0
    and h + k < 0).  Where h < 0 and |w/h| > 1 a part takes T(w, h/w)
    instead, by T(h, a) + T(a h, 1/a) = Phi(h)/2 + Phi(a h)/2 - Phi(h)
    Phi(a h) (a > 0), with its constants folded so that no term is near
    1/2 unless the value is: a lower tail keeps its digits (h <= k first,
    as P is symmetric in them).  A zero argument takes the limit from
    above; at h = k = 0 both slopes are sqrt((1 - rho)/(1 + rho))."""
    h, k = np.minimum(h, k) + 0.0, np.maximum(h, k) + 0.0   # -0 -> +0
    corner = 0.5 * ((h * k < 0.0) | ((h * k == 0.0) & (h + k < 0.0)))
    origin = (h == 0.0) & (k == 0.0)
    tail = h < 0.0
    total = np.zeros_like(h)
    for u, v, c in ((h, k, 0.0), (k, h, corner)):
        w = (v - rho * u) * r
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = w / u
            if origin.any():
                slope[origin] = math.sqrt((1.0 - rho) / (1.0 + rho))
            swap = tail & (np.abs(slope) > 1.0)
            t = owens_t(np.where(swap, w, u), np.where(swap, u / w, slope))
        # Phi(-|u|) and Phi(-|w|) carry every term's digits: Phi(u)/2 - c,
        # or its swapped form, with 1 - Phi(u) as Phi(-u) where u > 0
        # (then c = 1/2)
        tail_u, tail_w = ndtr(-np.abs(u)), ndtr(-np.abs(w))
        up = u > 0.0
        cdf_u = np.where(up, 1.0 - tail_u, tail_u)
        direct = np.where(up & (c > 0.0), -0.5 * tail_u, 0.5 * cdf_u - c) - t
        swapped = np.where(w < 0.0, -tail_w * (0.5 - cdf_u),
                           np.where(up, -tail_u, tail_u) + tail_w * (0.5 - cdf_u)) + t
        total += np.where(swap, swapped, direct)
    return total


def _pieces(bps: np.ndarray, top: float) -> tuple[np.ndarray, np.ndarray]:
    """Split [0, top] at the breakpoints bps (..., E; nan for none); pieces
    that are empty everywhere are dropped."""
    edges = np.sort(np.clip(np.nan_to_num(bps, nan=0.0), 0.0, top), axis=-1)
    zero = np.zeros(edges.shape[:-1] + (1,))
    edges = np.concatenate([zero, edges, zero + top], axis=-1)
    lo, hi = edges[..., :-1], edges[..., 1:]
    keep = (hi > lo).reshape(-1, lo.shape[-1]).any(axis=0)
    if not keep.any():
        keep[-1] = True
    return lo[..., keep], hi[..., keep]


def _cofactor(rows, i: int, m: int) -> float:
    """(-1)^(i+m) times the determinant of rows without row i and column m,
    by Laplace expansion along the first column (1 for the empty matrix)."""
    minor = [r[:m] + r[m + 1:] for k, r in enumerate(rows) if k != i]
    terms = [r[0] * _cofactor(minor, k, 0) for k, r in enumerate(minor)]
    return (-1.0) ** (i + m) * (sum(terms[1:], terms[0]) if terms else 1.0)


@dataclass(frozen=True)
class GaussEdgeWeight:
    """exp(k2 y^2 + k1 y + k0) Phi(e0 + e1 y), y = lam_position - centre, on
    one ordered eigenvalue (position 0-based, ascending): the second weight
    of nested_ordered_quadrature, over the whole ordered simplex with its
    gaps cut at gap_top.  e0 = inf drops the edge; the defaults are the
    weight 1."""

    position: int = 0
    centre: float = 0.0
    k2: float = 0.0
    k1: float = 0.0
    k0: float = 0.0
    e0: float = math.inf
    e1: float = 0.0
    gap_top: float = GAP_TOP

    def __call__(self, lam: np.ndarray) -> np.ndarray:
        """The weight at lam_position = lam."""
        y = np.asarray(lam, dtype=float) - self.centre
        return np.exp(self.k2 * y * y + self.k1 * y + self.k0) * ndtr(self.e0 + self.e1 * y)

    def trace_integral(self, h: float, mu: np.ndarray, log_g: np.ndarray,
                       power: float = 1.0) -> np.ndarray:
        """int exp(log_g - z^2/2) w(h z + mu)^power dz over the line at each
        mu (for power > 1 a bound: Phi^power <= Phi).  With beta = mu -
        centre the integrand is exp(-A z^2/2 + B z + C) Phi(p + q z), A = 1 -
        2 k2 h^2, B = h (2 k2 beta + k1), C = k2 beta^2 + k1 beta + k0, p =
        e0 + e1 beta, q = e1 h, and the integral sqrt(2 pi / A) exp(C +
        B^2/(2A)) Phi((p A + q B) / sqrt(A (A + q^2))); in C + B^2/(2A) = k0
        + (k2 beta^2 + k1 beta + h^2 k1^2 / 2) / A and p A + q B = e0 A + e1
        (beta + h^2 k1) the terms in k2 cancel exactly, so a steep weight
        keeps its digits.  h = 0 is the point z = 0, weight sqrt(2 pi)."""
        k2, k1, k0 = power * self.k2, power * self.k1, power * self.k0
        a = 1.0 - 2.0 * k2 * h * h
        beta = mu - self.centre
        expo = k0 + (k2 * beta * beta + k1 * beta + 0.5 * h * h * k1 * k1) / a
        edge = ((self.e0 * a + self.e1 * (beta + h * h * k1))
                / math.sqrt(a * (a + (self.e1 * h) ** 2)))
        return math.sqrt(2.0 * math.pi / a) * np.exp(log_g + expo) * ndtr(edge)


class _TraceGapRule:
    """Product rule for one (ensemble, region) and a batch of splits: Gauss
    on the gaps, split at the vertices of kinks and faces (_breakpoints),
    and exact on z, for the indexed |det| weight at the split (with or
    without a cap's Gaussian edge) and for a GaussEdgeWeight."""

    def __init__(self, n, c, weight, n_lower, split, trace_cap, cap_edge):
        self.n = n
        self.sigma = math.sqrt(n * (1.0 + n * c)) if trace_root(n, c) else 0.0
        self.scalar = split is None or np.ndim(split) == 0
        self.gauss = weight
        a = np.atleast_1d(np.asarray(0.0 if split is None else split, dtype=float))
        self.batch = a.size
        self.shift, self.sign = a[:, None], (-1.0) ** n_lower
        m = np.arange(n - 1)
        # mu = A d: mu_0 = -sum_m (N-1-m) d_m / N, mu_j = mu_0 + sum_(m<j) d_m
        self.A = -(n - 1 - m)[None, :] / n + (m[None, :] < np.arange(n)[:, None])
        # limits on s, affine in d: (alpha (B,), beta (N-1,), kind)
        lims = []
        if split is not None:
            if n_lower < n:
                lims.append((n * a, -n * self.A[n_lower], "lower"))
            if n_lower > 0:
                lims.append((n * a, -n * self.A[n_lower - 1], "upper"))
        self.index_limits = lims
        self.cap_s = None if trace_cap is None else n * float(trace_cap)
        # the cap's edge width in s (0: a hard cap) and the band around it
        self.edge_s = 0.0 if trace_cap is None else n * float(cap_edge)
        band = ((0.0, -EDGE_BAND * self.edge_s, EDGE_BAND * self.edge_s)
                if self.edge_s else (0.0,))
        # where the integrand is not smooth in d: limit crossings, and where
        # a steep limit passes the center of the trace law or its band (near
        # the boundary regime sigma -> 0 this is a step of width ~ sigma in d)
        steep = ((0.0, -EDGE_BAND * self.sigma, EDGE_BAND * self.sigma)
                 if self.sigma else (0.0,))
        # and where a limit crosses the cap, or either end of its band where
        # the edge is steep too
        kinks = []
        for alpha, beta, _ in lims:
            steep_at = STEEP_WIDTH * np.abs(beta).max(initial=0.0)
            if self.cap_s is not None:
                ends = band if self.edge_s < steep_at else band[:1]
                kinks += [(alpha - (self.cap_s + o), beta) for o in ends]
            if self.sigma < steep_at:
                kinks += [(alpha - o, beta) for o in steep]
        self._set_kinks(kinks)
        # truncation: gaps in [0, gap_top], and for the |det| weight z in
        # [-Z_TRUNC, Z_TRUNC] (GaussEdgeWeight integrates z over the line, and
        # a trace law of width 0 is the single point s = 0)
        self.gap_top = 0.0 if n == 1 else GAP_TOP if weight is None else weight.gap_top
        # mass of the law outside the box; |mu|^2 is chi-square with
        # (N - 1)(N + 2) / 2 degrees of freedom, none at N = 1
        dof = (n - 1) * (n + 2) // 2
        self.p_out = float(chdtrc(dof, 0.5 * self.gap_top ** 2)) if dof else 0.0
        if self.sigma and weight is None:
            z_out = ndtr(-Z_TRUNC)
            self.p_out = float(self.p_out + z_out + z_out)
        self.log_norm = -0.5 * math.log(n) - log_k_norm(n)
        k2 = 0.0 if weight is None else weight.k2
        self.tail_power = min(2.0, 0.5 + 0.25 / k2) if k2 > 0.0 else 2.0

    def tail_bound(self) -> np.ndarray:
        """Hoelder bound on the part cut off by the truncation:
        (E[w^p] P(outside)^(p - 1))^(1/p), E[w^p] over the whole box (no
        index region or cap) by the first rung's rule; tail_power p is 2
        (Cauchy-Schwarz) but for a GaussEdgeWeight with k2 > 1/6, whose p
        lies halfway from 1 to 1 / (2 k2), as w^p integrates against the law
        exactly when p k2 < 1/2."""
        if self.p_out == 0.0:
            return np.zeros(self.batch)
        whole = copy.copy(self)
        whole.index_limits, whole.cap_s, whole.edge_s = [], None, 0.0
        whole._set_kinks([])
        moment = np.maximum(whole.integrate((START_NODES,) * (self.n - 1),
                                            second=True)[2], 0.0)
        p = self.tail_power
        return np.power(moment * self.p_out ** (p - 1.0), 1.0 / p)

    # -- gap axes ----------------------------------------------------------

    def _set_kinks(self, kinks: list):
        """Keep the kinks (alpha (B,), beta (N-1,): the planes alpha + beta.d
        = 0) and, from beta alone, the nonsingular systems of each gap axis
        (see above Z_TRUNC): det, and per axis its (kink, -cofactor) pairs."""
        self.kinks, self.systems, n = kinks, [], self.n
        for j in range(n - 1):
            rows = [(k, tuple(map(float, be[j:]))) for k, (_, be) in enumerate(kinks)]
            faces = [(None, tuple(float(m == q) for q in range(j, n - 1)))
                     for m in range(j + 1, n - 1)]
            self.systems.append([])
            for k, row in enumerate(rows):
                for others in itertools.combinations(faces + rows[k + 1:], n - 2 - j):
                    ids, mat = zip(row, *others)
                    cof = [[_cofactor(mat, r, m) for r in range(n - 1 - j)]
                           for m in range(n - 1 - j)]
                    det = sum(r[0] * c for r, c in zip(mat, cof[0]))
                    if det != 0.0:
                        self.systems[j].append((det, [[(q, -c) for q, c in zip(ids, col)
                                                       if q is not None] for col in cof]))

    def _breakpoints(self, fixed: list) -> np.ndarray:
        """Breakpoints of gap axis j = len(fixed) at the earlier gaps (B, X),
        (B, 1) for j = 0: each system's vertex d_j by Cramer's rule, nan
        where a later gap leaves [0, gap_top]."""
        if not self.systems[len(fixed)]:
            return np.zeros((fixed[0].shape if fixed else (self.batch, 1)) + (0,))
        rest = [sum((be[m] * d for m, d in enumerate(fixed)), al[:, None])
                for al, be in self.kinks]
        out = []
        for det, cols in self.systems[len(fixed)]:
            d, *later = [sum(t[1:], t[0]) / det
                         for t in ([rest[k] * c for k, c in col] for col in cols)]
            for v in later:
                d = np.where((v >= 0.0) & (v <= self.gap_top), d, np.nan)
            out.append(d)
        return np.stack(out, axis=-1)

    def _gap_axis(self, gaps: list, wgap: np.ndarray, nodes: tuple):
        """Gap points (B, X) and weights extended by the next gap axis."""
        lo, hi = _pieces(self._breakpoints(gaps), self.gap_top)
        d, w = _gauss_on(lo, hi, nodes[len(gaps)])
        shape = d.shape[:1] + (-1,)
        return ([np.broadcast_to(g[..., None], d.shape).reshape(shape) for g in gaps]
                + [d.reshape(shape)], (wgap[..., None] * w).reshape(shape))

    # -- evaluation --------------------------------------------------------

    def integrate(self, nodes: tuple[int, ...], second: bool = False):
        """(value, integral of |integrand|[, tail_bound's moment E[w^p]])
        per batch entry for the product rule with nodes[j] nodes per piece
        of gap axis j, in blocks of the first gap axis."""
        B = self.batch
        acc = np.zeros((3 if second else 2, B))
        gaps, wgap = [], np.ones((B, 1))
        if self.n > 1:
            gaps, wgap = self._gap_axis(gaps, wgap, nodes)
        per_node = math.prod(4 * nodes[j] for j in range(1, self.n - 1))
        step = max(1, BLOCK_POINTS // (B * per_node))
        for s in range(0, wgap.shape[1], step):
            block = [d[:, s:s + step] for d in gaps], wgap[:, s:s + step]
            while len(block[0]) < self.n - 1:
                block = self._gap_axis(*block, nodes)
            self._accumulate(acc, *block, second)
        return acc

    def _accumulate(self, acc, gaps, wgap, second):
        """Add the contribution of gap points (B, X) with gap weights wgap."""
        n = self.n
        mu = [sum(self.A[j, m] * gaps[m] for m in range(n - 1)) + 0.0 * wgap
              for j in range(n)]
        log_g = -0.5 * sum(x * x for x in mu) + self.log_norm
        vand = np.ones_like(wgap)
        for i in range(n):
            for j in range(i + 1, n):
                vand = vand * (mu[j] - mu[i])
        if self.gauss is not None:
            w, h, g = self.gauss, self.sigma / n, wgap * vand
            val = g * w.trace_integral(h, mu[w.position], log_g)
            acc[0] += val.sum(axis=1)
            acc[1] += np.abs(val).sum(axis=1)
            if second:
                acc[2] += (g * w.trace_integral(h, mu[w.position], log_g,
                                                self.tail_power)).sum(axis=1)
            return
        g = wgap * vand * np.exp(log_g)
        lo, hi = self._z_limits(gaps, wgap)
        if self.sigma:
            self._exact_z(acc, mu, g, lo, hi, second)
            return
        # a trace law of width 0: the point z = 0, where it lies in the region
        fw = np.where(hi > lo, math.sqrt(2.0 * math.pi), 0.0) * g
        if self.edge_s:
            fw *= ndtr(self.cap_s / self.edge_s)
        w = mu[0] - self.shift
        for m in mu[1:]:
            w *= m - self.shift
        w = np.abs(w)
        fw *= w
        acc[0] += fw.sum(axis=1)
        acc[1] += np.abs(fw).sum(axis=1)
        if second:
            acc[2] += (fw * w).sum(axis=1)

    def _exact_z(self, acc, mu, g, lo, hi, second):
        """Add the exact z integrals of the indexed |det| weight over [lo, hi]
        at gap points (B, X) with weights g.  About the center t of [lo, hi],
        y = z - t, the weight is sign prod_j (h y + b_j), h = sigma / N and
        b_j = lam_j(t) - split, integrated against the truncated moments in
        y (truncated_moments), under a cap's edge Phi((cap - s/N) / w) those
        of Phi(alpha - beta z), alpha = cap / w, beta = sigma / (N w)
        (edged_moments).  The second moment (no cap) squares the
        polynomial, without the sign."""
        h = self.sigma / self.n
        t = 0.5 * (lo + hi)
        # coefficients in y of prod_j (h y + b_j), then of its square
        poly = [np.ones_like(t)]
        for j, m in enumerate(mu * (2 if second else 1)):
            b = h * t + m - self.shift
            poly = ([b * poly[0]] + [b * p + h * q for p, q in zip(poly[1:], poly)]
                    + [h * poly[-1]])
            if j == self.n - 1:
                coef = poly
        moments = (edged_moments(lo, hi, len(poly) - 1, self.cap_s / self.edge_s,
                                 self.sigma / self.edge_s)
                   if self.edge_s else truncated_moments(lo, hi, len(poly) - 1))
        val = g * self.sign * sum(cf * m_k for cf, m_k in zip(coef, moments))
        acc[0] += val.sum(axis=1)
        acc[1] += np.abs(val).sum(axis=1)
        if second:
            acc[2] += (g * sum(cf * m_k for cf, m_k in zip(poly, moments))).sum(axis=1)

    def _z_limits(self, gaps, wgap):
        """Per-point z interval [lo, hi] (a trace law of width 0: lo = the
        point z = 0, hi > lo marks points inside the region)."""
        n = self.n
        shape = wgap.shape
        lo = np.full(shape, -np.inf)
        hi = np.full(shape, np.inf)
        for alpha, beta, kind in self.index_limits:
            s = alpha.reshape(-1, *([1] * (len(shape) - 1))) + sum(
                beta[m] * gaps[m] for m in range(n - 1))
            if kind == "lower":
                lo = np.maximum(lo, s)
            else:
                hi = np.minimum(hi, s)
        if not self.sigma:
            inside = (lo < 0.0) & (0.0 < hi)
            if self.cap_s is not None and not self.edge_s:
                inside &= 0.0 <= self.cap_s
            return np.zeros(shape), np.where(inside, np.inf, -np.inf)
        if self.cap_s is not None and not self.edge_s:
            hi = np.minimum(hi, self.cap_s)
        lo = np.maximum(lo / self.sigma, -Z_TRUNC)
        hi = np.minimum(hi / self.sigma, Z_TRUNC)
        return lo, np.maximum(hi, lo)


def nested_ordered_quadrature(n: int, c: float,
                              weight: GaussEdgeWeight | None = None,
                              n_lower: int = 0,
                              split: "float | NDArray | None" = None,
                              trace_cap: float | None = None,
                              cap_edge: float = 0.0):
    """Integrate weight(lam) f_c(lam) over an ordered eigenvalue region.

    weight is one of two kinds:

    - None, the indexed |det| weight prod_j |lam_j - split| on the region
      lam_1 <= ... <= lam_k <= split <= lam_(k+1) <= ... <= lam_N, k =
      n_lower.  split may be an array: each entry is one region, at its
      own split.  An optional trace cap restricts to mean(lam) <=
      trace_cap, or with cap_edge = w > 0 weights the integrand by
      Phi((trace_cap - mean(lam)) / w).
    - A GaussEdgeWeight, over the whole ordered simplex: no split, index or
      cap.

    Any other weight raises ParameterError.  At c = -1/N (trace_root 0)
    the trace is exactly 0 and the rule integrates over the gaps alone.

    The rule is a product rule in trace-gap coordinates (see above): exact
    on the trace for both kinds, and Gauss-Legendre on the gaps, refined by
    refine_on_ladder to QUAD_ABS_TOL and QUAD_REL_TOL.
    Returns (value, error), arrays for an array split and floats otherwise.
    The error's floor is a bound on the part cut off by the truncation
    (_TraceGapRule.tail_bound: Cauchy-Schwarz, the sqrt of the weight's
    second moment over the box, by the first rung's rule, times the sqrt of
    the law's exact mass outside the box; a Hoelder moment where a
    GaussEdgeWeight's square outgrows the law).  Matrices larger than
    QUADRATURE_MAX_N raise MethodError, and an invalid c ParameterError.
    """
    if n > QUADRATURE_MAX_N:
        raise MethodError(
            f"quadrature supports matrices of size <= {QUADRATURE_MAX_N} "
            f"(N <= {QUADRATURE_MAX_N}, or GOE(N+1) of size <= "
            f"{QUADRATURE_MAX_N}), got size {n}; use monte-carlo")
    validate_ensemble(n, c)
    if n_lower < 0 or n_lower > n:
        raise ParameterError(f"invalid block split {n_lower} of {n}")
    if weight is None and split is None:
        raise ParameterError("the indexed |det| weight needs a split")
    if weight is not None and not (
            isinstance(weight, GaussEdgeWeight) and split is None and trace_cap is None
            and not n_lower and 0 <= weight.position < n and weight.k2 < 0.5):
        raise ParameterError(
            "weight must be None (the indexed |det| at the split) or a "
            "GaussEdgeWeight over the whole simplex, at a position < N with "
            f"k2 < 1/2 (else it outgrows the law), got {weight!r}")
    rule = _TraceGapRule(n, c, weight, n_lower, split, trace_cap, cap_edge)
    val, err = refine_on_ladder(rule.integrate, [START_NODES] * (n - 1),
                                [MAX_NODES] * (n - 1), QUAD_ABS_TOL,
                                QUAD_REL_TOL, rule.tail_bound())
    if rule.scalar:
        return float(val[0]), float(err[0])
    return val, err


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


# Seeded GOE draws kept at once, one per matrix size: one command reads at
# most two sizes, N (GOI(c_tot) and GOI(c_cnd)) and N + 1 (the GOE(N+1)
# route and the general route at that size).
BANK_ENTRIES = 2
# All-index results kept per draw, one per (coupling, shift, trace cap), each
# N + 1 (mean, error) pairs: a heights grid of G points makes 2 G + 1 of
# them and every index reads them again, so a grid of up to 511 points with
# both quantities makes one pass per point and per quantity.
STATS_PER_DRAW = 1024
# Matrices per chunk of the QL pass that solves a draw's eigenvalues when
# they are first read (only the GOE(N+1) route reads them): each working
# row holds one entry per matrix, 64 kB, and stays in cache.  Neither the
# draw nor its eigenvalues depend on it.
EIG_CHUNK = 1 << 13
# Samples per block of _mean_error's sums.  np.bincount adds a group's
# samples one by one, so its rounding grows with their count; blocks of 32,
# then np.sum's pairwise sum over the blocks, stay near np.sum's accuracy.
_SUM_BLOCK = 32
# QL sweeps a matrix of size N may take, QL_MAXIT N in all, as LAPACK's
# dsterf allows.
QL_MAXIT = 30
# dsterf's deflation test b_l^2 <= EPS2 |d_l d_(l+1)|, with LAPACK's unit
# roundoff dlamch('E') = 2^-53.
_EPS2 = (np.finfo(float).eps / 2.0) ** 2
_bank: "OrderedDict[tuple, _GoeDraw]" = OrderedDict()


def _lru(cache: OrderedDict, key, make: Callable, bound: int):
    """cache[key], made on a miss.  Least recently used entries are dropped
    before make runs, so at most bound are kept, and a dropped value and
    the one being made are never held together."""
    value = cache.pop(key, None)
    if value is None:
        while len(cache) >= bound:
            cache.popitem(last=False)
        value = make()
    cache[key] = value
    return value


@dataclass
class _GoeDraw:
    """A draw of k GOE(N) matrices in the tridiagonal form of Dumitriu and
    Edelman (J. Math. Phys. 43, 5830, 2002).  Householder reduction keeps
    a GOE matrix's eigenvalues and trace and leaves a tridiagonal matrix T
    with independent diagonal a_j ~ N(0, 1) and squared off-diagonals
    b_j^2 ~ chi^2_(N-j) / 2, j = 1..N-1 (off-diagonal variance 1/2).

    diag (N, k) and off2 (N - 1, k) hold a_j and b_j^2 as contiguous rows,
    one entry per matrix.  trace (k,) is the sum of diag, and pivmin the
    smallest pivot magnitude of mc_eigen_expectation's pass.  lam, the
    ascending eigenvalue rows as one column-major (k, N) array, is made on
    first use from diag and off2 alone, by _tridiagonal_eigvals' QL pass
    (EIG_CHUNK matrices at a time, no dense matrix).  Every array above is
    read-only.
    work holds the (k,) arrays that every mc_eigen_expectation pass over
    the draw overwrites, made on the first.
    stats holds the all-index results of mc_eigen_expectation by (c,
    shift, trace_cap, cap_edge).
    """

    diag: NDArray[np.float64]
    off2: NDArray[np.float64]
    stats: "OrderedDict[tuple, NDArray]" = field(default_factory=OrderedDict)

    @functools.cached_property
    def work(self) -> tuple:
        k = self.diag.shape[1]
        return (*(np.empty(k) for _ in range(4)), np.empty(k, dtype=bool),
                np.empty(k, dtype=np.intp))

    @functools.cached_property
    def trace(self) -> NDArray[np.float64]:
        trace = self.diag.sum(axis=0)
        trace.flags.writeable = False
        return trace

    @functools.cached_property
    def pivmin(self) -> float:
        # as LAPACK's dstebz: b^2 / pivmin stays finite for every b
        return np.finfo(float).tiny * max(1.0, float(self.off2.max(initial=0.0)))

    @functools.cached_property
    def lam(self) -> NDArray[np.float64]:
        return _tridiagonal_eigvals(self.diag, self.off2)


def _tridiagonal_eigvals(diag: NDArray[np.float64],
                         off2: NDArray[np.float64]) -> NDArray[np.float64]:
    """Eigenvalues of the symmetric tridiagonal matrices with diagonals diag
    (N, k) and squared off-diagonals off2 (N - 1, k), one matrix per
    column, as ascending rows of one read-only column-major (k, N) array.

    This follows LAPACK's dsterf, the root-free QL iteration of Pal, Walker
    and Kahan, run across matrices, EIG_CHUNK at a time: it works on b^2, so
    no off-diagonal is square-rooted and no dense matrix is made.  Each
    matrix is first scaled by a power of 2 to a norm in [1/2, 1).  Level
    l = 0..N-3 sweeps the window l..N-1 of every matrix whose b_l^2 has
    not yet passed dsterf's test b_l^2 <= EPS2 |d_l d_(l+1)| (or b_l^2 <=
    EPS2 / 4, which moves no eigenvalue by more than EPS |T|), with the
    shift from its top 2 x 2; a matrix that passes leaves the working set
    with d_l as an eigenvalue, so the sweeps follow each matrix, not the
    slowest.  The last 2 x 2 is solved in closed form, as dlae2.  A matrix
    that does not converge in QL_MAXIT N sweeps raises MethodError.
    """
    n, k = diag.shape
    lam = np.empty((k, n), order="F")
    for s in range(0, k, EIG_CHUNK):
        lam[s:s + EIG_CHUNK] = _ql_chunk(diag[:, s:s + EIG_CHUNK],
                                         off2[:, s:s + EIG_CHUNK]).T
    lam.flags.writeable = False
    return lam


def _ql_chunk(diag: NDArray[np.float64],
              off2: NDArray[np.float64]) -> NDArray[np.float64]:
    """The eigenvalues of one chunk of _tridiagonal_eigvals, ascending down
    each column of an (N, k) array."""
    n, k = diag.shape
    # scaling by a power of 2 is exact and keeps every square and quotient
    # of the sweeps in range
    norm = np.maximum(np.abs(diag).max(axis=0),
                      np.sqrt(off2.max(axis=0, initial=0.0)))
    scale = np.ldexp(1.0, np.clip(-np.frexp(norm)[1], -1021, 1021))
    d, e2 = diag * scale, off2 * scale * scale
    # column j holds matrix order[j]; at level l, e2 holds b_l^2.. only
    order, left = np.arange(k), np.full(k, QL_MAXIT * n)
    for l in range(n - 2):
        at, dw, ew, lw = np.arange(k), d[l:], e2, left
        parts = []
        while True:
            # the floor 1/4 deflates a subnormal b_l^2 under a tiny d_l
            # d_(l+1), whose lost digits would spoil the next sweep
            done = ew[0] <= _EPS2 * np.maximum(np.abs(dw[0] * dw[1]), 0.25)
            if done.any():
                out, keep = np.flatnonzero(done), np.flatnonzero(~done)
                parts.append((at.take(out), lw.take(out), dw.take(out, axis=1),
                              ew[1:].take(out, axis=1)))
                if not keep.size:
                    break
                at, lw = at.take(keep), lw.take(keep)
                dw, ew = dw.take(keep, axis=1), ew.take(keep, axis=1)
            if not lw.all():
                raise MethodError(
                    f"the QL pass did not converge in {QL_MAXIT * n} sweeps "
                    f"for {np.count_nonzero(lw == 0)} tridiagonal {n} x {n} "
                    "matrices")
            lw = lw - 1
            _ql_sweep(dw, ew)
        # the columns in the order they left, with their eigenvalues so far
        at, left, dw, e2 = (np.concatenate(p, axis=-1) for p in zip(*parts))
        order, d = order.take(at), np.concatenate([d[:l].take(at, axis=1), dw])
    if n > 1:
        # dlae2: the eigenvalue of larger magnitude, then det / it
        a, c, b2 = d[n - 2], d[n - 1], e2[0]
        sm = a + c
        big = 0.5 * (sm + np.copysign(np.sqrt((a - c) ** 2 + 4.0 * b2), sm))
        safe = np.where(big != 0.0, big, 1.0)
        d[n - 2], d[n - 1] = big, (a / safe) * c - b2 / safe
    d /= scale.take(order)
    # odd-even transposition sort down the columns
    for j in range(n):
        for i in range(j % 2, n - 1, 2):
            low = np.minimum(d[i], d[i + 1])
            np.maximum(d[i], d[i + 1], out=d[i + 1])
            d[i] = low
    back = np.empty(k, dtype=np.intp)
    back[order] = np.arange(k)
    return d.take(back, axis=1)


def _ql_sweep(d: NDArray[np.float64], e2: NDArray[np.float64]) -> None:
    """One implicit QL sweep of dsterf, in place, on each column of the
    windows d (w, a) and e2 (w - 1, a), w >= 3, shifted by the eigenvalue of
    the top 2 x 2 nearer d[0].  A zero b^2 (a split) passes the sweep on
    unrotated, and where c = 0 the next p is oldc b^2, as in dsterf.

    Every b^2 <= EPS2 / 4 in the window is set to 0 first, as dsterf splits
    its window at negligible couplings: a sweep that crosses b^2 ~ 1e-160
    where d_i = sigma makes gamma ~ b and gamma^2 underflow, and the c = p /
    r that follows keeps no digit of the rotation."""
    tiny = e2 <= 0.25 * _EPS2
    # r = p + b^2 >= b^2 below is 0 only where b^2 is
    split = tiny.any()
    if split:
        e2[tiny] = 0.0
    p = d[0]
    g = d[1] - p
    q = 4.0 * e2[0]
    # dsterf's p - b / (sigma + sign(sigma) hypot(sigma, 1)), sigma = g / 2b,
    # in b^2 alone; the denominator is at least 2b > 0
    sigma = p - 0.5 * q / (g + np.copysign(np.sqrt(g * g + q), g))
    c, s = 1.0, 0.0
    gamma = d[-1] - sigma
    pp = gamma * gamma
    for i in range(d.shape[0] - 2, -1, -1):
        bb = e2[i]
        r = pp + bb
        if i < d.shape[0] - 2:
            np.multiply(s, r, out=e2[i + 1])
        if split:
            unrotated = r == 0.0
            r[unrotated] = 1.0
        oldc, oldgam = c, gamma
        c, s = pp / r, bb / r
        if split:
            c[unrotated] = 1.0
        alpha = d[i]
        gamma = alpha - sigma
        gamma *= c
        gamma -= s * oldgam
        np.subtract(alpha, gamma, out=d[i + 1])
        d[i + 1] += oldgam
        pp = gamma * gamma
        if c.all():
            pp /= c
        else:
            live = c != 0.0
            pp = np.where(live, pp / np.where(live, c, 1.0), oldc * bb)
    e2[0] = s * pp
    d[0] = sigma + gamma


def _goe_draw(n: int, config: NumericConfig) -> _GoeDraw:
    """The GOE(n) draw of config, from the seed's stream (the first child of
    SeedSequence(seed)).  Seeded draws are kept by (n, seed, mc_samples),
    at most BANK_ENTRIES (least recently used dropped); seed=None always
    draws afresh."""
    if config.seed is None:
        return _draw_goe(n, config)
    return _lru(_bank, (n, config.seed, config.mc_samples),
                lambda: _draw_goe(n, config), BANK_ENTRIES)


def _draw_goe(n: int, config: NumericConfig) -> _GoeDraw:
    """The stream gives the diagonal first, row a_1 of every matrix, then
    a_2, ..., then b_1^2, ..., b_(N-1)^2 (chi^2_nu / 2 is Gamma(nu / 2))."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    k = config.mc_samples
    diag = rng.standard_normal((n, k))
    off2 = rng.standard_gamma(np.arange(n - 1, 0, -1)[:, None] / 2.0, (n - 1, k))
    diag.flags.writeable = off2.flags.writeable = False
    return _GoeDraw(diag, off2)


def _mean_error(v: NDArray[np.float64], group: NDArray[np.intp] | None = None,
                groups: int = 1) -> NDArray[np.float64]:
    """Mean and standard error of each column where(group == g, v, 0)
    (group None: v itself) over all k samples, as a (groups, 2) array.  The
    variance is taken about the mean in a second pass, sum_(group g) (v -
    m_g)^2 + (k - count_g) m_g^2 in units of a power of 2 near m_g, so only
    a mean that overflows gives inf or nan (see _check_finite)."""
    k = v.size
    if group is None:
        group = np.zeros(k, dtype=np.intp)
    nblocks, full = -(-k // _SUM_BLOCK), k // _SUM_BLOCK
    key = group * nblocks
    # group g, sample s: key g nblocks + s // _SUM_BLOCK
    blocks = key[:full * _SUM_BLOCK].reshape(full, _SUM_BLOCK)
    blocks += np.arange(full)[:, None]
    key[full * _SUM_BLOCK:] += full

    def sums(w):
        return np.bincount(key, w, groups * nblocks).reshape(groups, nblocks).sum(axis=1)

    with np.errstate(over="ignore", invalid="ignore"):
        mean = sums(v) / k
        scale = np.clip(np.frexp(mean)[1], -1021, 1021)
        inv = np.ldexp(1.0, -scale)
        dev = mean.take(group)
        np.subtract(v, dev, out=dev)
        dev *= inv.take(group)
        dev *= dev
        outside = mean * inv
        squares = sums(dev) + (k - sums(None)) * (outside * outside)
        return np.stack([mean, np.ldexp(np.sqrt(squares / (k - 1) / k), scale)],
                        axis=1)


def _check_finite(stats, n: int):
    """Monte Carlo means and errors at N = n, or MethodError if one overflowed."""
    if not np.isfinite(stats).all():
        raise MethodError(f"Monte Carlo at N = {n} overflows float64: a mean "
                          "or standard error is not finite")
    return stats


def mc_eigen_expectation(ensemble: GoiEnsemble, functional: IndexedFunctional,
                         draw: _GoeDraw) -> NDArray[np.float64]:
    """Monte Carlo mean and standard error of the functional at every index
    0..N (its own index is not read), as an (N + 1, 2) array, in one pass
    over a GOE(N) draw.

    A GOI(c) matrix is M_0 + beta tr(M_0) I for a GOE matrix M_0 (beta =
    trace_shift), so each GOE row is compared with its own height h =
    shift - beta tr, and its GOI(c) mean is tr trace_root / N (exactly 0
    at c = -1/N).  No eigenvalue is needed: the LDL^T pivots of T - h,
    d_1 = a_1 - h and d_j = a_j - h - b_(j-1)^2 / d_(j-1), have product
    det(T - h), and as many of them are negative as T has eigenvalues
    below h (Sylvester's law of inertia).  A pivot of magnitude below
    pivmin (exactly 0 among them) becomes -pivmin, as in LAPACK's dstebz,
    so no inf or nan reaches the product.  One loop over the N pivots
    writes prod_j |d_j|, weighted by the trace cap once, and the count of
    negative pivots into the draw's work arrays, and one grouped
    _mean_error reduces them by index, as IndexedFunctional.evaluate on
    the rows' GOI(c) eigenvalues would give them up to rounding.
    """
    n = ensemble.n
    beta = trace_shift(ensemble)
    a, cap, edge = functional.shift, functional.trace_cap, functional.cap_edge
    h, d, q, vals, neg, below = draw.work
    height = (np.subtract(a, np.multiply(draw.trace, beta, out=h), out=h)
              if beta else a)
    pivmin = draw.pivmin
    vals.fill(1.0)
    below.fill(0)
    # a product that overflows (large N) gives inf or nan rows, which
    # goi_expectation refuses only for the index it reads
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            if j:
                np.divide(draw.off2[j - 1], d, out=q)
            np.subtract(draw.diag[j], height, out=d)
            if j:
                d -= q
            np.abs(d, out=q)
            if np.less(q, pivmin, out=neg).any():
                d[neg], q[neg] = -pivmin, pivmin
            vals *= q
            below += np.less(d, 0.0, out=neg)
        if cap is not None:
            mean = np.multiply(draw.trace, trace_root(n, ensemble.c), out=h)
            mean /= n
            # the weight is in [0, 1], so masking after weighting is exact
            if edge:
                vals *= ndtr(np.divide(np.subtract(cap, mean, out=mean), edge,
                                       out=mean), out=mean)
            else:
                np.copyto(vals, 0.0, where=np.greater(mean, cap, out=neg))
    return _mean_error(vals, below, n + 1)


def goi_expectation(ensemble: GoiEnsemble, functional: IndexedFunctional,
                    method: str = "auto",
                    config: NumericConfig | None = None) -> tuple[float, float]:
    """E[g(lam)] for an indexed absolute-determinant functional.

    method "quadrature" integrates over the index region in trace-gap
    coordinates (N <= 3): a Gauss rule on the gaps, and the trace exactly,
    a cap's Gaussian edge included (at c = -1/N over the gaps alone, the
    trace being 0); "monte-carlo" averages over sampled matrices (any
    N); "auto" picks quadrature when available.

    Returns (value, error_estimate): the quadrature error (see
    nested_ordered_quadrature) for quadrature, one standard error for
    Monte Carlo.
    """
    config = config or NumericConfig()
    if functional.index > ensemble.n:
        raise ParameterError(
            f"index {functional.index} out of range for N={ensemble.n}")
    if method == "auto":
        method = "quadrature" if ensemble.n <= QUADRATURE_MAX_N else "monte-carlo"
    if method == "quadrature":
        return nested_ordered_quadrature(
            ensemble.n, ensemble.c, n_lower=functional.index, split=functional.shift,
            trace_cap=functional.trace_cap, cap_edge=functional.cap_edge)
    if method == "monte-carlo":
        # one pass per (coupling, shift, cap) serves every index
        draw = _goe_draw(ensemble.n, config)
        key = (ensemble.c, functional.shift, functional.trace_cap,
               functional.cap_edge)
        stats = _lru(draw.stats, key,
                     lambda: mc_eigen_expectation(ensemble, functional, draw),
                     STATS_PER_DRAW)
        mean, err = _check_finite(stats[functional.index], ensemble.n)
        return float(mean), float(err)
    raise MethodError(f"unknown method {method!r}")
