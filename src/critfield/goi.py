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
3; Gauss on the gaps, exact on the trace where the weight is a polynomial
in it) or by Monte Carlo on sampled matrices (any N).  Monte Carlo
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
from scipy.special import chdtrc, gammaln, ndtr

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
# d.  On that region every lam_j - a has a fixed sign, so the indexed |det|
# weight prod_j |lam_j - a| is (-1)^k prod_j (lam_j - a), a polynomial of
# degree N in z: its z integral between the limits is exact, from truncated
# moments of exp(-z^2/2) (_TraceGapRule._exact_z), and only the gaps take a
# Gauss-Legendre rule.  Other weights (a callable, or a cap with a Gaussian
# edge) take a product Gauss-Legendre rule: z innermost, between its
# per-point limits.  Either way the integrand is smooth in d off kinks:
# planes alpha + beta.d = 0 where two limits cross, or a steep limit
# passes z = 0 or z = +-EDGE_BAND.  A cap with a Gaussian edge of width w
# (in mean(lam)) weights the integrand by Phi((cap - s/N) / w): z ends
# EDGE_BAND widths above the cap, the band within EDGE_BAND widths of it is
# a z piece of its own, and an index limit crossing either end of the band
# is a kink.  Gap axis j, at fixed earlier gaps, splits at the d_j of each
# vertex that N - 1 - j planes among the kinks and the faces d_m = 0
# (m > j) make in the axes j.., if its later gaps lie in [0, GAP_TOP]; on
# the last axis, where each kink crosses it.  The degenerate ensemble
# (c = -1/N) is a trace law of width sigma = 0: the z axis is the single
# point s = 0, with weight sqrt(2 pi) (the z rule's share of the
# normalization), and a limit passing it is a kink.

# |z| beyond this carries 2 Phi(-Z_TRUNC) = 3.6e-33 of the trace law.
Z_TRUNC = 12.0
# Gaps are cut at this; d_j <= sqrt(2) |mu|, so the cut mass is at most
# P(|mu|^2 > 162) = 7e-36 (N = 2) or 4e-33 (N = 3).
GAP_TOP = 18.0
# Gauss nodes per piece of an axis: refinement climbs this ladder, and each
# rule is checked against the rung below it; first rung and cap per axis.
NODE_LADDER = (8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512)
START_NODES = {"z": 24, "d": 12}
MAX_NODES = {"z": 512, "d": 256}
# The line where a limit passes z = 0 is a breakpoint when that limit
# crosses one standard deviation of z within this many units of gap.
STEEP_WIDTH = 0.5
# A steep step in z (the cap's edge, or a steep index limit passing the
# center of the trace law) gets pieces of its own within this many of its
# standard deviations; Phi(-EDGE_BAND) = 6.2e-16 is the edge's weight at the
# end of its band.
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


class _TraceGapRule:
    """Product rule for one (ensemble, region) and a batch of splits: Gauss
    on the gaps, split at the vertices of kinks and faces (_breakpoints),
    and on z exact for the indexed |det| weight at the split without a
    cap's edge, Gauss otherwise."""

    def __init__(self, n, c, weight, n_lower, split, trace_cap, cap_edge,
                 box_half):
        self.n = n
        self.sigma = math.sqrt(n * (1.0 + n * c)) if trace_root(n, c) else 0.0
        self.scalar = split is None or np.ndim(split) == 0
        a = np.atleast_1d(np.asarray(0.0 if split is None else split, dtype=float))
        self.batch = a.size
        self.weight = AbsProdWeight(a) if weight is None else weight
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
        kinks = []
        for alpha, beta, _ in lims:
            if self.cap_s is not None:
                kinks += [(alpha - (self.cap_s + o), beta) for o in band]
            if self.sigma < STEEP_WIDTH * np.abs(beta).max(initial=0.0):
                kinks += [(alpha - o, beta) for o in steep]
        self._set_kinks(kinks)
        # truncation: z in [z_lo, z_hi] and gaps in [0, gap_top]; box_half
        # gives the box |s/N - anchor| <= half (anchor = split or 0) with
        # gaps up to 2 half; a trace law of width 0 is the single point
        # s = 0, so only its gaps are cut
        self.z_lo, self.z_hi = -Z_TRUNC, Z_TRUNC
        self.gap_top = GAP_TOP if n > 1 else 0.0
        if box_half is not None:
            anchor = float(a[0]) if split is not None else 0.0
            if self.sigma:
                self.z_lo = n * (anchor - box_half) / self.sigma
                self.z_hi = n * (anchor + box_half) / self.sigma
            self.gap_top = 2.0 * float(box_half)
        # mass of the law outside the box; |mu|^2 is chi-square with
        # (N - 1)(N + 2) / 2 degrees of freedom, none at N = 1
        dof = (n - 1) * (n + 2) // 2
        self.p_out = float(chdtrc(dof, 0.5 * self.gap_top ** 2)) if dof else 0.0
        if self.sigma:
            self.p_out = float(self.p_out + ndtr(self.z_lo) + ndtr(-self.z_hi))
        # the indexed |det| weight is a polynomial in z on its region
        self.exact = (isinstance(self.weight, AbsProdWeight)
                      and split is not None and bool(self.sigma) and not self.edge_s
                      and (self.weight.shift == a).all())
        self.axes = [f"d{j}" for j in range(n - 1)] + (
            ["z"] if self.sigma and not self.exact else [])
        self.log_norm = -0.5 * math.log(n) - log_k_norm(n)

    def tail_bound(self) -> np.ndarray:
        """Cauchy-Schwarz bound on the part cut off by the truncation:
        sqrt(E[w^2] P(outside)), E[w^2] over the whole box (no index region
        or cap) by the first rung's rule; beyond the band of a cap's edge,
        whose weight is below Phi(-EDGE_BAND) there, Phi(-EDGE_BAND)
        sqrt(E[w^2])."""
        if self.p_out == 0.0 and not self.edge_s:
            return np.zeros(self.batch)
        whole = copy.copy(self)
        whole.index_limits, whole.cap_s, whole.edge_s = [], None, 0.0
        whole._set_kinks([])
        second = np.maximum(whole.integrate(
            tuple(START_NODES[ax[0]] for ax in self.axes), second=True)[2], 0.0)
        bound = np.sqrt(second * self.p_out)
        if self.edge_s:
            bound += ndtr(-EDGE_BAND) * np.sqrt(second)
        return bound

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

    def _gap_axis(self, gaps: list, wgap: np.ndarray, nn: dict):
        """Gap points (B, X) and weights extended by the next gap axis."""
        lo, hi = _pieces(self._breakpoints(gaps), self.gap_top)
        d, w = _gauss_on(lo, hi, nn[f"d{len(gaps)}"])
        shape = d.shape[:1] + (-1,)
        return ([np.broadcast_to(g[..., None], d.shape).reshape(shape) for g in gaps]
                + [d.reshape(shape)], (wgap[..., None] * w).reshape(shape))

    # -- evaluation --------------------------------------------------------

    def integrate(self, nodes: tuple[int, ...], second: bool = False):
        """(value, integral of |integrand|[, second moment of the weight])
        per batch entry for the product rule with the given nodes per piece
        of each axis, in blocks of the first gap axis."""
        nn = dict(zip(self.axes, nodes))
        B = self.batch
        acc = np.zeros((3 if second else 2, B))
        gaps, wgap = [], np.ones((B, 1))
        if self.n > 1:
            gaps, wgap = self._gap_axis(gaps, wgap, nn)
        per_node = nn.get("z", 1) * (2 if self.edge_s else 1) * math.prod(
            4 * nn[f"d{j}"] for j in range(1, self.n - 1))
        step = max(1, BLOCK_POINTS // (B * per_node))
        for s in range(0, wgap.shape[1], step):
            block = [d[:, s:s + step] for d in gaps], wgap[:, s:s + step]
            while len(block[0]) < self.n - 1:
                block = self._gap_axis(*block, nn)
            self._accumulate(acc, *block, nn, second)
        return acc

    def _accumulate(self, acc, gaps, wgap, nn, second):
        """Add the contribution of gap points (B, X) with gap weights wgap."""
        n = self.n
        mu = [sum(self.A[j, m] * gaps[m] for m in range(n - 1)) + 0.0 * wgap
              for j in range(n)]
        log_g = -0.5 * sum(x * x for x in mu)
        vand = np.ones_like(wgap)
        for i in range(n):
            for j in range(i + 1, n):
                vand = vand * (mu[j] - mu[i])
        g = wgap * vand * np.exp(log_g + self.log_norm)
        lo, hi = self._z_limits(gaps, wgap)
        if self.exact:
            self._exact_z(acc, mu, g, lo, hi, second)
            return
        if not self.sigma:
            z = lo[..., None]
            fz = np.where(hi > lo, math.sqrt(2.0 * math.pi), 0.0)[..., None]
        else:
            if self.edge_s:
                # the edge's band is a z piece of its own: each gap point twice
                mid = np.clip((self.cap_s - EDGE_BAND * self.edge_s) / self.sigma,
                              lo, hi)
                lo, hi = np.concatenate([lo, mid], -1), np.concatenate([mid, hi], -1)
                g = np.concatenate([g, g], -1)
                mu = [np.concatenate([m, m], -1) for m in mu]
            t, wt = _gauss_legendre(nn["z"])
            half = 0.5 * (hi - lo)
            z = (lo + half)[..., None] + half[..., None] * t
            fz = z * z
            fz *= -0.5
            np.exp(fz, out=fz)
            fz *= wt
            g *= half
        fz *= g[..., None]
        z *= self.sigma / n   # now the mean eigenvalue s/N
        if self.edge_s:
            fz *= ndtr((self.cap_s - n * z) / self.edge_s)
        rows, shape = z.shape[0], z.shape
        lam = tuple((z + m[..., None]).reshape(rows, -1) for m in mu)
        del z
        # a weight that overflows far out in the tails (exp weights on a
        # wide box) meets a density that underflows there: count it as 0
        with np.errstate(over="ignore", invalid="ignore"):
            w = self.weight(lam)
            del lam
            if np.ndim(w):
                w = np.reshape(w, shape)
            fw = np.multiply(fz, w, out=fz)
        total = fw.reshape(rows, -1).sum(axis=1)
        if not np.isfinite(total).all():
            fw = np.where(np.isfinite(fw), fw, 0.0)
            total = fw.reshape(rows, -1).sum(axis=1)
        acc[0] += total
        acc[1] += np.abs(fw).reshape(rows, -1).sum(axis=1)
        if second:
            acc[2] += (fw * w).reshape(rows, -1).sum(axis=1)

    def _exact_z(self, acc, mu, g, lo, hi, second):
        """Add the exact z integrals of the indexed |det| weight over [lo, hi]
        at gap points (B, X) with weights g.  About the center t of [lo, hi],
        y = z - t, the weight is sign prod_j (h y + b_j), h = sigma / N and
        b_j = lam_j(t) - split, and the truncated moments M_k = int y^k
        exp(-z^2/2) dz over [lo, hi] follow M_0 = sqrt(2 pi) (Phi(hi) -
        Phi(lo)), M_k = (k - 1) M_(k-2) - t M_(k-1) - [y^(k-1) exp(-z^2/2)].
        The second moment squares the polynomial, without the sign."""
        h = self.sigma / self.n
        t = 0.5 * (lo + hi)
        r = 0.5 * (hi - lo)
        # coefficients in y of prod_j (h y + b_j), then of its square
        poly = [np.ones_like(t)]
        for j, m in enumerate(mu * (2 if second else 1)):
            b = h * t + m - self.shift
            poly = ([b * poly[0]] + [b * p + h * q for p, q in zip(poly[1:], poly)]
                    + [h * poly[-1]])
            if j == self.n - 1:
                coef = poly
        e_lo, e_hi = np.exp(-0.5 * lo * lo), np.exp(-0.5 * hi * hi)
        moments = [math.sqrt(2.0 * math.pi)
                   * np.where(lo >= 0.0, ndtr(-lo) - ndtr(-hi), ndtr(hi) - ndtr(lo))]
        power = np.ones_like(r)   # r^(k-1)
        for k in range(1, len(poly)):
            m_k = -t * moments[k - 1] - power * (e_hi - (-1) ** (k - 1) * e_lo)
            if k > 1:
                m_k += (k - 1) * moments[k - 2]
            moments.append(m_k)
            power = power * r
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
        if self.cap_s is not None:
            hi = np.minimum(hi, self.cap_s + EDGE_BAND * self.edge_s)
        lo = np.maximum(lo / self.sigma, self.z_lo)
        hi = np.minimum(hi / self.sigma, self.z_hi)
        return lo, np.maximum(hi, lo)


def nested_ordered_quadrature(n: int, c: float,
                              weight: "Callable[[tuple], NDArray | float] | None" = None,
                              n_lower: int = 0,
                              split: "float | NDArray | None" = None,
                              trace_cap: float | None = None,
                              cap_edge: float = 0.0,
                              box_half: float | None = None):
    """Integrate weight(lam) f_c(lam) over an ordered eigenvalue region.

    The region is lam_1 <= ... <= lam_k <= split <= lam_(k+1) <= ... <= lam_N
    with k = n_lower; split=None (with n_lower=0) gives the full ordered
    simplex.  An optional trace cap restricts to mean(lam) <= trace_cap, or
    with cap_edge = w > 0 weights the integrand by Phi((trace_cap -
    mean(lam)) / w).  At c = -1/N (trace_root 0) the trace is exactly 0
    and the rule integrates over the gaps alone.  box_half, if given, sets
    the truncation: |mean(lam) - anchor| <= box_half (anchor = split, its
    first entry for a batch, or 0) and eigenvalue gaps up to 2 box_half.

    split may be an array: each entry is one region.  weight None is the
    indexed |det| weight AbsProdWeight(split), prod_j |lam_j - split|, each
    batch entry at its own split.  A callable weight sees the batch as
    rows: it is called with a tuple of N arrays of shape (batch, points),
    one per ordered eigenvalue, and returns the weight at each point (or a
    scalar).

    The rule is a product rule in trace-gap coordinates (see above):
    Gauss-Legendre on the gaps and, for AbsProdWeight(split) (or None)
    without a cap's Gaussian edge, exact on the trace; Gauss-Legendre on
    the trace otherwise.  Each Gauss axis is checked against the rule with
    the next smaller node count of NODE_LADDER and refined until the error
    meets max(QUAD_ABS_TOL, QUAD_REL_TOL |value|) or the node cap is
    reached.
    Returns (value, error), arrays for an array split and floats otherwise.
    The error is the sum of those rule differences, a Cauchy-Schwarz bound
    on the part cut off by the truncation (sqrt of the weight's second
    moment over the box, by the first rung's rule, times sqrt of the law's
    exact mass outside the box), and a rounding allowance.  Matrices larger
    than QUADRATURE_MAX_N raise MethodError, and an invalid c
    ParameterError.
    """
    if n > QUADRATURE_MAX_N:
        raise MethodError(
            f"quadrature supports matrices of size <= {QUADRATURE_MAX_N} "
            f"(N <= {QUADRATURE_MAX_N}, or GOE(N+1) of size <= "
            f"{QUADRATURE_MAX_N}), got size {n}; use monte-carlo")
    validate_ensemble(n, c)
    if n_lower < 0 or n_lower > n:
        raise ParameterError(f"invalid block split {n_lower} of {n}")
    rule = _TraceGapRule(n, c, weight, n_lower, split, trace_cap, cap_edge,
                         box_half)
    axes = rule.axes
    rung = {ax: NODE_LADDER.index(START_NODES[ax[0]]) for ax in axes}
    cache: dict = {}
    tail = rule.tail_bound()

    def run(rungs):
        key = tuple(NODE_LADDER[rungs[ax]] for ax in axes)
        if key not in cache:
            cache[key] = rule.integrate(key)
        return cache[key]

    while True:
        val, absval = run(rung)
        diffs = {ax: np.abs(val - run({**rung, ax: rung[ax] - 1})[0])
                 for ax in axes}
        err = (sum(diffs.values(), tail)
               + 100.0 * np.finfo(float).eps * absval)
        tol = np.maximum(QUAD_ABS_TOL, QUAD_REL_TOL * np.abs(val))
        bad = err > tol
        if not bad.any():
            break
        share = tol[bad] / max(len(axes), 1)
        grow = [ax for ax in axes if NODE_LADDER[rung[ax]] < MAX_NODES[ax[0]]
                and (diffs[ax][bad] > share).any()]
        if not grow:
            break
        for ax in grow:
            rung[ax] += 1
    if rule.scalar:
        return float(val[0]), float(err[0])
    return val, err


class AbsProdWeight:
    """prod_j |lam_j - shift|, the weight of an indexed functional, on the
    engine's (batch, points) arrays; an array shift holds one entry per
    batch row.  nested_ordered_quadrature integrates it exactly in the
    trace on a region split at the same shift.  Callers pass it rather than
    weight None where something may wrap the weight argument (perfbench's
    tracer counts weight calls through a wrapper, which must find a
    callable); a wrapped weight takes the Gauss-Legendre trace axis."""

    __slots__ = ("shift",)

    def __init__(self, shift):
        self.shift = np.asarray(shift, dtype=float)

    def __call__(self, lam):
        shift = self.shift[:, None] if self.shift.ndim else self.shift
        out = lam[0] - shift
        for v in lam[1:]:
            out *= v - shift
        return np.abs(out, out=out)


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
    coordinates (N <= 3): a Gauss rule on the gaps, and the trace exactly
    unless the cap has a Gaussian edge (at c = -1/N over the gaps alone,
    the trace being 0); "monte-carlo" averages over sampled matrices (any
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
            ensemble.n, ensemble.c, AbsProdWeight(functional.shift),
            n_lower=functional.index, split=functional.shift,
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
