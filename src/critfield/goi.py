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
by a product Gauss rule in trace-gap coordinates over the ordered region
(N <= 3) or by Monte Carlo on sampled matrices (any N).  Monte Carlo
eigensolves GOE(N) matrices only: a GOI(c) matrix is a GOE matrix plus
beta(c) times its trace on the diagonal, so every GOI(c) of one size reads
one seeded GOE draw with each row's height moved by beta(c) times its own
trace, and one pass over a draw at a given shift and trace cap gives every
index.
These expectations are the matrix-side ingredient of every Kac-Rice count
computed elsewhere in the package.
"""
from __future__ import annotations

import copy
import functools
import math
import numbers
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.special import gammaln, ndtr

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
        True when c is within tolerance of -1/N.  Degenerate ensembles can
        be sampled (the zero eigendirection of the diagonal covariance is
        dropped exactly) but have no eigenvalue density.
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
        If c < -1/N beyond tolerance; the message names the -1/N bound.
    """
    if n < 1:
        raise ParameterError(f"matrix size must be >= 1, got {n}")
    slack = c + 1.0 / n
    if slack < -DEGENERACY_TOL:
        raise ParameterError(
            f"c={c} is not a valid GOI coupling for N={n}: the diagonal "
            f"covariance I + c 1 1^T requires c >= -1/N = {-1.0 / n}")
    return GoiEnsemble(n=n, c=float(c), degenerate=abs(slack) <= DEGENERACY_TOL)


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
    """Shared numeric knobs for expectation evaluation.

    mc_samples (an integer >= 2) is the total matrix count, drawn in chunks
    of mc_batch (an integer >= 1) from one stream derived from ``seed``, so
    a fixed seed gives the same results on every run.

    With a seed, every Monte Carlo value over GOI(c) matrices of one size N
    reads the same GOE(N) eigenvalue draw, each row at its own height for
    c != 0 (see mc_eigen_expectation; up to BANK_ENTRIES = 2 sizes are
    kept).  So the rows of one command, and the GOI(N+1, c_tot) and
    GOE(N+1) routes, use common random numbers and their errors are
    correlated.  One pass over that draw at a given coupling, shift and
    trace cap gives the values of every index, and the draw keeps them
    (up to STATS_PER_DRAW), so the other indices of a height read them.
    Without a seed each value draws afresh and makes its own pass.
    """

    quad_rel_tol: float = 1e-9
    quad_abs_tol: float = 1e-12
    mc_samples: int = 200_000
    mc_batch: int = 200_000
    seed: int | None = None

    def __post_init__(self):
        for name, low in (("mc_samples", 2), ("mc_batch", 1)):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or value < low):
                raise ParameterError(
                    f"{name} must be an integer >= {low}, got {value!r}")


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
    """Draw GOI(c) matrices.

    The diagonal is generated as B z with z standard normal and
    B = I + ((sqrt(1 + N c) - 1)/N) 1 1^T, a symmetric square root of
    I + c 1 1^T.  At c = -1/N the root's trace factor is exactly zero, so
    the zero eigendirection is dropped exactly and every sample has zero
    trace up to rounding in the subtraction.

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
    """beta(c) = (sqrt(1 + N c) - 1) / N: the GOI(c) draw of sample_goi is
    M_0 + beta tr(M_0) I for the GOE draw M_0 of the same stream (0 at c = 0,
    -1/N at the degenerate boundary)."""
    n = ensemble.n
    return (math.sqrt(max(1.0 + n * ensemble.c, 0.0)) - 1.0) / n


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
# d, so every region is a product Gauss-Legendre rule: z innermost, between
# its per-point limits, and the gaps split at every d where two limits cross
# or a steep limit passes z = 0 or z = +-EDGE_BAND (the integrand is smooth
# in between).  A cap with a Gaussian edge of width w (in mean(lam)) weights
# the integrand by Phi((cap - s/N) / w): z ends EDGE_BAND widths above the
# cap, the band within EDGE_BAND widths of it is a z piece of its own, and
# the gaps also split where an index limit crosses either end of the band.

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


def _chi2_sf(x: float, dof: int) -> float:
    """P(chi-square with dof degrees of freedom > x); 0 for dof = 0."""
    if dof == 0:
        return 0.0
    h = 0.5 * x
    if dof % 2 == 0:
        terms, total = 1.0, 0.0
        for j in range(dof // 2):
            total += terms
            terms *= h / (j + 1)
        return math.exp(-h) * total
    total, term = math.erfc(math.sqrt(h)), math.sqrt(h) / math.gamma(1.5)
    for j in range(1, (dof + 1) // 2):
        total += math.exp(-h) * term
        term *= h / (j + 0.5)
    return total


def _ratio(num, den):
    """num / den where den != 0, else nan (a line parallel to an axis)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den != 0.0, num / np.where(den != 0.0, den, 1.0), np.nan)


class _TraceGapRule:
    """Product Gauss rule for one (ensemble, region) and a batch of splits."""

    def __init__(self, n, c, weight, n_lower, split, trace_cap, cap_edge,
                 box_half, cap_derivative):
        self.n = n
        self.sigma = math.sqrt(n * (1.0 + n * c))
        self.weight = weight
        self.slice = cap_derivative
        self.scalar = split is None or np.ndim(split) == 0
        a = np.atleast_1d(np.asarray(0.0 if split is None else split, dtype=float))
        self.batch = a.size
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
        steep = (0.0, -EDGE_BAND * self.sigma, EDGE_BAND * self.sigma)
        kinks = []
        for alpha, beta, _ in lims:
            if self.cap_s is not None:
                kinks += [(alpha - (self.cap_s + o), beta) for o in band]
            if (not self.slice
                    and self.sigma < STEEP_WIDTH * np.abs(beta).max(initial=0.0)):
                kinks += [(alpha - o, beta) for o in steep]
        self.kinks = kinks
        # truncation: z in [z_lo, z_hi] and gaps in [0, gap_top]; box_half
        # gives the box |s/N - anchor| <= half (anchor = split or 0) with
        # gaps up to 2 half
        if box_half is None:
            self.z_lo, self.z_hi = -Z_TRUNC, Z_TRUNC
            self.gap_top = GAP_TOP if n > 1 else 0.0
        else:
            anchor = float(a[0]) if split is not None else 0.0
            self.z_lo = n * (anchor - box_half) / self.sigma
            self.z_hi = n * (anchor + box_half) / self.sigma
            self.gap_top = 2.0 * float(box_half)
        # mass of the law outside the box (on a slice: of the slice's
        # density, whose gaps follow the law of mu); |mu|^2 is chi-square
        # with (N - 1)(N + 2) / 2 degrees of freedom
        gap_out = _chi2_sf(0.5 * self.gap_top ** 2, (n - 1) * (n + 2) // 2)
        if self.slice:
            z_c = self.cap_s / self.sigma
            self.p_out = float(gap_out * n / self.sigma * math.exp(-0.5 * z_c * z_c)
                               / math.sqrt(2.0 * math.pi))
        else:
            self.p_out = float(gap_out + ndtr(self.z_lo) + ndtr(-self.z_hi))
        self.axes = [f"d{j}" for j in range(n - 1)] + ([] if self.slice else ["z"])
        self.log_norm = -0.5 * math.log(n) - log_k_norm(n)

    def tail_bound(self) -> np.ndarray:
        """Cauchy-Schwarz bound on the part cut off by the truncation:
        sqrt(E[w^2] P(outside)), E[w^2] over the whole box (no index region
        or cap) by a coarse rule; beyond the band of a cap's edge, whose
        weight is below Phi(-EDGE_BAND) there, Phi(-EDGE_BAND) sqrt(E[w^2])."""
        if self.p_out == 0.0 and not self.edge_s:
            return np.zeros(self.batch)
        whole = copy.copy(self)
        whole.index_limits, whole.kinks = [], []
        if not self.slice:
            whole.cap_s, whole.edge_s = None, 0.0
        second = np.maximum(whole.integrate(
            tuple(START_NODES[ax[0]] for ax in self.axes), second=True)[2], 0.0)
        bound = np.sqrt(second * self.p_out)
        if self.edge_s:
            bound += ndtr(-EDGE_BAND) * np.sqrt(second)
        return bound

    # -- gap axes ----------------------------------------------------------

    def _outer_breakpoints(self) -> np.ndarray:
        """Breakpoints of d0 (B, E) for N = 3: the vertices of the kink lines
        with d1 = 0 and with each other."""
        out = []
        for i, (al, be) in enumerate(self.kinks):
            out.append(_ratio(-al, be[0]))
            for al2, be2 in self.kinks[i + 1:]:
                det = be[0] * be2[1] - be[1] * be2[0]
                d0 = _ratio(-al * be2[1] + al2 * be[1], det)
                d1 = _ratio(-be[0] * al2 + be2[0] * al, det)
                out.append(np.where((d1 >= 0.0) & (d1 <= self.gap_top), d0, np.nan))
        if not out:
            return np.zeros((self.batch, 0))
        return np.stack([np.broadcast_to(o, (self.batch,)) for o in out], axis=-1)

    def _last_breakpoints(self, fixed: list) -> np.ndarray:
        """Breakpoints of the last gap axis given the earlier gaps (B, X)."""
        j = self.n - 2
        out = []
        for al, be in self.kinks:
            if be[j] == 0.0:
                continue
            rest = al.reshape(-1, *([1] * (fixed[0].ndim - 1))) if fixed else al
            for i, d in enumerate(fixed):
                rest = rest + be[i] * d
            out.append(-rest / be[j])
        shape = fixed[0].shape if fixed else (self.batch,)
        if not out:
            return np.zeros(shape + (0,))
        return np.stack([np.broadcast_to(o, shape) for o in out], axis=-1)

    # -- evaluation --------------------------------------------------------

    def integrate(self, nodes: tuple[int, ...], second: bool = False):
        """(value, integral of |integrand|[, second moment of the weight])
        per batch entry for the product rule with the given nodes per piece
        of each axis."""
        nn = dict(zip(self.axes, nodes))
        B = self.batch
        acc = np.zeros((3 if second else 2, B))
        if self.n == 1:
            self._accumulate(acc, [], np.ones((B, 1)), nn, second)
            return acc
        if self.n == 2:
            lo, hi = _pieces(self._last_breakpoints([]), self.gap_top)
        else:
            lo, hi = _pieces(self._outer_breakpoints(), self.gap_top)
        d0, w0 = _gauss_on(lo, hi, nn["d0"])
        per_node = (nn.get("z", 1) * (2 if self.edge_s else 1)
                    * (1 if self.n == 2 else 4 * nn["d1"]))
        step = max(1, BLOCK_POINTS // (B * per_node))
        for s in range(0, d0.shape[1], step):
            dd, ww = d0[:, s:s + step], w0[:, s:s + step]
            if self.n == 2:
                self._accumulate(acc, [dd], ww, nn, second)
            else:
                lo1, hi1 = _pieces(self._last_breakpoints([dd]), self.gap_top)
                d1, w1 = _gauss_on(lo1, hi1, nn["d1"])
                shape = d1.shape[:1] + (-1,)
                self._accumulate(
                    acc, [np.broadcast_to(dd[..., None], d1.shape).reshape(shape),
                          d1.reshape(shape)],
                    (ww[..., None] * w1).reshape(shape), nn, second)
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
        if self.edge_s:
            # the edge's band is a z piece of its own: each gap point twice
            mid = np.clip((self.cap_s - EDGE_BAND * self.edge_s) / self.sigma, lo, hi)
            lo, hi = np.concatenate([lo, mid], -1), np.concatenate([mid, hi], -1)
            g = np.concatenate([g, g], -1)
            mu = [np.concatenate([m, m], -1) for m in mu]
        if self.slice:
            z = lo[..., None]
            fz = np.where(hi > lo, n / self.sigma * np.exp(-0.5 * lo * lo), 0.0)
            fz = fz[..., None]
        else:
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

    def _z_limits(self, gaps, wgap):
        """Per-point z interval [lo, hi] (slice: lo = the slice, hi > lo
        marks points inside the region)."""
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
        if self.slice:
            cap = np.full(shape, self.cap_s)
            inside = (lo < cap) & (cap < hi)
            return cap / self.sigma, np.where(inside, np.inf, -np.inf)
        if self.cap_s is not None:
            hi = np.minimum(hi, self.cap_s + EDGE_BAND * self.edge_s)
        lo = np.maximum(lo / self.sigma, self.z_lo)
        hi = np.minimum(hi / self.sigma, self.z_hi)
        return lo, np.maximum(hi, lo)


def nested_ordered_quadrature(n: int, c: float,
                              weight: Callable[[tuple], "NDArray | float"],
                              n_lower: int, split: "float | NDArray | None",
                              trace_cap: float | None = None,
                              cap_edge: float = 0.0,
                              box_half: float | None = None,
                              epsabs: float = 1e-12,
                              epsrel: float = 1e-9,
                              *, cap_derivative: bool = False):
    """Integrate weight(lam) f_c(lam) over an ordered eigenvalue region.

    The region is lam_1 <= ... <= lam_k <= split <= lam_(k+1) <= ... <= lam_N
    with k = n_lower; split=None (with n_lower=0) gives the full ordered
    simplex.  An optional trace cap restricts to mean(lam) <= trace_cap, or
    with cap_edge = w > 0 weights the integrand by Phi((trace_cap -
    mean(lam)) / w); cap_derivative=True returns d/d(trace_cap) of a hard
    capped integral (the integrand on the slice mean(lam) = trace_cap).
    box_half, if given, sets the truncation: |mean(lam) - anchor| <=
    box_half (anchor = split, its first entry for a batch, or 0) and
    eigenvalue gaps up to 2 box_half.

    split may be an array: each entry is one region, and weight sees the
    batch as rows.  weight is called with a tuple of N arrays of shape
    (batch, points), one per ordered eigenvalue, and returns the weight at
    each point (or a scalar).

    The rule is a product Gauss-Legendre rule in trace-gap coordinates (see
    above).  Each axis is checked against the rule with the next smaller
    node count of NODE_LADDER and refined until the error meets
    max(epsabs, epsrel |value|) or the node cap is reached.  Returns
    (value, error), arrays for an array split and floats otherwise.  The
    error is the sum of those rule differences, a Cauchy-Schwarz bound on
    the part cut off by the truncation (sqrt of the weight's second moment
    over the box, by a coarse rule, times sqrt of the law's exact mass
    outside the box), and a rounding allowance.  Matrices larger than
    QUADRATURE_MAX_N raise MethodError.
    """
    if n > QUADRATURE_MAX_N:
        raise MethodError(
            f"quadrature supports matrices of size <= {QUADRATURE_MAX_N} "
            f"(N <= {QUADRATURE_MAX_N}, or GOE(N+1) of size <= "
            f"{QUADRATURE_MAX_N}), got size {n}; use monte-carlo")
    if c + 1.0 / n <= 0.0:
        raise DegenerateEnsembleError(
            "quadrature needs a nondegenerate ensemble (c > -1/N)")
    if n_lower < 0 or n_lower > n:
        raise ParameterError(f"invalid block split {n_lower} of {n}")
    if cap_derivative and (trace_cap is None or cap_edge):
        raise ParameterError("cap_derivative needs a hard trace_cap")
    rule = _TraceGapRule(n, c, weight, n_lower, split, trace_cap, cap_edge,
                         box_half, cap_derivative)
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
        tol = np.maximum(epsabs, epsrel * np.abs(val))
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


def abs_prod_weight(shift):
    """prod_j |lam_j - shift|, the weight of an indexed functional, on the
    engine's (batch, points) arrays; an array shift holds one entry per
    batch row."""
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
_bank: "OrderedDict[tuple, _GoeDraw]" = OrderedDict()


def _lru(cache: OrderedDict, key, make: Callable, bound: int):
    """cache[key], made on a miss; the least recently used entry beyond
    bound is dropped."""
    value = cache.pop(key, None)
    if value is None:
        value = make()
    cache[key] = value
    if len(cache) > bound:
        cache.popitem(last=False)
    return value


@dataclass
class _GoeDraw:
    """A GOE(N) draw as chunks of ascending eigenvalue rows, column major
    (k, N), and the traces of their matrices, with the all-index results of
    mc_eigen_expectation by (c, shift, trace_cap, cap_edge)."""

    lam: list
    trace: list
    stats: "OrderedDict[tuple, NDArray]" = field(default_factory=OrderedDict)


def eigen_batches(n: int, config: NumericConfig) -> list:
    """The GOE(n) Monte Carlo draw of config: a list of read-only ascending
    eigenvalue rows (k, n), column major, one per mc_batch chunk of the
    seed's stream (the first child of SeedSequence(seed)).

    Seeded draws are kept by (n, seed, mc_samples, mc_batch), at most
    BANK_ENTRIES (least recently used dropped); seed=None always draws
    afresh.
    """
    return _goe_draw(n, config).lam


def _goe_draw(n: int, config: NumericConfig) -> _GoeDraw:
    """The GOE(n) draw of config: from the bank when seeded, else fresh."""
    if config.seed is None:
        return _draw_goe(n, config)
    key = (n, config.seed, config.mc_samples, config.mc_batch)
    draw = _bank.pop(key, None)
    if draw is None:
        # drop before drawing, so the dropped rows and the new matrices
        # are never held together
        while len(_bank) >= BANK_ENTRIES:
            _bank.popitem(last=False)
        draw = _draw_goe(n, config)
    _bank[key] = draw
    return draw


def _draw_goe(n: int, config: NumericConfig) -> _GoeDraw:
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    goe = GoiEnsemble(n, 0.0)
    draw = _GoeDraw([], [])
    done = 0
    while done < config.mc_samples:
        k = min(config.mc_batch, config.mc_samples - done)
        m = sample_goi(goe, size=k, rng=rng)
        draw.trace.append(np.trace(m, axis1=1, axis2=2))
        lam = np.linalg.eigvalsh(m)
        del m   # before the next chunk is drawn
        lam = np.asfortranarray(lam)
        lam.flags.writeable = False
        draw.lam.append(lam)
        done += k
    return draw


def _mean_error(s: float, s2: float, total: int) -> tuple[float, float]:
    """Mean and standard error of total samples with sum s and sum of
    squares s2."""
    mean = s / total
    var = max(s2 / total - mean * mean, 0.0) * total / (total - 1)
    return mean, math.sqrt(var / total)


def batch_mean(values, total: int) -> tuple[float, float]:
    """Mean and standard error of total samples whose values arrive as
    batch arrays."""
    s = s2 = 0.0
    for vals in values:
        s += float(vals.sum())
        s2 += float((vals * vals).sum())
    return _mean_error(s, s2, total)


def mc_eigen_expectation(ensemble: GoiEnsemble, functional: IndexedFunctional,
                         config: NumericConfig) -> NDArray[np.float64]:
    """Monte Carlo mean and standard error of the functional at every index
    0..N (its own index is not read), as an (N + 1, 2) array, in one pass
    over the GOE(N) draw eigen_batches(N, config).

    sample_goi draws GOI(c) as M_0 + beta tr(M_0) I (beta = trace_shift)
    from the stream of the GOE draw M_0, so each GOE row is compared with
    its own height shift - beta tr, and its GOI(c) mean is tr sqrt(1 + N c)
    / N (0 at c = -1/N, up to the rounding of 1 + N c).  Per chunk, one loop over the N columns
    builds prod_j |lam_j - height| and the number of eigenvalues below the
    height, and weights them by the trace cap once; each index then sums
    its masked values in the order IndexedFunctional.evaluate and
    batch_mean do.
    """
    n = ensemble.n
    draw = _goe_draw(n, config)
    beta = trace_shift(ensemble)
    root = math.sqrt(max(1.0 + n * ensemble.c, 0.0))
    a, cap, edge = functional.shift, functional.trace_cap, functional.cap_edge
    sums = [[0.0, 0.0] for _ in range(n + 1)]
    for lam, tr in zip(draw.lam, draw.trace):
        h = a - beta * tr if beta else a
        vals = np.abs(lam[:, 0] - h)
        below = (lam[:, 0] < h).astype(np.intp)
        for j in range(1, n):
            vals *= np.abs(lam[:, j] - h)
            below += lam[:, j] < h
        if cap is not None:
            mean = tr * root / n
            # the weight is in [0, 1], so masking after weighting is exact
            vals = (vals * ndtr((cap - mean) / edge) if edge
                    else np.where(mean <= cap, vals, 0.0))
        for i, acc in enumerate(sums):
            v = np.where(below == i, vals, 0.0)
            acc[0] += float(v.sum())
            acc[1] += float((v * v).sum())
    return np.array([_mean_error(s, s2, config.mc_samples) for s, s2 in sums])


def goi_expectation(ensemble: GoiEnsemble, functional: IndexedFunctional,
                    method: str = "auto",
                    config: NumericConfig | None = None) -> tuple[float, float]:
    """E[g(lam)] for an indexed absolute-determinant functional.

    method "quadrature" integrates the ordered-eigenvalue density over the
    index region (N <= 3, nondegenerate only); "monte-carlo" averages over
    sampled matrices and works for every valid ensemble; "auto" picks
    quadrature when available.

    Returns (value, error_estimate): the quadrature error (see
    nested_ordered_quadrature) for quadrature, one standard error for
    Monte Carlo.
    """
    config = config or NumericConfig()
    if functional.index > ensemble.n:
        raise ParameterError(
            f"index {functional.index} out of range for N={ensemble.n}")
    if method == "auto":
        method = ("quadrature"
                  if ensemble.n <= QUADRATURE_MAX_N and not ensemble.degenerate
                  else "monte-carlo")
    if method == "quadrature":
        if ensemble.degenerate:
            raise DegenerateEnsembleError(
                "no eigenvalue density at c = -1/N; use method='monte-carlo'")
        return nested_ordered_quadrature(
            ensemble.n, ensemble.c, abs_prod_weight(functional.shift),
            n_lower=functional.index, split=functional.shift,
            trace_cap=functional.trace_cap, cap_edge=functional.cap_edge,
            epsabs=config.quad_abs_tol, epsrel=config.quad_rel_tol)
    if method == "monte-carlo":
        if config.seed is None:
            stats = mc_eigen_expectation(ensemble, functional, config)
        else:
            # one pass per (coupling, shift, cap) serves every index
            key = (ensemble.c, functional.shift, functional.trace_cap,
                   functional.cap_edge)
            stats = _lru(_goe_draw(ensemble.n, config).stats, key,
                         lambda: mc_eigen_expectation(ensemble, functional, config),
                         STATS_PER_DRAW)
        mean, err = stats[functional.index]
        return float(mean), float(err)
    raise MethodError(f"unknown method {method!r}")
