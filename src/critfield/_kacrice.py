"""Shared Kac-Rice count engine.

Both geometries reduce expected critical-point counts to the same template:

    E[count of index i]          = pref * E_GOI(c_tot)[g_i(0)]
    E[count of index i above u]  = pref * E_GOI(c_tot)[g_i(0) Phi((-gamma u - mean(lam)) / w)]
    height density h_i(u)        = phi(u) E_GOI(c_cnd)[g_i(b u)] / E_GOI(c_tot)[g_i(0)]

where g_i(a) is the indexed absolute-determinant functional with shift a.
The height X and the Hessian (law GOI(c_tot)) are jointly Gaussian, and
given the Hessian X depends only on its trace: X | mean(lam) = m is
N(-m / gamma, (w / gamma)^2).  So a count above u integrates the height out
as a Gaussian edge of width w on the trace cap -gamma u; the boundary
regime is w = 0, the hard cap mean(lam) <= -gamma u.  IsotropicModel
writes the Hessian law of both geometries once, with the sphere's eta^2 as
a curvature term (0 on R^N): shape, regime and (pref, c_tot, c_cnd, b,
gamma, w) through problem().  A geometry (euclidean.EuclideanModel,
sphere.SphereModel) adds its covariance derivatives, curvature, prefactor
and the name of its gap.  At N = 2, E_GOI(c)[g_i(a)] has one closed form
in (c, a) (_goi2), so the closed forms of both regimes and both
geometries read the CountProblem alone.  This module holds the three
public operations on either model, expected_counts, height_pdf_result and
height_cdf_result, evaluates the template by quadrature or Monte Carlo and
propagates error estimates.  Its one count is the count above u
(count_above, public as expected_counts): one goi.goi_expectation call
per index and height, for both methods and both regimes, or on the
GOE(N+1) route (method "fyodorov") one fyodorov.reduced_expectation
call; a total is the count above -inf.  Only
the shifted density numerators (heights as a batch axis) call the
quadrature engine directly, in the boundary regime too, where GOI(c_cnd
= -1/N) is a trace law of width 0.  The N = 2 closed-form tails without
an erfc form integrate their density in one _upper_tails call.
Height densities and upper-tail height fractions follow as ratios of the
same quantities, so prefactors cancel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import ndtr

from .errors import (ImpossibleFieldError, InvalidCovarianceError, MethodError,
                     ParameterError, RegimeError, UndefinedDistributionError)
from .fyodorov import GoeReduction, goe_method, reduced_expectation
from .goi import (
    GoiEnsemble,
    IndexedFunctional,
    NumericConfig,
    EDGE_BAND,
    STEEP_WIDTH,
    _gauss_on,
    goi_expectation,
    nested_ordered_quadrature,
    refine_on_ladder,
    validate_ensemble,
)

SQRT2PI = math.sqrt(2.0 * math.pi)

# kappa^2 within this distance of its feasibility bound snaps to the boundary
# regime; beyond it the model is rejected as impossible.
REGIME_TOL = 1e-9

# Closed-form tail integrals run on [max(u, -OUTER_TAIL), max(u, 0) +
# OUTER_TAIL]; beyond that the standard normal envelope contributes below
# any tolerance used here.
OUTER_TAIL = 13.0
# Gauss nodes per piece of a closed-form tail integral (first rung, cap).
OUTER_START_NODES = 24
OUTER_MAX_NODES = 256
# Heights handed to the quadrature engine per call of the density numerators.
HEIGHT_CHUNK = 8
# Outer-rule tolerances of the N = 2 closed-form tails (see CritResult).
CLOSED_ABS_TOL = 1e-13
CLOSED_REL_TOL = 1e-11
# The N = 2 maxima expectation G_2 (_goi2) leaves its erfc closed form where
# the terms cancel by more than this factor (2 digits), for an integral on
# this many Gauss-Legendre nodes.
H2_CANCEL = 1e2
H2_NODES = 48


def check_finite(*named: tuple[str, float]) -> None:
    """Reject a non-finite model input (name, value), naming it."""
    for name, v in named:
        if not math.isfinite(v):
            raise InvalidCovarianceError(f"{name} must be finite (got {v})")


def check_integer(name: str, v, least: int) -> None:
    """Reject a model input v that is not an integer (a bool is not one)
    of at least least, naming it."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < least:
        raise InvalidCovarianceError(
            f"{name} must be an integer >= {least}, got {v!r}")


def shape_ratios(eta2: float, kappa2: float) -> tuple[float, float]:
    """kappa^2/eta^2 and kappa^2/eta^4 of a shape pair, from which both
    geometries build their covariance derivatives.  Rejects a pair that is
    not finite and positive, or whose ratios leave the floating-point range,
    naming the pair."""
    check_finite(("eta^2", eta2), ("kappa^2", kappa2))
    if eta2 <= 0 or kappa2 <= 0:
        raise InvalidCovarianceError("eta^2 and kappa^2 must be positive")
    r1 = kappa2 / eta2
    r2 = r1 / eta2
    # r1 = inf or 0 carries over to r2
    if not 0.0 < r2 < math.inf:
        raise InvalidCovarianceError(
            f"(eta^2, kappa^2) = ({eta2:g}, {kappa2:g}) is out of range: "
            f"kappa^2/eta^4 {'overflows' if r2 else 'underflows'}")
    return r1, r2


@dataclass(frozen=True)
class CritResult:
    """A computed expected count (or derived scalar) with its error estimate.

    error is one standard error for monte-carlo results.  For quadrature it
    covers the whole quadrature error: on every Gauss axis (the gaps; the
    trace is integrated exactly) the difference to the rule with the next
    smaller Gauss node count, a bound on every truncated tail, and a
    rounding allowance; a height density or upper-tail fraction adds the
    first-order bounds of its numerator and total.
    Closed forms report a nominal 1e-15, upper tails CLOSED_REL_TOL: the
    tolerance their outer rule meets, or the rule's error where it falls short.
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
    edge_width: float

    def total_ensemble(self) -> GoiEnsemble:
        return validate_ensemble(self.n, self.c_total)

    def cond_ensemble(self) -> GoiEnsemble:
        return validate_ensemble(self.n, self.c_cond)


class IsotropicModel:
    """Shape, regime and count parameters of a unit-variance isotropic
    field on R^N or S^N.

    A geometry is a frozen dataclass of n and its covariance derivatives
    and supplies eta2, raw_kappa2 (the unclamped kappa^2), curvature (how
    eta^2 enters the Hessian law: 0 on R^N, eta^2 on S^N), log_prefactor,
    and the names space and gap_name (of kappa^2 - curvature).  With e2 =
    curvature the Hessian law reads c_tot = (1 + e2)/2, c_cnd = (1 + e2 -
    kappa^2)/2, and feasibility requires kappa^2 - e2 <= (N+2)/N, with
    equality the boundary regime.  Everything else, the N = 2 closed forms
    included, reads problem().
    """

    def __post_init__(self):
        check_integer("dimension", self.n, 1)
        derivs = {f.name: getattr(self, f.name) for f in fields(self)
                  if f.name != "n"}
        if not all(math.isfinite(v) for v in derivs.values()):
            raise InvalidCovarianceError(
                f"covariance derivatives must be finite, got {derivs}")
        # kappa^2 = 0 would decouple the height from the Hessian's trace
        if not self.raw_kappa2 > 0.0:
            raise InvalidCovarianceError(
                f"kappa^2 underflows to {self.raw_kappa2} for {derivs}")
        gap = self.raw_kappa2 - self.curvature
        if gap > self.gap_bound + REGIME_TOL:
            raise ImpossibleFieldError(
                f"{self.gap_name} = {gap:.12g} exceeds (N+2)/N = "
                f"{self.gap_bound:.12g}; no isotropic {self.space} field of "
                f"dimension {self.n} attains this")

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
        """The template's parameters; in the boundary regime gamma keeps
        its closed form and w is exactly 0."""
        n = self.n
        e2 = self.curvature
        c_tot, c_cnd = (1.0 + e2) / 2.0, (1.0 + e2 - self.kappa2) / 2.0
        b = self.kappa / math.sqrt(2.0)
        return CountProblem(
            n=n,
            log_prefactor=self.log_prefactor,
            c_total=c_tot,
            c_cond=c_cnd,
            shift_coeff=b,
            cap_coeff=(math.sqrt((n + 2.0 + n * e2) / (2.0 * n)) if self.boundary
                       else (1.0 + n * c_tot) / (n * b)),
            edge_width=(0.0 if self.boundary
                        else math.sqrt((1.0 + n * c_cnd) * (1.0 + n * c_tot)) / (n * b)),
        )


def _phi(x):
    with np.errstate(over="ignore"):   # 0 where x * x overflows
        return np.exp(-0.5 * x * x) / SQRT2PI


def _shaped(x, val, err, method: str) -> CritResult:
    """CritResult at the heights x: floats for a scalar x, else of x's shape."""
    val, err = np.broadcast_arrays(val, err)
    if np.isscalar(x):
        return CritResult(val.item(), err.item(), method)
    return CritResult(val.reshape(np.shape(x)), err.reshape(np.shape(x)), method)


def _upper_tails(density, u, splits):
    """int_u^top of density(x) and its error at every height of the array
    u, top = max(u, 0) + OUTER_TAIL over the finite heights (tail 0 at or
    above it).  One Gauss rule runs on the pieces between the sorted
    heights, clipped below at -OUTER_TAIL and split at the heights splits
    (where the density steps), summed from the top, and refined by
    refine_on_ladder to CLOSED_ABS_TOL and CLOSED_REL_TOL."""
    u = np.asarray(u, dtype=float)
    top = float(np.max(u, where=np.isfinite(u), initial=0.0)) + OUTER_TAIL
    lo = np.clip(u, -OUTER_TAIL, top).ravel()
    edges = np.unique(np.concatenate([lo, np.clip(splits, lo.min(), top), [top]]))
    first = np.searchsorted(edges, lo)      # each height's first piece

    def integrate(nodes):
        x, w = _gauss_on(edges[:-1], edges[1:], nodes[0])
        pieces = (w * density(x)).reshape(-1, nodes[0]).sum(axis=1)
        tails = np.cumsum(pieces[::-1])[::-1]
        # no rounding allowance: 100 eps tail is far below CLOSED_REL_TOL tail
        return np.append(tails, 0.0)[first], 0.0

    val, err = refine_on_ladder(integrate, [OUTER_START_NODES], [OUTER_MAX_NODES],
                                CLOSED_ABS_TOL, CLOSED_REL_TOL)
    return val.reshape(u.shape), err.reshape(u.shape)


# ---------------------------------------------------------------------------
# totals and counts above a threshold
# ---------------------------------------------------------------------------


def count_above(p: CountProblem, indices, u: np.ndarray, method: str,
                cfg: NumericConfig, inner: str = "auto") -> list[CritResult]:
    """Expected index-i count above each height of the 1-d array u, pref
    E_GOI(c_tot)[g_i(0) Phi((-gamma u - mean(lam)) / w)] (see the module
    doc), one CritResult (arrays over u) per entry of indices: 0 +- 0 at
    u = inf, and at u = -inf the total pref E_GOI(c_tot)[g_i(0)], uncapped.
    Method "fyodorov" evaluates each count as one GOE(N+1) reduction with
    spread b and threshold u (fyodorov.GoeReduction) by the route inner
    (auto as fyodorov.goe_method); it needs c_cnd > 0.

    GOI(c) is invariant under H -> -H, which maps g_i(0) to g_(N-i)(0), so
    the two totals are equal at every c, c = -1/N included (on GOE(N+1)
    the total's weight is even in mu, and lam -> -lam maps position i to
    N - i): quadrature integrates once per pair {i, N - i}, at i' = min(i,
    N - i), and the totals of all indices cost floor(N/2) + 1 engine
    calls.  Monte Carlo keeps one value per index.  Nothing is kept
    between calls.
    """
    goe = method == "fyodorov"
    route = count_route(p, method, bool((u > -math.inf).any()), inner)
    b = p.shift_coeff
    ens = validate_ensemble(p.n + 1, 0.0) if goe else p.total_ensemble()
    done: dict = {}

    def evaluate(i: int, v: float, cap: float):
        if goe:
            return reduced_expectation(GoeReduction(
                goe=ens, eigen_position=i, shift=0.0, coupling=p.c_cond,
                spread=b, threshold=v), route, cfg)
        fn = (IndexedFunctional(index=i) if v == -math.inf else
              IndexedFunctional(index=i, trace_cap=cap, cap_edge=p.edge_width))
        return goi_expectation(ens, fn, route, cfg)

    def expectation(i: int, v: float):
        # a height so far out that its cap overflows counts as u = +-inf
        cap = -p.cap_coeff * v
        if cap == -math.inf:
            return 0.0, 0.0
        if cap == math.inf:
            v = -math.inf
            if route == "quadrature":
                i = min(i, p.n - i)
        if (i, v) not in done:
            done[i, v] = evaluate(i, v, cap)
        return done[i, v]

    pref = math.exp(p.log_prefactor)
    out = []
    for i in indices:
        val, err = np.array([expectation(i, v) for v in u.tolist()],
                            dtype=float).reshape(-1, 2).T
        out.append(CritResult(pref * val, pref * err, method))
    return out


def _shifted_expectations(p: CountProblem, i: int,
                          x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E_GOI(c_cnd)[g_i(b x)] and its error at each height x; the heights
    are a batch axis of the quadrature engine, taken HEIGHT_CHUNK at a time."""
    vals, errs = [np.zeros(0)], [np.zeros(0)]
    for s in range(0, x.size, HEIGHT_CHUNK):
        beta = p.shift_coeff * x[s:s + HEIGHT_CHUNK]
        v, e = nested_ordered_quadrature(p.n, p.c_cond, n_lower=i, split=beta)
        vals.append(v)
        errs.append(e)
    return np.concatenate(vals), np.concatenate(errs)


# ---------------------------------------------------------------------------
# height distributions, general path
# ---------------------------------------------------------------------------


def _check_total(tot: float, i: int) -> None:
    if tot <= 0.0:
        raise UndefinedDistributionError(
            f"expected count of index-{i} points vanishes; heights undefined")


def height_pdf_general(p: CountProblem, i: int, x, method: str,
                       cfg: NumericConfig,
                       total: CritResult | None = None) -> CritResult:
    """h_i at the heights x (a scalar or an array), the height density of
    index-i critical points, over one index total: total (the index-i
    count above -inf for this method and cfg) if given, else computed here.

    This is the exact integrand ratio
    h_i(u) = phi(u) E_GOI(c_cnd)[g_i(b u)] / E_GOI(c_tot)[g_i(0)].  In the
    boundary regime c_cnd = -1/N, a degenerate ensemble that both methods
    evaluate as it is: Monte Carlo samples it, and quadrature integrates
    its zero-trace matrices over the eigenvalue gaps alone.  Quadrature
    numerators take the heights as a batch axis of the engine.
    """
    if method not in ("quadrature", "monte-carlo"):
        raise MethodError(f"unknown general-path method {method!r}")
    tot = total or count_above(p, [i], np.array([-math.inf]), method, cfg)[0]
    _check_total(tot.value, i)
    us = np.asarray(x, dtype=float).ravel()
    # h_i is 0 +- 0 where phi(x) underflows: its numerator grows polynomially
    phi = _phi(us)
    live = phi > 0.0
    num, num_err = np.zeros((2, us.size))
    if method == "quadrature":
        num[live], num_err[live] = _shifted_expectations(p, i, us[live])
    else:
        ens = p.cond_ensemble()
        num[live], num_err[live] = np.array([
            goi_expectation(ens, IndexedFunctional(index=i, shift=p.shift_coeff * u),
                            method, cfg)
            for u in us[live].tolist()]).reshape(-1, 2).T
    # the numerator in count units, as the total
    pref = math.exp(p.log_prefactor)
    num, num_err = pref * num, pref * num_err
    val = phi * num / tot.value
    if method == "quadrature":
        # bounds add to first order: |val| (e_n / n + e_t / t), where
        # |val| e_n / n is phi e_n / t (so a zero numerator keeps its error)
        return _shaped(x, val, (phi * num_err + np.abs(val) * tot.error) / tot.value,
                       method)
    pos = num > 0
    rel = np.where(pos, np.hypot(num_err / np.where(pos, num, 1.0),
                                 tot.error / tot.value), 0.0)
    return _shaped(x, val, np.abs(val) * rel + phi * num_err / tot.value, method)


def height_cdf_general(p: CountProblem, i: int, u, method: str,
                       cfg: NumericConfig,
                       total: CritResult | None = None) -> CritResult:
    """Upper-tail fraction F_i at the heights u (a scalar or an array):
    expected share of index-i points above u, over one index total (total
    as in height_pdf_general)."""
    tot = total or count_above(p, [i], np.array([-math.inf]), method, cfg)[0]
    _check_total(tot.value, i)
    ab = count_above(p, [i], np.asarray(u, dtype=float).ravel(), method, cfg)[0]
    val = ab.value / tot.value
    if method == "quadrature":   # bounds add, as in height_pdf_general
        return _shaped(u, val, (ab.error + np.abs(val) * tot.error) / tot.value, method)
    pos = ab.value > 0
    rel = np.hypot(ab.error / np.where(pos, ab.value, 1.0), tot.error / tot.value)
    return _shaped(u, val, np.where(pos, val * rel, ab.error / tot.value), method)


# ---------------------------------------------------------------------------
# closed forms, N = 2: one GOI(2) expectation on the template's parameters
# ---------------------------------------------------------------------------


def _goi2(i: int, s: float, a):
    """E_GOI(2, c)[g_i(a)] at the shifts a (an array), s = sqrt((1 + 2c)/2)
    the sd of mean(lam) (0: the boundary's degenerate ensemble).  The
    eigenvalues are m +- r with m ~ N(0, s^2) and r^2 ~ Exp(1) independent,
    so with q = 1 + 2 s^2 and alpha = a / s

        G_1(a) = e^{-a^2/q} / sqrt(q),
        G_2(a) = (s^2 + a^2 - 1) Phi(alpha) + a s phi(alpha)
                 + e^{-a^2/q} Phi(alpha / sqrt(q)) / sqrt(q),
        G_0(a) = G_2(-a),

    and at s = 0, G_2(a) = (a^2 - 1 + e^{-a^2}) 1{a > 0}.  Where the three
    terms of G_2 cancel by more than a factor H2_CANCEL (at alpha << 0, and
    near the boundary at any a) it is the integral _g2_integral."""
    a = np.asarray(a, dtype=float)
    shape, a = a.shape, a.ravel()
    q = 1.0 + 2.0 * s * s
    if i == 1:
        return (np.exp(-a * a / q) / math.sqrt(q)).reshape(shape)
    if i == 0:
        a = -a
    if s == 0.0:
        return np.where(a > 0.0, _expm1_tail(a * a), 0.0).reshape(shape)
    alpha = a / s
    terms = np.array([(s * s + a * a - 1.0) * ndtr(alpha), a * s * _phi(alpha),
                      np.exp(-a * a / q) * ndtr(alpha / math.sqrt(q)) / math.sqrt(q)])
    out = terms.sum(axis=0)
    cancel = np.abs(terms).sum(axis=0) > H2_CANCEL * np.abs(out)
    if cancel.any():
        out[cancel] = _g2_integral(s, alpha[cancel])
    return out.reshape(shape)


def _g2_integral(s: float, alpha):
    """G_2 at alpha = a / s (an array) as one integral with a positive
    integrand, g(v) = e^{-v} - 1 + v >= 0:

        G_2 = int_0^inf phi(t - alpha) g(s^2 t^2) dt.

    The integrand sits within 10 of t = alpha above 0, or, for alpha < 0,
    below t = alpha + sqrt(alpha^2 + 100), where exp(alpha t - t^2/2) has
    fallen by e^-50."""
    lo = np.maximum(alpha - 10.0, 0.0)
    hi = alpha + np.sqrt(np.minimum(alpha, 0.0) ** 2 + 100.0)
    t, w = _gauss_on(lo[:, None], hi[:, None], H2_NODES)
    return (w * _phi(t - alpha[:, None]) * _expm1_tail(s * s * t * t)).sum(axis=-1)


def _expm1_tail(u):
    """e^{-u} - 1 + u for u >= 0, by its series below 0.5."""
    out = np.expm1(-u) + u
    small = u < 0.5
    term = 0.5 * u[small] ** 2
    acc = term.copy()
    for n in range(3, 22):
        term = term * (-u[small] / n)
        acc += term
    out[small] = acc
    return out


def _spreads(p: CountProblem) -> tuple[float, float]:
    """The sd s of mean(lam) under GOI(c_tot) and GOI(c_cnd): 0 for the
    latter in the boundary regime (w = 0)."""
    return (math.sqrt(0.5 + p.c_total),
            math.sqrt(0.5 + p.c_cond) if p.edge_width else 0.0)


def closed_total(p: CountProblem, i: int) -> float:
    """The index-i total pref G_i(c_tot, 0) for N = 2."""
    return math.exp(p.log_prefactor) * float(_goi2(i, _spreads(p)[0], 0.0))


def closed_pdf(p: CountProblem, i: int, x):
    """h_i(x) = phi(x) G_i(c_cnd, b x) / G_i(c_tot, 0) at the heights x for
    N = 2.  It is 0 where phi(x) underflows: G grows polynomially."""
    x = np.asarray(x, dtype=float)
    s_tot, s_cnd = _spreads(p)
    phi = _phi(x)
    live = phi > 0.0
    num = _goi2(i, s_cnd, p.shift_coeff * np.where(live, x, 0.0))
    return np.where(live, phi * num, 0.0) / float(_goi2(i, s_tot, 0.0))


def closed_cdf(p: CountProblem, i: int, u) -> CritResult:
    """Upper-tail fraction F_i at the heights u (an array) for N = 2.
    Index 1 and the boundary maxima have erfc forms; the other extrema
    integrate their own density, since for minima the complement
    1 - F_2(-u) cancels to rounding in their upper tail."""
    u = np.asarray(u, dtype=float)
    b = p.shift_coeff
    s_tot, s_cnd = _spreads(p)
    if i == 1:
        return CritResult(ndtr(-u * math.sqrt(1.0 + b * b / (1.0 + p.c_cond))),
                          CLOSED_REL_TOL, "closed-form")
    if i == 2 and s_cnd == 0.0:
        # every term underflows to 0 before v = 40; the clip keeps u = inf
        # off inf * 0
        v = np.clip(u, 0.0, 40.0)
        r = math.sqrt(1.0 + 2.0 * b * b)
        val = ((ndtr(-v * r) / r + (b * b - 1.0) * ndtr(-v) + b * b * v * _phi(v))
               / float(_goi2(2, s_tot, 0.0)))
        return CritResult(np.minimum(val, 1.0), CLOSED_REL_TOL, "closed-form")
    # the extrema densities step at 0 over a width s / b that vanishes at
    # the boundary: a steep step gets pieces of its own
    width = s_cnd / b
    splits = [0.0] + ([-EDGE_BAND * width, EDGE_BAND * width]
                      if width < STEEP_WIDTH else [])
    val, err = _upper_tails(lambda t: closed_pdf(p, i, t), u, splits)
    return CritResult(np.minimum(val, 1.0), np.maximum(err, CLOSED_REL_TOL),
                      "closed-form")


# ---------------------------------------------------------------------------
# public operations on either model
# ---------------------------------------------------------------------------


def resolve_method(model, method: str, threshold: bool) -> str:
    """The route `auto` takes for a model: the N = 2 closed forms;
    quadrature for N = 3 totals, two engine calls for all four indices
    (index N - i mirrors index i, see count_above); Monte Carlo beyond,
    and for N = 3 heights and thresholds, where a grid costs quadrature an
    engine call per count and per few densities but Monte Carlo one
    seeded GOE(N) draw, shared by both ensembles (a coupling moves each
    row's height by its trace) and every height, and one pass over it per
    height and quantity, shared by every index.  Any other method passes
    through."""
    if method != "auto":
        return method
    if model.n == 2:
        return "closed-form"
    if model.n > 3 or (model.n == 3 and threshold):
        return "monte-carlo"
    return "quadrature"


def count_route(model, method: str, threshold: bool, inner: str = "auto") -> str:
    """The route that evaluates a count of expected_counts: that of
    resolve_method, and for method "fyodorov" that of its GOE(N+1)
    expectation by inner (fyodorov.goe_method).  So Monte Carlo samples
    exactly where this is "monte-carlo".  model may be a CountProblem too:
    only its N is read."""
    method = resolve_method(model, method, threshold)
    return goe_method(model.n + 1, inner) if method == "fyodorov" else method


def _check_index(model, i: int) -> None:
    if not 0 <= i <= model.n:
        raise ParameterError(f"index must lie in 0..{model.n}, got {i}")


def _check_heights(x) -> None:
    if np.isnan(x).any():
        raise ParameterError("heights and thresholds must not be nan")


def _require_n2(model) -> None:
    if model.n != 2:
        raise MethodError("closed forms are available only for N = 2")


def expected_counts(model, indices, u: float = -math.inf, method: str = "auto",
                    config: NumericConfig | None = None,
                    inner: str = "auto") -> list[CritResult]:
    """Expected numbers per unit volume (area) of critical points of each
    index in indices above the height u (-inf: the totals), in that order.
    method "fyodorov" takes the GOE(N+1) route, itself by the method inner
    (auto, quadrature or monte-carlo; auto as fyodorov.goe_method).  One
    call shares work between its indices: quadrature integrates a total
    once per mirror pair {i, N - i} (see count_above)."""
    if not isinstance(model, IsotropicModel):
        raise ParameterError(f"unsupported model type {type(model).__name__}")
    indices = list(indices)
    for i in indices:
        _check_index(model, i)
    _check_heights(u)
    totals = u == -math.inf
    method = resolve_method(model, method, threshold=not totals)
    p = model.problem()
    if method == "closed-form":
        _require_n2(model)
        if totals:
            return [CritResult(closed_total(p, i), 1e-15, method) for i in indices]
        out = []
        for i in indices:
            tot, frac = closed_total(p, i), closed_cdf(p, i, u)
            out.append(_shaped(u, tot * frac.value, tot * frac.error, method))
        return out
    if method == "fyodorov" and p.c_cond <= 0.0:
        raise RegimeError(
            f"GOE(N+1) route unavailable: {model.gap_name} = "
            f"{model.kappa2 - model.curvature:.12g} must be < 1; use "
            'expected_counts with method "auto" (the general count path)')
    return [_shaped(u, r.value, r.error, method) for r in count_above(
        p, indices, np.array([u], dtype=float), method,
        config or NumericConfig(), inner)]


def height_pdf_result(model, i: int, x, method: str = "auto",
                      config: NumericConfig | None = None,
                      total: CritResult | None = None) -> CritResult:
    """h_i at the heights x with its error.  Value and error are floats for
    a scalar x and arrays of x's shape otherwise.  total, if given, is the
    index-i total of expected_counts with the same method and config, so
    that a caller asking for several quantities computes each total once
    (the closed forms do not read it)."""
    _check_index(model, i)
    _check_heights(x)
    cfg = config or NumericConfig()
    method = resolve_method(model, method, threshold=True)
    if method == "closed-form":
        _require_n2(model)
        return _shaped(x, closed_pdf(model.problem(), i, x), 1e-15, "closed-form")
    return height_pdf_general(model.problem(), i, x, method, cfg, total)


def height_cdf_result(model, i: int, u, method: str = "auto",
                      config: NumericConfig | None = None,
                      total: CritResult | None = None) -> CritResult:
    """Upper-tail fraction F_i at the heights u, the expected share of
    index-i points above u, with its error, shaped and with total as in
    height_pdf_result.  F_i is nonincreasing with F_i(-inf) = 1."""
    _check_index(model, i)
    _check_heights(u)
    cfg = config or NumericConfig()
    method = resolve_method(model, method, threshold=True)
    if method == "closed-form":
        _require_n2(model)
        r = closed_cdf(model.problem(), i, u)
        return _shaped(u, r.value, r.error, "closed-form")
    return height_cdf_general(model.problem(), i, u, method, cfg, total)
