"""Critical-point detection on synthesized fields and replication studies.

Candidates come from sign changes of the gradient components over a regular
grid; a damped batched Newton iteration polishes them, then walkers that
reached the same point are deduplicated.  On the sphere the scan runs in two
rotated lat-long charts that split the sphere between them with a small
overlap: each keeps only the candidates far from its own poles, where its
cells are wide.  Newton steps live in the tangent plane with projection back
to the sphere.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field as dfield

import numpy as np
from scipy.special import kolmogi

from .errors import InsufficientDataError, ParameterError
from ._kacrice import expected_crit_totals, height_cdf
from .fields import (PlanarWaveField, SphericalHarmonicField, SynthesisSpec,
                     _positive, synthesize, tangent_frames, taylor_evaluate)
from .sphere import sphere_area

MAX_NEWTON_ITER = 60
GRAD_TOL_FACTOR = 1e-10
HESS_TOL_FACTOR = 1e-6
# planar Taylor models stay within this factor of the value, gradient and
# Hessian scales: far below GRAD_TOL_FACTOR, near the rounding of the
# float64 sums over the waves
TAYLOR_TOL_FACTOR = 1e-13
# radius in grid steps of a planar Newton walker's model about the node
# its start cell shares, beyond which it is evaluated directly
NEWTON_MODEL_RADIUS = 3.0
# model coefficients gathered per block of planar Newton walkers
MODEL_BLOCK = 2 ** 18
# a walker that does not halve |grad| within this many iterations is stalled
STALL_ITERS = 3
# default dedup radius in grid steps: walkers that converged to one
# critical point agree to Newton precision, far below the distance
# between two distinct ones
DEDUP_FACTOR = 1e-6
# planar studies count points at least this many grid steps inside the
# window, against edge effects
WINDOW_MARGIN = 0.5
# the sphere charts' bands overlap by this many grid steps on either side
# of the angle pi/4 from the poles +-z (_chart_candidates); wider than the
# 3-step reach of a Newton walker, so a point near the seam keeps walkers
CHART_OVERLAP = 4.0

# walker states of the batched Newton iteration
_ACTIVE, _CONVERGED, _LOST, _SINGULAR, _STALLED = range(5)


@dataclass(frozen=True)
class CriticalPoint:
    """One detected critical point.

    location is (x, y) on the plane or a unit 3-vector on the sphere;
    flagged marks a nearly singular Hessian (index unreliable).
    """

    location: np.ndarray
    height: float
    index: int
    hess_eigs: np.ndarray
    flagged: bool


@dataclass(frozen=True)
class DetectionResult:
    """Detected points and the Newton funnel: every candidate walker either
    converged or failed as lost (left its basin), singular (Hessian
    determinant 0) or stalled (stopped making progress)."""

    points: list
    n_candidates: int
    n_converged: int
    n_lost: int
    n_singular: int
    n_stalled: int

    @property
    def n_failed(self) -> int:
        return self.n_lost + self.n_singular + self.n_stalled

    def by_index(self, i: int) -> list:
        return [p for p in self.points if p.index == i]

    def heights(self, i: int | None = None) -> np.ndarray:
        sel = self.points if i is None else self.by_index(i)
        return np.array([p.height for p in sel])


def _default_step(model) -> float:
    return model.eta / 6.0


def _check_step(step: float, model):
    if step > model.eta / 4.0:
        warnings.warn(
            f"grid step {step:.4g} exceeds a quarter correlation scale "
            f"({model.eta / 4.0:.4g}); critical points may be missed",
            stacklevel=3)


def _check_scan(grid_step: float | None, merge_radius: float | None) -> None:
    """Reject a grid step that is not finite and > 0 and a merge radius
    that is not finite and >= 0; None keeps either default."""
    if grid_step is not None:
        _positive("grid step", grid_step)
    if merge_radius is not None and not (math.isfinite(merge_radius)
                                         and merge_radius >= 0.0):
        raise ParameterError(
            f"merge radius must be finite and >= 0, got {merge_radius}")


def _sign_change_cells(sx: np.ndarray, sy: np.ndarray, wrap_cols: bool):
    """Cells where both gradient components change sign among the corners."""

    def changes(s):
        if wrap_cols:
            s = np.concatenate([s, s[:, :1]], axis=1)
        ref = s[:-1, :-1]
        return ((ref != s[1:, :-1]) | (ref != s[:-1, 1:]) | (ref != s[1:, 1:]))

    return np.argwhere(changes(sx) & changes(sy))


def _dedup_radius(merge_radius: float | None, step: float) -> float:
    return merge_radius if merge_radius is not None else DEDUP_FACTOR * step


def _result(points, state) -> DetectionResult:
    return DetectionResult(points=points, n_candidates=len(state),
                           n_converged=int((state == _CONVERGED).sum()),
                           n_lost=int((state == _LOST).sum()),
                           n_singular=int((state == _SINGULAR).sum()),
                           n_stalled=int((state == _STALLED).sum()))


class _PlaneLattice:
    """The grid of a planar detection and the factors it is scanned with.

    The field is translated so that the window's corner lo is the origin,
    with its phases reduced mod 2 pi, so that far windows keep their
    precision.  Nodes are (a h, b h) in those coordinates.  The scan's
    separable factors ex[a], ey[b] (PlanarWaveField.grid_factors) are kept
    for _WalkerModels: their products are the e^{i(<w, t> + p)} at the
    nodes that seed its Taylor models.
    """

    def __init__(self, field: PlanarWaveField, lo, hi, step: float):
        self.lo = np.asarray(lo, dtype=float)
        self.step = step
        self.field = field.translated(self.lo)
        span = np.asarray(hi, dtype=float) - self.lo
        self.xs = np.arange(0.0, span[0] + step * 0.5, step)
        self.ys = np.arange(0.0, span[1] + step * 0.5, step)
        self.ex, self.ey = self.field.grid_factors(self.xs, self.ys)

    def candidates(self) -> np.ndarray:
        """Centers of the grid cells where both gradient components change
        sign, in the caller's coordinates."""
        g = self.field.factor_gradient(self.ex, self.ey)
        cells = _sign_change_cells(np.signbit(g[..., 0]), np.signbit(g[..., 1]),
                                   wrap_cols=False)
        return self.lo + np.stack([self.xs[cells[:, 0]] + self.step / 2.0,
                                   self.ys[cells[:, 1]] + self.step / 2.0], axis=-1)


# the corners of a lattice cell, as offsets from its lower-left node
_CORNERS = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])


class _WalkerModels:
    """The local Taylor models of planar Newton walkers
    (PlanarWaveField.taylor_models).

    Each candidate cell takes the model about the one of its four corners
    that the most candidate cells share, ties going to the first in
    _CORNERS order.  So touching candidate cells share a model wherever
    they can, and each walker starts 0.71 steps from its node, a corner
    of its own start cell.  The order meets TAYLOR_TOL_FACTOR within
    NEWTON_MODEL_RADIUS steps of the node, or, where the order limit does
    not reach that far for fields with long wave vectors, within half of it
    as often as needed.  A walker beyond that radius from its node is
    evaluated directly.
    """

    def __init__(self, lattice: _PlaneLattice, centers: np.ndarray):
        self.lo, self.step, self.field = lattice.lo, lattice.step, lattice.field
        cells = np.floor((centers - self.lo) / self.step).astype(np.int64)
        # node (a, b) as the key a W + b, which sorts as the rows (a, b) do
        width = len(lattice.ys)
        corners = (cells[:, None, :] + _CORNERS) @ np.array([width, 1])
        _, shared, count = np.unique(corners, return_inverse=True,
                                     return_counts=True)
        best = count[shared].reshape(-1, 4).argmax(axis=1)
        keys, self.which = np.unique(corners[np.arange(len(cells)), best],
                                     return_inverse=True)
        self.nodes = np.stack(np.divmod(keys, width), axis=-1)
        m = self.field.model
        tol = TAYLOR_TOL_FACTOR * np.array(
            [1.0, math.sqrt(-2.0 * m.rho1), math.sqrt(12.0 * m.rho2)])
        self.radius = NEWTON_MODEL_RADIUS
        while (order := self.field.taylor_order(self.radius * self.step, tol)) is None:
            self.radius *= 0.5
        self.coef = self.field.taylor_models(lattice.ex, lattice.ey, self.nodes,
                                             self.step, order)

    def evaluate(self, p: np.ndarray, walkers: np.ndarray):
        """Value, gradient and Hessian at the points p (lattice coordinates)
        of the walkers."""
        k = self.which[walkers]
        u = p / self.step - self.nodes[k]
        val, grad, hess = taylor_evaluate(self.coef[k], u, self.step)
        far = np.linalg.norm(u, axis=1) > self.radius
        if far.any():
            val[far], hess[far] = self.field.value_and_hessian(p[far])
            grad[far] = self.field.gradient(p[far])
        return val, grad, hess


def find_critical_points_plane(field: PlanarWaveField, lo, hi,
                               grid_step: float | None = None,
                               merge_radius: float | None = None,
                               max_iter: int = MAX_NEWTON_ITER) -> DetectionResult:
    """All critical points of the field inside the rectangle [lo, hi]."""
    _check_scan(grid_step, merge_radius)
    model = field.model
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != (2,) or hi.shape != (2,) or np.any(hi <= lo):
        raise ParameterError("need lo < hi componentwise on the plane")
    step = grid_step if grid_step is not None else _default_step(model)
    _check_step(step, model)

    lattice = _PlaneLattice(field, lo, hi, step)
    centers = lattice.candidates()
    models = _WalkerModels(lattice, centers)
    del lattice                          # the factor tables' last use
    eps_g = GRAD_TOL_FACTOR * math.sqrt(-2.0 * model.rho1)
    eps_h = HESS_TOL_FACTOR * math.sqrt(12.0 * model.rho2)

    pts, ok, state = _newton_plane(models, centers, step, eps_g, max_iter)
    walkers = np.flatnonzero(ok)
    # clip to the requested rectangle before deduplicating
    walkers = walkers[np.all((pts[walkers] >= lo - 1e-9)
                             & (pts[walkers] <= hi + 1e-9), axis=1)]
    walkers = walkers[_merge_points(pts[walkers], _dedup_radius(merge_radius, step))]
    vals, _, hess = models.evaluate(pts[walkers] - models.lo, walkers)
    # the working memory goes before the long-lived results are built, so
    # that they do not pin it in the heap
    del models
    return _result(_classify_plane(pts[walkers], hess, vals, eps_h), state)


def _stalled(gn, idx, ref, since) -> np.ndarray:
    """The progress rule of both Newton loops: a walker is stalled once
    STALL_ITERS iterations in a row leave its |grad| at or above half of
    ref, its |grad| when it last halved.  Updates ref and since of the
    walkers idx in place; returns the stalled mask over idx."""
    halved = gn < 0.5 * ref[idx]
    ref[idx[halved]] = gn[halved]
    since[idx] = np.where(halved, 0, since[idx] + 1)
    return since[idx] >= STALL_ITERS


def _newton_steps(g, h, step):
    """Newton steps -h^{-1} g capped at one grid step, for the Hessians
    that are not singular, and the mask of those that are."""
    det = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]
    bad = np.abs(det) < 1e-300
    d = np.linalg.solve(h[~bad], -g[~bad][..., None])[..., 0]
    dn = np.linalg.norm(d, axis=1)
    cap = dn > step
    d[cap] *= (step / dn[cap])[:, None]
    return d, bad


def _newton(centers, step, eps_g, max_iter, local, dist, block):
    """Damped batched Newton from every candidate, on the plane or sphere.

    local(p, idx) returns, at the points p of the walkers idx, the gradient
    (k, 2) in an orthonormal tangent frame, a function that gives the
    Hessian (j, 2, 2) in that frame for the walkers a mask keeps, and a
    function that moves those walkers by frame steps (j, 2).  dist(p, q) is
    the distance between points.  Each iteration takes the active walkers
    in blocks of at most `block`, and caps each step at one grid step.
    Each walker ends converged (|grad| < eps_g), lost (more than 3 steps
    from its start), singular, or stalled (the progress rule, or still
    running after max_iter iterations).  Returns the points, the converged
    mask and the walker states.
    """
    pts = centers.copy()
    state = np.full(len(pts), _ACTIVE, dtype=np.int8)
    ref = np.full(len(pts), np.inf)
    since = np.zeros(len(pts), dtype=np.int64)
    for _ in range(max_iter):
        active = np.flatnonzero(state == _ACTIVE)
        if active.size == 0:
            break
        for start in range(0, active.size, block):
            idx = active[start:start + block]
            g, hessian, move = local(pts[idx], idx)
            gn = np.linalg.norm(g, axis=1)
            hit = gn < eps_g
            stalled = _stalled(gn, idx, ref, since) & ~hit
            state[idx[hit]] = _CONVERGED
            state[idx[stalled]] = _STALLED
            go = ~(hit | stalled)
            d, bad = _newton_steps(g[go], hessian(go), step)
            state[idx[go][bad]] = _SINGULAR
            go[go] = ~bad
            moved = idx[go]
            pts[moved] = move(go, d)
            state[moved[dist(pts[moved], centers[moved]) > 3.0 * step]] = _LOST
            # free the closures' batch arrays before the next block's
            del hessian, move
    state[state == _ACTIVE] = _STALLED
    return pts, state == _CONVERGED, state


def _newton_plane(models, centers, step, eps_g, max_iter):
    """Planar Newton on the walkers' local Taylor models (_WalkerModels):
    models are those of the centers, built from the lattice whose cell
    centers they are."""
    if len(centers) == 0:
        state = np.zeros(0, dtype=np.int8)
        return centers.copy(), state == _CONVERGED, state

    def local(p, idx):
        _, g, h = models.evaluate(p, idx)
        return g, lambda keep: h[keep], lambda keep, d: p[keep] + d

    # walkers are independent, so blocks keep their gathered models small
    pts, ok, state = _newton(centers - models.lo, step, eps_g, max_iter, local,
                             lambda p, q: np.abs(p - q).max(axis=1),
                             max(MODEL_BLOCK // models.coef[0].size, 1))
    # each converged walker takes one more step, free on its model, which
    # takes its gradient from below eps_g to rounding: the point then stays
    # critical under other evaluations of the field too, such as direct
    # sums far from the origin, whose phases round at 1e-11
    done = np.flatnonzero(ok)
    g, hessian, move = local(pts[done], done)
    d, bad = _newton_steps(g, hessian(slice(None)), step)
    pts[done[~bad]] = move(~bad, d)
    return pts + models.lo, ok, state


def _classify(pts, hess, vals, eps_h) -> list:
    eigs = np.linalg.eigvalsh(hess)
    index = (eigs < 0.0).sum(axis=1).tolist()
    flagged = (np.abs(eigs).min(axis=1) < eps_h).tolist()
    return [CriticalPoint(location=loc.copy(), height=h, index=i,
                          hess_eigs=lam.copy(), flagged=f)
            for loc, h, i, lam, f in zip(pts, vals.tolist(), index, eigs, flagged)]


# the plane classifies the values and Hessians its walkers' models give
_classify_plane = _classify


def _merge_points(pts: np.ndarray, radius: float) -> np.ndarray:
    """Deduplicate: the indices of the points that stay, each cluster
    chained within radius keeping its lowest-index member, in index order."""
    if len(pts) == 0:
        return np.zeros(0, dtype=np.int64)
    # imported here so that importing critfield does not load csgraph or
    # scipy.spatial
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree
    pairs = cKDTree(pts).query_pairs(radius, output_type="ndarray")
    graph = coo_array((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                      shape=(len(pts), len(pts)))
    _, labels = connected_components(graph, directed=False)
    _, first = np.unique(labels, return_index=True)
    return np.sort(first)


# ---------------------------------------------------------------------------
# sphere
# ---------------------------------------------------------------------------

# the second chart maps its lat-long point p to the sphere point R p
_CHART_TILT = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def _chart_candidates(field: SphericalHarmonicField, step: float) -> np.ndarray:
    """Cell centers (unit vectors) where both frame components of the
    gradient change sign, collected over two rotated lat-long charts.

    The untilted chart keeps the cells at least pi/4 - margin from its poles
    +-z, the tilted one those within pi/4 + margin of +-z (so at least
    pi/4 - margin from its own poles +-x), with margin CHART_OVERLAP grid
    steps; once margin reaches pi/4 both keep every cell.  Each chart thus
    works only where its cells are wide, and scans only the latitude rows
    that can hold a kept cell.

    The tilted chart scans the harmonic p -> f(R p), whose coefficients
    come from an exact projection, so both charts are separable scans."""
    n_th = max(int(math.ceil(math.pi / step)), 8)
    n_ph = max(int(math.ceil(2.0 * math.pi / step)), 16)
    th = np.linspace(0.0, math.pi, n_th + 1)[1:-1]
    ph = np.linspace(0.0, 2.0 * math.pi, n_ph, endpoint=False)
    tc = 0.5 * (th[:-1] + th[1:])
    pc = ph + math.pi / n_ph
    margin = CHART_OVERLAP * step
    # cell rows of the bands, one row wider against rounding at the edges
    rows = np.flatnonzero(np.minimum(tc, math.pi - tc)
                          >= math.pi / 4.0 - margin - step)
    lo, hi = rows[0], rows[-1] + 2

    centers = []
    for chart, rot in ((field, None), (field.rotated(_CHART_TILT), _CHART_TILT)):
        c1, c2 = chart.chart_gradient(th[lo:hi], ph)
        cells = _sign_change_cells(np.signbit(c1), np.signbit(c2),
                                   wrap_cols=True)
        t, p = tc[lo + cells[:, 0]], pc[cells[:, 1]]
        c = np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p),
                      np.cos(t)], axis=-1)
        if rot is not None:
            c = c @ rot.T
        # angle from the nearer of the poles +-z
        polar = np.arccos(np.minimum(np.abs(c[:, 2]), 1.0))
        centers.append(c[polar >= math.pi / 4.0 - margin] if rot is None
                       else c[polar <= math.pi / 4.0 + margin])
    return np.concatenate(centers, axis=0)


def find_critical_points_sphere(field: SphericalHarmonicField,
                                grid_step: float | None = None,
                                merge_radius: float | None = None,
                                max_iter: int = MAX_NEWTON_ITER) -> DetectionResult:
    """All critical points on the whole sphere; merge radius is angular."""
    _check_scan(grid_step, merge_radius)
    model = field.model
    step = grid_step if grid_step is not None else _default_step(model)
    _check_step(step, model)
    merge = _dedup_radius(merge_radius, step)

    centers = _chart_candidates(field, step)
    eps_g = GRAD_TOL_FACTOR * math.sqrt(model.c1)
    eps_h = HESS_TOL_FACTOR * math.sqrt(3.0 * model.c2 + model.c1)

    pts, ok, state = _newton_sphere(field, centers, step, eps_g, max_iter)
    # chordal dedup radius matching the angular one for small angles
    pts = pts[ok]
    pts = pts[_merge_points(pts, 2.0 * math.sin(min(merge, math.pi) / 2.0))]
    return _result(_classify_sphere(field, pts, eps_h), state)


def _newton_sphere(field, centers, step, eps_g, max_iter):
    def local(p, idx):
        amb = field.ambient(p)
        g = amb[1]
        fr = tangent_frames(p)

        def hessian(keep):
            return field.covariant_hessian(p[keep], fr[keep],
                                           tuple(a[keep] for a in amb))

        def move(keep, d):
            q = p[keep] + np.einsum("ka,kai->ki", d, fr[keep])
            return q / np.linalg.norm(q, axis=1, keepdims=True)

        # frame components of the tangent gradient g - (g.p) p
        return np.einsum("kai,ki->ka", fr, g), hessian, move

    def angle(p, q):
        return np.arccos(np.clip((p * q).sum(axis=1), -1.0, 1.0))

    return _newton(centers, step, eps_g, max_iter, local, angle,
                   max(len(centers), 1))


def _classify_sphere(field, pts, eps_h):
    if len(pts) == 0:
        return []
    amb = field.ambient(pts)
    return _classify(pts, field.covariant_hessian(pts, tangent_frames(pts), amb),
                     amb[0], eps_h)


def find_critical_points(field, domain=None, grid_step: float | None = None,
                         merge_radius: float | None = None) -> DetectionResult:
    """Dispatch on field type; domain=(lo, hi) required on the plane."""
    if isinstance(field, SphericalHarmonicField):
        return find_critical_points_sphere(field, grid_step, merge_radius)
    if isinstance(field, PlanarWaveField):
        if domain is None:
            raise ParameterError("planar detection needs domain=(lo, hi)")
        lo, hi = domain
        return find_critical_points_plane(field, lo, hi, grid_step, merge_radius)
    raise ParameterError(f"unsupported field type {type(field).__name__}")


# ---------------------------------------------------------------------------
# empirical distributions and replication studies
# ---------------------------------------------------------------------------

MIN_HEIGHT_POINTS = 50


@dataclass(frozen=True)
class HeightSample:
    """Sorted heights with the upper-tail empirical distribution."""

    heights: np.ndarray

    @property
    def n(self) -> int:
        return len(self.heights)

    def upper_ecdf(self, u):
        pos = np.searchsorted(self.heights, np.asarray(u, dtype=float),
                              side="right")
        out = (self.n - pos) / self.n
        return float(out) if np.isscalar(u) else out

    def ks_distance(self, reference_cdf) -> float:
        """sup_u |ecdf - F| against an upper-tail reference F."""
        f = np.asarray(reference_cdf(self.heights), dtype=float)
        j = np.arange(1, self.n + 1)
        hi_side = np.abs(f - (self.n - j) / self.n)
        lo_side = np.abs(f - (self.n - j + 1) / self.n)
        return float(np.maximum(hi_side, lo_side).max())


def empirical_height_distribution(heights,
                                  min_points: int = MIN_HEIGHT_POINTS) -> HeightSample:
    h = np.sort(np.asarray(heights, dtype=float).ravel())
    if len(h) < min_points:
        raise InsufficientDataError(
            f"need at least {min_points} heights, got {len(h)}")
    return HeightSample(heights=h)


def ks_critical(n: int, alpha: float = 0.01) -> float:
    """Asymptotic level-alpha KS critical value for a sample of size n."""
    return float(kolmogi(alpha)) / math.sqrt(n)


@dataclass
class SimReport:
    """Replication summary: per-index intensities, pooled heights, checks."""

    space: str
    n_reps: int
    area: float
    counts: np.ndarray                      # (n_reps, 3)
    intensity_mean: np.ndarray              # (3,)
    intensity_se: np.ndarray                # (3,)
    theory_intensity: np.ndarray            # (3,)
    pooled_heights: dict
    ks: dict
    diagnostics: dict
    model: object
    raw: list = dfield(default_factory=list)  # per-rep lists of CriticalPoint

    def summary_lines(self) -> list:
        lines = [f"{self.space}: {self.n_reps} replications, "
                 f"area {self.area:.6g}"]
        for i in range(3):
            lines.append(
                f"  index {i}: intensity {self.intensity_mean[i]:.6g} "
                f"+/- {self.intensity_se[i]:.2g} "
                f"(theory {self.theory_intensity[i]:.6g})")
        for i, d in sorted(self.ks.items()):
            n = self.pooled_heights[i].n
            lines.append(f"  index {i}: KS {d:.4g} over {n} heights "
                         f"(crit 1% if iid {ks_critical(n):.4g})")
        for k, v in sorted(self.diagnostics.items()):
            lines.append(f"  {k}: {v}")
        return lines


def simulation_study(spec: SynthesisSpec, side: float | None = None,
                     n_reps: int = 50, seed: int | None = None,
                     grid_step: float | None = None,
                     merge_radius: float | None = None,
                     ks_indices=(0, 1, 2), keep_raw: bool = False) -> SimReport:
    """Replicate synthesize -> detect -> count and compare with theory.

    Planar studies count only points at least WINDOW_MARGIN grid steps
    inside the [0, side]^2 window, with the area reduced to match; sphere
    studies use the whole sphere.  KS distances compare pooled heights per index with
    the model's height distribution wherever at least MIN_HEIGHT_POINTS
    heights accumulated.
    """
    if n_reps < 2:
        raise ParameterError("n_reps must be >= 2")
    on_sphere = spec.kind == "spherical-harmonic"
    if not on_sphere:
        if side is None:
            raise ParameterError("planar studies need a domain side")
        _positive("side", side)
    _check_scan(grid_step, merge_radius)
    if seed is not None and seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    streams = np.random.SeedSequence(seed).spawn(n_reps)

    counts = np.zeros((n_reps, 3))
    heights: dict[int, list] = {0: [], 1: [], 2: []}
    n_lost = n_singular = n_stalled = n_flagged = 0
    euler_bad = 0
    raw: list = []
    model = None
    area = 0.0

    for r in range(n_reps):
        fld = synthesize(spec, np.random.default_rng(streams[r]))
        model = fld.model
        if on_sphere:
            res = find_critical_points_sphere(fld, grid_step, merge_radius)
            pts = res.points
            area = sphere_area(2)
        else:
            step = grid_step if grid_step is not None else _default_step(model)
            margin = WINDOW_MARGIN * step
            res = find_critical_points_plane(
                fld, (0.0, 0.0), (side, side), grid_step, merge_radius)
            lo_in, hi_in = margin, side - margin
            pts = [p for p in res.points
                   if lo_in < p.location[0] < hi_in
                   and lo_in < p.location[1] < hi_in]
            area = (side - 2.0 * margin) ** 2
        n_lost += res.n_lost
        n_singular += res.n_singular
        n_stalled += res.n_stalled
        n_flagged += sum(p.flagged for p in pts)
        for p in pts:
            counts[r, p.index] += 1
            heights[p.index].append(p.height)
        if on_sphere:
            chi = counts[r, 0] - counts[r, 1] + counts[r, 2]
            if chi != 2:
                euler_bad += 1
        if keep_raw:
            raw.append(pts)

    inten = counts / area
    mean = inten.mean(axis=0)
    se = inten.std(axis=0, ddof=1) / math.sqrt(n_reps)

    theory = np.array([r.value for r in expected_crit_totals(model, range(3))])

    pooled = {}
    ks = {}
    for i in range(3):
        if len(heights[i]) >= MIN_HEIGHT_POINTS:
            samp = empirical_height_distribution(heights[i])
            pooled[i] = samp
            if i in ks_indices:
                ks[i] = samp.ks_distance(lambda u: height_cdf(model, i, u))

    diagnostics = {"newton_lost": n_lost, "newton_singular": n_singular,
                   "newton_stalled": n_stalled, "flagged_points": n_flagged}
    if on_sphere:
        diagnostics["euler_mismatches"] = euler_bad

    return SimReport(space="sphere" if on_sphere else "euclidean",
                     n_reps=n_reps, area=area, counts=counts,
                     intensity_mean=mean, intensity_se=se,
                     theory_intensity=theory, pooled_heights=pooled, ks=ks,
                     diagnostics=diagnostics, model=model, raw=raw)


def write_points_csv(path, raw_points) -> None:
    """Raw detections, one row per point.

    Planar columns: replicate,x,y,height,index,lambda1,lambda2
    Sphere adds z after y.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        on_sphere = any(len(p.location) == 3
                        for reps in raw_points for p in reps)
        if on_sphere:
            w.writerow(["replicate", "x", "y", "z", "height", "index",
                        "lambda1", "lambda2"])
        else:
            w.writerow(["replicate", "x", "y", "height", "index",
                        "lambda1", "lambda2"])
        for r, reps in enumerate(raw_points):
            for p in reps:
                loc = [f"{v:.12g}" for v in p.location]
                w.writerow([r, *loc, f"{p.height:.12g}", p.index,
                            f"{p.hess_eigs[0]:.12g}", f"{p.hess_eigs[1]:.12g}"])
