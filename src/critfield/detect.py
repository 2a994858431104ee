"""Critical-point detection on synthesized fields and replication studies.

Candidates come from sign changes of the gradient components over a regular
grid; a damped batched Newton iteration polishes them, then nearby solutions
merge.  On the sphere the scan runs in two rotated charts so every point is
far from some chart's poles, and Newton steps live in the tangent plane with
projection back to the sphere.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field as dfield

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import kolmogi

from .errors import InsufficientDataError, ParameterError
from .euclidean import expected_crit_total, height_cdf
from .fields import (PlanarWaveField, SphericalHarmonicField, SynthesisSpec,
                     synthesize, tangent_frames)
from .sphere import expected_crit_total_sphere, height_cdf_sphere, sphere_area

MAX_NEWTON_ITER = 60
GRAD_TOL_FACTOR = 1e-10
HESS_TOL_FACTOR = 1e-6
EVAL_CHUNK = 20000


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
    points: list
    n_candidates: int
    n_converged: int
    n_failed: int

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


def _sign_change_cells(sx: np.ndarray, sy: np.ndarray, wrap_cols: bool):
    """Cells where both gradient components change sign among the corners."""

    def changes(s):
        if wrap_cols:
            s = np.concatenate([s, s[:, :1]], axis=1)
        ref = s[:-1, :-1]
        return ((ref != s[1:, :-1]) | (ref != s[:-1, 1:]) | (ref != s[1:, 1:]))

    return np.argwhere(changes(sx) & changes(sy))


def find_critical_points_plane(field: PlanarWaveField, lo, hi,
                               grid_step: float | None = None,
                               merge_radius: float | None = None,
                               max_iter: int = MAX_NEWTON_ITER) -> DetectionResult:
    """All critical points of the field inside the rectangle [lo, hi]."""
    model = field.model
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != (2,) or hi.shape != (2,) or np.any(hi <= lo):
        raise ParameterError("need lo < hi componentwise on the plane")
    step = grid_step if grid_step is not None else _default_step(model)
    _check_step(step, model)
    merge = merge_radius if merge_radius is not None else step / 2.0

    xs = np.arange(lo[0], hi[0] + step * 0.5, step)
    ys = np.arange(lo[1], hi[1] + step * 0.5, step)
    g = field.grid_gradient(xs, ys)
    cells = _sign_change_cells(np.signbit(g[..., 0]), np.signbit(g[..., 1]),
                               wrap_cols=False)
    centers = np.stack([xs[cells[:, 0]] + step / 2.0,
                        ys[cells[:, 1]] + step / 2.0], axis=-1)

    eps_g = GRAD_TOL_FACTOR * math.sqrt(-2.0 * model.rho1)
    eps_h = HESS_TOL_FACTOR * math.sqrt(12.0 * model.rho2)

    pts, ok = _newton_plane(field, centers, step, eps_g, max_iter)
    pts = pts[ok]
    # clip to the requested rectangle before merging
    inside = np.all((pts >= lo - 1e-9) & (pts <= hi + 1e-9), axis=1)
    pts = pts[inside]
    merged = _merge_points(pts, merge)
    points = _classify_plane(field, merged, eps_h)
    return DetectionResult(points=points, n_candidates=len(centers),
                           n_converged=int(ok.sum()),
                           n_failed=int(len(centers) - ok.sum()))


def _newton_plane(field, centers, step, eps_g, max_iter):
    pts = centers.copy()
    start = centers
    active = np.ones(len(pts), dtype=bool)
    converged = np.zeros(len(pts), dtype=bool)
    for _ in range(max_iter):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        g = field.gradient(pts[idx])
        gn = np.linalg.norm(g, axis=1)
        hit = gn < eps_g
        converged[idx[hit]] = True
        active[idx[hit]] = False
        idx = idx[~hit]
        if idx.size == 0:
            break
        g = g[~hit]
        h = field.hessian(pts[idx])
        det = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]
        bad = np.abs(det) < 1e-300
        active[idx[bad]] = False
        idx = idx[~bad]
        if idx.size == 0:
            continue
        d = np.linalg.solve(h[~bad], -g[~bad][..., None])[..., 0]
        dn = np.linalg.norm(d, axis=1)
        cap = dn > step
        d[cap] *= (step / dn[cap])[:, None]
        pts[idx] += d
        # declare lost the walkers that left their basin
        lost = np.abs(pts[idx] - start[idx]).max(axis=1) > 3.0 * step
        active[idx[lost]] = False
    return pts, converged


def _classify_plane(field, pts, eps_h):
    if len(pts) == 0:
        return []
    h = field.hessian(pts)
    eigs = np.linalg.eigvalsh(h)
    vals = field.value(pts)
    out = []
    for k in range(len(pts)):
        lam = eigs[k]
        out.append(CriticalPoint(
            location=pts[k].copy(),
            height=float(vals[k]),
            index=int((lam < 0.0).sum()),
            hess_eigs=lam.copy(),
            flagged=bool(np.abs(lam).min() < eps_h),
        ))
    return out


def _merge_points(pts: np.ndarray, radius: float) -> np.ndarray:
    """Collapse clusters chained within radius to their mean point."""
    if len(pts) == 0:
        return pts
    pairs = cKDTree(pts).query_pairs(radius, output_type="ndarray")
    parent = np.arange(len(pts))

    def root(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        ra, rb = root(a), root(b)
        if ra != rb:
            parent[rb] = ra
    roots = np.array([root(k) for k in range(len(pts))])
    out = []
    for r in np.unique(roots):
        out.append(pts[roots == r].mean(axis=0))
    return np.array(out)


# ---------------------------------------------------------------------------
# sphere
# ---------------------------------------------------------------------------

_CHART_ROTATIONS = (
    np.eye(3),
    np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
)


def _chart_candidates(field: SphericalHarmonicField, step: float) -> np.ndarray:
    """Cell centers (unit vectors) where both frame components of the
    gradient change sign, collected over two rotated lat-long charts."""
    n_th = max(int(math.ceil(math.pi / step)), 8)
    n_ph = max(int(math.ceil(2.0 * math.pi / step)), 16)
    th = np.linspace(0.0, math.pi, n_th + 1)[1:-1]
    ph = np.linspace(0.0, 2.0 * math.pi, n_ph, endpoint=False)
    tg, pg = np.meshgrid(th, ph, indexing="ij")
    st, ct = np.sin(tg), np.cos(tg)
    sp, cp = np.sin(pg), np.cos(pg)
    p_std = np.stack([st * cp, st * sp, ct], axis=-1)
    e_th = np.stack([ct * cp, ct * sp, -st], axis=-1)
    e_ph = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)

    centers = []
    tc = 0.5 * (th[:-1] + th[1:])
    pc = ph + math.pi / n_ph
    tcg, pcg = np.meshgrid(tc, pc, indexing="ij")
    stc, ctc = np.sin(tcg), np.cos(tcg)
    spc, cpc = np.sin(pcg), np.cos(pcg)
    c_std = np.stack([stc * cpc, stc * spc, ctc], axis=-1)

    for rot in _CHART_ROTATIONS:
        pts = p_std.reshape(-1, 3) @ rot.T
        grads = np.empty_like(pts)
        for s in range(0, len(pts), EVAL_CHUNK):
            grads[s:s + EVAL_CHUNK] = field.tangent_gradient(pts[s:s + EVAL_CHUNK])
        grads = grads.reshape(p_std.shape)
        c1 = (grads * (e_th @ rot.T)).sum(axis=-1)
        c2 = (grads * (e_ph @ rot.T)).sum(axis=-1)
        cells = _sign_change_cells(np.signbit(c1), np.signbit(c2),
                                   wrap_cols=True)
        if len(cells):
            centers.append(c_std[cells[:, 0], cells[:, 1]] @ rot.T)
    if not centers:
        return np.empty((0, 3))
    return np.concatenate(centers, axis=0)


def find_critical_points_sphere(field: SphericalHarmonicField,
                                grid_step: float | None = None,
                                merge_radius: float | None = None,
                                max_iter: int = MAX_NEWTON_ITER) -> DetectionResult:
    """All critical points on the whole sphere; merge radius is angular."""
    model = field.model
    step = grid_step if grid_step is not None else _default_step(model)
    _check_step(step, model)
    merge = merge_radius if merge_radius is not None else step / 2.0

    centers = _chart_candidates(field, step)
    eps_g = GRAD_TOL_FACTOR * math.sqrt(model.c1)
    eps_h = HESS_TOL_FACTOR * math.sqrt(3.0 * model.c2 + model.c1)

    pts, ok = _newton_sphere(field, centers, step, eps_g, max_iter)
    pts = pts[ok]
    # chordal merge radius matching the angular one for small angles
    merged = _merge_points(pts, 2.0 * math.sin(min(merge, math.pi) / 2.0))
    if len(merged):
        merged /= np.linalg.norm(merged, axis=1, keepdims=True)
    points = _classify_sphere(field, merged, eps_h)
    return DetectionResult(points=points, n_candidates=len(centers),
                           n_converged=int(ok.sum()),
                           n_failed=int(len(centers) - ok.sum()))


def _newton_sphere(field, centers, step, eps_g, max_iter):
    pts = centers.copy()
    start = centers
    active = np.ones(len(pts), dtype=bool)
    converged = np.zeros(len(pts), dtype=bool)
    for _ in range(max_iter):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        p = pts[idx]
        _, g, h = field.ambient(p)
        radial = (g * p).sum(axis=-1)
        gt = g - radial[:, None] * p
        gn = np.linalg.norm(gt, axis=1)
        hit = gn < eps_g
        converged[idx[hit]] = True
        active[idx[hit]] = False
        live = ~hit
        idx = idx[live]
        if idx.size == 0:
            break
        p, g, h, radial, gt = p[live], g[live], h[live], radial[live], gt[live]
        fr = tangent_frames(p)
        h2 = np.einsum("kai,kij,kbj->kab", fr, h, fr)
        h2[:, 0, 0] -= radial
        h2[:, 1, 1] -= radial
        g2 = np.einsum("kai,ki->ka", fr, gt)
        det = h2[:, 0, 0] * h2[:, 1, 1] - h2[:, 0, 1] * h2[:, 1, 0]
        bad = np.abs(det) < 1e-300
        active[idx[bad]] = False
        sel = ~bad
        idx = idx[sel]
        if idx.size == 0:
            continue
        d = np.linalg.solve(h2[sel], -g2[sel][..., None])[..., 0]
        dn = np.linalg.norm(d, axis=1)
        cap = dn > step
        d[cap] *= (step / dn[cap])[:, None]
        moved = pts[idx] + np.einsum("ka,kai->ki", d, fr[sel])
        moved /= np.linalg.norm(moved, axis=1, keepdims=True)
        pts[idx] = moved
        cosang = np.clip((pts[idx] * start[idx]).sum(axis=1), -1.0, 1.0)
        lost = np.arccos(cosang) > 3.0 * step
        active[idx[lost]] = False
    return pts, converged


def _classify_sphere(field, pts, eps_h):
    if len(pts) == 0:
        return []
    fr = tangent_frames(pts)
    h2 = field.covariant_hessian(pts, fr)
    eigs = np.linalg.eigvalsh(h2)
    vals = field.value(pts)
    out = []
    for k in range(len(pts)):
        lam = eigs[k]
        out.append(CriticalPoint(
            location=pts[k].copy(),
            height=float(vals[k]),
            index=int((lam < 0.0).sum()),
            hess_eigs=lam.copy(),
            flagged=bool(np.abs(lam).min() < eps_h),
        ))
    return out


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
                         f"(crit 1% {ks_critical(n):.4g})")
        for k, v in sorted(self.diagnostics.items()):
            lines.append(f"  {k}: {v}")
        return lines


def simulation_study(spec: SynthesisSpec, side: float | None = None,
                     n_reps: int = 50, seed: int | None = None,
                     grid_step: float | None = None,
                     merge_radius: float | None = None,
                     ks_indices=(0, 1, 2), keep_raw: bool = False) -> SimReport:
    """Replicate synthesize -> detect -> count and compare with theory.

    Planar studies count only points at least one merge radius inside the
    [0, side]^2 window, with the area reduced to match; sphere studies use
    the whole sphere.  KS distances compare pooled heights per index with
    the model's height distribution wherever at least MIN_HEIGHT_POINTS
    heights accumulated.
    """
    if n_reps < 2:
        raise ParameterError("n_reps must be >= 2")
    on_sphere = spec.kind == "spherical-harmonic"
    if not on_sphere and (side is None or side <= 0):
        raise ParameterError("planar studies need a positive domain side")
    streams = np.random.SeedSequence(seed).spawn(n_reps)

    counts = np.zeros((n_reps, 3))
    heights: dict[int, list] = {0: [], 1: [], 2: []}
    n_failed = n_flagged = 0
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
            margin = merge_radius if merge_radius is not None else step / 2.0
            res = find_critical_points_plane(
                fld, (0.0, 0.0), (side, side), grid_step, merge_radius)
            lo_in, hi_in = margin, side - margin
            pts = [p for p in res.points
                   if lo_in < p.location[0] < hi_in
                   and lo_in < p.location[1] < hi_in]
            area = (side - 2.0 * margin) ** 2
        n_failed += res.n_failed
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

    if on_sphere:
        theory = np.array([expected_crit_total_sphere(model, i).value
                           for i in range(3)])

        def ref(i):
            return lambda u: height_cdf_sphere(model, i, u)
    else:
        theory = np.array([expected_crit_total(model, i).value
                           for i in range(3)])

        def ref(i):
            return lambda u: height_cdf(model, i, u)

    pooled = {}
    ks = {}
    for i in range(3):
        if len(heights[i]) >= MIN_HEIGHT_POINTS:
            samp = empirical_height_distribution(heights[i])
            pooled[i] = samp
            if i in ks_indices:
                ks[i] = samp.ks_distance(ref(i))

    diagnostics = {"newton_failures": n_failed, "flagged_points": n_flagged}
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
