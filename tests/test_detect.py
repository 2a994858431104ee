"""Critical-point detection on known fields, ECDF helpers, replication study."""
import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.special import kolmogi

from critfield.detect import (_CHART_TILT, CHART_OVERLAP, DEDUP_FACTOR,
                              GRAD_TOL_FACTOR, HESS_TOL_FACTOR,
                              MAX_NEWTON_ITER, NEWTON_MODEL_RADIUS,
                              HeightSample, _PlaneLattice, _WalkerModels,
                              _chart_candidates, _classify_sphere,
                              _merge_points, _newton, _newton_plane,
                              _newton_sphere,
                              _sign_change_cells, empirical_height_distribution,
                              find_critical_points,
                              find_critical_points_plane,
                              find_critical_points_sphere, ks_critical,
                              simulation_study, write_points_csv)
from critfield.errors import InsufficientDataError, ParameterError
from critfield.euclidean import model_from_rho
from critfield.fields import (TAYLOR_NODE_BLOCK, PlanarWaveField,
                              SphericalHarmonicField, SynthesisSpec,
                              _ring_radius, synthesize, tangent_frames,
                              taylor_evaluate)
from critfield.sphere import model_from_legendre

PI = math.pi


def checkerboard_field() -> PlanarWaveField:
    # X(x, y) = cos(x+y) + cos(x-y) = 2 cos(x) cos(y): every critical point
    # sits on a lattice with known height and index
    omegas = np.array([[1.0, 1.0], [1.0, -1.0]])
    phases = np.zeros(2)
    return PlanarWaveField(omegas, phases, model_from_rho(2, -0.5, 0.125))


def test_plane_detection_exact_lattice():
    f = checkerboard_field()
    lo = (0.05, 0.05)
    hi = (2 * PI + 0.05, 2 * PI + 0.05)
    res = find_critical_points_plane(f, lo, hi)
    assert res.n_failed == 0
    assert len(res.points) == 8
    assert len(res.by_index(0)) == 2    # minima at cos x cos y = -1
    assert len(res.by_index(1)) == 4    # saddles at height 0
    assert len(res.by_index(2)) == 2    # maxima at cos x cos y = +1

    expected = {0: -2.0, 1: 0.0, 2: 2.0}
    for p in res.points:
        assert not p.flagged
        assert p.height == pytest.approx(expected[p.index], abs=1e-10)
        # every location is a lattice point of sin/cos zeros
        mx = p.location[0] / (PI / 2)
        my = p.location[1] / (PI / 2)
        assert mx == pytest.approx(round(mx), abs=1e-8)
        assert my == pytest.approx(round(my), abs=1e-8)
    # Hessian at extrema is -height * I
    for p in res.by_index(2):
        assert np.allclose(p.hess_eigs, [-2.0, -2.0], atol=1e-9)
    for p in res.by_index(1):
        assert np.allclose(np.sort(p.hess_eigs), [-2.0, 2.0], atol=1e-9)


def test_plane_detection_counts_scale_with_area():
    f = checkerboard_field()
    res = find_critical_points_plane(f, (0.05, 0.05),
                                     (4 * PI + 0.05, 4 * PI + 0.05))
    # doubling each side quadruples every population
    assert len(res.by_index(0)) == 8
    assert len(res.by_index(1)) == 16
    assert len(res.by_index(2)) == 8
    assert res.heights(2).min() == pytest.approx(2.0, abs=1e-10)


def test_plane_coarse_grid_warns():
    f = checkerboard_field()
    with pytest.warns(UserWarning, match="correlation scale"):
        find_critical_points_plane(f, (0.05, 0.05), (6.0, 6.0),
                                   grid_step=f.model.eta)


def test_sphere_detection_degree2():
    # degree-2 harmonics are traceless quadratic forms: exactly 6 critical
    # points (antipodal eigenvector pairs), heights sum to zero
    f = synthesize(SynthesisSpec.spherical_harmonic(2), rng=77)
    res = find_critical_points_sphere(f)
    assert len(res.points) == 6
    assert [len(res.by_index(i)) for i in range(3)] == [2, 2, 2]
    assert res.heights().sum() == pytest.approx(0.0, abs=1e-9)
    locs = np.array([p.location for p in res.points])
    hts = np.array([p.height for p in res.points])
    assert np.allclose(np.linalg.norm(locs, axis=1), 1.0, atol=1e-9)
    for k in range(6):
        d = np.linalg.norm(locs + locs[k], axis=1)    # distance to antipode
        j = int(d.argmin())
        assert d[j] < 1e-7
        assert hts[j] == pytest.approx(hts[k], abs=1e-9)


@pytest.mark.parametrize("degree,seed", [(3, 5), (8, 6)])
def test_sphere_detection_morse_sum(degree, seed):
    f = synthesize(SynthesisSpec.spherical_harmonic(degree), rng=seed)
    res = find_critical_points_sphere(f)
    # each chart keeps only the candidates far from its own poles, so the
    # Morse sum checks that the two bands together miss no point
    chi = (len(res.by_index(0)) - len(res.by_index(1)) + len(res.by_index(2)))
    assert chi == 2
    assert not any(p.flagged for p in res.points)
    assert np.all(np.isfinite(res.heights()))


def test_dispatch():
    planar = checkerboard_field()
    res = find_critical_points(planar, domain=((0.05, 0.05), (6.0, 6.0)))
    assert len(res.points) > 0
    with pytest.raises(ParameterError):
        find_critical_points(planar)            # no domain given
    with pytest.raises(ParameterError):
        find_critical_points(np.zeros(3))
    with pytest.raises(ParameterError):
        find_critical_points_plane(planar, (0.0, 0.0), (0.0, 5.0))


def test_upper_ecdf():
    s = HeightSample(heights=np.array([1.0, 2.0, 3.0, 4.0]))
    assert s.n == 4
    assert s.upper_ecdf(0.0) == 1.0
    assert s.upper_ecdf(1.0) == 0.75
    assert s.upper_ecdf(2.5) == 0.5
    assert s.upper_ecdf(3.9) == 0.25
    assert s.upper_ecdf(4.0) == 0.0
    out = s.upper_ecdf(np.array([0.0, 2.5, 9.0]))
    assert np.allclose(out, [1.0, 0.5, 0.0])


def test_ks_distance_at_quantiles():
    # sample placed exactly at mid-quantiles of U(0,1): KS = 1/(2n)
    n = 200
    s = HeightSample(heights=(np.arange(1, n + 1) - 0.5) / n)
    d = s.ks_distance(lambda u: 1.0 - np.clip(u, 0.0, 1.0))
    assert d == pytest.approx(0.5 / n, abs=1e-12)


def test_empirical_distribution_guard():
    with pytest.raises(InsufficientDataError):
        empirical_height_distribution(np.zeros(49))
    s = empirical_height_distribution(np.random.default_rng(0).normal(size=80))
    assert np.all(np.diff(s.heights) >= 0)


def test_ks_critical_value():
    assert ks_critical(100) == pytest.approx(kolmogi(0.01) / 10.0, rel=1e-12)
    assert ks_critical(400, alpha=0.05) == pytest.approx(
        kolmogi(0.05) / 20.0, rel=1e-12)


def test_simulation_study_planar_smoke():
    spec = SynthesisSpec.plane_wave(3.0, n_waves=300)
    rep = simulation_study(spec, side=5.0, n_reps=3, seed=123, keep_raw=True)
    assert rep.space == "euclidean"
    assert rep.counts.shape == (3, 3)
    assert rep.counts.sum() > 0
    assert rep.area < 25.0                      # margin strictly inside
    assert rep.intensity_mean.shape == (3,)
    assert np.all(rep.theory_intensity > 0)
    assert len(rep.raw) == 3
    assert any(rep.summary_lines())
    # same seed reruns identically
    rep2 = simulation_study(spec, side=5.0, n_reps=3, seed=123)
    assert np.array_equal(rep.counts, rep2.counts)


def test_simulation_study_sphere_euler():
    rep = simulation_study(SynthesisSpec.spherical_harmonic(5), n_reps=3,
                           seed=9, keep_raw=True)
    assert rep.space == "sphere"
    assert rep.diagnostics["euler_mismatches"] == 0
    assert rep.area == pytest.approx(4 * PI)
    # whole-sphere counts: chi = 2 in each replication
    chi = rep.counts[:, 0] - rep.counts[:, 1] + rep.counts[:, 2]
    assert np.all(chi == 2)


def test_write_points_csv(tmp_path):
    rep = simulation_study(SynthesisSpec.spherical_harmonic(2), n_reps=2,
                           seed=4, keep_raw=True)
    out = tmp_path / "pts.csv"
    write_points_csv(out, rep.raw)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["replicate", "x", "y", "z", "height", "index",
                       "lambda1", "lambda2"]
    assert len(rows) == 1 + 12                  # 6 points per replication
    assert {r[0] for r in rows[1:]} == {"0", "1"}
    xyz = np.array([[float(v) for v in r[1:4]] for r in rows[1:]])
    assert np.allclose(np.linalg.norm(xyz, axis=1), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# the separable chart scan and the Newton progress rule against references
# ---------------------------------------------------------------------------

def pole_angle(c, axis):
    # angle of the unit vectors c from the nearer of the poles +-e_axis
    return np.arccos(np.minimum(np.abs(c[:, axis]), 1.0))


def pointwise_chart_cells(field, step):
    # the pointwise scan, kept as the reference: tangent_gradient at every
    # point of both charts' whole lat-long grids, projected on the chart
    # frames; returns the untilted and the tilted chart's cell centers
    n_th = max(int(math.ceil(PI / step)), 8)
    n_ph = max(int(math.ceil(2.0 * PI / step)), 16)
    th = np.linspace(0.0, PI, n_th + 1)[1:-1]
    ph = np.linspace(0.0, 2.0 * PI, n_ph, endpoint=False)
    tg, pg = np.meshgrid(th, ph, indexing="ij")
    st, ct, sp, cp = np.sin(tg), np.cos(tg), np.sin(pg), np.cos(pg)
    p_std = np.stack([st * cp, st * sp, ct], axis=-1)
    e_th = np.stack([ct * cp, ct * sp, -st], axis=-1)
    e_ph = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
    tcg, pcg = np.meshgrid(0.5 * (th[:-1] + th[1:]), ph + PI / n_ph,
                           indexing="ij")
    c_std = np.stack([np.sin(tcg) * np.cos(pcg), np.sin(tcg) * np.sin(pcg),
                      np.cos(tcg)], axis=-1)
    centers = []
    for rot in (np.eye(3), _CHART_TILT):
        pts = p_std.reshape(-1, 3) @ rot.T
        grads = field.tangent_gradient(pts).reshape(p_std.shape)
        c1 = (grads * (e_th @ rot.T)).sum(axis=-1)
        c2 = (grads * (e_ph @ rot.T)).sum(axis=-1)
        cells = _sign_change_cells(np.signbit(c1), np.signbit(c2),
                                   wrap_cols=True)
        centers.append(c_std[cells[:, 0], cells[:, 1]] @ rot.T)
    return centers


def chart_bands(untilted, tilted, step):
    # the band rule: the untilted chart keeps the cells at least
    # pi/4 - margin from +-z, the tilted one those within pi/4 + margin of
    # +-z, with margin CHART_OVERLAP grid steps
    margin = CHART_OVERLAP * step
    return (untilted[pole_angle(untilted, 2) >= PI / 4 - margin],
            tilted[pole_angle(tilted, 2) <= PI / 4 + margin])


# a grid step of eta/4 at degree 2 makes the overlap margin exceed pi/4,
# where both charts keep every cell
@pytest.mark.parametrize("degree,seed,steps_per_eta", [
    (2, 77, 6), (8, 6, 6), (20, 1, 6), (20, 2, 6), (25, 3, 6), (2, 77, 4)],
    ids=["2-77", "8-6", "20-1", "20-2", "25-3", "2-77-coarse"])
def test_chart_candidates_match_pointwise_scan(degree, seed, steps_per_eta):
    f = synthesize(SynthesisSpec.spherical_harmonic(degree), rng=seed)
    step = f.model.eta / steps_per_eta
    got = _chart_candidates(f, step)
    want = np.concatenate(chart_bands(*pointwise_chart_cells(f, step), step))
    assert got.shape == want.shape
    assert np.abs(got - want).max() < 1e-15


def panel_field_12_7():
    # a degree-20 harmonic with a minimum and a saddle 0.005 apart, less
    # than half a grid step
    l = 20
    coeffs = np.random.default_rng((12, 7)).normal(
        0.0, math.sqrt(4.0 * PI / (2 * l + 1)), size=2 * l + 1)
    return SphericalHarmonicField(l, coeffs, model_from_legendre(l))


@pytest.mark.parametrize("field", [
    *(synthesize(SynthesisSpec.spherical_harmonic(d), rng=s)
      for d, s in [(2, 77), (3, 5), (8, 6), (20, 1), (40, 2)]),
    panel_field_12_7()], ids=["2", "3", "8", "20", "40", "panel-12-7"])
def test_chart_bands_lose_no_point(field):
    # detection from the two charts' bands finds the points that Newton
    # from both charts' whole grids finds
    m = field.model
    step = m.eta / 6.0
    margin = CHART_OVERLAP * step
    full = pointwise_chart_cells(field, step)
    untilted, tilted = chart_bands(*full, step)
    got = _chart_candidates(field, step)
    assert np.abs(got - np.concatenate([untilted, tilted])).max() < 1e-15
    # each chart's candidates lie at least pi/4 - margin from its own poles
    # (+-z untilted, +-x tilted), up to rounding of the band's edge
    assert pole_angle(got[:len(untilted)], 2).min() >= PI / 4 - margin
    assert pole_angle(got[len(untilted):], 0).min() >= PI / 4 - margin - 1e-12

    pts, ok, _ = _newton_sphere(field, np.concatenate(full), step,
                                GRAD_TOL_FACTOR * math.sqrt(m.c1),
                                MAX_NEWTON_ITER)
    pts = pts[ok]
    pts = pts[_merge_points(pts, 2.0 * math.sin(DEDUP_FACTOR * step / 2.0))]
    want = _classify_sphere(field, pts, HESS_TOL_FACTOR
                            * math.sqrt(3.0 * m.c2 + m.c1))

    res = find_critical_points_sphere(field)
    assert len(res.points) == len(want)
    dist, match = cKDTree([p.location for p in want]).query(
        [p.location for p in res.points])
    assert len(set(match.tolist())) == len(want)
    assert dist.max() < 1e-9
    assert [p.index for p in res.points] == [want[j].index for j in match]
    assert max(abs(p.height - want[j].height)
               for p, j in zip(res.points, match)) < 1e-12


def plain_newton(derivs, move, dist, centers, step, eps_g, max_iter=60):
    # Newton without the progress rule, kept as the reference: a walker
    # stops only on convergence, on leaving its basin, on a singular
    # Hessian or after max_iter iterations
    pts = centers.copy()
    active = np.ones(len(pts), dtype=bool)
    converged = np.zeros(len(pts), dtype=bool)
    for _ in range(max_iter):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        g, h, frames = derivs(pts[idx])
        hit = np.linalg.norm(g, axis=1) < eps_g
        converged[idx[hit]] = True
        det = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]
        bad = ~hit & (np.abs(det) < 1e-300)
        active[idx[hit | bad]] = False
        go = ~(hit | bad)
        d = np.linalg.solve(h[go], -g[go][..., None])[..., 0]
        dn = np.linalg.norm(d, axis=1)
        d[dn > step] *= (step / dn[dn > step])[:, None]
        moved = idx[go]
        pts[moved] = move(pts[moved], d, frames[go])
        active[moved[dist(pts[moved], centers[moved]) > 3.0 * step]] = False
    return pts[converged]


def plane_derivs(field):
    def derivs(p):
        return field.gradient(p), field.hessian(p), np.zeros((len(p), 0))
    return derivs


def sphere_derivs(field):
    def derivs(p):
        _, g, h = field.ambient(p)
        radial = (g * p).sum(axis=-1)
        fr = tangent_frames(p)
        h2 = np.einsum("kai,kij,kbj->kab", fr, h, fr)
        h2[:, 0, 0] -= radial
        h2[:, 1, 1] -= radial
        return np.einsum("kai,ki->ka", fr, g), h2, fr
    return derivs


def sphere_move(p, d, fr):
    q = p + np.einsum("ka,kai->ki", d, fr)
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def sphere_angle(p, q):
    return np.arccos(np.clip((p * q).sum(axis=1), -1.0, 1.0))


def plane_setup(seed, side=6.0, spec=SynthesisSpec.plane_wave(10.0), lo=0.0):
    f = synthesize(spec, rng=seed)
    step = f.model.eta / 6.0
    eps_g = GRAD_TOL_FACTOR * math.sqrt(-2.0 * f.model.rho1)
    lattice = _PlaneLattice(f, (lo, lo), (lo + side, lo + side), step)
    return f, step, eps_g, lattice.candidates()


def sphere_setup(seed, degree=20):
    f = synthesize(SynthesisSpec.spherical_harmonic(degree), rng=seed)
    step = f.model.eta / 6.0
    eps_g = GRAD_TOL_FACTOR * math.sqrt(f.model.c1)
    return f, step, eps_g, _chart_candidates(f, step)


# the planar kinds at a similar gradient scale; the gaussian covariance's
# wave vectors do not share one length
@pytest.mark.parametrize("spec,seed", [
    (SynthesisSpec.plane_wave(10.0), 11), (SynthesisSpec.plane_wave(10.0), 12),
    (SynthesisSpec.gaussian_covariance(0.2), 21),
    (SynthesisSpec.custom_spectral([4.0, 12.0], [1.0, 2.0]), 21)],
    ids=["11", "12", "gaussian-covariance", "custom-spectral"])
def test_plane_detection_keeps_every_plain_newton_point(spec, seed):
    # planar Newton runs on local Taylor models; against plain float64
    # Newton it keeps every point, and every point it returns has a float64
    # gradient below the tolerance
    side = 6.0
    f, step, eps_g, centers = plane_setup(seed, side, spec)
    plain = plain_newton(plane_derivs(f), lambda p, d, fr: p + d,
                         lambda p, q: np.abs(p - q).max(axis=1),
                         centers, step, eps_g)
    plain = plain[np.all((plain >= 0.0) & (plain <= side), axis=1)]
    res = find_critical_points_plane(f, (0.0, 0.0), (side, side))
    assert res.n_stalled > 0           # the rule retires some walkers
    locs = np.array([p.location for p in res.points])
    gap = np.abs(plain[:, None, :] - locs[None]).max(axis=-1).min(axis=1)
    assert gap.max() < 1e-9
    assert np.linalg.norm(f.gradient(locs), axis=1).max() < eps_g


def newton_plane(field, centers, step, eps_g, max_iter):
    # _newton_plane on the models of a lattice through the centers
    lattice = _PlaneLattice(field, centers.min(axis=0) - 0.5 * step,
                            centers.max(axis=0) + 0.5 * step, step)
    return _newton_plane(_WalkerModels(lattice, centers), centers, step, eps_g,
                         max_iter)


def float64_newton_plane(field, centers, step, eps_g, max_iter):
    # planar Newton on the pointwise float64 trig sums, kept as the reference
    def local(p, idx):
        return (field.gradient(p), lambda keep: field.hessian(p[keep]),
                lambda keep, d: p[keep] + d)

    return _newton(centers, step, eps_g, max_iter, local,
                   lambda p, q: np.abs(p - q).max(axis=1), len(centers))


PLANAR_KINDS = [SynthesisSpec.plane_wave(10.0),
                SynthesisSpec.gaussian_covariance(0.2),
                SynthesisSpec.custom_spectral([4.0, 12.0], [1.0, 2.0])]


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(range(len(PLANAR_KINDS))),
       seed=st.integers(0, 2 ** 16), lo=st.sampled_from([0.0, 5000.0]),
       steps_per_eta=st.sampled_from([6.0, 2.0]),
       cell=st.tuples(st.integers(0, 20), st.integers(0, 20)),
       r=st.floats(0.0, 1.0), angle=st.floats(0.0, 2.0 * PI))
def test_local_models_match_pointwise_derivatives(kind, seed, lo, steps_per_eta,
                                                  cell, r, angle):
    # a walker's Taylor model against the trig sums of the window's field,
    # anywhere within the model's radius; on a coarse lattice the order
    # limit does not reach NEWTON_MODEL_RADIUS, and the radius shrinks
    f = synthesize(PLANAR_KINDS[kind], rng=seed)
    step = f.model.eta / steps_per_eta
    lattice = _PlaneLattice(f, (lo, lo), (lo + 21 * step, lo + 21 * step), step)
    center = lattice.lo + (np.array(cell) + 0.5) * step
    models = _WalkerModels(lattice, center[None])
    assert 0.0 < models.radius <= NEWTON_MODEL_RADIUS
    if steps_per_eta == 2.0:
        assert models.radius < NEWTON_MODEL_RADIUS
    u = r * models.radius * np.array([[math.cos(angle), math.sin(angle)]])
    val, grad, hess = taylor_evaluate(models.coef, u, step)
    t = (models.nodes[0] + u) * step
    m = f.model
    assert abs(val[0] - lattice.field.value(t)[0]) < 1e-12
    assert (np.abs(grad - lattice.field.gradient(t)).max()
            < 1e-12 * math.sqrt(-2.0 * m.rho1))
    assert (np.abs(hess - lattice.field.hessian(t)).max()
            < 1e-12 * math.sqrt(12.0 * m.rho2))


# the benchmark's panel field (11, 0), and one field of each planar kind at
# the parameters of test_fields.PLANAR_SPECS
@pytest.mark.parametrize("spec,seed,side", [
    (SynthesisSpec.plane_wave(10.0), (11, 0), 10.0),
    (SynthesisSpec.gaussian_covariance(0.5), 3, 20.0),
    (SynthesisSpec.plane_wave(10.0), 3, 6.0),
    (SynthesisSpec.custom_spectral([2.0, 6.0], [1.0, 2.0]), 3, 12.0)],
    ids=["panel-0", "gaussian-covariance", "plane-wave", "custom-spectral"])
def test_walker_nodes_are_shared_corners(spec, seed, side):
    # each walker's model sits on a corner of its own start cell, the
    # shared corners take no more nodes than the 2x2 tiles did, and every
    # model, those of the last, partial block of the build included,
    # matches the trig sums
    f, step, _, centers = plane_setup(seed, side, spec)
    lattice = _PlaneLattice(f, (0.0, 0.0), (side, side), step)
    models = _WalkerModels(lattice, centers)
    offset = (centers - lattice.lo) / step - models.nodes[models.which]
    assert np.abs(np.abs(offset) - 0.5).max() < 1e-9
    cells = np.floor((centers - lattice.lo) / step).astype(np.int64)
    assert len(models.nodes) <= len(np.unique(2 * (cells // 2) + 1, axis=0))
    n = len(models.nodes)
    assert n % TAYLOR_NODE_BLOCK != 0
    rng = np.random.default_rng(4)
    k = np.union1d(np.arange(n - n % TAYLOR_NODE_BLOCK - 1, n),
                   rng.integers(n, size=64))
    angle = rng.uniform(0.0, 2.0 * PI, len(k))
    u = (rng.uniform(0.0, models.radius, len(k))[:, None]
         * np.stack([np.cos(angle), np.sin(angle)], axis=-1))
    val, grad, hess = taylor_evaluate(models.coef[k], u, step)
    t = (models.nodes[k] + u) * step
    m = f.model
    assert np.abs(val - lattice.field.value(t)).max() < 1e-12
    assert (np.abs(grad - lattice.field.gradient(t)).max()
            < 1e-12 * math.sqrt(-2.0 * m.rho1))
    assert (np.abs(hess - lattice.field.hessian(t)).max()
            < 1e-12 * math.sqrt(12.0 * m.rho2))


def monomial_taylor_models(field, ex, ey, nodes, h, m):
    # the Taylor coefficients through the full monomial tables
    # c_ij (h w_kx)^i (h w_ky)^j in blocks of TAYLOR_NODE_BLOCK nodes, the
    # way PlanarWaveField.taylor_models builds them for spectra off a ring:
    # the reference for its ring factorization
    out = np.zeros((len(nodes), m + 1, m + 1))
    k = np.arange(m + 1)
    i, j = np.nonzero(np.add.outer(k, k) <= m)
    n = i + j
    inv_fact = 1.0 / np.cumprod(np.maximum(k, 1.0))
    sign = np.array([1.0, -1.0, -1.0, 1.0])[n % 4]
    c = field.scale * sign * inv_fact[i] * inv_fact[j]
    px = np.cumprod(np.hstack([np.ones((len(ex.T), 1)),
                               np.repeat(h * field.omegas[:, :1], m, axis=1)]), axis=1)
    py = np.cumprod(np.hstack([np.ones((len(ex.T), 1)),
                               np.repeat(h * field.omegas[:, 1:], m, axis=1)]), axis=1)
    for s in range(0, len(nodes), TAYLOR_NODE_BLOCK):
        a, b = nodes[s:s + TAYLOR_NODE_BLOCK].T
        e = ex[a] * ey[b]
        for plane, part in ((e.real.copy(), n % 2 == 0), (e.imag.copy(), n % 2 == 1)):
            table = px[:, i[part]] * py[:, j[part]]
            table *= c[part]
            out[s:s + len(a), i[part], j[part]] = plane @ table
    return out


def taylor_setup(spec, lo, steps_per_eta):
    # the models of 40 walkers in a window of 21 x 21 cells, and their
    # reference through the monomial tables
    f = synthesize(spec, rng=5)
    step = f.model.eta / steps_per_eta
    lattice = _PlaneLattice(f, (lo, lo), (lo + 21 * step, lo + 21 * step), step)
    cells = np.random.default_rng(6).integers(21, size=(40, 2))
    models = _WalkerModels(lattice, lattice.lo + (cells + 0.5) * step)
    ref = monomial_taylor_models(lattice.field, lattice.ex, lattice.ey,
                                 models.nodes, step, models.coef.shape[-1] - 1)
    return lattice.field, step, models, ref


@pytest.mark.parametrize("lo,steps_per_eta", [(0.0, 6.0), (5000.0, 6.0), (0.0, 1.5)],
                         ids=["near", "far-window", "coarse"])
@pytest.mark.parametrize("n_waves", [1, 7, 2000])
@pytest.mark.parametrize("wavenumber", [1.0, 10.0, 25.0])
def test_ring_models_are_the_monomial_models(wavenumber, n_waves, lo, steps_per_eta):
    # plane waves take the ring factorization, whose coefficients agree with
    # the monomial tables' to within 32 ulps (measured: 12.5) of each column's
    # scale, scale sum_k (h |w_k|)^(i+j) / (i! j!), which bounds the column
    # and its rounding; on the coarse lattice the model radius halves
    f, step, models, ref = taylor_setup(
        SynthesisSpec.plane_wave(wavenumber, n_waves), lo, steps_per_eta)
    assert _ring_radius(f.omegas) is not None
    assert (models.radius < NEWTON_MODEL_RADIUS) == (steps_per_eta == 1.5)
    m = models.coef.shape[-1] - 1
    k = np.arange(m + 1)
    lengths = np.linalg.norm(step * f.omegas, axis=1)
    moments = (lengths[:, None] ** np.arange(2 * m + 1)).sum(axis=0)
    inv_fact = 1.0 / np.cumprod(np.maximum(k, 1.0))
    column = (f.scale * moments[np.add.outer(k, k)] * np.outer(inv_fact, inv_fact)
              * (np.add.outer(k, k) <= m))
    assert np.all(np.abs(models.coef - ref) <= 32 * np.finfo(float).eps * column)


@pytest.mark.parametrize("spec", [SynthesisSpec.gaussian_covariance(0.2),
                                  SynthesisSpec.custom_spectral([4.0, 12.0], [1.0, 2.0])],
                         ids=["gaussian-covariance", "two-ring"])
def test_off_ring_models_are_the_monomial_models(spec):
    # spectra off one circle keep the monomial tables, bit for bit
    f, _, models, ref = taylor_setup(spec, 0.0, 6.0)
    assert _ring_radius(f.omegas) is None
    assert np.array_equal(models.coef, ref)


def test_plane_window_without_candidates_is_empty():
    # a window of 2 x 2 cells of field (11, 0)'s lattice none of which has
    # a sign change of both gradient components: no walker and no point
    f = synthesize(SynthesisSpec.plane_wave(10.0), rng=(11, 0))
    step = f.model.eta / 6.0
    lattice = _PlaneLattice(f, (0.0, 0.0), (10.0, 10.0), step)
    cells = np.floor(lattice.candidates() / step).astype(np.int64)
    hit = np.zeros((len(lattice.xs) - 1, len(lattice.ys) - 1), dtype=bool)
    hit[tuple(cells.T)] = True
    free = ~(hit[:-1, :-1] | hit[1:, :-1] | hit[:-1, 1:] | hit[1:, 1:])
    lo = np.argwhere(free)[0] * step
    res = find_critical_points_plane(f, lo, lo + 2 * step, grid_step=step)
    assert res.points == []
    assert (res.n_candidates, res.n_converged, res.n_failed) == (0, 0, 0)


@pytest.mark.parametrize("key,lo,side", [((11, 0), 0.0, 10.0),
                                         ((11, 1), 0.0, 10.0),
                                         ((11, 2), 0.0, 10.0),
                                         ((11, 0), 5000.0, 3.0)],
                         ids=["panel-0", "panel-1", "panel-2", "far-window"])
def test_mixed_precision_funnel_matches_float64_newton(key, lo, side):
    # Newton on local Taylor models against Newton on the trig sums, on the
    # benchmark's plane fields and a window far from the origin, whose
    # phases are kept small by the shift to the window: every walker ends
    # in the same state, converged walkers agree to Newton precision, and
    # every returned point has a float64 gradient below the tolerance
    f, step, eps_g, centers = plane_setup(key, side, lo=lo)
    pts, ok, state = newton_plane(f, centers, step, eps_g, MAX_NEWTON_ITER)
    ref_pts, ref_ok, ref_state = float64_newton_plane(f, centers, step, eps_g,
                                                      MAX_NEWTON_ITER)
    assert np.array_equal(state, ref_state)
    assert np.abs(pts[ok] - ref_pts[ref_ok]).max() < 1e-9
    assert np.linalg.norm(f.gradient(pts[ok]), axis=1).max() < eps_g


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sphere_detection_keeps_every_plain_newton_point(seed):
    f, step, eps_g, centers = sphere_setup(seed)
    plain = plain_newton(sphere_derivs(f), sphere_move, sphere_angle,
                         centers, step, eps_g)
    res = find_critical_points_sphere(f)
    assert res.n_stalled > 0
    locs = np.array([p.location for p in res.points])
    gap = np.linalg.norm(plain[:, None, :] - locs[None], axis=-1).min(axis=1)
    assert gap.max() < 1e-9


@pytest.mark.parametrize("space,seed", [("plane", 11), ("plane", 12),
                                        ("sphere", 1), ("sphere", 2)])
def test_no_walker_runs_more_than_20_iterations(space, seed):
    # a cap of 20 iterations retires nobody the default cap would not
    if space == "plane":
        f, step, eps_g, centers = plane_setup(seed)
        newton = newton_plane
    else:
        f, step, eps_g, centers = sphere_setup(seed)
        newton = _newton_sphere
    pts60, ok60, state60 = newton(f, centers, step, eps_g, MAX_NEWTON_ITER)
    pts20, ok20, state20 = newton(f, centers, step, eps_g, 20)
    assert np.array_equal(state20, state60)
    assert np.array_equal(pts20, pts60)


def test_failures_split_by_reason():
    f = synthesize(SynthesisSpec.spherical_harmonic(20), rng=5)
    res = find_critical_points_sphere(f)
    assert res.n_failed == res.n_lost + res.n_singular + res.n_stalled
    assert res.n_failed == res.n_candidates - res.n_converged
    assert res.n_lost > 0 and res.n_stalled > 0
    # walkers still running at the iteration cap count as stalled
    short = find_critical_points_sphere(f, max_iter=2)
    assert short.n_stalled > res.n_stalled
    assert short.n_failed == short.n_candidates - short.n_converged


def test_merge_keeps_lowest_index_member():
    a = np.array([0.3, 0.4])
    b = a + [0.005, 0.0]       # a distinct point well inside a grid step
    pts = np.array([b + 2e-12, a + 1e-12, a, b, a + 2e-12, [2.0, 2.0]])
    out = _merge_points(pts, 1e-9)
    # one member per cluster, the lowest index, in index order; no means
    assert np.array_equal(out, [0, 1, 5])
    # a chain joins clusters whose ends are farther apart than the radius
    chain = np.array([[0.0, 0.0], [0.6e-9, 0.0], [1.2e-9, 0.0]])
    assert np.array_equal(_merge_points(chain, 1e-9), [0])
    assert _merge_points(np.empty((0, 2)), 1e-9).shape == (0,)


def test_default_dedup_keeps_close_distinct_points():
    # this degree-20 harmonic has a minimum and a saddle 0.005 apart, less
    # than half a grid step; a dedup radius of half a grid step would merge
    # them into one non-critical point and break n0 - n1 + n2 = 2
    l = 20
    coeffs = np.random.default_rng((12, 7)).normal(
        0.0, math.sqrt(4.0 * PI / (2 * l + 1)), size=2 * l + 1)
    f = SphericalHarmonicField(l, coeffs, model_from_legendre(l))
    res = find_critical_points_sphere(f)
    counts = [len(res.by_index(i)) for i in range(3)]
    assert counts[0] - counts[1] + counts[2] == 2
    locs = np.array([p.location for p in res.points])
    dist = np.linalg.norm(locs[:, None] - locs[None], axis=-1)
    np.fill_diagonal(dist, np.inf)
    assert dist.min() < 0.5 * f.model.eta / 6.0     # half the default step
    grad = f.tangent_gradient(locs)
    assert np.abs(grad).max() < 1e-9 * math.sqrt(f.model.c1)


def test_degree20_study_has_no_euler_mismatch():
    # 50 degree-20 harmonics: every replicate satisfies n0 - n1 + n2 = 2
    # once distinct critical points are no longer merged
    rep = simulation_study(SynthesisSpec.spherical_harmonic(20), n_reps=50,
                           seed=1, ks_indices=())
    assert rep.diagnostics["euler_mismatches"] == 0
    chi = rep.counts[:, 0] - rep.counts[:, 1] + rep.counts[:, 2]
    assert np.all(chi == 2)
    assert rep.diagnostics["flagged_points"] == 0
