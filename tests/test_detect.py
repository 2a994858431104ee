"""Critical-point detection on known fields, ECDF helpers, replication study."""
import csv
import math

import numpy as np
import pytest
from scipy.special import kolmogi

from critfield.detect import (_CHART_TILT, GRAD_TOL_FACTOR,
                              MAX_NEWTON_ITER, HeightSample,
                              _chart_candidates, _merge_points,
                              _newton_plane, _newton_sphere,
                              _plane_candidates, _sign_change_cells,
                              empirical_height_distribution,
                              find_critical_points,
                              find_critical_points_plane,
                              find_critical_points_sphere, ks_critical,
                              simulation_study, write_points_csv)
from critfield.errors import InsufficientDataError, ParameterError
from critfield.euclidean import model_from_rho
from critfield.fields import (PlanarWaveField, SphericalHarmonicField,
                              SynthesisSpec, synthesize, tangent_frames)
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
    # spurious pole-adjacent candidates of one chart fail Newton and are
    # covered by the other chart, so the Morse sum is the real invariant
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

def pointwise_chart_candidates(field, step):
    # the pointwise scan, kept as the reference: tangent_gradient at every
    # point of both charts' lat-long grids, projected on the chart frames
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
    return np.concatenate(centers, axis=0)


@pytest.mark.parametrize("degree,seed", [(2, 77), (8, 6), (20, 1), (20, 2),
                                         (25, 3)])
def test_chart_candidates_match_pointwise_scan(degree, seed):
    f = synthesize(SynthesisSpec.spherical_harmonic(degree), rng=seed)
    step = f.model.eta / 6.0
    got = _chart_candidates(f, step)
    want = pointwise_chart_candidates(f, step)
    assert got.shape == want.shape
    assert np.abs(got - want).max() < 1e-15


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


def plane_setup(seed, side=6.0):
    f = synthesize(SynthesisSpec.plane_wave(10.0), rng=seed)
    step = f.model.eta / 6.0
    eps_g = GRAD_TOL_FACTOR * math.sqrt(-2.0 * f.model.rho1)
    return f, step, eps_g, _plane_candidates(f, (0.0, 0.0), (side, side), step)


def sphere_setup(seed, degree=20):
    f = synthesize(SynthesisSpec.spherical_harmonic(degree), rng=seed)
    step = f.model.eta / 6.0
    eps_g = GRAD_TOL_FACTOR * math.sqrt(f.model.c1)
    return f, step, eps_g, _chart_candidates(f, step)


@pytest.mark.parametrize("seed", [11, 12])
def test_plane_detection_keeps_every_plain_newton_point(seed):
    side = 6.0
    f, step, eps_g, centers = plane_setup(seed, side)
    plain = plain_newton(plane_derivs(f), lambda p, d, fr: p + d,
                         lambda p, q: np.abs(p - q).max(axis=1),
                         centers, step, eps_g)
    plain = plain[np.all((plain >= 0.0) & (plain <= side), axis=1)]
    res = find_critical_points_plane(f, (0.0, 0.0), (side, side))
    assert res.n_stalled > 0           # the rule retires some walkers
    locs = np.array([p.location for p in res.points])
    gap = np.abs(plain[:, None, :] - locs[None]).max(axis=-1).min(axis=1)
    assert gap.max() < 1e-9


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
        newton = _newton_plane
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
    assert np.array_equal(out, pts[[0, 1, 5]])
    # a chain joins clusters whose ends are farther apart than the radius
    chain = np.array([[0.0, 0.0], [0.6e-9, 0.0], [1.2e-9, 0.0]])
    assert np.array_equal(_merge_points(chain, 1e-9), chain[:1])
    assert _merge_points(np.empty((0, 2)), 1e-9).shape == (0, 2)


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
