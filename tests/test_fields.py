"""Synthetic field realizations: derivatives, covariances, exact models."""
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import eval_legendre, j0

from critfield.detect import _PlaneTiles
from critfield.errors import ConfigError, ParameterError
from critfield.fields import (MAX_DEGREE, PlanarWaveField,
                              SphericalHarmonicField, SynthesisSpec,
                              _legendre_q_tables, sh_basis, synthesize,
                              tangent_frames)
from critfield.sphere import model_from_legendre


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def test_planar_gradient_matches_finite_differences():
    f = synthesize(SynthesisSpec.gaussian_covariance(1.0, n_waves=80), rng=0)
    pts = np.array([[0.3, -1.2], [2.0, 0.4], [-0.7, 0.9]])
    g = f.gradient(pts)
    h = 1e-6
    for d in range(2):
        e = np.zeros(2)
        e[d] = h
        num = (f.value(pts + e) - f.value(pts - e)) / (2 * h)
        assert np.allclose(g[:, d], num, atol=1e-8, rtol=1e-6)


def test_planar_hessian_matches_finite_differences():
    f = synthesize(SynthesisSpec.plane_wave(2.0, n_waves=80), rng=1)
    pts = np.array([[0.1, 0.2], [-1.5, 0.8]])
    H = f.hessian(pts)
    assert np.allclose(H, np.swapaxes(H, -1, -2), atol=1e-14)
    h = 1e-6
    for d in range(2):
        e = np.zeros(2)
        e[d] = h
        num = (f.gradient(pts + e) - f.gradient(pts - e)) / (2 * h)
        assert np.allclose(H[:, :, d], num, atol=1e-6, rtol=1e-5)


PLANAR_SPECS = [
    SynthesisSpec.gaussian_covariance(0.5),
    SynthesisSpec.plane_wave(10.0),
    SynthesisSpec.custom_spectral([2.0, 6.0], [1.0, 2.0]),
]


@pytest.mark.parametrize("spec", PLANAR_SPECS, ids=lambda s: s.kind)
def test_grid_gradient_matches_pointwise(spec):
    # the gradient of a planar scan on its grid, read off the Taylor models
    # of its tiles, against the trig sums at the grid points
    f = synthesize(spec, rng=3)
    step = 10.0 / 36
    tiles = _PlaneTiles(f, (0.0, -2.0), (10.0, 9.0), step)
    xs, ys = step * np.arange(37), -2.0 + step * np.arange(41)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx, gy], axis=-1)
    g = tiles.gradient_grid()
    assert g.shape == (len(xs), len(ys), 2)
    tol = 1e-10 * math.sqrt(-2.0 * f.model.rho1)
    assert np.abs(g - f.gradient(pts)).max() < tol


@pytest.mark.parametrize("span", [10.0, 100.0])
def test_grid_factors_are_as_accurate_as_exp(span):
    # the angle-addition factors on the grid a d, next to one exp per grid
    # line and wave, against a 40-digit reference at the exact points a d
    f = synthesize(SynthesisSpec.plane_wave(10.0, n_waves=300), rng=7)
    step = f.model.eta / 6.0
    xs = step * np.arange(int(span / step) + 1)
    ex, ey = f.grid_factors(xs, xs)
    assert ex.shape == ey.shape == (len(xs), 300)
    rng = np.random.default_rng(8)
    rows, waves = rng.integers(len(xs), size=480), rng.integers(300, size=480)
    with mpmath.workdps(40):
        for factor, w, p in ((ex, f.omegas[:, 0], f.phases),
                             (ey, f.omegas[:, 1], np.zeros(300))):
            direct = np.exp(1j * (np.multiply.outer(xs, w) + p))
            err = np.zeros(2)
            for a, k in zip(rows.tolist(), waves.tolist()):
                ref = mpmath.expj(a * mpmath.mpf(step) * mpmath.mpf(w[k])
                                  + mpmath.mpf(p[k]))
                err = np.maximum(err, [abs(complex(z) - ref) for z in
                                       (factor[a, k], direct[a, k])])
            assert err[0] <= 2.0 * err[1]


def test_planar_derivatives_match_per_wave_sums():
    f = synthesize(SynthesisSpec.custom_spectral([1.0, 3.0], [1.0, 1.0],
                                                 n_waves=60), rng=4)
    pts = np.random.default_rng(5).uniform(-4.0, 4.0, size=(7, 2))
    g = np.zeros((len(pts), 2))
    H = np.zeros((len(pts), 2, 2))
    for w, p in zip(f.omegas, f.phases):
        arg = pts @ w + p
        g -= f.scale * np.sin(arg)[:, None] * w
        H -= f.scale * np.cos(arg)[:, None, None] * np.outer(w, w)
    assert np.allclose(f.gradient(pts), g, rtol=1e-12, atol=1e-12)
    assert np.allclose(f.hessian(pts), H, rtol=1e-12, atol=1e-12)
    # a single point keeps its unbatched shape
    assert f.gradient(pts[0]).shape == (2,)
    assert np.allclose(f.hessian(pts[0]), H[0], rtol=1e-12, atol=1e-12)


def _full_table_legendre_q(l, z):
    # the full (m, n) recurrence tables, reading off column n = l
    Q = np.zeros((l + 1, l + 1) + z.shape)
    dQ = np.zeros_like(Q)
    d2Q = np.zeros_like(Q)
    for m in range(l + 1):
        dfact = 1.0
        for j in range(1, 2 * m, 2):
            dfact *= j
        Q[m, m] = ((-1) ** m) * dfact
        if m < l:
            Q[m, m + 1] = z * (2 * m + 1) * Q[m, m]
            dQ[m, m + 1] = (2 * m + 1) * Q[m, m]
        for n in range(m + 2, l + 1):
            a = (2 * n - 1) / (n - m)
            b = (n + m - 1) / (n - m)
            Q[m, n] = a * z * Q[m, n - 1] - b * Q[m, n - 2]
            dQ[m, n] = a * (Q[m, n - 1] + z * dQ[m, n - 1]) - b * dQ[m, n - 2]
            d2Q[m, n] = a * (2 * dQ[m, n - 1] + z * d2Q[m, n - 1]) - b * d2Q[m, n - 2]
    return Q[:, l], dQ[:, l], d2Q[:, l]


def _max_row_error(got, want):
    # error relative to the largest entry of each row of want
    scale = np.abs(want).max(axis=-1, keepdims=True)
    return (np.abs(got - want) / np.where(scale > 0, scale, 1.0)).max()


def test_legendre_q_tables_match_full_recurrence():
    # the downward derivative recurrence rounds differently from the upward
    # n-recurrence, so the two agree to rounding, not bit for bit
    rng = np.random.default_rng(6)
    z = np.concatenate([[-1.0, 1.0, 0.0], rng.uniform(-1.0, 1.0, 17)])
    for l in range(2, 26):
        got = _legendre_q_tables(l, z)
        want = _full_table_legendre_q(l, z)
        for a, b in zip(got, want):
            assert a.shape == (l + 1, len(z))
            assert _max_row_error(a, b) < 1e-13
    # P_l^0 = P_l on the nose, poles included
    assert np.allclose(_legendre_q_tables(7, z)[0][0], eval_legendre(7, z),
                       atol=1e-12)


def _exact_q_rows(l, z):
    # (-1)^m d^m/dz^m P_l at z for m = 0..l+2, from the exact rational
    # coefficients of P_l = 2^-l sum_k (-1)^k C(l,k) C(2l-2k,l) z^(l-2k)
    coeffs = [Fraction(0)] * (l + 1)
    for k in range(l // 2 + 1):
        coeffs[l - 2 * k] = Fraction((-1) ** k * math.comb(l, k)
                                     * math.comb(2 * l - 2 * k, l), 2 ** l)
    rows = []
    with mpmath.workdps(120):
        zz = [mpmath.mpf(float(v)) for v in z]
        for m in range(l + 3):
            poly = [mpmath.mpf(c.numerator) / c.denominator
                    for c in reversed(coeffs)]
            rows.append([float((-1) ** m * mpmath.polyval(poly, v)) for v in zz])
            coeffs = [c * p for p, c in enumerate(coeffs)][1:] or [Fraction(0)]
    return np.array(rows)


@pytest.mark.parametrize("l", [20, 60, MAX_DEGREE])
def test_legendre_q_tables_match_exact_polynomials(l):
    z = np.array([0.0, 0.3, -0.77, 0.999, 1.0 - 1e-8, 1.0, -1.0])
    exact = _exact_q_rows(l, z)
    Q, dQ, d2Q = _legendre_q_tables(l, z)
    # dQ_m = -Q_{m+1} and d2Q_m = Q_{m+2}, rows l+1 and l+2 being 0.  The
    # tables meet 2e-15 at l = 150.  1 - z^2 formed as 1 - z*z instead of
    # (1-z)(1+z) loses relative precision near the poles, up to 6e-14 here.
    for got, want in ((Q, exact[:l + 1]), (dQ, -exact[1:l + 2]),
                      (d2Q, exact[2:])):
        assert np.all(np.isfinite(got))
        assert _max_row_error(got, want) < 1e-14


def test_plane_wave_solves_helmholtz():
    r = 3.0
    f = synthesize(SynthesisSpec.plane_wave(r, n_waves=200), rng=7)
    pts = np.random.default_rng(8).normal(size=(20, 2))
    lap = np.trace(f.hessian(pts), axis1=-2, axis2=-1)
    assert np.allclose(lap, -r * r * f.value(pts), rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("spec,cov", [
    (SynthesisSpec.gaussian_covariance(0.8, n_waves=6000),
     lambda h: np.exp(-h * h / (2 * 0.64))),
    (SynthesisSpec.plane_wave(2.5, n_waves=6000),
     lambda h: j0(2.5 * h)),
    (SynthesisSpec.custom_spectral([1.0, 3.0], [1.0, 1.0], n_waves=6000),
     lambda h: 0.5 * j0(1.0 * h) + 0.5 * j0(3.0 * h)),
])
def test_empirical_covariance(spec, cov):
    # (1/K) sum_k cos(<w_k, h>) estimates cov(|h|) with O(1/sqrt(K)) error
    f = synthesize(spec, rng=11)
    for h in ([0.5, 0.0], [1.0, 1.0], [0.0, 2.5]):
        emp = np.cos(f.omegas @ np.asarray(h)).mean()
        assert emp == pytest.approx(cov(np.linalg.norm(h)),
                                    abs=5.0 / math.sqrt(spec.n_waves))


def test_models_are_exact():
    ell = 0.7
    mg = synthesize(SynthesisSpec.gaussian_covariance(ell, n_waves=4), rng=0).model
    assert mg.kappa2 == pytest.approx(1.0, rel=1e-13)
    assert mg.eta2 == pytest.approx(2 * ell * ell, rel=1e-13)

    r = 3.0
    mp = synthesize(SynthesisSpec.plane_wave(r, n_waves=4), rng=0).model
    assert mp.boundary                         # kappa^2 = 2 exactly
    assert mp.eta2 == pytest.approx(8.0 / (r * r), rel=1e-13)

    mc = synthesize(SynthesisSpec.custom_spectral(
        [1.0, 2.0], [1.0, 3.0], n_waves=4), rng=0).model
    # normalized weights (1/4, 3/4)
    assert mc.rho1 == pytest.approx(-(0.25 * 1 + 0.75 * 4) / 4.0, rel=1e-13)
    assert mc.rho2 == pytest.approx((0.25 * 1 + 0.75 * 16) / 32.0, rel=1e-13)
    assert not mc.boundary

    ms = synthesize(SynthesisSpec.spherical_harmonic(3), rng=0).model
    ref = model_from_legendre(3)
    assert ms.c1 == pytest.approx(ref.c1) and ms.c2 == pytest.approx(ref.c2)


def test_synthesis_reproducible():
    spec = SynthesisSpec.plane_wave(2.0, n_waves=50)
    a = synthesize(spec, rng=42)
    b = synthesize(spec, rng=42)
    assert np.array_equal(a.omegas, b.omegas)
    assert np.array_equal(a.phases, b.phases)
    s = SynthesisSpec.spherical_harmonic(4)
    fa = synthesize(s, rng=42)
    fb = synthesize(s, rng=42)
    assert np.array_equal(fa.coeffs, fb.coeffs)


def test_sh_basis_addition_theorem():
    rng = np.random.default_rng(3)
    for l in (2, 3, 7):
        p = unit(rng.normal(size=(5, 3)))
        q = unit(rng.normal(size=(5, 3)))
        yp = sh_basis(l, p)
        yq = sh_basis(l, q)
        lhs = (yp * yq).sum(axis=0)
        rhs = (2 * l + 1) / (4 * math.pi) * eval_legendre(l, (p * q).sum(axis=-1))
        assert np.allclose(lhs, rhs, atol=1e-12)
        # p = q specializes to the constant (2l+1)/(4 pi)
        assert np.allclose((yp * yp).sum(axis=0), (2 * l + 1) / (4 * math.pi),
                           atol=1e-12)


def test_ambient_value_matches_basis_expansion():
    rng = np.random.default_rng(5)
    l = 4
    f = synthesize(SynthesisSpec.spherical_harmonic(l), rng=9)
    pts = unit(rng.normal(size=(12, 3)))
    direct = f.coeffs @ sh_basis(l, pts)
    assert np.allclose(f.value(pts), direct, atol=1e-12)


def test_tangent_gradient_matches_finite_differences():
    f = synthesize(SynthesisSpec.spherical_harmonic(5), rng=13)
    rng = np.random.default_rng(14)
    pts = unit(rng.normal(size=(6, 3)))
    frames = tangent_frames(pts)
    grad = f.tangent_gradient(pts)
    assert np.allclose((grad * pts).sum(axis=-1), 0.0, atol=1e-12)
    h = 1e-6
    for a in range(2):
        v = frames[:, a, :]
        num = (f.value(unit(pts + h * v)) - f.value(unit(pts - h * v))) / (2 * h)
        assert np.allclose((grad * v).sum(axis=-1), num, atol=1e-7, rtol=1e-5)


def test_covariant_hessian_matches_geodesic_second_derivative():
    f = synthesize(SynthesisSpec.spherical_harmonic(4), rng=21)
    rng = np.random.default_rng(22)
    pts = unit(rng.normal(size=(5, 3)))
    frames = tangent_frames(pts)
    H = f.covariant_hessian(pts, frames)
    assert np.allclose(H, np.swapaxes(H, -1, -2), atol=1e-12)
    h = 1e-4

    def second_along(v):
        # geodesic through p with unit speed v
        plus = np.cos(h) * pts + np.sin(h) * v
        minus = np.cos(h) * pts - np.sin(h) * v
        return (f.value(plus) - 2 * f.value(pts) + f.value(minus)) / (h * h)

    for a in range(2):
        assert np.allclose(H[:, a, a], second_along(frames[:, a, :]),
                           atol=1e-5, rtol=1e-5)
    v = (frames[:, 0, :] + frames[:, 1, :]) / math.sqrt(2.0)
    mixed = second_along(v) - 0.5 * (H[:, 0, 0] + H[:, 1, 1])
    assert np.allclose(H[:, 0, 1], mixed, atol=1e-5)


@pytest.mark.parametrize("l", [20, 40, MAX_DEGREE])
def test_high_degree_ambient_is_laplace_eigenfunction(l):
    f = synthesize(SynthesisSpec.spherical_harmonic(l), rng=l)
    axes = np.vstack([np.eye(3), -np.eye(3)])
    near_poles = unit([[1e-9, 0.0, 1.0], [0.0, -1e-9, -1.0]])
    pts = np.vstack([unit(np.random.default_rng(l + 1).normal(size=(40, 3))),
                     axes, near_poles])
    val = f.value(pts)
    lap = np.trace(f.covariant_hessian(pts, tangent_frames(pts)),
                   axis1=-2, axis2=-1)
    scale = np.abs(val).max() * l * (l + 1)
    assert np.abs(lap + l * (l + 1) * val).max() < 1e-12 * scale
    assert np.abs(val - f.coeffs @ sh_basis(l, pts)).max() < (
        1e-12 * np.abs(val).max())


def test_spherical_harmonic_is_laplace_eigenfunction():
    l = 6
    f = synthesize(SynthesisSpec.spherical_harmonic(l), rng=31)
    pts = unit(np.random.default_rng(32).normal(size=(10, 3)))
    frames = tangent_frames(pts)
    lap = np.trace(f.covariant_hessian(pts, frames), axis1=-2, axis2=-1)
    assert np.allclose(lap, -l * (l + 1) * f.value(pts), rtol=1e-9, atol=1e-10)


def test_tangent_frames_orthonormal():
    pts = unit(np.random.default_rng(41).normal(size=(30, 3)))
    fr = tangent_frames(pts)
    for a in range(2):
        assert np.allclose((fr[:, a, :] * pts).sum(axis=-1), 0.0, atol=1e-13)
        assert np.allclose(np.linalg.norm(fr[:, a, :], axis=-1), 1.0, atol=1e-13)
    assert np.allclose((fr[:, 0, :] * fr[:, 1, :]).sum(axis=-1), 0.0, atol=1e-13)
    # axis-aligned points are the degenerate-seed corner case
    axes = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [0, 0, -1.0]])
    fra = tangent_frames(axes)
    assert np.allclose(np.linalg.norm(fra, axis=-1), 1.0, atol=1e-13)


def test_spec_validation():
    with pytest.raises(ParameterError):
        SynthesisSpec.gaussian_covariance(0.0)
    with pytest.raises(ParameterError):
        SynthesisSpec.plane_wave(-1.0)
    with pytest.raises(ParameterError):
        SynthesisSpec.custom_spectral([], [])
    with pytest.raises(ParameterError):
        SynthesisSpec.custom_spectral([1.0, 2.0], [1.0])
    with pytest.raises(ParameterError):
        SynthesisSpec.custom_spectral([1.0, -2.0], [1.0, 1.0])
    with pytest.raises(ParameterError):
        SynthesisSpec.spherical_harmonic(1)
    # (2l-1)!! overflows float64 past MAX_DEGREE: refused, not garbage
    assert SynthesisSpec.spherical_harmonic(MAX_DEGREE).degree == MAX_DEGREE
    with pytest.raises(ParameterError, match=str(MAX_DEGREE)):
        SynthesisSpec.spherical_harmonic(MAX_DEGREE + 1)
    with pytest.raises(ParameterError, match=str(MAX_DEGREE)):
        SphericalHarmonicField(MAX_DEGREE + 1, np.zeros(2 * MAX_DEGREE + 3),
                               model_from_legendre(MAX_DEGREE + 1))
    with pytest.raises(ConfigError):
        synthesize(SynthesisSpec(kind="white-noise"), rng=0)
    # weights come out normalized
    s = SynthesisSpec.custom_spectral([1.0, 2.0], [2.0, 6.0])
    assert s.weights == (0.25, 0.75)


TILT = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


@pytest.mark.parametrize("rot", [np.eye(3), TILT], ids=["standard", "tilted"])
def test_chart_gradient_matches_tangent_gradient(rot):
    # frame components on the chart p -> rot p: e_theta = dp/dtheta and
    # e_phi = dp/dphi / sin(theta), both carried by rot
    th = np.linspace(0.0, math.pi, 31)[1:-1]
    ph = np.linspace(0.0, 2.0 * math.pi, 37, endpoint=False)
    tg, pg = np.meshgrid(th, ph, indexing="ij")
    st, ct, sp, cp = np.sin(tg), np.cos(tg), np.sin(pg), np.cos(pg)
    pts = np.stack([st * cp, st * sp, ct], axis=-1) @ rot.T
    e_th = np.stack([ct * cp, ct * sp, -st], axis=-1) @ rot.T
    e_ph = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1) @ rot.T
    for l in range(2, 26):
        f = synthesize(SynthesisSpec.spherical_harmonic(l), rng=100 + l)
        g = f.tangent_gradient(pts.reshape(-1, 3)).reshape(pts.shape)
        # detection scans the standard chart on the field itself
        chart = f if rot is not TILT else f.rotated(rot)
        c1, c2 = chart.chart_gradient(th, ph)
        tol = 1e-12 * math.sqrt(f.model.c1)
        assert c1.shape == c2.shape == (len(th), len(ph))
        assert np.abs(c1 - (g * e_th).sum(axis=-1)).max() < tol
        assert np.abs(c2 - (g * e_ph).sum(axis=-1)).max() < tol


def test_rotated_coefficients_reproduce_rotated_field():
    rng = np.random.default_rng(51)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    pts = unit(rng.normal(size=(40, 3)))
    for l in (2, 7, 20, 25):
        f = synthesize(SynthesisSpec.spherical_harmonic(l), rng=l)
        for rot in (TILT, q):
            g = f.rotated(rot)
            assert g.degree == l and g.model is f.model
            err = np.abs(g.value(pts) - f.value(pts @ rot.T)).max()
            assert err < 1e-12 * np.abs(f.coeffs).max()
            # a rotation keeps the coefficient norm
            assert np.linalg.norm(g.coeffs) == pytest.approx(
                np.linalg.norm(f.coeffs), rel=1e-12)
    # the identity projects onto the coefficients themselves
    f = synthesize(SynthesisSpec.spherical_harmonic(12), rng=3)
    assert np.allclose(f.rotated(np.eye(3)).coeffs, f.coeffs, atol=1e-13)


def test_phase_derivatives_match_pointwise():
    f = synthesize(SynthesisSpec.plane_wave(4.0, n_waves=90), rng=8)
    pts = np.random.default_rng(9).uniform(-3.0, 3.0, size=(6, 2))
    arg = f.phase(pts)
    assert arg.shape == (6, 90)
    assert np.abs(arg - (pts @ f.omegas.T + f.phases)).max() < 1e-13


def test_translated_field_is_the_shifted_field():
    f = synthesize(SynthesisSpec.custom_spectral([2.0, 6.0], [1.0, 2.0]), rng=5)
    shift = np.array([700.0, -350.0])
    g = f.translated(shift)
    assert np.all((g.phases >= 0.0) & (g.phases < 2.0 * math.pi))
    pts = np.random.default_rng(6).uniform(-2.0, 2.0, size=(9, 2))
    assert np.allclose(g.value(pts), f.value(pts + shift), atol=1e-9)
    assert np.allclose(g.gradient(pts), f.gradient(pts + shift), atol=1e-8)
