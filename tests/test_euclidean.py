"""Planar counts and height distributions."""
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from critfield import (
    ImpossibleFieldError,
    InvalidCovarianceError,
    MethodError,
    NumericConfig,
    ParameterError,
    expected_crit_above,
    expected_crit_total,
    height_cdf,
    height_density,
    model_from_rho,
    model_from_shape,
)
from critfield import _kacrice as kr
from critfield import euclidean as eu
from critfield import sphere as sp
from critfield.goi import validate_ensemble

PHI = lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi)
TINY = np.finfo(float).tiny


def test_model_validation():
    with pytest.raises(InvalidCovarianceError):
        model_from_rho(2, 0.5, 1.0)
    with pytest.raises(InvalidCovarianceError):
        model_from_rho(2, -0.5, -1.0)
    with pytest.raises(InvalidCovarianceError):
        model_from_shape(2, -1.0, 1.0)
    with pytest.raises(ImpossibleFieldError) as exc:
        model_from_shape(2, 1.0, 2.5)   # kappa^2 beyond (N+2)/N = 2
    assert "exceeds" in str(exc.value)
    with pytest.raises(InvalidCovarianceError):
        model_from_rho(0, -1.0, 1.0)
    # the dimension is an integer, and a bool is not one
    for n in (2.5, True):
        with pytest.raises(InvalidCovarianceError):
            model_from_shape(n, 1.0, 1.0)


def test_model_shape_roundtrip():
    m = model_from_shape(2, 1.7, 0.9)
    assert m.eta2 == pytest.approx(1.7, rel=1e-14)
    assert m.kappa2 == pytest.approx(0.9, rel=1e-14)
    assert m.regime == "nonboundary"
    b = model_from_shape(2, 0.8, 2.0)
    assert b.boundary and b.regime == "boundary"
    # kappa^2 stays clamped at the bound even with rounding noise
    almost = model_from_rho(2, b.rho1 * (1 + 1e-12), b.rho2)
    assert almost.kappa2 <= almost.gap_bound


def test_count_problem_structure():
    m = model_from_shape(2, 1.0, 0.6)
    p = m.problem()
    assert p.c_total == 0.5
    assert p.c_cond == pytest.approx((1 - 0.6) / 2, rel=1e-14)
    assert p.shift_coeff == pytest.approx(m.kappa / math.sqrt(2), rel=1e-14)
    pb = model_from_shape(2, 1.0, 2.0).problem()
    assert validate_ensemble(pb.n, pb.c_cond).degenerate


def test_rice_line_counts():
    # N = 1: total crossing density is sqrt(lambda_4 / lambda_2) / pi with
    # lambda_2 = -2 rho', lambda_4 = 12 rho''
    m = model_from_shape(1, 1.0, 1.0)
    lam2, lam4 = -2 * m.rho1, 12 * m.rho2
    want = math.sqrt(lam4 / lam2) / math.pi
    tot = sum(expected_crit_total(m, i).value for i in (0, 1))
    assert tot == pytest.approx(want, rel=1e-8)
    # minima and maxima split evenly
    assert expected_crit_total(m, 0).value == pytest.approx(want / 2, rel=1e-8)


@pytest.mark.parametrize("eta2", [0.25, 1.0, 4.0])
def test_closed_totals(eta2):
    m = model_from_shape(2, eta2, 1.0)
    b = 1.0 / (math.sqrt(3) * math.pi * eta2)
    vals = [expected_crit_total(m, i).value for i in range(3)]
    np.testing.assert_allclose(vals, [b, 2 * b, b], rtol=1e-13)


@pytest.mark.parametrize("kappa2", [0.36, 1.0, 1.44, 2.0])
def test_closed_vs_quadrature(kappa2):
    m = model_from_shape(2, 1.0, kappa2)
    cfg = NumericConfig()
    for i in range(3):
        c = expected_crit_total(m, i, "closed-form").value
        q = expected_crit_total(m, i, "quadrature", cfg).value
        assert c == pytest.approx(q, rel=1e-9)
    for i, x in ((2, 0.7), (1, -0.4), (0, 1.2)):
        c = height_density(m, i, x)
        q = height_density(m, i, x, "quadrature", cfg)
        assert c == pytest.approx(q, rel=3e-6 if m.boundary else 1e-9, abs=1e-12)
    for i, u in ((2, 0.5), (1, 1.0)):
        c = expected_crit_above(m, i, u, "closed-form").value
        q = expected_crit_above(m, i, u, "quadrature", cfg).value
        assert c == pytest.approx(q, rel=1e-7)


@pytest.mark.parametrize("kappa2", [0.5, 1.5, 2.0])
def test_height_pdfs_normalize(kappa2):
    m = model_from_shape(2, 1.0, kappa2)
    for i in range(3):
        mass, err = quad(lambda x: height_density(m, i, x), -14, 14, limit=200)
        assert mass == pytest.approx(1.0, abs=1e-8)


def test_height_symmetries():
    m = model_from_shape(2, 1.0, 1.2)
    xs = np.linspace(-4, 4, 41)
    h1 = height_density(m, 1, xs)
    np.testing.assert_allclose(h1, h1[::-1], atol=1e-12)  # even function
    h0 = height_density(m, 0, xs)
    h2 = height_density(m, 2, -xs)
    np.testing.assert_allclose(h0, h2, atol=1e-12)         # mirror pair


def test_cdf_shape():
    m = model_from_shape(2, 1.0, 1.2)
    for i in range(3):
        f = height_cdf(m, i, np.linspace(-4, 4, 161))
        assert np.all(np.diff(f) <= 1e-12)                 # nonincreasing
        assert height_cdf(m, i, -13.0) == pytest.approx(1.0, abs=1e-9)
        assert height_cdf(m, i, 13.0) == pytest.approx(0.0, abs=1e-9)


def test_index_symmetry_closed():
    # negating the field swaps index i with N - i and height u with -u, so
    # the two threshold counts partition the (shared) index total
    m = model_from_shape(2, 1.0, 0.8)
    for i in range(3):
        tot = expected_crit_total(m, i).value
        assert expected_crit_total(m, 2 - i).value == pytest.approx(tot, rel=1e-13)
        for u in (-0.8, 0.0, 1.3):
            a = expected_crit_above(m, 2 - i, u).value
            b = expected_crit_above(m, i, -u).value
            assert a + b == pytest.approx(tot, rel=1e-9)


def test_index_symmetry_n3_monte_carlo():
    m = model_from_shape(3, 1.0, 0.9)
    u = 0.4
    cfg = NumericConfig(mc_samples=150_000, seed=21)
    tot = expected_crit_total(m, 1, "quadrature").value
    a = expected_crit_above(m, 2, u, "monte-carlo", cfg)
    b = expected_crit_above(m, 1, -u, "monte-carlo", cfg)
    assert a.value + b.value == pytest.approx(tot, abs=4 * (a.error + b.error))


def test_scaling_law():
    # (rho', rho'') -> (a^2 rho', a^4 rho'') rescales lengths by 1/a:
    # counts gain a^N, heights stay put
    base = model_from_rho(2, -0.7, 0.9)
    a = 1.9
    scaled = model_from_rho(2, a * a * base.rho1, a ** 4 * base.rho2)
    for i in range(3):
        assert expected_crit_total(scaled, i).value == pytest.approx(
            a * a * expected_crit_total(base, i).value, rel=1e-12)
    xs = np.linspace(-3, 3, 13)
    np.testing.assert_allclose(height_density(scaled, 2, xs),
                               height_density(base, 2, xs), rtol=1e-12)


def test_alternating_sum_tracks_gradient_variance():
    # sum_i (-1)^i E[count_i above u] = (-rho') u phi(u) / pi on R^2;
    # models sharing rho' share it no matter how rho'' differs
    m1 = model_from_shape(2, 1.0, 0.5)     # rho' = -0.5
    m2 = model_from_shape(2, 2.0, 1.0)     # rho' = -0.5 again
    assert m1.rho1 == pytest.approx(m2.rho1, rel=1e-14)
    for u in (-0.7, 0.4, 1.5):
        want = (-m1.rho1) * u * PHI(u) / math.pi
        for m in (m1, m2):
            alt = sum((-1) ** i * expected_crit_above(m, i, u).value
                      for i in range(3))
            assert alt == pytest.approx(want, rel=1e-10, abs=1e-14)


def test_vacuous_threshold_recovers_totals():
    m = model_from_shape(2, 1.0, 1.1)
    for i in range(3):
        tot = expected_crit_total(m, i).value
        assert expected_crit_above(m, i, -12.0).value == pytest.approx(tot, rel=1e-6)
        assert expected_crit_above(m, i, -math.inf).value == pytest.approx(tot, rel=1e-13)


def test_boundary_continuity_spot():
    # the boundary is s = 0 of the interior's GOI(2) law: 1e-8 inside it
    # every density lies within 1e-6 relative of the boundary's (the gap
    # shrinks linearly with the distance)
    for mod, eta2, curvature in ((eu, 1.0, 0.0), (sp, 0.8, 0.8)):
        mb = mod.model_from_shape(2, eta2, curvature + 2.0)
        ma = mod.model_from_shape(2, eta2, curvature + 2.0 - 1e-8)
        assert mb.boundary and not ma.boundary
        for i in range(3):
            for x in (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5):
                assert height_density(ma, i, x) == pytest.approx(
                    height_density(mb, i, x), rel=1e-6, abs=0.0)


def test_closed_upper_tail_of_minima_does_not_cancel():
    # F_0(0.5) is 9.1e-22 here; 1 - F_2(-0.5) rounds to 2.2e-16
    assert expected_crit_above(model_from_shape(2, 1, 1.99), 0, 0.5).value < 1e-20


def _h2_mp(x, e2, k2, boundary=False, dps=50):
    # the N = 2 maxima density at dps digits, in the curvature e2 and
    # kappa^2: its erfc closed form, and the boundary's (k2 = 2 + e2)
    with mp.workdps(dps):
        x, e2, k2 = mp.mpf(x), mp.mpf(e2), mp.mpf(k2)
        pref = 2 * mp.sqrt(3 + e2) / (2 + e2 * mp.sqrt(3 + e2))
        if boundary:
            if x <= 0:
                return mp.mpf(0)
            # the terms cancel to O(x^4): 4 more digits a decade below 1
            with mp.workdps(dps + 4 * max(0, -int(mp.log10(x)))):
                return pref * (((e2 + 2) * x * x - 2) * mp.npdf(x)
                               + 2 * mp.npdf(x * mp.sqrt(3 + e2)))
        k, a, b = mp.sqrt(k2), 2 + e2 - k2, 3 + e2 - k2
        t1 = (e2 + k2 * (x * x - 1)) * mp.npdf(x) * mp.ncdf(k * x / mp.sqrt(a))
        t2 = k * mp.sqrt(a) / (2 * mp.pi) * x * mp.exp(-(2 + e2) * x * x / (2 * a))
        t3 = (mp.sqrt(2 / (mp.pi * b)) * mp.exp(-(3 + e2) * x * x / (2 * b))
              * mp.ncdf(k * x / mp.sqrt(a * b)))
        return pref * (t1 + t2 + t3)


def _h_mp(i, x, e2, k2, boundary=False, dps=50):
    # h_i at dps digits: h_1 is Gaussian (variance 1 at the boundary, where
    # 3 + e2 - k2 = 1), and h_0(x) = h_2(-x)
    if i != 1:
        return _h2_mp(x if i == 2 else -x, e2, k2, boundary, dps)
    with mp.workdps(dps):
        x, e2, k2 = mp.mpf(x), mp.mpf(e2), mp.mpf(k2)
        b = 1 if boundary else 3 + e2 - k2
        return mp.sqrt((3 + e2) / b) * mp.npdf(x * mp.sqrt((3 + e2) / b))


def _total_mp(i, eta2, e2):
    # the N = 2 index-i total at 50 digits, on R^2 (e2 = 0) or S^2 (e2 = eta2)
    with mp.workdps(50):
        eta2, e2 = mp.mpf(eta2), mp.mpf(e2)
        if e2 == 0:
            base = 1 / (mp.sqrt(3) * mp.pi * eta2)
            return 2 * base if i == 1 else base
        e1 = 1 / (mp.pi * e2 * mp.sqrt(3 + e2))
        return e1 if i == 1 else 1 / (4 * mp.pi) + e1 / 2


def _erfc_tail_mp(i, u, e2, k2, boundary=False):
    # the upper-tail fractions with erfc forms at 50 digits: index 1, and
    # the boundary maxima
    with mp.workdps(50):
        u, e2, k2 = mp.mpf(u), mp.mpf(e2), mp.mpf(k2)
        if i == 1:
            return mp.ncdf(-u * mp.sqrt((3 + e2) / (1 if boundary else 3 + e2 - k2)))
        a, r = max(u, 0), mp.sqrt(3 + e2)
        pref = 2 * r / (mp.sqrt(2 * mp.pi) * (2 + e2 * r))
        return pref * ((e2 + 2) * a * mp.exp(-a * a / 2)
                       + e2 * mp.sqrt(2 * mp.pi) * mp.ncdf(-a)
                       + 2 * mp.sqrt(2 * mp.pi) / r * mp.ncdf(-a * r))


def test_extrema_densities_near_the_boundary_match_mpmath():
    # at kappa^2 = 1.99 the erfc terms of h_2 at negative heights (h_0 at
    # positive ones) cancel by up to 8 orders of magnitude; the densities
    # hold 1e-12 relative wherever they are normal floats, and the minima
    # tail F_0(0.5) stays within its error
    m = model_from_shape(2, 1.0, 1.99)
    xs = np.linspace(-8.0, 8.0, 97)
    for i, sign in ((0, -1.0), (2, 1.0)):
        got = m.closed_pdf_n2(i, xs)
        want = np.array([float(_h2_mp(sign * x, 0.0, 1.99)) for x in xs])
        normal = want > 1e-290
        assert normal.sum() > 40
        assert np.all(np.abs(got - want)[normal] <= 1e-12 * want[normal])
        assert np.all(np.abs(got[~normal]) <= 1e-290)
    with mp.workdps(30):
        tail = mp.quad(lambda t: _h2_mp(-t, 0.0, 1.99), [0.5, 1.0, 2.0, mp.inf])
    assert float(tail) == pytest.approx(9.0754e-22, rel=1e-4)
    r = kr.height_cdf_result(m, 0, 0.5)
    assert abs(r.value - float(tail)) <= r.error


@pytest.mark.parametrize("space,eta2,kappa2", [("euclidean", 1.0, 2.0),
                                               ("sphere", 1.0, 3.0)])
def test_boundary_monte_carlo_pdf(space, eta2, kappa2):
    mod = eu if space == "euclidean" else sp
    m = mod.model_from_shape(2, eta2, kappa2)
    assert m.boundary
    p = m.problem()
    cfg = NumericConfig(mc_samples=200_000, seed=3)
    for i in range(3):
        for x in (-1.2, -0.4, 0.3, 1.2):
            got = kr.height_pdf_general(p, i, x, "monte-carlo", cfg)
            want = float(m.closed_pdf_n2(i, x))
            assert abs(got.value - want) <= 4.0 * got.error


def test_parameter_errors():
    m = model_from_shape(2, 1.0, 1.0)
    with pytest.raises(ParameterError):
        expected_crit_total(m, 3)
    with pytest.raises(MethodError):
        expected_crit_total(m, 1, "magic")
    with pytest.raises(MethodError):
        expected_crit_total(model_from_shape(3, 1.0, 1.0), 0, "closed-form")
    # a nan threshold or height is rejected by every route, not computed
    for method in ("closed-form", "quadrature", "monte-carlo"):
        with pytest.raises(ParameterError):
            expected_crit_above(m, 1, math.nan, method)
        with pytest.raises(ParameterError):
            kr.height_pdf_result(m, 0, math.nan, method)
        with pytest.raises(ParameterError):
            kr.height_cdf_result(m, 0, [0.1, math.nan], method)


def _boundary_minima_tail(u: float, e2: float) -> mp.mpf:
    # F_0(u) for u < 0 in the N = 2 boundary regime, to 40 digits: the
    # minima density h_0(t) = h_2(-t) vanishes for t > 0, so F_0(u) is the
    # integral of h_2 over [0, -u]
    with mp.workdps(40):
        return mp.quad(lambda x: _h2_mp(x, e2, 2 + e2, boundary=True),
                       [0, -mp.mpf(u)])


@pytest.mark.parametrize("model", [model_from_shape(2, 1.0, 2.0),
                                   sp.model_from_legendre(3)],
                         ids=["plane", "sphere-legendre-3"])
def test_boundary_minima_tail_within_its_error(model):
    # the boundary minima density ends at 0 with a jump; the outer rule
    # splits there, so the tail meets its stated error (0.47906119338038
    # on the plane)
    u = -1.757184595999166
    r = kr.height_cdf_result(model, 0, u)
    assert abs(r.value - float(_boundary_minima_tail(u, model.curvature))) <= r.error


@st.composite
def _n2_models(draw):
    # admissible N = 2 models on both geometries, interior (down to 1e-6
    # below the bound) and boundary.  On S^2 the curvature e2 is a dyadic
    # j/64 and C'' has 30 bits, so C' = e2 C'' and C'/C'' = e2 are exact:
    # near the bound the densities are ill-conditioned in 2 + e2 - kappa^2,
    # and a rounded 1 + e2 or 2 + e2 alone moves them by more than 1e-12,
    # in the e2, kappa^2 formulas and in G alike
    sphere = draw(st.booleans())
    e2 = draw(st.integers(1, 512)) / 64 if sphere else 0.0
    gap = draw(st.one_of(st.floats(max(-e2, -1.0) + 0.05, 1.99),
                         st.floats(2.0, 6.0).map(lambda d: 2.0 - 10.0 ** -d),
                         st.just(2.0)))
    if not sphere:
        return eu.model_from_shape(2, draw(st.floats(0.05, 20.0)), gap)
    if gap == 2.0:
        return sp.model_from_shape(2, e2, e2 + 2.0)
    mant, exp = math.frexp((gap + e2) / (e2 * e2))
    c2 = math.ldexp(round(math.ldexp(mant, 30)), exp - 30)
    return sp.model_from_C(2, e2 * c2, c2)


def _check_close(got, want):
    # 1e-12 relative where the reference is a normal float, else below it
    want = float(want)
    if want >= TINY:
        assert abs(got - want) <= 1e-12 * want, (got, want)
    else:
        assert abs(got - want) <= TINY, (got, want)


@settings(max_examples=30, deadline=None)
@given(m=_n2_models(), xs=st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3))
def test_closed_forms_match_the_curvature_kappa2_formulas(m, xs):
    # the GOI(2) closed forms on the count template's parameters against
    # the N = 2 formulas written in e2 and kappa^2, at 50 digits: totals,
    # densities and the erfc tails hold 1e-12 relative; a tail the outer
    # rule integrates (at the first height, to keep mp.quad's cost down)
    # holds its stated error
    e2, k2, bd = m.curvature, m.kappa2, m.boundary
    for i in range(3):
        _check_close(m.closed_total_n2(i), _total_mp(i, m.eta2, e2))
        for x, got in zip(xs, m.closed_pdf_n2(i, xs)):
            _check_close(got, _h_mp(i, x, e2, k2, bd))
        tails = m.closed_cdf_n2(i, xs)
        if i == 1 or (bd and i == 2):
            for u, got in zip(xs, tails.value):
                _check_close(got, _erfc_tail_mp(i, u, e2, k2, bd))
            continue
        u = xs[0]
        with mp.workdps(15):
            want = mp.quad(lambda t: _h_mp(i, t, e2, k2, bd, 15),
                           sorted({u, max(u, 0.0)}) + [max(u, 0.0) + 14])
        assert abs(tails.value[0] - float(want)) <= tails.error[0]
