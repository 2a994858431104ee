"""Planar counts and height distributions."""
import math

import numpy as np
import pytest
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
    mb = model_from_shape(2, 1.0, 2.0)
    ma = model_from_shape(2, 1.0, 2.0 - 1e-3)
    for x in (0.5, 1.5, 2.5):
        assert height_density(ma, 2, x) == pytest.approx(
            height_density(mb, 2, x), abs=1e-2)


def test_closed_upper_tail_of_minima_does_not_cancel():
    # F_0(0.5) is 9.1e-22 here; 1 - F_2(-0.5) rounds to 2.2e-16
    assert expected_crit_above(model_from_shape(2, 1, 1.99), 0, 0.5).value < 1e-20


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
