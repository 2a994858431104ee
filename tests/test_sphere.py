"""Spherical counts, height distributions, and the Euler-characteristic check."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from critfield import (NumericConfig, expected_counts, height_cdf_result,
                       height_pdf_result)
from critfield.errors import (ImpossibleFieldError, InvalidCovarianceError,
                              MethodError, ParameterError)
from critfield.euclidean import model_from_shape as euclid_from_shape
from critfield.sphere import (euler_characteristic, model_from_C,
                              model_from_legendre, model_from_shape,
                              sphere_area)
from critfield.goi import validate_ensemble


def closed_total(eta2: float, i: int) -> float:
    # independent restatement of the S^2 totals used as oracle
    e1 = 1.0 / (math.pi * eta2 * math.sqrt(3.0 + eta2))
    if i == 1:
        return e1
    return 1.0 / (4.0 * math.pi) + 0.5 * e1


def test_model_validation():
    with pytest.raises(InvalidCovarianceError):
        model_from_C(2, -1.0, 1.0)
    with pytest.raises(InvalidCovarianceError):
        model_from_C(2, 1.0, 0.0)
    with pytest.raises(InvalidCovarianceError):
        model_from_C(0, 1.0, 1.0)
    with pytest.raises(InvalidCovarianceError):
        model_from_shape(2, -0.5, 1.0)
    with pytest.raises(InvalidCovarianceError):
        model_from_shape(2.5, 0.5, 1.0)
    # a degree of 3.7 is no degree 3
    with pytest.raises(InvalidCovarianceError):
        model_from_legendre(3.7)
    # C'(C'-1)/C'' = 3 exceeds (N+2)/N = 2: no such field exists
    with pytest.raises(ImpossibleFieldError) as exc:
        model_from_C(2, 3.0, 2.0)
    assert "exceeds" in str(exc.value)


def test_model_shape_roundtrip():
    m = model_from_shape(2, 0.7, 1.1)
    assert m.eta2 == pytest.approx(0.7, rel=1e-14)
    assert m.kappa2 == pytest.approx(1.1, rel=1e-14)
    assert m.c1 == pytest.approx(1.1 / 0.7, rel=1e-14)
    assert m.c2 == pytest.approx(1.1 / 0.49, rel=1e-14)
    assert not m.boundary

    b = model_from_shape(2, 1.0, 3.0)   # kappa^2 - eta^2 hits (N+2)/N
    assert b.boundary
    assert b.kappa2 == pytest.approx(3.0, rel=1e-14)
    # the property clamps any float overshoot at the bound
    assert b.kappa2 <= b.eta2 + b.gap_bound + 1e-15


def test_legendre_preset():
    m = model_from_legendre(2)
    assert m.c1 == pytest.approx(3.0)
    assert m.c2 == pytest.approx(3.0)
    assert m.eta2 == pytest.approx(1.0)
    assert m.kappa2 == pytest.approx(3.0)
    # C'(C'-1)/C'' = 2 for every degree: always boundary regime
    for degree in (2, 3, 8):
        ml = model_from_legendre(degree)
        assert ml.boundary
        assert ml.eta2 == pytest.approx(
            4.0 / ((degree - 1) * (degree + 2)), rel=1e-13)
    with pytest.raises(InvalidCovarianceError):
        model_from_legendre(1)


def test_count_problem():
    m = model_from_shape(2, 0.8, 1.5)
    p = m.problem()
    assert p.c_total == pytest.approx((1.0 + 0.8) / 2.0, rel=1e-14)
    assert p.c_cond == pytest.approx((1.0 + 0.8 - 1.5) / 2.0, rel=1e-14)
    assert p.shift_coeff == pytest.approx(math.sqrt(1.5 / 2.0), rel=1e-14)
    assert not validate_ensemble(p.n, p.c_cond).degenerate
    # boundary model: conditional c = (1 + eta^2 - kappa^2)/2 = -1/N
    pb = model_from_legendre(2).problem()
    assert validate_ensemble(pb.n, pb.c_cond).degenerate


def test_closed_totals():
    for eta2 in (0.25, 1.0, 4.0):
        m = model_from_shape(2, eta2, eta2 + 1.0)
        for i in range(3):
            r = expected_counts(m, [i])[0]
            assert r.method == "closed-form"
            assert r.value == pytest.approx(closed_total(eta2, i), rel=1e-13)


def test_whole_sphere_counts_legendre2():
    # degree-2 harmonic: exactly 2 maxima, 2 saddles, 2 minima on average
    m = model_from_legendre(2)
    area = sphere_area(2)
    for i in range(3):
        r = expected_counts(m, [i])[0]
        assert area * r.value == pytest.approx(2.0, rel=1e-12)


def test_sphere_area():
    assert sphere_area(1) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert sphere_area(2) == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert sphere_area(3) == pytest.approx(2.0 * math.pi ** 2, rel=1e-14)


@pytest.mark.parametrize("eta2,kappa2", [(0.5, 1.0), (2.0, 1.0),
                                         (1.0, 2.5), (1.0, 3.0)])
def test_closed_vs_quadrature(eta2, kappa2):
    m = model_from_shape(2, eta2, kappa2)
    cfg = NumericConfig()
    for i in range(3):
        c = expected_counts(m, [i], method="closed-form")[0]
        q = expected_counts(m, [i], method="quadrature", config=cfg)[0]
        assert q.value == pytest.approx(c.value, rel=1e-9)
        for x in (-1.2, 0.0, 0.9):
            cp = height_pdf_result(m, i, x, method="closed-form").value
            qp = height_pdf_result(m, i, x, method="quadrature", config=cfg).value
            tol = 3e-6 if m.boundary else 1e-8
            assert qp == pytest.approx(cp, rel=tol, abs=1e-12)
    for u in (-0.7, 0.6):
        ca = expected_counts(m, [1], u, method="closed-form")[0]
        qa = expected_counts(m, [1], u, method="quadrature", config=cfg)[0]
        assert qa.value == pytest.approx(ca.value, rel=1e-7)


@pytest.mark.parametrize("model", [model_from_shape(2, 0.5, 1.2),
                                   model_from_legendre(3)])
def test_pdf_normalization(model):
    for i in range(3):
        mass, _ = quad(lambda x: height_pdf_result(model, i, x).value,
                       -14.0, 14.0, limit=200)
        assert mass == pytest.approx(1.0, abs=1e-8)


def test_height_symmetries():
    m = model_from_shape(2, 1.0, 2.0)
    xs = np.linspace(-4.0, 4.0, 41)
    h1 = height_pdf_result(m, 1, xs).value
    assert np.allclose(h1, h1[::-1], atol=1e-13)       # saddle heights even
    h0 = height_pdf_result(m, 0, xs).value
    h2 = height_pdf_result(m, 2, xs).value
    assert np.allclose(h0, h2[::-1], atol=1e-13)        # min/max mirror


def test_cdf_shape():
    for m in (model_from_shape(2, 0.5, 1.2), model_from_legendre(2)):
        us = np.linspace(-6.0, 6.0, 61)
        for i in range(3):
            F = height_cdf_result(m, i, us).value
            assert np.all(np.diff(F) <= 1e-12)          # upper tail decreases
            # heights carry ~1e-7 of mass beyond |u| = 6
            assert F[0] == pytest.approx(1.0, abs=1e-6)
            assert F[-1] == pytest.approx(0.0, abs=1e-6)
        assert height_cdf_result(m, 1, 0.0).value == pytest.approx(0.5, abs=1e-12)
    # boundary regime pins the support: maxima never fall below 0
    b = model_from_legendre(2)
    assert height_cdf_result(b, 2, -1.0).value == pytest.approx(1.0, abs=1e-14)
    assert height_cdf_result(b, 0, 0.5).value == pytest.approx(0.0, abs=1e-14)


def test_vacuous_threshold_matches_total():
    m = model_from_shape(2, 1.5, 2.0)
    for i in range(3):
        tot = expected_counts(m, [i])[0].value
        assert expected_counts(m, [i], -12.0)[0].value == pytest.approx(
            tot, rel=1e-6)
        assert expected_counts(m, [i], -math.inf)[0].value == pytest.approx(
            tot, rel=1e-13)


def test_index_symmetry_closed():
    m = model_from_shape(2, 0.8, 1.7)
    for i in range(3):
        tot = expected_counts(m, [i])[0].value
        assert expected_counts(m, [2 - i])[0].value == pytest.approx(
            tot, rel=1e-13)
        for u in (-0.9, 0.0, 1.1):
            a = expected_counts(m, [2 - i], u)[0].value
            b = expected_counts(m, [i], -u)[0].value
            assert a + b == pytest.approx(tot, rel=1e-9)


def test_euler_characteristic_closed():
    for m in (model_from_shape(2, 0.5, 1.0), model_from_shape(2, 2.0, 3.5),
              model_from_legendre(2), model_from_legendre(5)):
        r = euler_characteristic(m)
        assert r.value == pytest.approx(2.0, abs=1e-12)


def test_euler_characteristic_general_methods():
    m = model_from_shape(2, 1.0, 2.0)
    q = euler_characteristic(m, method="quadrature")
    assert q.value == pytest.approx(2.0, abs=max(4.0 * q.error, 1e-6))
    mc = euler_characteristic(
        m, method="monte-carlo",
        config=NumericConfig(mc_samples=200_000, seed=11))
    assert abs(mc.value - 2.0) < 4.0 * mc.error
    # odd-dimensional sphere: counts cancel exactly, chi(S^1) = 0
    c = euler_characteristic(model_from_C(1, 1.0, 1.5), method="quadrature")
    assert abs(c.value) <= max(4.0 * c.error, 1e-8)


def test_n3_totals_quadrature_vs_mc():
    m = model_from_shape(3, 1.0, 1.5)
    cfg = NumericConfig(mc_samples=150_000, seed=29)
    for i in (0, 2):
        q = expected_counts(m, [i], method="quadrature")[0]
        mc = expected_counts(m, [i], method="monte-carlo", config=cfg)[0]
        assert abs(mc.value - q.value) < 4.0 * mc.error


def test_small_sphere_recovers_planar_counts():
    # eta^2 -> 0 with kappa^2 fixed reproduces the planar model whose
    # eta^2 is twice the spherical one (chordal vs geodesic scaling)
    eta2_s = 1e-4
    ms = model_from_shape(2, eta2_s, eta2_s + 1.3)
    me = euclid_from_shape(2, 2.0 * eta2_s, 1.3)
    for i in range(3):
        es = expected_counts(ms, [i])[0].value
        ee = expected_counts(me, [i])[0].value
        assert es == pytest.approx(ee, rel=3e-4)


def test_small_sphere_recovers_planar_heights():
    # leading correction is O(eta^2), so shrinking eta^2 tightens agreement
    for eta2_s, tol in ((1e-3, 6e-3), (1e-4, 6e-4)):
        ms = model_from_shape(2, eta2_s, eta2_s + 1.2)
        me = euclid_from_shape(2, 2.0 * eta2_s, 1.2)
        for i in range(3):
            for x in (-2.0, -0.5, 0.0, 1.0, 2.0):
                ps = height_pdf_result(ms, i, x).value
                pe = height_pdf_result(me, i, x).value
                assert ps == pytest.approx(pe, rel=tol, abs=1e-10)


@pytest.mark.parametrize("kappa2", [0.5, 1.0, 1.5, 2.0 + 1e-8])
def test_planar_n2_laws_are_the_zero_curvature_limit(kappa2):
    # eta^2 enters the sphere's Hessian law only as curvature: at eta^2 ->
    # 0 its N = 2 height laws and count parameters are the planar ones at
    # the same gap kappa^2 - eta^2, boundary regime included
    eta2 = 1e-8
    ms = model_from_shape(2, eta2, kappa2)
    me = euclid_from_shape(2, 1.0, kappa2 - eta2)
    assert ms.boundary == me.boundary
    x = np.linspace(-4.0, 4.0, 33)
    for i in range(3):
        assert np.allclose(height_pdf_result(ms, i, x, "closed-form").value,
                           height_pdf_result(me, i, x, "closed-form").value,
                           rtol=0.0, atol=1e-7)
        for u in x[::4]:
            assert height_cdf_result(ms, i, u, "closed-form").value == pytest.approx(
                height_cdf_result(me, i, u, "closed-form").value, rel=0.0, abs=1e-7)
    ps, pe = ms.problem(), me.problem()
    for name in ("c_total", "c_cond", "cap_coeff"):
        assert getattr(ps, name) == pytest.approx(getattr(pe, name),
                                                  rel=0.0, abs=1e-7)


def test_parameter_errors():
    m = model_from_shape(2, 1.0, 1.0)
    with pytest.raises(ParameterError):
        expected_counts(m, [3])
    with pytest.raises(ParameterError):
        height_pdf_result(m, -1, 0.0)
    with pytest.raises(MethodError):
        expected_counts(m, [0], method="bogus")
    m3 = model_from_shape(3, 1.0, 1.0)
    with pytest.raises(MethodError):
        expected_counts(m3, [0], method="closed-form")
