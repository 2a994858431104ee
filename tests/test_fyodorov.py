"""GOE(N+1) reduction: oracle values, cross-path agreement, regime guards."""
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from critfield import expected_counts
from critfield import fyodorov as fy
from critfield.errors import MethodError, ParameterError, RegimeError
from critfield.euclidean import model_from_rho
from critfield.euclidean import model_from_shape as euclid_from_shape
from critfield.fyodorov import GoeReduction, reduced_expectation
from critfield.goi import (IndexedFunctional, NumericConfig, goi_expectation,
                           nested_ordered_quadrature, validate_ensemble)
from critfield.sphere import model_from_shape as sphere_from_shape

EPS = np.finfo(float).eps


def test_log_weight_formula():
    red = GoeReduction(goe=validate_ensemble(3, 0.0), eigen_position=1,
                       shift=0.7, coupling=2.0)
    mu = np.array([-1.0, 0.0, 2.5])
    expect = 0.5 * mu ** 2 - (mu - 0.7) ** 2 / 4.0
    assert np.allclose(red.log_weight(mu), expect, atol=1e-15)


@pytest.mark.parametrize("shift", [0.0, 0.7])
@pytest.mark.parametrize("c", [5e-7, 0.3])
@pytest.mark.parametrize("u", [-math.inf, -1.0, 0.4])
def test_one_weight_is_the_threshold_factor(shift, c, u):
    # the count weight with spread b and threshold u is mu^2/2 plus the
    # closed-form height integral at mu - a, its constant sqrt(c / t) taken
    # out; at b = 0 and u = -inf it is the plain shifted weight
    b = 0.6
    t = c + b * b
    red = GoeReduction(goe=validate_ensemble(3, 0.0), eigen_position=1,
                       shift=shift, coupling=c, spread=b, threshold=u)
    mu = np.array([-2.0, -0.3, 0.0, 1.1, 2.5])
    want = [0.5 * m * m + _log_threshold_factor_mp(m - shift, b, c, u)
            + 0.5 * math.log(t / c) for m in mu]
    np.testing.assert_allclose(red.log_weight(mu), want, rtol=1e-13, atol=1e-13)
    plain = GoeReduction(goe=validate_ensemble(3, 0.0), eigen_position=1,
                         shift=shift, coupling=c)
    assert np.array_equal(plain.log_weight(mu),
                          0.5 * mu * mu - (mu - shift) ** 2 / (2.0 * c))


def test_n1_positive_eigenvalue_oracle():
    # GOI(1, c=1) is N(0, 2); E[|lam| ; lam > 0] = sqrt(2)/sqrt(2 pi) = 1/sqrt(pi)
    ens = validate_ensemble(1, 1.0)
    fun = IndexedFunctional(index=0)
    red = GoeReduction(goe=validate_ensemble(2, 0.0), eigen_position=0,
                       shift=0.0, coupling=1.0)
    val, err = reduced_expectation(red, method="quadrature")
    assert val == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-10)
    assert err < 1e-9
    # auto resolves to quadrature for a 2x2 GOE
    val_auto, _ = reduced_expectation(red)
    assert val_auto == val
    # and the direct GOI engine agrees
    direct, _ = goi_expectation(ens, fun, method="quadrature")
    assert direct == pytest.approx(val, rel=1e-9)
    # c = 1 with zero shift makes the GOE weight identically one, so the
    # sampler must return the prefactor with no scatter at all
    mval, mse = reduced_expectation(
        red, method="monte-carlo", config=NumericConfig(mc_samples=1_000, seed=2))
    assert mval == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)
    assert mse == 0.0


def test_n1_reduction_mc_agrees():
    red = GoeReduction(goe=validate_ensemble(2, 0.0), eigen_position=1,
                       shift=0.0, coupling=0.6)
    qval, _ = reduced_expectation(red, method="quadrature")
    mval, mse = reduced_expectation(
        red, method="monte-carlo", config=NumericConfig(mc_samples=300_000, seed=5))
    assert mse > 0.0
    assert abs(mval - qval) < 4.0 * mse


def test_rice_line_cross_path():
    # kappa^2 = 0.5 < 1 keeps the N=1 model inside the reduction regime
    m = model_from_rho(1, -0.5, 0.5)
    for i in (0, 1):
        ref = expected_counts(m, [i], method="quadrature")[0]
        red = expected_counts(m, [i], method="fyodorov", inner="quadrature")[0]
        assert red.method == "fyodorov"
        assert red.value == pytest.approx(ref.value, rel=1e-8)
    for u in (-0.4, 0.8):
        ref = expected_counts(m, [0], u, method="quadrature")[0]
        red = expected_counts(m, [0], u, "fyodorov", inner="quadrature")[0]
        assert red.value == pytest.approx(ref.value, rel=1e-7)


def test_planar_n2_quadrature_cross_path():
    m = euclid_from_shape(2, 1.0, 0.49)
    ref = expected_counts(m, [1])[0]
    red = expected_counts(m, [1], method="fyodorov", inner="quadrature")[0]
    assert red.value == pytest.approx(ref.value, rel=1e-7)
    ref_u = expected_counts(m, [1], 0.5)[0]
    red_u = expected_counts(m, [1], 0.5, "fyodorov", inner="quadrature")[0]
    assert red_u.value == pytest.approx(ref_u.value, rel=1e-7)


def test_planar_n2_mc_cross_path():
    m = euclid_from_shape(2, 1.0, 0.49)
    cfg = NumericConfig(mc_samples=400_000, seed=17)
    for i in range(3):
        ref = expected_counts(m, [i])[0]
        red = expected_counts(m, [i], method="fyodorov", config=cfg,
                              inner="monte-carlo")[0]
        assert abs(red.value - ref.value) < 4.0 * red.error
    for u in (-0.5, 0.7):
        ref = expected_counts(m, [2], u)[0]
        red = expected_counts(m, [2], u, "fyodorov", config=cfg, inner="monte-carlo")[0]
        assert abs(red.value - ref.value) < 4.0 * red.error


def test_sphere_mc_cross_path():
    m = sphere_from_shape(2, 0.5, 1.0)   # kappa^2 - eta^2 = 0.5 < 1
    cfg = NumericConfig(mc_samples=400_000, seed=23)
    ref = expected_counts(m, [1])[0]
    red = expected_counts(m, [1], method="fyodorov", config=cfg, inner="monte-carlo")[0]
    assert abs(red.value - ref.value) < 4.0 * red.error
    ref_u = expected_counts(m, [2], 0.4)[0]
    red_u = expected_counts(m, [2], 0.4, "fyodorov", config=cfg, inner="monte-carlo")[0]
    assert abs(red_u.value - ref_u.value) < 4.0 * red_u.error


def _log_threshold_factor(mu, b, c, u):
    # log int_u^inf phi(x) exp(-(mu - b x)^2 / (2 c)) dx from the route's
    # weight at shift 0: log_weight(mu) - mu^2/2 is it plus log(t/c) / 2
    red = GoeReduction(goe=validate_ensemble(3, 0.0), eigen_position=1,
                       shift=0.0, coupling=c, spread=b, threshold=u)
    return (red.log_weight(np.array(mu)) - 0.5 * mu * mu
            - 0.5 * math.log(red.total_coupling / c))


@pytest.mark.parametrize("mu,b,c,u", [
    (0.3, 0.5, 0.8, -math.inf),
    (0.3, 0.5, 0.8, 0.6),
    (-1.2, 0.9, 0.3, -2.0),
    (2.0, 0.1, 2.5, 1.5),
])
def test_threshold_factor_vs_quadrature(mu, b, c, u):
    def integrand(x):
        return (math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
                * math.exp(-(mu - b * x) ** 2 / (2.0 * c)))
    lo = -12.0 if math.isinf(u) else u
    ref, _ = quad(integrand, lo, 12.0, epsabs=1e-15, epsrel=1e-13, limit=300)
    got = math.exp(float(_log_threshold_factor(mu, b, c, u)))
    assert got == pytest.approx(ref, rel=1e-11)


def _log_threshold_factor_mp(mu, b, c, u):
    # the same integral in its (A, B) form, A = 1 + b^2/c and B = b mu/c,
    # at 50 digits, where the terms in mu^2/c cancel harmlessly
    with mp.workdps(50):
        mu, b, c = mp.mpf(mu), mp.mpf(b), mp.mpf(c)
        a, bb = 1 + b * b / c, b * mu / c
        tail = 1 if u == -math.inf else mp.erfc((u - bb / a) * mp.sqrt(a / 2)) / 2
        return float(bb * bb / (2 * a) - mu * mu / (2 * c) + mp.log(tail)
                     - mp.log(a) / 2)


@pytest.mark.parametrize("c", [5e-7, 5e-13])   # kappa^2 = 1 - 2 c on R^N
@pytest.mark.parametrize("mu", [0.3, -1.1])
@pytest.mark.parametrize("k", [-math.inf, -8.0, 0.0, 2.0])
def test_threshold_factor_near_kappa2_one_vs_mpmath(c, mu, k):
    # as c_cnd -> 0 the tail steps at u = b mu / t over a width sqrt(c / t);
    # u sits k widths from the step (-inf: the total)
    b = math.sqrt(0.5)
    t = c + b * b
    u = -math.inf if k == -math.inf else b * mu / t + k * math.sqrt(c / t)
    got = float(_log_threshold_factor(mu, b, c, u))
    ref = _log_threshold_factor_mp(mu, b, c, u)
    # on the step the exact value moves by sqrt(t / c) per unit of b mu / t,
    # which rounds within a few ulps: allow what 8 ulps of mu move it (off
    # the step, nothing)
    wobble = abs(_log_threshold_factor_mp(mu * (1.0 + 8.0 * EPS), b, c, u) - ref)
    assert abs(got - ref) <= 1e-13 + wobble


@settings(max_examples=60)
@given(shift=st.sampled_from([0.0, 0.7, -2.3]), log_c=st.floats(-12.0, 0.5),
       b=st.sampled_from([0.0, 0.05, 0.6, 1.7]),
       u=st.one_of(st.just(-math.inf), st.floats(-4.0, 4.0)))
def test_gauss_weight_is_exp_log_weight(shift, log_c, b, u):
    # quadrature integrates GoeReduction.gauss_weight and Monte Carlo
    # exp(log_weight): the two forms of one weight agree pointwise within
    # 1e-12, on a grid of mu, around the mean at the width sqrt(t), and
    # around the threshold's step (d = u t / b, width sqrt(t c) / b; each
    # point cut to |d| <= 8, as far out as the law reaches).  On the
    # step each form rounds its Phi argument X = (b d / t - u) sqrt(t / c)
    # within a few ulps of S = (|b d / t| + |u|) sqrt(t / c): allow what 16
    # ulps of S move the weight (off the step, nothing).
    c = 10.0 ** log_c
    red = GoeReduction(goe=validate_ensemble(3, 0.0), eigen_position=1,
                       shift=shift, coupling=c, spread=b, threshold=u)
    t = red.total_coupling
    k = np.array([-30.0, -3.0, -0.5, 0.0, 0.5, 3.0, 30.0])
    d = np.concatenate([np.linspace(-5.0, 5.0, 41), k * math.sqrt(t)]
                       + ([u * t / b + k * math.sqrt(t * c) / b]
                          if b and u > -math.inf else []))
    d = np.clip(d, -8.0, 8.0)
    mu = shift + d
    with np.errstate(under="ignore"):
        want = np.exp(red.log_weight(mu))
        got = red.gauss_weight()(mu)
        if u > -math.inf:
            x = (b * d / t - u) * math.sqrt(t / c)
            scale = (np.abs(b * d / t) + abs(u)) * math.sqrt(t / c)
            wobble = 16.0 * EPS * scale * np.exp(
                0.5 * mu * mu - d * d / (2.0 * t) - 0.5 * x * x) / math.sqrt(2.0 * math.pi)
        else:
            wobble = 0.0
    assert (np.abs(got - want) <= 1e-12 * want + wobble + 1e-300).all()


@pytest.mark.parametrize("n", [1, 2])
def test_quadrature_matches_the_general_route_as_kappa2_tends_to_one(n):
    # the GOE(N+1) weight steps in mu over a width sqrt(c_cnd / t) as
    # kappa^2 -> 1; its trace integral is a closed form, so the step costs
    # the gap rule nothing and every count above u keeps the general
    # route's value within 1e-10 (the Gauss trace axis missed by up to 1e-2)
    for kappa2 in (0.999, 1.0 - 1e-6, 1.0 - 1e-12):
        m = euclid_from_shape(n, 1.0, kappa2)
        for u in (-1.0, 0.3, 2.5):
            for i in range(n + 1):
                red = expected_counts(m, [i], u, "fyodorov", inner="quadrature")[0]
                ref = expected_counts(m, [i], u, "quadrature")[0]
                assert red.value == pytest.approx(ref.value, rel=1e-10), (kappa2, u, i)
                assert abs(red.value - ref.value) <= red.error + ref.error


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("c", [0.5, 5.0, 100.0])
def test_quadrature_matches_the_general_route_at_any_coupling(n, c):
    # as c grows the GOE(N+1) weight's square outgrows the law (c >= 2): the
    # values keep the general route's, and the truncation bound stays finite
    ens = validate_ensemble(n, c)
    goe = validate_ensemble(n + 1, 0.0)
    for i in range(n + 1):
        fun = IndexedFunctional(index=i, shift=0.3)
        val, err = reduced_expectation(
            GoeReduction(goe=goe, eigen_position=i, shift=0.3, coupling=c),
            "quadrature")
        ref, ref_err = goi_expectation(ens, fun, "quadrature")
        assert abs(val - ref) <= err + ref_err
        assert val == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_shifted_count_weight_matches_the_general_route(n):
    # with a shift, a spread and a threshold the GOE(N+1) value is
    # int_u^inf phi(x) E_GOI(N,c)[g_i(a + b x)] dx: the general engine's
    # batch of splits a + b x on a 64-node Gauss-Legendre rule in x
    a, b, c, u = 0.7, 0.6, 0.3, 0.4
    t, w = np.polynomial.legendre.leggauss(64)
    x = u + 7.0 * (t + 1.0)
    w = 7.0 * w * np.exp(-0.5 * x * x)
    for i in range(n + 1):
        red = GoeReduction(goe=validate_ensemble(n + 1, 0.0), eigen_position=i,
                           shift=a, coupling=c, spread=b, threshold=u)
        val, err = reduced_expectation(red, "quadrature")
        vals, errs = nested_ordered_quadrature(n, c, n_lower=i, split=a + b * x)
        ref = (w * vals).sum() / math.sqrt(2.0 * math.pi)
        ref_err = (w * errs).sum() / math.sqrt(2.0 * math.pi)
        assert abs(val - ref) <= err + ref_err + 1e-12 * ref


def test_total_keeps_its_accuracy_as_kappa2_tends_to_one():
    # the weight's constant sqrt(c_cnd / c_tot) lives in the prefactor, so
    # the GOE(2) quadrature of an N = 1 total does not fall to its absolute
    # tolerance as c_cnd -> 0 (with it in the weight: error 2e-9 at 1 - 1e-12)
    want = expected_counts(euclid_from_shape(1, 1.0, 0.5), [0], method="quadrature")[0]
    for kappa2 in (1 - 1e-6, 1 - 1e-12):
        r = expected_counts(euclid_from_shape(1, 1.0, kappa2), [0], method="fyodorov")[0]
        assert r.error < 1e-10
        assert abs(r.value - want.value) <= 1e-15


@pytest.mark.parametrize("method", ["quadrature", "monte-carlo"])
def test_count_above_inf_is_zero_without_integrating(method):
    m = model_from_rho(1, -0.5, 0.5)
    cfg = NumericConfig(mc_samples=1000, seed=4)
    for i in (0, 1):
        r = expected_counts(m, [i], math.inf, "fyodorov", config=cfg, inner=method)[0]
        assert (r.value, r.error, r.method) == (0.0, 0.0, "fyodorov")
        # the default threshold and -inf both ask for the total
        assert (expected_counts(m, [i], method="fyodorov", config=cfg, inner=method)
                == expected_counts(m, [i], -math.inf, "fyodorov", cfg, method))


def test_weights_that_overflow_raise():
    cfg = NumericConfig(mc_samples=500, seed=1)
    with pytest.raises(MethodError, match="N = 2"):
        fy._goe_weighted_mc(validate_ensemble(3, 0.0), 0,
                            lambda mu: np.exp(700.0 + 10.0 * np.abs(mu)), cfg)


@pytest.mark.parametrize("space", ["euclidean", "sphere"])
def test_totals_share_a_mirror_pair_on_quadrature_only(monkeypatch, space):
    # N = 2: GOE(3) positions 0 and 2 are mirror images at u = -inf, so
    # quadrature integrates 2 of the 3 totals; Monte Carlo keeps one value
    # per index (pairing before a trace integration can raise the variance)
    model = (euclid_from_shape(2, 1.0, 0.5) if space == "euclidean"
             else sphere_from_shape(2, 0.5, 1.0))
    calls = []
    for name in ("nested_ordered_quadrature", "_goe_weighted_mc"):
        real = getattr(fy, name)

        def counting(*args, real=real, name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(fy, name, counting)
    quad = expected_counts(model, [0, 1, 2], -math.inf, "fyodorov", None,
                           "quadrature")
    assert calls == ["nested_ordered_quadrature"] * 2
    assert (quad[0].value, quad[0].error) == (quad[2].value, quad[2].error)
    one = [expected_counts(model, [i], method="fyodorov", inner="quadrature")[0]
           for i in range(3)]
    assert [(r.value, r.error) for r in one] == [(r.value, r.error) for r in quad]
    calls.clear()
    cfg = NumericConfig(mc_samples=4000, seed=3)
    mc = expected_counts(model, [0, 1, 2], -math.inf, "fyodorov", cfg,
                         "monte-carlo")
    assert calls == ["_goe_weighted_mc"] * 3
    assert mc[0].value != mc[2].value
    assert abs(mc[0].value - mc[2].value) < 4 * math.hypot(mc[0].error, mc[2].error)
    assert abs(mc[0].value - quad[0].value) < 4 * mc[0].error


def test_regime_errors():
    # valid planar model, but kappa^2 = 1.5 >= 1 kills the conditional c
    m = euclid_from_shape(2, 1.0, 1.5)
    with pytest.raises(RegimeError) as exc:
        expected_counts(m, [1], 0.0, "fyodorov")
    assert "kappa^2" in str(exc.value)
    # boundary of the regime (c_cond = 0) is excluded too
    with pytest.raises(RegimeError):
        expected_counts(euclid_from_shape(2, 1.0, 1.0), [0], method="fyodorov")
    ms = sphere_from_shape(2, 1.0, 2.2)   # gap 1.2 >= 1
    with pytest.raises(RegimeError) as exc:
        expected_counts(ms, [1], method="fyodorov")
    assert "eta^2" in str(exc.value)
    # the message names the count path that does serve the model
    assert 'use expected_counts with method "auto"' in str(exc.value)


def test_method_and_parameter_errors():
    red = GoeReduction(goe=validate_ensemble(4, 0.0), eigen_position=0,
                       shift=0.0, coupling=1.0)
    with pytest.raises(MethodError):
        reduced_expectation(red, method="quadrature")   # GOE(4) box
    with pytest.raises(MethodError):
        reduced_expectation(red, method="bogus")
    m = euclid_from_shape(2, 1.0, 0.49)
    with pytest.raises(ParameterError):
        expected_counts(m, [5], method="fyodorov")
    with pytest.raises(MethodError):
        expected_counts(m, [0], 0.0, "fyodorov", inner="bogus")
    with pytest.raises(ParameterError):
        expected_counts("not a model", [0], method="fyodorov")


@pytest.mark.parametrize("method", ["quadrature", "monte-carlo"])
def test_nan_threshold_raises_parameter_error(method):
    # the route shares the general path's input checks
    cfg = NumericConfig(mc_samples=1000, seed=1)
    with pytest.raises(ParameterError, match="nan"):
        expected_counts(euclid_from_shape(1, 1.0, 0.5), [0], math.nan, "fyodorov",
                        cfg, method)


def test_auto_method_selection():
    # N=1 model reduces to GOE(2): auto should give the quadrature answer
    m = model_from_rho(1, -0.5, 0.5)
    auto = expected_counts(m, [0], method="fyodorov")[0]
    by_quad = expected_counts(m, [0], method="fyodorov", inner="quadrature")[0]
    assert auto.value == by_quad.value
    # N=2 reduces to GOE(3): auto samples, so a seed must make it reproducible
    m2 = euclid_from_shape(2, 1.0, 0.49)
    cfg = NumericConfig(mc_samples=50_000, seed=3)
    a = expected_counts(m2, [1], method="fyodorov", config=cfg)[0]
    b = expected_counts(m2, [1], method="fyodorov", config=cfg, inner="monte-carlo")[0]
    assert a.value == b.value
