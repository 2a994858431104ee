"""The trace-gap quadrature engine: exactness against closed forms, honest
error columns, and properties over random admissible parameters."""
import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr

from critfield import (
    NumericConfig,
    euler_characteristic,
    expected_crit_above,
    expected_crit_total,
    expected_crit_total_sphere,
    model_from_shape,
    sphere_model_from_shape,
)
from critfield import _kacrice as kr
from critfield import euclidean as eu
from critfield import goi
from critfield import sphere as sp
from critfield.cli import main

EPS = np.finfo(float).eps
PROPERTY = settings(max_examples=12, deadline=None, derandomize=True)


def _closed_slack(total: float) -> float:
    # the closed forms carry their own rounding: allow a few ulps of the
    # index total
    return 8.0 * EPS * total


@pytest.mark.parametrize("kappa2", [0.36, 1.0, 1.44, 1.9, 1.99, 1.9999, 1.99999,
                                    1.999999, 1.99999999, 2.0])
def test_error_column_covers_closed_form_n2(kappa2):
    m = model_from_shape(2, 1.0, kappa2)
    p = m.problem()
    cfg = NumericConfig()
    for i in range(3):
        closed_total = m.closed_total_n2(i)
        tot = expected_crit_total(m, i, "quadrature", cfg)
        assert abs(tot.value - closed_total) <= tot.error + _closed_slack(closed_total)
        for u in (-0.8, 0.5, 1.2):
            ab = expected_crit_above(m, i, u, "quadrature", cfg)
            want = expected_crit_above(m, i, u, "closed-form").value
            assert abs(ab.value - want) <= ab.error + _closed_slack(closed_total)
        for x in (-0.9, 0.0, 0.7):
            pdf = kr.height_pdf_general(p, i, x, "quadrature", cfg)
            want = float(m.closed_pdf_n2(i, x))
            assert abs(pdf.value - want) <= pdf.error + _closed_slack(1.0)


@pytest.mark.parametrize("kappa2", [1.0, 2.0])
def test_no_count_above_infinite_threshold(kappa2):
    m = model_from_shape(2, 1.0, kappa2)
    for i in range(3):
        r = expected_crit_above(m, i, math.inf, "quadrature")
        assert r.value == 0.0 and r.error == 0.0


@pytest.mark.parametrize("space,eta2,kappa2", [("euclidean", 1.0, 2.0),
                                               ("sphere", 1.0, 3.0)])
def test_boundary_pdf_by_the_degenerate_ensemble(space, eta2, kappa2):
    mod = eu if space == "euclidean" else sp
    m = mod.model_from_shape(2, eta2, kappa2)
    assert m.boundary
    p = m.problem()
    for i in range(3):
        for x in (-1.4, -0.2, 0.3, 1.2, 2.5):
            got = kr.height_pdf_general(p, i, x, "quadrature", NumericConfig())
            want = float(m.closed_pdf_n2(i, x))
            assert got.value == pytest.approx(want, rel=1e-8, abs=1e-14)
            assert abs(got.value - want) <= got.error + _closed_slack(1.0)


def _euclid_kappa2(n: int):
    bound = (n + 2.0) / n
    return st.one_of(st.floats(0.05, bound - 1e-2),
                     st.floats(bound - 1e-2, bound - 1e-6),
                     st.just(bound))


@st.composite
def euclid_models(draw, n: int):
    return model_from_shape(n, draw(st.floats(0.3, 3.0)), draw(_euclid_kappa2(n)))


@st.composite
def sphere_models(draw, n: int):
    eta2 = draw(st.floats(0.2, 3.0))
    bound = (n + 2.0) / n
    gap = draw(st.one_of(st.floats(max(-eta2, -1.0) + 0.05, bound - 1e-2),
                         st.floats(bound - 1e-2, bound - 1e-6),
                         st.just(bound)))
    return sphere_model_from_shape(n, eta2, eta2 + gap)


@pytest.mark.parametrize("n", [2, 3])
@PROPERTY
@given(data=st.data())
def test_totals_index_symmetry_and_euler(n, data):
    me = data.draw(euclid_models(n))
    ms = data.draw(sphere_models(n))
    tot_e = [expected_crit_total(me, i, "quadrature") for i in range(n + 1)]
    tot_s = [expected_crit_total_sphere(ms, i, "quadrature") for i in range(n + 1)]
    for tot in (tot_e, tot_s):
        for i in range(n + 1):
            a, b = tot[i], tot[n - i]
            assert abs(a.value - b.value) <= a.error + b.error
    # R^N: the alternating sum vanishes; whole sphere: chi(S^N) = 1 + (-1)^N
    alt = sum((-1) ** i * r.value for i, r in enumerate(tot_e))
    assert abs(alt) <= sum(r.error for r in tot_e)
    chi = euler_characteristic(ms, method="quadrature")
    assert abs(chi.value - (1 + (-1) ** n)) <= chi.error


@PROPERTY
@given(data=st.data(), u=st.floats(-2.0, 1.5), du=st.floats(0.05, 1.0))
def test_upper_tail_fraction_nonincreasing_n2(data, u, du):
    for mod, models in ((eu, euclid_models), (sp, sphere_models)):
        m = data.draw(models(2))
        p = m.problem()
        for i in range(3):
            a = kr.height_cdf_general(p, i, u, "quadrature", NumericConfig())
            b = kr.height_cdf_general(p, i, u + du, "quadrature", NumericConfig())
            assert b.value <= a.value + a.error + b.error


def test_upper_tail_fraction_nonincreasing_n3():
    m = model_from_shape(3, 1.0, 1.6)          # within 0.07 of the boundary
    p = m.problem()
    f = [kr.height_cdf_general(p, 1, u, "quadrature", NumericConfig())
         for u in (-0.5, 0.4)]
    assert f[1].value <= f[0].value + f[0].error + f[1].error
    assert 0.0 < f[1].value < f[0].value < 1.0


def test_n3_thresholded_counts_match_kinematic_formula():
    # sum_i (-1)^(N-i) E[count of index i above u] is the Euler
    # characteristic density of the excursion set,
    # (lambda_2 / 2 pi)^(3/2) (u^2 - 1) phi(u) with lambda_2 = -2 rho'
    # (up to the boundary kappa^2 = 5/3, where the trace cap's edge is
    # steepest)
    for kappa2 in (1.2, 1.6, 1.6666):
        m = model_from_shape(3, 1.0, kappa2)
        lam2 = -2.0 * m.rho1
        for u in (-1.0, 0.7, 2.0):
            rows = [expected_crit_above(m, i, u, "quadrature") for i in range(4)]
            alt = sum((-1) ** (3 - i) * r.value for i, r in enumerate(rows))
            want = ((lam2 / (2.0 * math.pi)) ** 1.5 * (u * u - 1.0)
                    * math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi))
            assert abs(alt - want) <= sum(r.error for r in rows) + 8.0 * EPS * abs(want)
            assert alt == pytest.approx(want, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("n,kappa2", [(2, 0.8), (3, 0.9), (3, 5.0 / 3.0)])
def test_quadrature_height_pdf_integrates_to_one(n, kappa2):
    # each h_i is a density: a Gauss-Legendre rule on [-13, 13], split at
    # 0, sums it to 1 within the summed error column
    t, w = np.polynomial.legendre.leggauss(32)
    x = np.concatenate([6.5 * (t - 1.0), 6.5 * (t + 1.0)])
    w = np.concatenate([6.5 * w, 6.5 * w])
    m = model_from_shape(n, 1.0, kappa2)
    for i in range(n + 1):
        pdf = kr.height_pdf_result(m, i, x, "quadrature")
        assert abs(w @ pdf.value - 1.0) <= w @ pdf.error + 1e-8


@pytest.mark.parametrize("model", [
    model_from_shape(2, 1.0, 1.0), model_from_shape(2, 1.0, 1.9),
    model_from_shape(2, 1.0, 2.0), sphere_model_from_shape(2, 1.0, 1.0),
    sphere_model_from_shape(2, 1.0, 1.9), sp.model_from_legendre(3)],
    ids=["plane-1", "plane-1.9", "plane-boundary", "sphere-1", "sphere-1.9",
         "sphere-boundary"])
def test_array_grid_closed_cdf_matches_pointwise(model):
    # one outer rule serves the whole grid: each row lies within its error
    # of the same height computed alone
    grid = -3.0 + 0.25 * np.arange(25)
    for i in range(3):
        batch = kr.height_cdf_result(model, i, grid, "closed-form")
        assert batch.value.shape == batch.error.shape == grid.shape
        for x, v, e in zip(grid, batch.value, batch.error):
            alone = kr.height_cdf_result(model, i, float(x), "closed-form")
            assert abs(v - alone.value) <= e


def test_array_grid_quadrature_cdf_matches_pointwise():
    m = model_from_shape(2, 1.0, 0.8)
    grid = np.array([-1.5, -0.5, 0.0, 0.4, 1.3, 2.2])
    for i in range(3):
        batch = kr.height_cdf_result(m, i, grid, "quadrature")
        assert batch.value.shape == batch.error.shape == grid.shape
        for x, v, e in zip(grid, batch.value, batch.error):
            alone = kr.height_cdf_result(m, i, float(x), "quadrature")
            assert abs(v - alone.value) <= e


def test_array_grid_pdf_matches_pointwise():
    # heights are a batch axis of the engine: each row of an array grid
    # lies within its error of the same height evaluated alone
    m = model_from_shape(3, 1.0, 0.9)
    grid = -1.0 + 0.1 * np.arange(21)      # the CLI grid -1:1:0.1
    for i in range(4):
        batch = kr.height_pdf_result(m, i, grid, "quadrature")
        assert batch.value.shape == batch.error.shape == grid.shape
        for x, v, e in zip(grid, batch.value, batch.error):
            alone = kr.height_pdf_result(m, i, float(x), "quadrature")
            assert abs(v - alone.value) <= e


@PROPERTY
@given(data=st.data(), n=st.sampled_from([1, 2, 3]), a=st.floats(-2.0, 2.0))
def test_engine_mirror_symmetry(data, n, a):
    # H -> -H leaves GOI(c) invariant and maps index i below the split a to
    # index N - i below -a: two separate integrals that must agree
    c = data.draw(st.one_of(st.just(-1.0 / n),
                            st.floats(-1.0 / n, 2.0, exclude_min=True)))
    i = data.draw(st.integers(0, n))
    v, e = goi.nested_ordered_quadrature(n, c, n_lower=i, split=a)
    w, f = goi.nested_ordered_quadrature(n, c, n_lower=n - i, split=-a)
    assert abs(v - w) <= e + f


def _partial_moment(c, a):
    # GOI(c) at N = 1 is lam ~ N(0, s^2), s^2 = 1 + c: index 1 below a
    # weighs E[(a - lam)^+] = a Phi(a/s) + s phi(a/s) (index 0 is its mirror
    # at -a), and a^+ at s = 0
    s = math.sqrt(1.0 + c)
    if s == 0.0:
        return max(a, 0.0)
    return a * ndtr(a / s) + s * math.exp(-0.5 * (a / s) ** 2) / math.sqrt(2.0 * math.pi)


@PROPERTY
@given(data=st.data(), n=st.sampled_from([1, 2, 3]), a=st.floats(-6.0, 6.0),
       da=st.floats(-1.5, 1.5))
def test_exact_trace_axis_matches_gauss_legendre(data, n, a, da):
    # the indexed |det| weight integrates z exactly; every index of a batch
    # of two splits agrees within its error with an independent value: at
    # N = 1 the normal partial moment, at N = 2 the GOI(2) closed form
    # _kacrice._goi2, and at N = 3 the alternating sum, which is E det(a -
    # H) = a^3 + 3 a (c - 1/2).  A c within DEGENERACY_TOL of -1/N is the
    # degenerate ensemble, for the engine and the references alike.
    c = data.draw(st.one_of(st.just(-1.0 / n + 1e-3),
                            st.floats(-1.0 / n, 2.0, exclude_min=True)))
    split = np.array([a, min(max(a + da, -6.0), 6.0)])
    vals = [goi.nested_ordered_quadrature(n, c, n_lower=i, split=split)
            for i in range(n + 1)]
    if not goi.trace_root(n, c):
        c = -1.0 / n
    if n == 1:
        want = [np.array([_partial_moment(c, -x) for x in split]),
                np.array([_partial_moment(c, x) for x in split])]
    elif n == 2:
        want = [kr._goi2(i, math.sqrt(0.5 + c), split) for i in range(3)]
    if n < 3:
        for (v, e), w in zip(vals, want):
            assert (np.abs(v - w) <= e + 8.0 * EPS * np.abs(w)).all()
    else:
        alt = sum((-1) ** (n - i) * v for i, (v, _) in enumerate(vals))
        det = split ** 3 + 3.0 * split * (c - 0.5)
        assert (np.abs(alt - det) <= sum(e for _, e in vals)).all()


@pytest.mark.parametrize("c", [-1.0 + 1e-3, -0.5, 0.0, 0.7, 2.0])
def test_exact_trace_axis_at_n1_is_a_normal_partial_moment(c):
    # GOI(c) at N = 1 is lam ~ N(0, s^2), s^2 = 1 + c: index 1 below a
    # weighs E[(a - lam)^+] = a Phi(a/s) + s phi(a/s), and index 0 is its
    # mirror at -a.  Where a/s < -4 the closed form itself cancels (it is
    # s (phi - |a/s| Phi-bar) there), so those rows are held to the stated
    # error alone.
    s = math.sqrt(1.0 + c)
    for a in np.concatenate([s * np.linspace(-4.0, 6.0, 21), np.linspace(-6.0, 6.0, 13)]):
        for i, want in ((1, _partial_moment(c, a)), (0, _partial_moment(c, -a))):
            v, e = goi.nested_ordered_quadrature(1, c, n_lower=i, split=a)
            assert abs(v - want) <= e
            if (a if i else -a) >= -4.0 * s:
                assert v == pytest.approx(want, rel=1e-14)


# near each geometry's boundary kappa^2 = (N + 2)/N the edge is ~1e-3 wide
EDGE_CASES = ([(2, k2, (-3.0, -0.6, 0.5, 1.8, 4.0)) for k2 in (0.5, 0.9, 1.6, 1.99999)]
              + [(3, k2, (-3.0, 0.5, 1.8, 4.0)) for k2 in (0.5, 0.9, 1.6, 5.0 / 3.0 - 1e-5)])


@pytest.mark.parametrize("n, kappa2, heights", EDGE_CASES)
def test_exact_edge_matches_gauss_legendre(n, kappa2, heights):
    # a count above u weighs the indexed |det| by the Gaussian edge
    # Phi((-gamma u - mean(lam)) / w), which the engine takes exactly in z
    # (edged_moments).  Every index agrees within the errors with an
    # independent value: at N = 2 the closed forms' total times upper-tail
    # fraction; at N = 3, as -f has the law of f, the index-i count above u
    # plus the index-(N - i) count above -u is the index-i total
    m = model_from_shape(n, 1.0, kappa2)
    p = m.problem()
    pref = math.exp(p.log_prefactor)

    def count(i, u):
        v, e = goi.nested_ordered_quadrature(
            n, p.c_total, None, i, split=0.0, trace_cap=-p.cap_coeff * u,
            cap_edge=p.edge_width)
        return pref * v, pref * e

    for u in heights:
        for i in range(n + 1):
            v, e = count(i, u)
            if n == 2:
                total = kr.closed_total(p, i)
                tail = kr.closed_cdf(p, i, u)
                want = total * float(tail.value)
                slack = total * float(tail.error) + _closed_slack(total)
            else:
                w, f = count(n - i, -u)
                tot = expected_crit_total(m, i, "quadrature")
                want, slack = tot.value - w, tot.error + f
            assert abs(v - want) <= e + slack, (u, i)


def _product_rule(f, absf, top):
    """integrate(nodes) for refine_on_ladder: f(x) * g(y) on [0, 1] x
    [0, top], with int |f g| from absf."""
    def integrate(nodes):
        x, wx = goi._gauss_on(np.zeros(1), np.ones(1), nodes[0])
        y, wy = goi._gauss_on(np.zeros(1), np.full(1, top), nodes[1])
        return (np.array([np.sum(wx * f[0](x)) * np.sum(wy * f[1](y))]),
                np.array([np.sum(wx * absf[0](x)) * np.sum(wy * absf[1](y))]))
    return integrate


def test_refinement_climbs_only_the_axis_that_needs_it():
    # x^2 on [0, 1] is exact at every rung; cos y on [0, 20] needs more
    # than the first rung's 12 nodes per piece
    seen = []
    rule = _product_rule((np.square, np.cos), (np.square, lambda y: np.abs(np.cos(y))),
                         20.0)
    val, err = goi.refine_on_ladder(lambda nodes: seen.append(nodes) or rule(nodes),
                                    [12, 12], [64, 256], 1e-12, 1e-9)
    assert {nx for nx, _ in seen} == {8, 12}
    assert max(ny for _, ny in seen) > 12
    assert err[0] <= 1e-9 * abs(val[0])
    assert abs(val[0] - math.sin(20.0) / 3.0) <= err[0]


def test_refinement_stops_at_an_exact_first_rung():
    seen = []
    rule = _product_rule((np.square, lambda y: y ** 3), (np.square, lambda y: y ** 3), 1.0)
    val, err = goi.refine_on_ladder(lambda nodes: seen.append(nodes) or rule(nodes),
                                    [12, 12], [64, 256], 1e-12, 1e-9)
    assert seen == [(12, 12), (8, 12), (12, 8)]
    assert abs(val[0] - 1.0 / 12.0) <= err[0] <= 300.0 * EPS / 12.0


# intervals across 0, wholly in either tail, and nearly empty
MOMENT_INTERVALS = [(-1.3, 0.7), (-5.0, 4.0), (-12.0, 12.0), (0.0, 3.0),
                    (3.0, 3.5), (6.0, 9.0), (20.0, 21.0), (-9.0, -6.0),
                    (-21.0, -20.0), (0.3, 0.3 + 1e-9), (5.0, 5.0 + 1e-12),
                    (-7.0, -7.0 + 1e-10), (0.0, 1e-7), (-2.0, -2.0)]


# odd moments of a nearly empty interval are ~0, beyond quad's relative
# tolerance; the absolute bound below still holds
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_truncated_moments_match_quad():
    lo, hi = np.array(MOMENT_INTERVALS).T
    moments = goi.truncated_moments(lo, hi, 6)
    assert len(moments) == 7
    for j, (a, b) in enumerate(MOMENT_INTERVALS):
        t, r = 0.5 * (a + b), 0.5 * (b - a)
        ref = [quad(lambda z: (z - t) ** k * math.exp(-0.5 * z * z), a, b,
                    epsabs=0.0, epsrel=1e-13, limit=200)[0] for k in range(7)]
        # the scale rounding can reach: the recursion run on magnitudes,
        # from the better-conditioned of the two differences for M_0
        ends = math.exp(-0.5 * a * a) + math.exp(-0.5 * b * b)
        scale = [math.sqrt(2.0 * math.pi)
                 * min(ndtr(a) + ndtr(b), ndtr(-a) + ndtr(-b))]
        for k in range(1, 7):
            scale.append((k - 1) * (scale[k - 2] if k > 1 else 0.0)
                         + abs(t) * scale[k - 1] + r ** (k - 1) * ends)
        for k in range(7):
            assert abs(moments[k][j] - ref[k]) <= 1e-12 * scale[k], (a, b, k)
        if b - a >= 0.5 and (a >= 3.0 or b <= -3.0):
            # a tail interval keeps its relative digits
            assert abs(moments[0][j] - ref[0]) <= 1e-12 * ref[0], (a, b)


@functools.lru_cache(maxsize=None)
def _legendre_40():
    with mpmath.workdps(40):
        return mpmath.gauss_quadrature(24, "legendre")


def _edged_reference(a: float, b: float, alpha: float, beta: float):
    """N_0..N_6 of edged_moments at 40 digits, and int |y|^m e^(-z^2/2)
    phi(alpha - beta z) for m = 0..5: 24-point Gauss-Legendre on pieces of
    at most 1, split at the edge and 2 and 6 of its widths about it."""
    with mpmath.workdps(40):
        nodes, weights = _legendre_40()
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        t, centre = (a + b) / 2, mpmath.mpf(alpha) / beta
        cuts = sorted({a, b} | {z for z in (centre + mpmath.mpf(o) / beta
                                            for o in (-6, -2, 0, 2, 6)) if a < z < b})
        n_k, j_abs = [mpmath.mpf(0)] * 7, [mpmath.mpf(0)] * 6
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            pieces = int(mpmath.ceil(hi - lo))
            half = (hi - lo) / (2 * pieces)
            for m in range(pieces):
                for x, w in zip(nodes, weights):
                    z = lo + half * (2 * m + 1 + x)
                    g = w * half * mpmath.exp(-z * z / 2)
                    edge = g * mpmath.ncdf(alpha - beta * z)
                    dens = g * mpmath.npdf(alpha - beta * z)
                    y, power = z - t, mpmath.mpf(1)
                    for k in range(7):
                        n_k[k] += edge * power
                        if k < 6:
                            j_abs[k] += dens * abs(power)
                        power *= y
        return [float(v) for v in n_k], [float(v) for v in j_abs]


# intervals across 0, in either tail (both ends far in the upper one, where
# N_0 is a difference of near-equal bivariate normal values unless it is
# reflected), wide, and nearly empty
EDGED_INTERVALS = [(-8.0, 8.0), (-1.3, 0.7), (-5.0, -2.0), (-7.9, -7.8), (0.0, 3.0),
                   (2.0, 2.5), (6.0, 8.0), (7.0, 7.5), (-0.5, 6.0), (0.0, 1e-7)]


@pytest.mark.parametrize("beta", [0.05, 0.5, 2.0, 10.0])
def test_edged_moments_match_mpmath(beta):
    lo, hi = np.array(EDGED_INTERVALS).T
    ratios = []
    for alpha in (-6.0, -0.3, 0.0, 3.0, 6.0):
        moments = goi.edged_moments(lo, hi, 6, alpha, beta)
        assert len(moments) == 7
        for j, (a, b) in enumerate(EDGED_INTERVALS):
            ref, j_abs = _edged_reference(a, b, alpha, beta)
            # the scale rounding can reach: the recursion run on the
            # magnitudes of its terms, from M_0's (as for truncated_moments)
            t, r = 0.5 * (a + b), 0.5 * (b - a)
            ends = (math.exp(-0.5 * a * a) * ndtr(alpha - beta * a)
                    + math.exp(-0.5 * b * b) * ndtr(alpha - beta * b))
            scale = [math.sqrt(2.0 * math.pi) * min(ndtr(a) + ndtr(b), ndtr(-a) + ndtr(-b))]
            for k in range(1, 7):
                scale.append((k - 1) * (scale[k - 2] if k > 1 else 0.0) + abs(t) * scale[k - 1]
                             + r ** (k - 1) * ends + beta * j_abs[k - 1])
            ratios += [abs(moments[k][j] - ref[k]) / scale[k] for k in range(7)]
            # Owen's T keeps all but a few digits even where its two parts
            # cancel (a tail interval whose slope against the edge is near
            # 1, as [-7.9, -7.8] at alpha = -6, beta = 1/2: 6e-11)
            assert max(ratios[-7:]) <= 1e-9, (alpha, a, b)
    assert np.median(ratios) <= 2.0 * EPS


def test_edged_moments_far_from_the_edge():
    # where Phi(alpha - beta z) rounds to 1 (or 0) on all of [lo, hi] the
    # moments are the plain ones (or 0), with no overflow on the way (the
    # suite turns RuntimeWarning into an error)
    lo, hi = np.array(EDGED_INTERVALS).T
    plain = goi.truncated_moments(lo, hi, 6)
    for alpha, beta in ((1e300, 1e-3), (1e200, 5.0), (200.0, 10.0)):
        edged = goi.edged_moments(lo, hi, 6, alpha, beta)
        assert all((m == p).all() for m, p in zip(edged, plain))
        assert all((m == 0.0).all() for m in goi.edged_moments(lo, hi, 6, -alpha, beta))


def test_exact_edge_far_from_the_trace_law():
    # a cap with an edge far above (below) every trace of the box counts
    # the whole region (nothing)
    for n in (1, 2, 3):
        whole = goi.nested_ordered_quadrature(n, 0.4, None, 1, 0.2)
        for cap, want in ((1e200, whole[0]), (-1e200, 0.0)):
            v, e = goi.nested_ordered_quadrature(n, 0.4, None, 1, 0.2,
                                                 trace_cap=cap, cap_edge=0.3)
            assert v == want and e <= whole[1]


def test_quadrature_cdf_error_adds_the_bounds():
    # quadrature errors are bounds: F = a / t states (e_a + |F| e_t) / t
    cfg = NumericConfig()
    for m in (model_from_shape(2, 1.0, 0.8), model_from_shape(2, 1.0, 2.0)):
        for i in range(m.n + 1):
            tot = expected_crit_total(m, i, "quadrature", cfg)
            for u in (-0.6, 0.9):
                ab = expected_crit_above(m, i, u, "quadrature", cfg)
                frac = ab.value / tot.value
                r = kr.height_cdf_result(m, i, u, "quadrature", cfg)
                assert r.value == frac
                assert r.error == pytest.approx(
                    (ab.error + abs(frac) * tot.error) / tot.value, rel=1e-12)


@pytest.fixture
def engine_calls(monkeypatch):
    calls = []
    engine = goi.nested_ordered_quadrature

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return engine(*args, **kwargs)
    monkeypatch.setattr(goi, "nested_ordered_quadrature", counted)
    return calls


QUAD_EXPECT = ["expect", "--method", "quadrature", "--eta2", "0.8",
               "--kappa2", "1.1"]


@pytest.mark.parametrize("argv,calls", [
    (["--N", "3"], 2),
    (["--N", "3", "--space", "sphere", "--whole-sphere"], 2),
    (["--N", "2"], 2),
    (["--N", "3", "--index", "2"], 1),
])
def test_totals_cost_one_engine_call_per_mirror_pair(engine_calls, capsys,
                                                      argv, calls):
    assert main(QUAD_EXPECT + argv) == 0
    assert len(engine_calls) == calls


def test_euler_characteristic_one_engine_call_per_mirror_pair(engine_calls):
    m = sphere_model_from_shape(3, 0.8, 1.1)
    chi = euler_characteristic(m, method="quadrature")
    assert len(engine_calls) == 2
    assert abs(chi.value) <= chi.error


def _rule_with_kinks(n, kinks):
    # a rule without kinks of its own, given hand-built ones: (alpha per
    # batch row, beta), the plane alpha + beta.d = 0
    split = np.zeros(len(kinks[0][0]))
    rule = goi._TraceGapRule(n, 0.5, None, 0, split, None, 0.0)
    assert not rule.kinks
    rule._set_kinks([(np.array(al, dtype=float), np.array(be, dtype=float))
                     for al, be in kinks])
    return rule


def _vertex_sets(bps):
    # the breakpoints of each point, nan (a dropped vertex) kept as a count
    rows = bps.reshape(-1, bps.shape[-1])
    return [(sorted(r[~np.isnan(r)].tolist()), int(np.isnan(r).sum())) for r in rows]


def test_breakpoints_are_the_vertices_at_n3():
    # d0 + d1 = 2, d0 - d1 = 5, and d1 = 3 (first batch row) or 20 (second,
    # beyond GAP_TOP = 18)
    rule = _rule_with_kinks(3, [([-2.0, -2.0], [1.0, 1.0]),
                                ([-5.0, -5.0], [1.0, -1.0]),
                                ([-3.0, -20.0], [0.0, 1.0])])
    assert rule.gap_top == goi.GAP_TOP == 18.0
    # d0: each kink with d1 = 0 (2, 5; d1 = 3 is parallel to the d0 axis
    # and gives none) and each pair: (3.5, -1.5) is dropped as d1 < 0,
    # (-1, 3) and (8, 3) are kept in the first row, dropped in the second
    bps = rule._breakpoints([])
    assert bps.shape == (2, 1, 5)
    assert _vertex_sets(bps) == [([-1.0, 2.0, 5.0, 8.0], 1), ([2.0, 5.0], 3)]
    # d1 at d0 = 1 and d0 = 7.5: where each kink crosses the axis
    bps = rule._breakpoints([np.array([[1.0, 7.5], [1.0, 7.5]])])
    assert bps.shape == (2, 2, 3)
    assert _vertex_sets(bps) == [([-4.0, 1.0, 3.0], 0), ([-5.5, 2.5, 3.0], 0),
                                 ([-4.0, 1.0, 20.0], 0), ([-5.5, 2.5, 20.0], 0)]


def test_breakpoints_are_the_vertices_at_n4():
    # d0 + d1 + d2 = 6, d0 - d1 = 8, and d2 = 1 (parallel to d0 and d1)
    rule = _rule_with_kinks(4, [([-6.0], [1.0, 1.0, 1.0]),
                                ([-8.0], [1.0, -1.0, 0.0]),
                                ([-1.0], [0.0, 0.0, 1.0])])
    # d0, three planes among the kinks and d1 = 0, d2 = 0: the first kink
    # with both faces (6) or with d1 = 0, d2 = 1 (5); the second with both
    # faces or with d1 = 0, d2 = 1 (8 twice); the first two with either
    # face or with the third have a later gap < 0 (dropped); the others
    # are singular
    bps = rule._breakpoints([])
    assert bps.shape == (1, 1, 7)
    assert _vertex_sets(bps) == [([5.0, 6.0, 8.0, 8.0], 3)]
    # d1 given d0 = 3 and 7.5: two planes among the kinks and d2 = 0; the
    # first two meet at d2 = 14 - 2 d0, dropped at d0 = 7.5
    bps = rule._breakpoints([np.array([[3.0, 7.5]])])
    assert _vertex_sets(bps) == [([-5.0, -5.0, -5.0, 2.0, 3.0], 0),
                                 ([-2.5, -1.5, -0.5, -0.5], 1)]
    # d2 given d0 = 3, d1 = 1: the first kink (2) and the third (1); the
    # second is parallel to the axis
    bps = rule._breakpoints([np.array([[3.0]]), np.array([[1.0]])])
    assert _vertex_sets(bps) == [([1.0, 2.0], 0)]


def test_tail_bound_copy_has_no_breakpoints(monkeypatch):
    # the tail bound integrates the whole box: its copy of a rule with
    # kinks (a hard cap on an index region) must split no gap axis
    seen = []
    integrate = goi._TraceGapRule.integrate

    def spy(self, nodes, second=False):
        if second:
            seen.append((self._breakpoints([]).shape[-1],
                         self._breakpoints([np.ones((1, 2))]).shape[-1]))
        return integrate(self, nodes, second)
    monkeypatch.setattr(goi._TraceGapRule, "integrate", spy)
    rule = goi._TraceGapRule(3, 0.2, None, 1, 0.4, 0.3, 0.0)
    assert rule._breakpoints([]).shape[-1] > 0
    assert rule.tail_bound() > 0.0
    assert seen == [(0, 0)]


def test_gap_loop_serves_n4_totals(monkeypatch):
    # nothing in the gap loop is written for N <= 3: with the size limit
    # lifted, the five N = 4 totals at c = 1/2 (no kinks) keep the mirror
    # symmetry, E det GOI(1/2) = sum_i (-1)^i T_i = 0, and agree with Monte
    # Carlo
    monkeypatch.setattr(goi, "QUADRATURE_MAX_N", 4)
    c = 0.5
    assert not goi._TraceGapRule(4, c, None, 2, 0.0, None, 0.0).kinks
    tot = [goi.nested_ordered_quadrature(4, c, n_lower=i, split=0.0) for i in range(5)]
    for i in range(2):
        assert abs(tot[i][0] - tot[4 - i][0]) <= tot[i][1] + tot[4 - i][1]
    assert abs(sum((-1) ** i * v for i, (v, _) in enumerate(tot))) <= sum(
        e for _, e in tot)
    ens = goi.validate_ensemble(4, c)
    cfg = NumericConfig(mc_samples=200_000, seed=11)
    for i, (v, _) in enumerate(tot):
        m, se = goi.goi_expectation(ens, goi.IndexedFunctional(index=i),
                                    "monte-carlo", cfg)
        assert abs(v - m) <= 4.0 * se
