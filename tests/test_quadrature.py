"""The trace-gap quadrature engine: exactness against closed forms, honest
error columns, and properties over random admissible parameters."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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


@PROPERTY
@given(data=st.data(), n=st.sampled_from([1, 2, 3]), a=st.floats(-6.0, 6.0),
       da=st.floats(-1.5, 1.5))
def test_exact_trace_axis_matches_gauss_legendre(data, n, a, da):
    # the indexed |det| weight integrates z exactly; the same weight passed
    # as a plain callable takes the Gauss-Legendre z axis: every index of
    # a batch of two splits agrees within the two errors
    c = data.draw(st.one_of(st.just(-1.0 / n + 1e-3),
                            st.floats(-1.0 / n, 2.0, exclude_min=True)))
    split = np.array([a, min(max(a + da, -6.0), 6.0)])
    for i in range(n + 1):
        v, e = goi.nested_ordered_quadrature(n, c, n_lower=i, split=split)
        w, f = goi.nested_ordered_quadrature(
            n, c, lambda lam: goi.AbsProdWeight(split)(lam), n_lower=i, split=split)
        assert (np.abs(v - w) <= e + f).all()


@pytest.mark.parametrize("c", [-1.0 + 1e-3, -0.5, 0.0, 0.7, 2.0])
def test_exact_trace_axis_at_n1_is_a_normal_partial_moment(c):
    # GOI(c) at N = 1 is lam ~ N(0, s^2), s^2 = 1 + c: index 1 below a
    # weighs E[(a - lam)^+] = a Phi(a/s) + s phi(a/s), and index 0 is its
    # mirror at -a.  Where a/s < -4 the closed form itself cancels (it is
    # s (phi - |a/s| Phi-bar) there), so those rows are held to the stated
    # error alone.
    s = math.sqrt(1.0 + c)

    def partial(a):
        return a * ndtr(a / s) + s * math.exp(-0.5 * (a / s) ** 2) / math.sqrt(2.0 * math.pi)

    for a in np.concatenate([s * np.linspace(-4.0, 6.0, 21), np.linspace(-6.0, 6.0, 13)]):
        for i, want in ((1, partial(a)), (0, partial(-a))):
            v, e = goi.nested_ordered_quadrature(1, c, n_lower=i, split=a)
            assert abs(v - want) <= e
            if (a if i else -a) >= -4.0 * s:
                assert v == pytest.approx(want, rel=1e-14)


def test_exact_trace_axis_design():
    # z leaves the axes of the indexed |det| weight at the region's split
    # with no cap's edge (a hard cap is a limit on z); a Gaussian edge, a
    # plain callable or a |det| at another shift keeps the Gauss-Legendre
    # z axis
    def axes(weight, cap=None, edge=0.0):
        return goi._TraceGapRule(3, 0.2, weight, 1, 0.4, cap, edge, None).axes

    det = goi.AbsProdWeight(0.4)
    assert axes(None) == axes(det) == axes(det, 0.1) == ["d0", "d1"]
    assert axes(det, 0.1, 0.3) == ["d0", "d1", "z"]
    assert axes(lambda lam: det(lam)) == ["d0", "d1", "z"]
    assert axes(goi.AbsProdWeight(0.5)) == ["d0", "d1", "z"]


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
    rule = goi._TraceGapRule(n, 0.5, None, 0, split, None, 0.0, None)
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
    rule = goi._TraceGapRule(3, 0.2, None, 1, 0.4, 0.3, 0.0, None)
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
    assert not goi._TraceGapRule(4, c, None, 2, 0.0, None, 0.0, None).kinks
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
