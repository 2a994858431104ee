"""Ensemble-level checks: constants, validation, sampling, expectations."""
import csv
import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import ndtr
from scipy.stats import ks_2samp

from critfield import (
    DegenerateEnsembleError,
    GoiEnsemble,
    IndexedFunctional,
    MethodError,
    NumericConfig,
    ParameterError,
    goi_expectation,
    log_k_norm,
    ordered_eigenvalue_density,
    sample_goi,
    validate_ensemble,
)
from critfield import _kacrice as kr
from critfield import cli, goi
from critfield import euclidean as eu
from critfield import sphere as sp
from critfield.goi import (BANK_ENTRIES, GaussEdgeWeight, mc_eigen_expectation,
                          nested_ordered_quadrature, trace_shift)


@pytest.fixture
def empty_bank():
    goi._bank.clear()
    yield
    goi._bank.clear()


def test_normalization_constants():
    assert math.exp(log_k_norm(1)) == pytest.approx(math.sqrt(2 * math.pi), rel=1e-14)
    assert math.exp(log_k_norm(2)) == pytest.approx(2 * math.sqrt(math.pi), rel=1e-14)
    # K_3 = 2^{3/2} Gamma(1/2) Gamma(1) Gamma(3/2) = sqrt(2) pi
    assert math.exp(log_k_norm(3)) == pytest.approx(math.sqrt(2) * math.pi, rel=1e-14)


def test_validate_ensemble_bounds():
    e = validate_ensemble(2, 0.0)
    assert not e.degenerate
    assert validate_ensemble(2, -0.5).degenerate
    assert validate_ensemble(3, 5.0).c == 5.0
    with pytest.raises(ParameterError) as exc:
        validate_ensemble(2, -0.6)
    assert "-1/N" in str(exc.value) or "-0.5" in str(exc.value)
    with pytest.raises(ParameterError):
        validate_ensemble(0, 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError):
            validate_ensemble(2, bad)


def test_indexed_functional_evaluate():
    f = IndexedFunctional(index=1, shift=0.0)
    lam = np.array([[-2.0, 3.0],     # one below zero: counted
                    [1.0, 2.0],      # none below: masked out
                    [-1.0, -0.5]])   # two below: masked out
    vals = f.evaluate(lam)
    np.testing.assert_allclose(vals, [6.0, 0.0, 0.0])
    # shift moves the reference point
    g = IndexedFunctional(index=2, shift=1.0)
    np.testing.assert_allclose(g.evaluate(np.array([[-1.0, 0.5]])), [1.0])
    # trace cap gates on the eigenvalue mean
    h = IndexedFunctional(index=1, shift=0.0, trace_cap=0.0)
    np.testing.assert_allclose(h.evaluate(np.array([[-2.0, 3.0], [-2.0, 1.0]])),
                               [0.0, 2.0])
    # a Gaussian edge of width w weights by Phi((cap - mean) / w)
    e = IndexedFunctional(index=1, shift=0.0, trace_cap=0.0, cap_edge=0.5)
    np.testing.assert_allclose(e.evaluate(np.array([[-2.0, 3.0], [-2.0, 1.0]])),
                               [6.0 * ndtr(-1.0), 2.0 * ndtr(1.0)], rtol=1e-15)
    with pytest.raises(ParameterError):
        IndexedFunctional(index=-1)
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ParameterError):
            IndexedFunctional(index=1, trace_cap=0.0, cap_edge=bad)


@pytest.mark.parametrize("field", ["shift", "trace_cap"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_indexed_functional_rejects_non_finite_inputs(field, bad):
    # a nan shift or cap used to give nan by quadrature and a number (or a
    # misleading overflow error) by Monte Carlo
    with pytest.raises(ParameterError, match=field):
        IndexedFunctional(index=0, **{field: bad})


@pytest.mark.parametrize("method", ["quadrature", "monte-carlo"])
def test_height_pdf_is_zero_at_infinite_heights(method):
    # phi(+-inf) = 0: both routes return 0 +- 0 there without building a
    # functional at an infinite shift, and the finite heights are unchanged
    m = eu.model_from_shape(3, 1.0, 0.5)
    cfg = NumericConfig(mc_samples=2000, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = kr.height_pdf_result(m, 1, np.array([-math.inf, 0.3, math.inf]),
                                 method, cfg)
        for x in (-math.inf, math.inf):
            assert kr.height_pdf_result(m, 1, x, method, cfg) == \
                kr.CritResult(0.0, 0.0, method)
    assert (r.value[[0, 2]] == 0.0).all() and (r.error[[0, 2]] == 0.0).all()
    finite = kr.height_pdf_result(m, 1, 0.3, method, cfg)
    assert (r.value[1], r.error[1]) == (finite.value, finite.error)


@pytest.mark.parametrize("n,c", [(1, 0.0), (2, 0.0), (2, 0.3), (2, -0.45),
                                 (3, 0.5), (3, 2.5),
                                 (2, -0.5 + 1e-3), (3, -1.0 / 3.0 + 1e-3)])
def test_density_normalizes(n, c):
    # the weight 1: GaussEdgeWeight with zero coefficients and no edge
    val, err = nested_ordered_quadrature(n, c, GaussEdgeWeight())
    assert val == pytest.approx(1.0, abs=5e-9)


def test_engine_takes_exactly_two_weight_kinds():
    # None (the indexed |det| at a split) or a GaussEdgeWeight over the
    # whole simplex; a callable, a |det| without a split, a GaussEdgeWeight
    # on a region or beyond the matrix, or one that outgrows the law (k2 >=
    # 1/2) is refused
    for args, kwargs in [((2, 0.0, lambda lam: 1.0), {"split": 0.0}),
                         ((2, 0.0), {}),
                         ((2, 0.0, GaussEdgeWeight()), {"split": 0.0}),
                         ((2, 0.0, GaussEdgeWeight()), {"trace_cap": 1.0}),
                         ((2, 0.0, GaussEdgeWeight()), {"n_lower": 1}),
                         ((2, 0.0, GaussEdgeWeight(position=2)), {}),
                         ((2, 0.0, GaussEdgeWeight(k2=0.5)), {})]:
        with pytest.raises(ParameterError):
            nested_ordered_quadrature(*args, **kwargs)
    val, _ = nested_ordered_quadrature(2, 0.0, GaussEdgeWeight(k2=0.49))
    assert np.isfinite(val)


def test_degenerate_box_truncation_cuts_only_the_gaps():
    # a trace law of width 0 has no trace axis to truncate: the weight's gap
    # cut is the only truncation, and the law's mass beyond it (1.2e-4 at
    # gaps up to 6) is part of the error
    val, err = nested_ordered_quadrature(2, -0.5, GaussEdgeWeight(gap_top=6.0))
    assert 1e-4 < 1.0 - val <= err


def test_density_basic_properties():
    e = validate_ensemble(2, 0.3)
    assert ordered_eigenvalue_density(e, [1.0, -1.0]) == 0.0  # unordered
    # GOE reduction at c = 0: f(lam) = (lam2 - lam1) exp(-q/2) / K_2
    goe = validate_ensemble(2, 0.0)
    lam = (-0.3, 1.1)
    want = ((lam[1] - lam[0]) * math.exp(-(lam[0] ** 2 + lam[1] ** 2) / 2)
            / math.exp(log_k_norm(2)))
    assert ordered_eigenvalue_density(goe, lam) == pytest.approx(want, rel=1e-13)
    with pytest.raises(DegenerateEnsembleError):
        ordered_eigenvalue_density(validate_ensemble(2, -0.5), [0.0, 0.0])
    with pytest.raises(ParameterError):
        ordered_eigenvalue_density(e, [1.0, 2.0, 3.0])


# E_GOI(c)[|l1 l2| ; l1 < 0 < l2] = 1 / sqrt(2 (1 + c))
@pytest.mark.parametrize("c", [0.0, 0.5, 2.0, -0.3])
def test_saddle_determinant_identity(c):
    val, _ = goi_expectation(validate_ensemble(2, c),
                             IndexedFunctional(index=1), "quadrature")
    assert val == pytest.approx(1.0 / math.sqrt(2.0 * (1.0 + c)), rel=1e-8)


# E_GOI(c)[l1 l2 ; 0 < l1] = (2c - 1)/4 + 1/(2 sqrt(2c + 2))
@pytest.mark.parametrize("c", [0.0, 0.5, 1.5])
def test_definite_determinant_identity(c):
    val, _ = goi_expectation(validate_ensemble(2, c),
                             IndexedFunctional(index=0), "quadrature")
    want = (2 * c - 1) / 4.0 + 1.0 / (2.0 * math.sqrt(2 * c + 2))
    assert val == pytest.approx(want, rel=1e-8)


def test_sampler_moments():
    rng = np.random.default_rng(2024)
    n, c, k = 2, 0.5, 100_000
    m = sample_goi(validate_ensemble(n, c), size=k, rng=rng)
    se = 5.0 / math.sqrt(k)
    assert abs(m.mean()) < 3 * se
    # diagonal variance 1 + c, diagonal covariance c, off-diagonal 1/2
    assert np.var(m[:, 0, 0]) == pytest.approx(1 + c, abs=6 * se)
    assert np.mean(m[:, 0, 0] * m[:, 1, 1]) == pytest.approx(c, abs=6 * se)
    assert np.var(m[:, 0, 1]) == pytest.approx(0.5, abs=6 * se)
    assert np.all(m == np.swapaxes(m, 1, 2))


def test_sampler_orthogonal_invariance():
    # entry covariance of Q M Q^T must match GOI(c) for any fixed rotation
    rng = np.random.default_rng(7)
    c, k = 0.7, 120_000
    th = 0.6
    q = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    m = sample_goi(validate_ensemble(2, c), size=k, rng=rng)
    r = q @ m @ q.T
    se = 6.0 / math.sqrt(k)
    assert np.var(r[:, 0, 0]) == pytest.approx(1 + c, abs=6 * se)
    assert np.mean(r[:, 0, 0] * r[:, 1, 1]) == pytest.approx(c, abs=6 * se)
    assert np.var(r[:, 0, 1]) == pytest.approx(0.5, abs=6 * se)
    assert np.mean(r[:, 0, 0] * r[:, 0, 1]) == pytest.approx(0.0, abs=6 * se)


def test_degenerate_sampler_zero_trace():
    mats = sample_goi(validate_ensemble(3, -1.0 / 3.0), size=5000,
                      rng=np.random.default_rng(5))
    assert np.abs(np.trace(mats, axis1=-2, axis2=-1)).max() < 1e-12


@pytest.mark.parametrize("n,c", [(49, -1.0 / 49.0), (3, -1.0 / 3.0 + 5e-10)])
def test_every_degenerate_ensemble_samples_zero_traces(n, c):
    # 1 + 49 (-1/49) rounds to 1.1e-16, and c here is 5e-10 above -1/3:
    # both are flagged degenerate, so their traces must vanish too
    ens = validate_ensemble(n, c)
    assert ens.degenerate
    mats = sample_goi(ens, size=200, rng=np.random.default_rng(8))
    assert np.abs(np.trace(mats, axis1=-2, axis2=-1)).max() <= 1e-12


def test_quadrature_matches_monte_carlo():
    ens = validate_ensemble(2, 0.3)
    f = IndexedFunctional(index=1, shift=0.4)
    qv, _ = goi_expectation(ens, f, "quadrature")
    mv, me = goi_expectation(ens, f, "monte-carlo",
                             NumericConfig(mc_samples=150_000, seed=11))
    assert abs(qv - mv) < 4 * me


def test_trace_cap_quadrature_matches_monte_carlo():
    ens = validate_ensemble(2, 0.5)
    # a hard cap, and caps with a Gaussian edge, wide and narrow
    for edge in (0.0, 0.3, 1e-3):
        f = IndexedFunctional(index=2, shift=-0.2, trace_cap=-0.4, cap_edge=edge)
        qv, _ = goi_expectation(ens, f, "quadrature")
        mv, me = goi_expectation(ens, f, "monte-carlo",
                                 NumericConfig(mc_samples=200_000, seed=3))
        assert me > 0
        assert abs(qv - mv) < 4 * me


def test_mc_reproducible_streams():
    ens = validate_ensemble(2, -0.5)  # degenerate: MC is the only route
    f = IndexedFunctional(index=1)
    cfg = NumericConfig(mc_samples=50_000, seed=99)
    a = goi_expectation(ens, f, "monte-carlo", cfg)
    b = goi_expectation(ens, f, "monte-carlo", cfg)
    assert a == b


def test_method_dispatch_and_errors():
    big = validate_ensemble(5, 0.2)
    f = IndexedFunctional(index=2)
    # auto falls back to sampling above the quadrature size limit
    v, e = goi_expectation(big, f, "auto", NumericConfig(mc_samples=20_000, seed=1))
    assert e > 0
    with pytest.raises(MethodError):
        goi_expectation(big, f, "quadrature")
    with pytest.raises(MethodError):
        goi_expectation(validate_ensemble(2, 0.0), f, "simpson")
    with pytest.raises(ParameterError):
        goi_expectation(validate_ensemble(2, 0.0), IndexedFunctional(index=3))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_degenerate_quadrature_matches_monte_carlo(n):
    # GOI(-1/N) is a trace law of width 0: quadrature integrates its
    # zero-trace matrices over the gaps alone.  At N = 1 every matrix is 0,
    # so both methods give the same constant up to rounding.
    ens = validate_ensemble(n, -1.0 / n)
    cfg = NumericConfig(mc_samples=400_000, seed=21)
    caps = [(None, 0.0), (0.2, 0.0), (-0.1, 0.0), (0.1, 0.4)]
    for shift in (-0.7, 0.0, 0.4, 1.3):
        for cap, edge in caps:
            for i in range(n + 1):
                fn = IndexedFunctional(i, shift=shift, trace_cap=cap, cap_edge=edge)
                qv, qe = goi_expectation(ens, fn, "quadrature")
                mv, me = goi_expectation(ens, fn, "monte-carlo", cfg)
                if n == 1:
                    assert abs(qv - mv) <= 1e-15
                else:
                    assert abs(qv - mv) <= 4.0 * me + qe


def test_ensemble_dataclass_guard():
    with pytest.raises(ParameterError):
        GoiEnsemble(n=0, c=0.0)


def test_bank_draws_each_ensemble_once_per_command(monkeypatch, capsys, empty_bank):
    draws = []
    real = goi._draw_goe

    def counting(n, config):
        draws.append((n, config.mc_samples))
        return real(n, config)

    monkeypatch.setattr(goi, "_draw_goe", counting)
    args = ["heights", "--N", "3", "--eta2", "1.2", "--kappa2", "0.9",
            "--grid=-1.4:1.6:0.5", "--quantity", "both", "--samples", "2000",
            "--seed", "3"]
    assert cli.main(args) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 2 * 4 * 7
    # one GOE(3) draw: GOI(c_tot) for totals and counts above u and
    # GOI(c_cnd) for densities are its rows shifted by their traces
    assert draws == [(3, 2000)]
    assert len(goi._bank) == 1
    # each row equals the row of a call that draws its own samples
    p = eu.model_from_shape(3, 1.2, 0.9).problem()
    cfg = NumericConfig(mc_samples=2000, seed=3)
    for row in rows:
        goi._bank.clear()
        fn = (kr.height_pdf_general if row["quantity"] == "height-pdf"
              else kr.height_cdf_general)
        r = fn(p, int(row["index"]), float(row["grid_value"]), "monte-carlo", cfg)
        assert (cli._fmt(r.value), cli._fmt(r.error)) == (row["value"], row["error"])
    # each row, density or upper-tail fraction, draws once
    assert len(draws) == 1 + len(rows)


def test_goe_draw_is_shared_by_the_general_and_fyodorov_routes(
        monkeypatch, capsys, empty_bank):
    # GOI(4, c_tot) of expect --N 4 and GOE(4) of the Fyodorov route at
    # N = 3 read one GOE(4) draw
    n4 = ["expect", "--N", "4", "--eta2", "1.1", "--kappa2", "0.8",
          "--samples", "3000", "--seed", "9"]
    fy = ["expect", "--N", "3", "--eta2", "1.1", "--kappa2", "0.6",
          "--method", "fyodorov", "--threshold=0.3", "--samples", "3000",
          "--seed", "9"]
    alone = []
    for args in (n4, fy):
        goi._bank.clear()
        assert cli.main(args) == 0
        alone.append(capsys.readouterr().out)
    goi._bank.clear()
    draws = []
    real = goi._draw_goe

    def counting(n, config):
        draws.append((n, config.mc_samples))
        return real(n, config)

    monkeypatch.setattr(goi, "_draw_goe", counting)
    together = []
    for args in (n4, fy):
        assert cli.main(args) == 0
        together.append(capsys.readouterr().out)
    assert draws == [(4, 3000)]
    assert together == alone


def test_heights_reduce_each_index_total_once(monkeypatch, capsys, empty_bank):
    # at one height the product, the index and the cap weight serve every
    # index, so a seeded height grid makes one pass per distinct (coupling,
    # shift, cap): the uncapped total, each density numerator and each count
    # above u, read by all four indices
    passes = []
    real = goi.mc_eigen_expectation

    def counting(ens, fn, cfg):
        passes.append((ens.c, fn.shift, fn.trace_cap))
        return real(ens, fn, cfg)

    monkeypatch.setattr(goi, "mc_eigen_expectation", counting)
    args = ["heights", "--N", "3", "--eta2", "1", "--kappa2", "0.9",
            "--grid=-1:1:0.5", "--quantity", "both", "--samples", "2000",
            "--seed", "1"]
    assert cli.main(args) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 2 * 4 * 5
    assert len(set(passes)) == len(passes) == 1 + 5 + 5
    c_tot = 0.5   # GOI(c_tot) on R^N
    assert passes.count((c_tot, 0.0, None)) == 1
    assert sum(c != c_tot for c, _, _ in passes) == 5
    assert sum(cap is not None for _, _, cap in passes) == 5


@pytest.mark.parametrize("model", [eu.model_from_shape(2, 1.0, 2.0),
                                   eu.model_from_shape(3, 1.3, 5.0 / 3.0)],
                         ids=["plane-n2", "plane-n3"])
def test_boundary_mc_count_above_is_the_trace_capped_total(model, empty_bank):
    # at the boundary the height is -mean(lam) / gamma exactly: a Monte
    # Carlo count above u is the trace-capped total on the same draw
    assert model.boundary
    p = model.problem()
    cfg = NumericConfig(mc_samples=4000, seed=7)
    pref = math.exp(p.log_prefactor)
    for i in range(model.n + 1):
        for u in (-0.6, 0.0, 0.9):
            got = kr.count_above(p, [i], np.array([u]), "monte-carlo", cfg)[0]
            fn = IndexedFunctional(index=i, trace_cap=-p.cap_coeff * u)
            val, err = goi_expectation(p.total_ensemble(), fn, "monte-carlo", cfg)
            assert (got.value[0], got.error[0]) == (pref * val, pref * err)


@pytest.mark.parametrize("method", ["quadrature", "monte-carlo"])
@pytest.mark.parametrize("model", [eu.model_from_shape(2, 1.0, 0.8),
                                   eu.model_from_shape(3, 1.0, 0.9),
                                   sp.model_from_shape(2, 0.8, 1.1),
                                   sp.model_from_shape(3, 0.8, 1.2)],
                         ids=["plane-n2", "plane-n3", "sphere-n2", "sphere-n3"])
def test_a_total_is_the_count_above_minus_inf(model, method, monkeypatch,
                                               empty_bank):
    # count_above at [-inf, u, inf] is bitwise the totals, the count above
    # u and 0 +- 0; quadrature totals integrate once per mirror pair, and a
    # seeded Monte Carlo count above -inf reads the totals' pass
    calls = []
    for name in ("nested_ordered_quadrature", "mc_eigen_expectation"):
        real = getattr(goi, name)
        monkeypatch.setattr(goi, name, lambda *a, _f=real, _n=name, **k:
                            calls.append(_n) or _f(*a, **k))
    cfg = NumericConfig(mc_samples=3000, seed=11)
    indices = list(range(model.n + 1))
    totals = kr.expected_counts(model, indices, method=method, config=cfg)
    assert len(calls) == (model.n // 2 + 1 if method == "quadrature" else 1)
    calls.clear()
    u = 0.3
    counts = kr.count_above(model.problem(), indices,
                            np.array([-math.inf, u, math.inf]), method, cfg)
    # quadrature integrates the totals again (nothing is kept between
    # calls) and each (index, finite u) once; Monte Carlo reads the totals'
    # pass at -inf and makes one pass at u for all indices
    assert len(calls) == (model.n // 2 + 1 + model.n + 1
                          if method == "quadrature" else 1)
    for i, tot, r in zip(indices, totals, counts):
        assert (r.value[0], r.error[0]) == (tot.value, tot.error)
        above = kr.expected_counts(model, [i], u, method, cfg)[0]
        assert (r.value[1], r.error[1]) == (above.value, above.error)
        assert (r.value[2], r.error[2]) == (0.0, 0.0)


def test_unseeded_monte_carlo_draws_afresh(empty_bank):
    ens = validate_ensemble(2, 0.3)
    f = IndexedFunctional(index=1)
    cfg = NumericConfig(mc_samples=5000)
    a = goi_expectation(ens, f, "monte-carlo", cfg)
    b = goi_expectation(ens, f, "monte-carlo", cfg)
    assert a != b
    assert len(goi._bank) == 0


def test_bank_is_read_only_and_bounded(empty_bank):
    for seed in range(BANK_ENTRIES + 2):
        draw = goi._goe_draw(3, NumericConfig(mc_samples=300, seed=seed))
        assert draw.lam.shape == (300, 3) and draw.trace.shape == (300,)
        assert draw.lam.flags.f_contiguous
        for arr in (draw.lam, draw.trace):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
    assert len(goi._bank) == BANK_ENTRIES
    cfg = NumericConfig(mc_samples=300, seed=seed)
    assert goi._goe_draw(3, cfg) is draw
    # one draw serves every coupling of its size: a coupling moves the
    # height, and nothing is stored per coupling but its all-index results
    for c in (-1.0 / 3.0, -0.2, 0.0, 1.0, 2.0, 0.5):
        goi_expectation(validate_ensemble(3, c), IndexedFunctional(1, shift=0.3),
                        "monte-carlo", cfg)
    assert len(goi._bank) == BANK_ENTRIES
    assert goi._bank[(3, seed, 300)] is draw
    assert len(draw.stats) == 6


def test_draw_eigenvalues_are_solved_once_eig_chunk_matrices_at_a_time(
        monkeypatch, empty_bank):
    # the draw reads the seed's stream in a fixed order, the diagonal rows
    # a_1..a_N and then the squared off-diagonals b_j^2 ~ Gamma((N - j) / 2);
    # its eigenvalues are solved once, when first read, by the QL pass over
    # its own rows, EIG_CHUNK matrices at a time, and are the same for any
    # EIG_CHUNK
    seed, n, k = 5, 3, 300
    cfg = NumericConfig(mc_samples=k, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    diag = rng.standard_normal((n, k))
    off2 = rng.standard_gamma([[1.0], [0.5]], (n - 1, k))
    whole = goi._goe_draw(n, cfg).lam
    goi._bank.clear()
    monkeypatch.setattr(goi, "EIG_CHUNK", 100)
    passes, chunks = [], []
    real_pass, real_chunk = goi._tridiagonal_eigvals, goi._ql_chunk
    monkeypatch.setattr(goi, "_tridiagonal_eigvals",
                        lambda d, e: passes.append(d) or real_pass(d, e))
    monkeypatch.setattr(goi, "_ql_chunk",
                        lambda d, e: chunks.append(d.shape[1]) or real_chunk(d, e))
    draw = goi._goe_draw(n, cfg)
    for arr, want in ((draw.diag, diag), (draw.off2, off2)):
        assert np.array_equal(arr, want) and arr.flags.c_contiguous
    assert np.array_equal(draw.trace, diag.sum(axis=0))
    assert passes == [] and chunks == []
    assert np.array_equal(draw.lam, whole)
    assert np.array_equal(draw.lam, whole)
    assert len(passes) == 1 and passes[0] is draw.diag
    assert chunks == [100, 100, 100]
    assert draw.lam.flags.f_contiguous and not draw.lam.flags.writeable
    # each row holds the eigenvalues of its own tridiagonal matrix
    for r in range(k):
        b = np.sqrt(off2[:, r])
        t = np.diag(diag[:, r]) + np.diag(b, 1) + np.diag(b, -1)
        assert np.allclose(draw.lam[r], np.linalg.eigvalsh(t), rtol=0.0, atol=1e-14)


def _dense_eigvals(diag, off2):
    """The eigenvalues of each column's tridiagonal matrix, as (k, N) rows,
    from eigh: eigvalsh's root-free pass is off by 6.7e-9 on zero diagonals
    with b^2 = 2.5e-158, 1e-30, 1e-30, 3 (see the hand cases)."""
    n, k = diag.shape
    m = np.zeros((k, n, n))
    m[:, np.arange(n), np.arange(n)] = diag.T
    b = np.sqrt(off2.T)
    m[:, np.arange(1, n), np.arange(n - 1)] = b
    m[:, np.arange(n - 1), np.arange(1, n)] = b
    return np.linalg.eigh(m)[0]


def _check_tridiagonal_eigvals(diag, off2):
    # rows ascend, agree with eigh within 1e-14 max(1, |T|) (|T| the
    # largest |eigenvalue|) and sum to the trace
    got = goi._tridiagonal_eigvals(diag, off2)
    want = _dense_eigvals(diag, off2)
    assert got.shape == want.shape and got.flags.f_contiguous
    assert not got.flags.writeable
    assert (np.diff(got, axis=1) >= 0.0).all()
    size = np.maximum(1.0, np.abs(want).max(axis=1, initial=0.0))
    assert (np.abs(got - want).max(axis=1, initial=0.0) <= 1e-14 * size).all()
    n = diag.shape[0]
    assert (np.abs(got.sum(axis=1) - diag.sum(axis=0)) <= 1e-14 * n * size).all()


# entries 0 or of magnitude >= 1e-100: LAPACK itself fails on matrices
# graded down to underflow (zero diagonals, b^2 = 1e-300 but for one
# b^2 = 105453 give eigvalsh +-327.59 for +-324.74); hand cases check the
# QL pass on tiny and subnormal couplings
_entries = st.one_of(st.sampled_from([0.0, 1.0, -1.0]),
                     st.floats(-1e3, 1e3).filter(lambda x: abs(x) >= 1e-100))
_squares = st.one_of(st.sampled_from([0.0, 1e-30, 1.0]),
                     st.floats(0.0, 1e6).filter(lambda x: x >= 1e-200))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 12), k=st.integers(1, 6))
def test_tridiagonal_eigvals_match_eigvalsh(data, n, k):
    diag = data.draw(hnp.arrays(np.float64, (n, k), elements=_entries))
    off2 = data.draw(hnp.arrays(np.float64, (n - 1, k), elements=_squares))
    _check_tridiagonal_eigvals(diag, off2)


def test_tridiagonal_eigvals_hand_cases():
    rng = np.random.default_rng(3)
    n = 6
    cases = []
    # split matrices: b_j^2 exactly 0 or 1e-300 at each position
    for tiny in (0.0, 1e-300):
        for j in range(n - 1):
            off2 = rng.standard_gamma(1.0, (n - 1, 4))
            off2[j] = tiny
            cases.append((rng.standard_normal((n, 4)), off2))
    # zero and equal diagonals with tiny couplings
    for value in (0.0, 1.0, -2.5):
        for tiny in (0.0, 1e-300, 1e-30, 1e-8):
            cases.append((np.full((n, 3), value), np.full((n - 1, 3), tiny)))
    # a sweep where r = p + b^2 = 0 (gamma = 0 above a split), and one where
    # c = 0 (gamma = 0 under a coupling)
    cases.append((np.array([[0.0], [0.0], [-1.0]]), np.array([[1.0], [0.0]])))
    cases.append((np.array([[0.0], [0.0], [-1.0]]), np.array([[1.0], [1.0]])))
    # couplings near b^2 = 1e-160: eigvalsh misses +-sqrt(3) by 6.7e-9 on
    # the first, and a sweep across b_4 once underflowed gamma^2 on the second
    cases.append((np.array([[0.0], [1.0], [0.0], [0.0], [0.0]]),
                  np.array([[2.52891689e-158], [1e-30], [1e-30], [3.0]])))
    cases.append((np.array([[-4.580934254355872e-96], [0.0], [0.0],
                            [-4.5803284845478615e-21], [-1.0], [6.599833042628707e-50],
                            [3.7077347748601955e-32], [0.0], [-1.0], [0.0]]),
                  np.array([[1.0], [1.0], [1.0], [86.51075829241886],
                            [3.020341741790644e-161], [4.292767151396228e-11],
                            [9.716665414627501e-126], [1.0], [2.4429566610594043e-113]])))
    # scales near 1e+-150, and a zero matrix
    diag, off2 = rng.standard_normal((n, 5)), rng.standard_gamma(1.0, (n - 1, 5))
    for s in (1e150, 1e-150, 0.0):
        cases.append((diag * s, off2 * s * s))
    for n in range(1, 13):
        cases.append((rng.standard_normal((n, 50)),
                      rng.standard_gamma(np.arange(n - 1, 0, -1)[:, None] / 2.0,
                                         (n - 1, 50))))
    for diag, off2 in cases:
        _check_tridiagonal_eigvals(diag, off2)
    # subnormal couplings are splits: b < 1.5e-154 moves no eigenvalue
    got = goi._tridiagonal_eigvals(
        np.zeros((5, 1)), np.array([[2.2e-311], [1.0], [2.2e-311], [5e-324]]))
    assert np.array_equal(got, [[-1.0, 0.0, 0.0, 0.0, 1.0]])


def test_tridiagonal_eigvals_that_do_not_converge_raise(monkeypatch):
    monkeypatch.setattr(goi, "QL_MAXIT", 0)
    diag = np.array([[0.0], [1.0], [2.0]])
    with pytest.raises(MethodError, match="in 0 sweeps for 1 tridiagonal 3 x 3"):
        goi._tridiagonal_eigvals(diag, np.ones((2, 1)))
    # a matrix that needs no sweep still passes
    assert np.array_equal(goi._tridiagonal_eigvals(diag, np.zeros((2, 1))),
                          [[0.0, 1.0, 2.0]])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_goi_draw_is_the_goe_shifted_by_its_trace(n, empty_bank):
    # M_0 + beta(c) tr(M_0) I is GOI(c) for a GOE matrix M_0, so the pivot
    # pass over the GOE draw, at each row's own height, gives the values of
    # the GOI(c) eigenvalues lam + beta tr of the draw up to rounding
    seed, samples = 41, 3000
    cfg = NumericConfig(mc_samples=samples, seed=seed)
    draw = goi._goe_draw(n, cfg)
    for c in (-1.0 / n, -0.2, 0.0, 0.5, 3.0):
        ens = validate_ensemble(n, c)
        lam = draw.lam + trace_shift(ens) * draw.trace[:, None]
        if ens.degenerate:
            assert np.abs(lam.mean(axis=1)).max() <= 1e-13
        for shift, cap, edge in ((0.3, None, 0.0), (-0.2, 0.1, 0.0),
                                 (0.6, -0.1, 0.3)):
            got = mc_eigen_expectation(ens, IndexedFunctional(0, shift, cap, edge), draw)
            for i in range(n + 1):
                vals = IndexedFunctional(i, shift, cap, edge).evaluate(lam)
                mean, square = vals.mean(), (vals * vals).mean()
                assert got[i][0] == pytest.approx(mean, rel=1e-9, abs=1e-14)
                # the pass's error is sqrt of E[v^2] - mean^2, which cancels
                # down to the rounding of E[v^2] when v is nearly constant
                se = vals.std(ddof=1) / math.sqrt(samples)
                assert got[i][1] == pytest.approx(
                    se, rel=1e-9, abs=math.sqrt(1e-14 * square / samples))
    assert len(goi._bank) == 1


def test_degenerate_ensemble_is_the_zero_matrix(empty_bank):
    # at N = 1, c = -1 every GOI sample is the zero matrix, so |det(M - a)|
    # is |a| on index 1 (a > 0) and nothing else; the mean and the standard
    # error of a constant keep only the rounding of summing it
    ens = validate_ensemble(1, -1.0)
    for cfg in (NumericConfig(mc_samples=300, seed=1),
                NumericConfig(mc_samples=4000, seed=7),
                NumericConfig(mc_samples=200_000, seed=1)):
        below = goi_expectation(ens, IndexedFunctional(1, shift=0.6), "monte-carlo", cfg)
        assert below[0] == pytest.approx(0.6, rel=1e-15, abs=0.0)
        assert 0.0 <= below[1] <= 1e-15
        assert goi_expectation(ens, IndexedFunctional(0, shift=0.6),
                               "monte-carlo", cfg) == (0.0, 0.0)


def test_zero_pivot_becomes_minus_pivmin():
    # a_1 = h makes the first pivot of row 0 exactly 0, and a_2 - b_1^2 / d_1
    # = 0 the second of row 1; as in LAPACK's dstebz each becomes -pivmin,
    # so the next pivot stays finite, the product is still |det(T - h)| and
    # the count of negative pivots the number of eigenvalues below h
    diag = np.array([[0.0, 2.0, -1.0], [-0.5, 0.5, 0.7], [0.4, -2.0, 0.1]])
    off2 = np.array([[0.8, 1.0, 1.5], [0.6, 0.3, 1e-3]])
    draw = goi._GoeDraw(diag, off2)
    got = mc_eigen_expectation(validate_ensemble(3, 0.0),
                               IndexedFunctional(0, 0.0), draw)
    assert np.isfinite(got).all()
    # |det| of the rows is 0.32, 0.6 and 0.219, each with one eigenvalue below 0
    assert got[1][0] == pytest.approx((0.32 + 0.6 + 0.219) / 3, rel=1e-14)
    for i in range(4):
        want = goi._mean_error(IndexedFunctional(i, 0.0).evaluate(draw.lam))[0]
        assert got[i] == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_tridiagonal_draw_has_the_goe_eigenvalue_law(n, empty_bank):
    # a two-sample KS test of each ordered eigenvalue against eigvalsh of
    # dense sample_goi matrices, on frozen seeds
    k = 20_000
    draw = goi._goe_draw(n, NumericConfig(mc_samples=k, seed=2024))
    dense = np.linalg.eigvalsh(sample_goi(validate_ensemble(n, 0.0), size=k,
                                          rng=np.random.default_rng(99)))
    for j in range(n):
        assert ks_2samp(draw.lam[:, j], dense[:, j]).pvalue > 1e-3
    # the trace is the sum of the eigenvalues, to rounding
    assert np.abs(draw.lam.sum(axis=1) - draw.trace).max() <= 1e-13 * n * (
        1.0 + np.abs(draw.lam).max())


def test_numeric_config_rejects_bad_sample_counts():
    for bad in ({"mc_samples": 1}, {"mc_samples": 2000.5},
                {"mc_samples": True}, {"mc_samples": "2000"},
                {"seed": -1}, {"seed": 1.5}, {"seed": "3"}, {"seed": True}):
        with pytest.raises(ParameterError):
            NumericConfig(**bad)
    cfg = NumericConfig(mc_samples=np.int64(2), seed=np.int64(0))
    assert (cfg.mc_samples, cfg.seed) == (2, 0)
    assert NumericConfig(seed=None).seed is None


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_sample_goi_symmetrizes_in_place_bitwise(n):
    # the in-place symmetrization gives the bits of (g + g^T) / 2 built
    # beside g from the same stream
    for c in (-1.0 / n, 0.0, 0.5):
        ens = validate_ensemble(n, c)
        got = sample_goi(ens, size=400, rng=np.random.default_rng(17))
        rng = np.random.default_rng(17)
        g = rng.standard_normal((400, n, n))
        want = (g + np.swapaxes(g, 1, 2)) / 2.0
        z = rng.standard_normal((400, n))
        idx = np.arange(n)
        want[:, idx, idx] = z + trace_shift(ens) * z.sum(axis=1, keepdims=True)
        assert np.array_equal(got, want)
        assert np.array_equal(got, np.swapaxes(got, 1, 2))


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([1, 2, 3, 4, 5, 8]),
       coupling=st.sampled_from(["boundary", "goe", "positive"]),
       shift=st.sampled_from([0.0, -0.35, 0.6]),
       cap=st.sampled_from(["none", "hard", "soft"]),
       samples=st.integers(2, 700), batch=st.integers(1, 800),
       seed=st.integers(0, 2 ** 20))
def test_all_index_pass_is_bitwise_the_per_index_reduction(
        n, coupling, shift, cap, samples, batch, seed):
    # one pass gives every index IndexedFunctional.evaluate on row-major
    # GOI(c) rows lam + beta tr of the draw plus _mean_error of each index's
    # column, up to rounding: the pass takes |det| and the index from the
    # pivots of the tridiagonal matrices at shift - beta tr, and a cap's
    # mean from the trace, and it reduces every index in one grouped sum
    goi._bank.clear()
    c = {"boundary": -1.0 / n, "goe": 0.0, "positive": 0.7}[coupling]
    ens = validate_ensemble(n, c)
    trace_cap, edge = {"none": (None, 0.0), "hard": (0.05, 0.0),
                       "soft": (-0.1, 0.3)}[cap]
    cfg = NumericConfig(mc_samples=samples, seed=seed)
    draw, beta = goi._goe_draw(n, cfg), trace_shift(ens)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(goi, "EIG_CHUNK", batch)
        got = mc_eigen_expectation(ens, IndexedFunctional(0, shift, trace_cap, edge), draw)
        rows = np.ascontiguousarray(draw.lam + beta * draw.trace[:, None])
    assert got.shape == (n + 1, 2)
    # each factor |lam_j - a| rounds within a few ulps of M, the row's
    # largest |GOE eigenvalue|, |beta tr| or |a|, so a product within a few
    # n ulps of M^n
    scale = goi._mean_error(np.maximum(
        np.abs(draw.lam).max(axis=1, initial=abs(shift)),
        np.abs(beta * draw.trace)) ** n)[0, 0]
    for i in range(n + 1):
        fn = IndexedFunctional(i, shift, trace_cap, edge)
        want = goi._mean_error(fn.evaluate(rows))[0]
        assert got[i][0] == pytest.approx(want[0], rel=1e-13, abs=1e-13 * scale)
        assert got[i][1] == pytest.approx(want[1], rel=1e-13, abs=1e-13 * scale)
        assert goi_expectation(ens, fn, "monte-carlo", cfg) == tuple(got[i])
    goi._bank.clear()


@settings(max_examples=150, deadline=None)
@given(k=st.integers(2, 3000), groups=st.integers(1, 12),
       used=st.integers(1, 12),
       column=st.sampled_from(["constant", "decade", "wide", "sparse"]),
       exponent=st.integers(-150, 150), seed=st.integers(0, 2 ** 32 - 1))
def test_grouped_mean_error_is_each_columns_mean_error(
        k, groups, used, column, exponent, seed):
    # group g of the grouped reduction is the reduction of v where group ==
    # g and 0 elsewhere, and both agree with the plain two-pass mean and
    # standard error (which stays finite for |v| <= 1e150): constant
    # columns, groups left empty, one group, and magnitudes 1e-150..1e150
    rng = np.random.default_rng(seed)
    group = rng.integers(0, min(used, groups), k)
    scale = 10.0 ** exponent
    v = {"constant": lambda: scale * (group + 1.0),
         "decade": lambda: scale * rng.random(k),
         "wide": lambda: 10.0 ** rng.uniform(-150.0, 150.0, k),
         "sparse": lambda: np.where(rng.random(k) < 0.9, 0.0,
                                    scale * rng.random(k))}[column]()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = goi._mean_error(v, group, groups)
        assert got.shape == (groups, 2)
        for g in range(groups):
            col = np.where(group == g, v, 0.0)
            mean = col.sum() / k
            plain = (mean, math.sqrt(np.square(col - mean).sum() / (k - 1) / k))
            # a constant column's error is the rounding of its mean
            tol = 1e-13 * np.abs(col).max()
            assert tuple(got[g]) == pytest.approx(plain, rel=1e-13, abs=tol)
            assert tuple(got[g]) == pytest.approx(
                tuple(goi._mean_error(col)[0]), rel=1e-13, abs=tol)


def test_a_pass_makes_no_fresh_full_length_arrays(empty_bank):
    # a pass over a banked draw writes into the draw's work arrays and
    # reduces them in one grouped sum: its traced peak is a few (k,)
    # arrays (the reduction's key and deviations), whatever the coupling or
    # cap, not one per index
    n, k = 4, 50_000
    draw = goi._goe_draw(n, NumericConfig(mc_samples=k, seed=5))
    cases = [(0.0, IndexedFunctional(0, 0.3)),
             (0.5, IndexedFunctional(0, -0.2)),
             (0.5, IndexedFunctional(0, 0.1, trace_cap=0.1, cap_edge=0.3)),
             (-1.0 / n, IndexedFunctional(0, 0.2, trace_cap=0.05))]
    first = [mc_eigen_expectation(validate_ensemble(n, c), fn, draw)
             for c, fn in cases]
    tracemalloc.start()
    try:
        for (c, fn), want in zip(cases, first):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            got = mc_eigen_expectation(validate_ensemble(n, c), fn, draw)
            assert tracemalloc.get_traced_memory()[1] - base <= 4 * 8 * k
            assert np.array_equal(got, want)
    finally:
        tracemalloc.stop()


def test_evicted_draw_is_freed_and_kept_sums_are_bounded(monkeypatch, empty_bank):
    ens = validate_ensemble(3, 0.5)
    cfg = NumericConfig(mc_samples=300, seed=0)
    fn = IndexedFunctional(1, shift=0.2, trace_cap=0.1, cap_edge=0.3)
    goi_expectation(ens, fn, "monte-carlo", cfg)
    draw = goi._bank[(3, 0, 300)]
    assert draw.lam.flags.f_contiguous and not draw.lam.flags.writeable
    arrays = [weakref.ref(draw.lam), weakref.ref(draw.trace)]
    assert len(draw.stats) == 1
    del draw
    for seed in range(1, BANK_ENTRIES + 1):
        goi_expectation(ens, fn, "monte-carlo",
                        NumericConfig(mc_samples=300, seed=seed))
    gc.collect()
    assert (3, 0, 300) not in goi._bank
    assert all(r() is None for r in arrays)
    # a sweep over more heights than STATS_PER_DRAW keeps only the last ones
    monkeypatch.setattr(goi, "STATS_PER_DRAW", 3)
    seeded = NumericConfig(mc_samples=300, seed=1)
    for u in np.linspace(-1.0, 1.0, 7):
        for i in range(4):
            goi_expectation(ens, IndexedFunctional(i, shift=u), "monte-carlo", seeded)
    assert len(goi._bank[(3, 1, 300)].stats) == 3
