"""Ensemble-level checks: constants, validation, sampling, expectations."""
import csv
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from critfield import (
    DegenerateEnsembleError,
    EigenvalueVector,
    GoiEnsemble,
    IndexedFunctional,
    MethodError,
    NumericConfig,
    ParameterError,
    goi_expectation,
    k_norm,
    ordered_eigenvalue_density,
    sample_goi,
    validate_ensemble,
)
from critfield import _kacrice as kr
from critfield import cli, goi
from critfield import euclidean as eu
from critfield.goi import (BANK_ENTRIES, batch_mean, eigen_batches,
                          mc_eigen_expectation, nested_ordered_quadrature,
                          trace_shift)


@pytest.fixture
def empty_bank():
    goi._bank.clear()
    yield
    goi._bank.clear()


def test_normalization_constants():
    assert k_norm(1) == pytest.approx(math.sqrt(2 * math.pi), rel=1e-14)
    assert k_norm(2) == pytest.approx(2 * math.sqrt(math.pi), rel=1e-14)
    # K_3 = 2^{3/2} Gamma(1/2) Gamma(1) Gamma(3/2) = sqrt(2) pi
    assert k_norm(3) == pytest.approx(math.sqrt(2) * math.pi, rel=1e-14)


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


def test_eigenvalue_vector_order():
    v = EigenvalueVector([-1.0, 0.0, 2.5])
    assert len(v) == 3
    with pytest.raises(ParameterError):
        EigenvalueVector([1.0, 0.0])
    with pytest.raises(ParameterError):
        EigenvalueVector([[1.0, 2.0]])


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


@pytest.mark.parametrize("n,c", [(1, 0.0), (2, 0.0), (2, 0.3), (2, -0.45),
                                 (3, 0.5), (3, 2.5),
                                 (2, -0.5 + 1e-3), (3, -1.0 / 3.0 + 1e-3)])
def test_density_normalizes(n, c):
    val, err = nested_ordered_quadrature(n, c, lambda lam: 1.0,
                                         n_lower=0, split=None)
    assert val == pytest.approx(1.0, abs=5e-9)


def test_density_basic_properties():
    e = validate_ensemble(2, 0.3)
    assert ordered_eigenvalue_density(e, [1.0, -1.0]) == 0.0  # unordered
    # GOE reduction at c = 0: f(lam) = (lam2 - lam1) exp(-q/2) / K_2
    goe = validate_ensemble(2, 0.0)
    lam = (-0.3, 1.1)
    want = (lam[1] - lam[0]) * math.exp(-(lam[0] ** 2 + lam[1] ** 2) / 2) / k_norm(2)
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
    with pytest.raises(DegenerateEnsembleError):
        goi_expectation(validate_ensemble(2, -0.5), f, "quadrature")
    with pytest.raises(MethodError):
        goi_expectation(validate_ensemble(2, 0.0), f, "simpson")
    with pytest.raises(ParameterError):
        goi_expectation(validate_ensemble(2, 0.0), IndexedFunctional(index=3))


def test_ensemble_dataclass_guard():
    with pytest.raises(ParameterError):
        GoiEnsemble(n=0, c=0.0)


def test_bank_draws_each_ensemble_once_per_command(monkeypatch, capsys, empty_bank):
    draws = []
    real = goi.sample_goi

    def counting(ens, size=None, rng=None):
        draws.append((ens.c, size))
        return real(ens, size, rng)

    monkeypatch.setattr(goi, "sample_goi", counting)
    args = ["heights", "--N", "3", "--eta2", "1.2", "--kappa2", "0.9",
            "--grid=-1.4:1.6:0.5", "--quantity", "both", "--samples", "2000",
            "--seed", "3"]
    assert cli.main(args) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 2 * 4 * 7
    # one GOE(3) draw: GOI(c_tot) for totals and counts above u and
    # GOI(c_cnd) for densities are its rows shifted by their traces
    assert draws == [(0.0, 2000)]
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
    real = goi.sample_goi

    def counting(ens, size=None, rng=None):
        draws.append((ens.n, ens.c, size))
        return real(ens, size, rng)

    monkeypatch.setattr(goi, "sample_goi", counting)
    together = []
    for args in (n4, fy):
        assert cli.main(args) == 0
        together.append(capsys.readouterr().out)
    assert draws == [(4, 0.0, 3000)]
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
            got = kr.count_above(p, i, np.array([u]), "monte-carlo", cfg)
            fn = IndexedFunctional(index=i, trace_cap=-p.cap_coeff * u)
            val, err = goi_expectation(p.total_ensemble(), fn, "monte-carlo", cfg)
            assert (got.value[0], got.error[0]) == (pref * val, pref * err)


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
        batches = eigen_batches(3, NumericConfig(mc_samples=300, mc_batch=100,
                                                 seed=seed))
        assert len(batches) == 3
        for lam in batches:
            assert lam.shape == (100, 3)
            assert not lam.flags.writeable
            with pytest.raises(ValueError):
                lam[0, 0] = 0.0
    assert len(goi._bank) == BANK_ENTRIES
    cfg = NumericConfig(mc_samples=300, mc_batch=100, seed=seed)
    assert eigen_batches(3, cfg) is batches
    # one draw serves every coupling of its size: a coupling moves the
    # height, and nothing is stored per coupling but its all-index results
    for c in (-1.0 / 3.0, -0.2, 0.0, 1.0, 2.0, 0.5):
        goi_expectation(validate_ensemble(3, c), IndexedFunctional(1, shift=0.3),
                        "monte-carlo", cfg)
    assert len(goi._bank) == BANK_ENTRIES
    draw = goi._bank[(3, seed, 300, 100)]
    assert draw.lam is batches
    assert len(draw.stats) == 6


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_goi_draw_is_the_goe_shifted_by_its_trace(n, empty_bank):
    # sample_goi draws GOI(c) as M_0 + beta(c) tr(M_0) I from the same
    # normals as the GOE draw M_0, so the pass over the GOE draw, at each
    # row's own height, gives the values of the GOI(c) eigenvalues up to
    # rounding
    seed, samples = 41, 3000
    cfg = NumericConfig(mc_samples=samples, seed=seed)
    for c in (-1.0 / n, -0.2, 0.0, 0.5, 3.0):
        ens = validate_ensemble(n, c)
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        lam = np.linalg.eigvalsh(sample_goi(ens, size=samples, rng=rng))
        if ens.degenerate:
            assert np.abs(lam.mean(axis=1)).max() <= 1e-13
        for shift, cap, edge in ((0.3, None, 0.0), (-0.2, 0.1, 0.0),
                                 (0.6, -0.1, 0.3)):
            got = mc_eigen_expectation(ens, IndexedFunctional(0, shift, cap, edge), cfg)
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
    for cfg in (NumericConfig(mc_samples=300, mc_batch=100, seed=1),
                NumericConfig(mc_samples=4000, seed=7),
                NumericConfig(mc_samples=200_000, seed=1)):
        below = goi_expectation(ens, IndexedFunctional(1, shift=0.6), "monte-carlo", cfg)
        assert below[0] == pytest.approx(0.6, rel=1e-15, abs=0.0)
        assert 0.0 <= below[1] <= 1e-9
        assert goi_expectation(ens, IndexedFunctional(0, shift=0.6),
                               "monte-carlo", cfg) == (0.0, 0.0)


def test_numeric_config_rejects_bad_sample_counts():
    for bad in ({"mc_batch": 0}, {"mc_batch": -5}, {"mc_batch": 2.0},
                {"mc_samples": 1}, {"mc_samples": 2000.5},
                {"mc_samples": True}, {"mc_samples": "2000"}):
        with pytest.raises(ParameterError):
            NumericConfig(**bad)
    cfg = NumericConfig(mc_samples=np.int64(2), mc_batch=1)
    assert cfg.mc_samples == 2


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
    # GOI(c) rows plus batch_mean, chunk by chunk: bitwise on the GOE rows
    # themselves (c = 0, no cap), else up to rounding, since the pass
    # compares lam_j with shift - beta tr where the rows hold lam_j + beta
    # tr, and takes a cap's mean from the trace
    goi._bank.clear()
    c = {"boundary": -1.0 / n, "goe": 0.0, "positive": 0.7}[coupling]
    ens = validate_ensemble(n, c)
    trace_cap, edge = {"none": (None, 0.0), "hard": (0.05, 0.0),
                       "soft": (-0.1, 0.3)}[cap]
    cfg = NumericConfig(mc_samples=samples, mc_batch=batch, seed=seed)
    got = mc_eigen_expectation(ens, IndexedFunctional(0, shift, trace_cap, edge), cfg)
    assert got.shape == (n + 1, 2)
    draw, beta = goi._bank[(n, seed, samples, batch)], trace_shift(ens)
    rows = [np.ascontiguousarray(lam + beta * tr[:, None])
            for lam, tr in zip(draw.lam, draw.trace)]
    for i in range(n + 1):
        fn = IndexedFunctional(i, shift, trace_cap, edge)
        want = batch_mean((fn.evaluate(lam) for lam in rows), samples)
        if c == 0.0 and trace_cap is None:
            assert tuple(got[i]) == want
        else:
            # each factor |lam_j - a| rounds within a few ulps of M, the
            # row's largest |GOE eigenvalue|, |beta tr| or |a|, so a product
            # within a few n ulps of M^n; an error is the square root of a
            # difference of sums of squares, so it keeps fewer digits
            scale = batch_mean(
                (np.maximum(np.abs(lam).max(axis=1, initial=abs(shift)),
                            np.abs(beta * tr)) ** n
                 for lam, tr in zip(draw.lam, draw.trace)), samples)[0]
            assert got[i][0] == pytest.approx(want[0], rel=1e-12,
                                              abs=1e-13 * scale)
            assert got[i][1] == pytest.approx(want[1], rel=1e-6,
                                              abs=1e-7 * scale)
        assert goi_expectation(ens, fn, "monte-carlo", cfg) == tuple(got[i])
    goi._bank.clear()


def test_evicted_draw_is_freed_and_kept_sums_are_bounded(monkeypatch, empty_bank):
    ens = validate_ensemble(3, 0.5)
    cfg = NumericConfig(mc_samples=300, mc_batch=100, seed=0)
    fn = IndexedFunctional(1, shift=0.2, trace_cap=0.1, cap_edge=0.3)
    goi_expectation(ens, fn, "monte-carlo", cfg)
    draw = goi._bank[(3, 0, 300, 100)]
    assert all(lam.flags.f_contiguous and not lam.flags.writeable
               for lam in draw.lam)
    chunks = [weakref.ref(a) for a in draw.lam]
    assert len(draw.stats) == 1
    del draw
    for seed in range(1, BANK_ENTRIES + 1):
        goi_expectation(ens, fn, "monte-carlo",
                        NumericConfig(mc_samples=300, mc_batch=100, seed=seed))
    gc.collect()
    assert (3, 0, 300, 100) not in goi._bank
    assert all(r() is None for r in chunks)
    # a sweep over more heights than STATS_PER_DRAW keeps only the last ones
    monkeypatch.setattr(goi, "STATS_PER_DRAW", 3)
    seeded = NumericConfig(mc_samples=300, mc_batch=100, seed=1)
    for u in np.linspace(-1.0, 1.0, 7):
        for i in range(4):
            goi_expectation(ens, IndexedFunctional(i, shift=u), "monte-carlo", seeded)
    assert len(goi._bank[(3, 1, 300, 100)].stats) == 3
