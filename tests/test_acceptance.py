"""Acceptance suite: one test per numbered criterion, tolerances pinned.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Stochastic checks use frozen seeds, so outcomes are
deterministic on a given platform.
"""
import csv
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from critfield.cli import main as cli_main
from critfield.detect import ks_critical, simulation_study
from critfield.euclidean import (expected_crit_above, expected_crit_total,
                                 height_cdf, height_density, model_from_rho)
from critfield.euclidean import model_from_shape as euclid_from_shape
from critfield.fields import SynthesisSpec
from critfield import fyodorov_expected_crit
from critfield.goi import NumericConfig, sample_goi, validate_ensemble
from critfield.sphere import (euler_characteristic, expected_crit_above_sphere,
                              expected_crit_total_sphere, height_cdf_sphere,
                              height_density_sphere, model_from_legendre)
from critfield.sphere import model_from_shape as sphere_from_shape

SQRT3 = math.sqrt(3.0)


def euclid_total_closed(eta2: float, i: int) -> float:
    b = 1.0 / (SQRT3 * math.pi * eta2)
    return 2.0 * b if i == 1 else b


def sphere_total_closed(eta2: float, i: int) -> float:
    e1 = 1.0 / (math.pi * eta2 * math.sqrt(3.0 + eta2))
    return e1 if i == 1 else 1.0 / (4.0 * math.pi) + 0.5 * e1


def test_criterion_01_rice_line():
    """N=1 minima intensity equals the Rice value sqrt(6)/(2 pi)."""
    t0 = time.perf_counter()
    m = model_from_rho(1, -0.5, 0.5)       # lam2 = 1, lam4 = 6, eta = 1
    r = expected_crit_total(m, 0, method="quadrature")
    elapsed = time.perf_counter() - t0
    assert r.value == pytest.approx(math.sqrt(6.0) / (2.0 * math.pi), rel=1e-6)
    assert elapsed < 1.0


def test_criterion_02_planar_closed_totals():
    """General quadrature reproduces the planar N=2 closed totals to 1e-6."""
    t0 = time.perf_counter()
    for eta in (0.5, 1.0, 2.0):
        m = euclid_from_shape(2, eta * eta, 1.0)
        for i in range(3):
            ref = euclid_total_closed(eta * eta, i)
            assert expected_crit_total(m, i).value == pytest.approx(
                ref, rel=1e-12)
            q = expected_crit_total(m, i, method="quadrature")
            assert q.value == pytest.approx(ref, rel=1e-6)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_03_sphere_closed_totals():
    """General quadrature reproduces the sphere N=2 closed totals to 1e-6."""
    for eta in (0.5, 1.0, 2.0):
        m = sphere_from_shape(2, eta * eta, eta * eta + 1.0)
        for i in range(3):
            ref = sphere_total_closed(eta * eta, i)
            assert expected_crit_total_sphere(m, i).value == pytest.approx(
                ref, rel=1e-12)
            q = expected_crit_total_sphere(m, i, method="quadrature")
            assert q.value == pytest.approx(ref, rel=1e-6)


def test_criterion_04_euler_characteristic():
    """Whole-sphere alternating count sum equals chi(S^2) = 2, both regimes."""
    for m in (sphere_from_shape(2, 0.5, 1.0),      # interior
              sphere_from_shape(2, 1.0, 3.0),      # boundary
              model_from_legendre(2)):
        closed = euler_characteristic(m)
        assert abs(closed.value - 2.0) < 1e-10
        q = euler_characteristic(m, method="quadrature")
        assert abs(q.value - 2.0) < 3.0 * q.error


# six parameter settings: (space, model) covering both regimes of each space
HEIGHT_SETTINGS = [
    ("euclidean", euclid_from_shape(2, 1.0, 0.5)),
    ("euclidean", euclid_from_shape(2, 1.0, 2.0)),       # boundary
    ("euclidean", euclid_from_shape(2, 0.25, 1.0)),
    ("sphere", sphere_from_shape(2, 0.5, 1.0)),
    ("sphere", sphere_from_shape(2, 1.0, 3.0)),          # boundary
    ("sphere", model_from_legendre(3)),                  # boundary
]


def test_criterion_05_height_normalization_symmetry_monotonicity():
    """h_i integrates to 1; h_1 is even; F_i is nonincreasing (161-pt grid)."""
    us = np.linspace(-4.0, 4.0, 161)
    xs = np.array([0.3, 1.1, 2.7])
    for space, m in HEIGHT_SETTINGS:
        if space == "euclidean":
            pdf, cdf = height_density, height_cdf
        else:
            pdf, cdf = height_density_sphere, height_cdf_sphere
        for i in range(3):
            mass, _ = quad(lambda x: pdf(m, i, x), -14.0, 14.0, limit=200)
            assert mass == pytest.approx(1.0, abs=1e-8)
            F = cdf(m, i, us)
            assert np.all(np.diff(F) <= 1e-12)
        assert np.allclose(pdf(m, 1, xs), pdf(m, 1, -xs), atol=1e-10)


def test_criterion_06_index_symmetry():
    """Counts of index i above u and index N-i above -u exhaust the total."""
    # N = 2: closed forms, combined pinned error estimates
    m2 = euclid_from_shape(2, 1.0, 0.8)
    for i in range(3):
        tot = expected_crit_total(m2, i)
        for u in (-1.5, -0.5, 0.0, 0.8, 1.6):
            a = expected_crit_above(m2, 2 - i, u)
            b = expected_crit_above(m2, i, -u)
            assert abs(a.value + b.value - tot.value) <= \
                3.0 * (a.error + b.error + tot.error)
    # N = 3: Monte Carlo thresholds against the quadrature total
    m3 = euclid_from_shape(3, 1.0, 1.2)
    for k, (i, u) in enumerate([(1, -0.6), (1, 0.9), (0, 0.9)]):
        a = expected_crit_above(
            m3, 3 - i, u, method="monte-carlo",
            config=NumericConfig(mc_samples=200_000, seed=500 + 2 * k))
        b = expected_crit_above(
            m3, i, -u, method="monte-carlo",
            config=NumericConfig(mc_samples=200_000, seed=501 + 2 * k))
        tot = expected_crit_total(m3, i, method="quadrature")
        assert abs(a.value + b.value - tot.value) <= \
            3.0 * (a.error + b.error + tot.error)


def test_criterion_07_fyodorov_cross_path():
    """12 restricted-regime configs agree across the two engines (1e6 MC)."""
    t0 = time.perf_counter()
    e1 = euclid_from_shape(2, 1.0, 0.49)
    e2 = euclid_from_shape(2, 1.0, 0.9)
    s1 = sphere_from_shape(2, 0.5, 1.0)
    s2 = sphere_from_shape(2, 0.8, 1.5)
    configs = [
        (e1, 0, None, 1000), (e1, 1, None, 1001), (e1, 1, 0.5, 1002),
        (e1, 2, -0.7, 1003), (e2, 1, None, 1004), (e2, 2, 0.3, 1005),
        (s1, 0, None, 1006), (s1, 1, None, 1007), (s1, 1, 0.4, 1008),
        (s1, 2, 0.4, 1009), (s2, 1, None, 2010), (s2, 2, 0.0, 1011),
    ]
    assert len(configs) == 12
    for m, i, u, seed in configs:
        cfg = NumericConfig(mc_samples=1_000_000, seed=seed)
        f = fyodorov_expected_crit(m, i, u, config=cfg)
        if hasattr(m, "rho1"):
            g = (expected_crit_total(m, i) if u is None
                 else expected_crit_above(m, i, u))
        else:
            g = (expected_crit_total_sphere(m, i) if u is None
                 else expected_crit_above_sphere(m, i, u))
        assert abs(f.value - g.value) <= 3.0 * (f.error + g.error), \
            f"config (i={i}, u={u}, seed={seed})"
    assert time.perf_counter() - t0 < 300.0


def test_criterion_08_boundary_continuity():
    """Height densities converge to the boundary forms as the gap closes."""
    xs = np.linspace(-4.0, 4.0, 161)
    near = euclid_from_shape(2, 1.0, 2.0 - 1e-3)
    limit = euclid_from_shape(2, 1.0, 2.0)
    assert not near.boundary and limit.boundary
    for i in range(3):
        gap = np.abs(height_density(near, i, xs) - height_density(limit, i, xs))
        assert gap.max() < 1e-2
    s_near = sphere_from_shape(2, 1.0, 3.0 - 1e-3)
    s_limit = sphere_from_shape(2, 1.0, 3.0)
    assert not s_near.boundary and s_limit.boundary
    for i in range(3):
        gap = np.abs(height_density_sphere(s_near, i, xs)
                     - height_density_sphere(s_limit, i, xs))
        assert gap.max() < 1e-2


def test_criterion_09_goi_sampler_moments():
    """Sampler entry second moments match the ensemble covariance (4 SE)."""
    for n, c, seed in ((2, 0.5, 101), (2, -0.45, 102), (3, 1.0, 103),
                       (3, -1.0 / 3.0 + 0.05, 104)):
        M = sample_goi(validate_ensemble(n, c), size=100_000,
                       rng=np.random.default_rng(seed))
        for i in range(n):
            for j in range(i, n):
                for k in range(n):
                    for l in range(k, n):
                        if (k, l) < (i, j):
                            continue
                        prod = M[:, i, j] * M[:, k, l]
                        emp = prod.mean()
                        se = prod.std(ddof=1) / math.sqrt(len(prod))
                        theory = (0.5 * ((i == k) * (j == l)
                                         + (i == l) * (j == k))
                                  + c * (i == j) * (k == l))
                        assert abs(emp - theory) <= 4.0 * se, \
                            f"(n={n}, c={c}) entry ({i}{j},{k}{l})"
    # exactly degenerate ensemble: zero trace sample by sample
    M = sample_goi(validate_ensemble(2, -0.5), size=100_000,
                   rng=np.random.default_rng(105))
    assert np.abs(np.einsum("kii->k", M)).max() <= 1e-12


def test_criterion_10_field_simulation():
    """Detected intensities and pooled index-1 heights match theory."""
    t0 = time.perf_counter()
    # random plane waves, r = 10: mu_0 intensity r^2/(8 sqrt(3) pi)
    rep = simulation_study(SynthesisSpec.plane_wave(10.0), side=10.0,
                           n_reps=50, seed=20260819)
    mu0_theory = 100.0 / (8.0 * SQRT3 * math.pi)
    assert rep.theory_intensity[0] == pytest.approx(mu0_theory, rel=1e-12)
    assert abs(rep.intensity_mean[0] - mu0_theory) <= 3.0 * rep.intensity_se[0]
    # pooled index-1 heights against the closed-form distribution
    n1 = rep.pooled_heights[1].n
    assert n1 >= 10_000
    assert rep.ks[1] < ks_critical(n1, alpha=0.01)
    # gaussian covariance, ell = 1: mu_1 intensity 1/(sqrt(3) pi)
    g = simulation_study(SynthesisSpec.gaussian_covariance(1.0), side=10.0,
                         n_reps=50, seed=7)
    mu1_theory = 1.0 / (SQRT3 * math.pi)
    assert g.theory_intensity[1] == pytest.approx(mu1_theory, rel=1e-12)
    assert abs(g.intensity_mean[1] - mu1_theory) <= 3.0 * g.intensity_se[1]
    assert time.perf_counter() - t0 < 600.0


# the six height-curve parameterizations (planar panel fixes eta^2 = 1;
# planar heights depend on kappa^2 only)
CURVE_ARGS = [
    ("euclidean", ["--eta2", "1", "--kappa2", "0.01"]),
    ("euclidean", ["--eta2", "1", "--kappa2", "1"]),
    ("euclidean", ["--eta2", "1", "--kappa2", "2"]),
    ("sphere", ["--eta2", "0.05", "--kappa2", "0.05"]),
    ("sphere", ["--eta2", "0.5", "--kappa2", "1"]),
    ("sphere", ["--eta2", "1", "--kappa2", "3"]),
]


def test_criterion_11_height_curve_tables(tmp_path):
    """CLI emits finite, nonnegative, normalized curve tables (6 settings)."""
    for k, (space, model_args) in enumerate(CURVE_ARGS):
        out = tmp_path / f"curves_{k}.csv"
        code = cli_main(["heights", "--space", space, *model_args,
                         "--grid", "-6:6:0.05", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        # 241 grid points x 3 indices x {pdf, cdf}
        assert len(rows) == 241 * 3 * 2
        xs = np.array([float(r["grid_value"]) for r in rows
                       if r["index"] == "0" and r["quantity"] == "height-pdf"])
        for i in range(3):
            p = np.array([float(r["value"]) for r in rows
                          if r["index"] == str(i)
                          and r["quantity"] == "height-pdf"])
            F = np.array([float(r["value"]) for r in rows
                          if r["index"] == str(i)
                          and r["quantity"] == "height-cdf"])
            assert np.all(np.isfinite(p)) and np.all(np.isfinite(F))
            assert np.all(p >= 0.0) and np.all(F >= 0.0) and np.all(F <= 1.0)
            assert np.all(np.diff(F) <= 1e-12)
            assert np.trapezoid(p, xs) == pytest.approx(1.0, abs=1e-4)
        if k == 1:     # kappa^2 = 1 planar saddle density at zero, pinned
            spot = [r["value"] for r in rows
                    if r["index"] == "1" and r["quantity"] == "height-pdf"
                    and float(r["grid_value"]) == 0.0]
            assert spot == ["0.488602511903"]
