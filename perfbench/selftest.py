"""Each check accepts a correct row or point and rejects a perturbed one.

    python3 perfbench/selftest.py        (from the repository root)

Rows come from critfield's CLI on cheap settings (closed forms, few Monte
Carlo samples); points from small fields.  Takes a few seconds.
"""
from __future__ import annotations

import math
import unittest

import numpy as np

from run import _import_critfield

_import_critfield()

import references as ref  # noqa: E402
import workloads  # noqa: E402
from critfield import euclidean, fields, sphere  # noqa: E402
from critfield.detect import find_critical_points_plane, find_critical_points_sphere  # noqa: E402


def _perturb(rows, index, factor):
    """Copy of rows with the first row of that index scaled."""
    out, done = [], False
    for r in rows:
        r = dict(r)
        if not done and int(r["index"]) == index:
            r["value"] = repr(float(r["value"]) * factor)
            done = True
        out.append(r)
    return out


def _shift_past_tolerance(rows, index, quantity, weights=None):
    """Copy of rows with one row moved by twice the Monte Carlo tolerance of
    its group (MC_SIGMAS times the weighted sum of the group's errors)."""
    row = next(r for r in rows if int(r["index"]) == index and r["quantity"] == quantity)
    group = [r for r in rows if r["quantity"] == quantity and r["grid_value"] == row["grid_value"]]
    w = weights or [1.0] * len(group)
    tol = ref.MC_SIGMAS * sum(w[int(r["index"])] * float(r["error"]) for r in group)
    out = [dict(r) for r in rows]
    moved = out[rows.index(row)]
    moved["value"] = repr(float(moved["value"]) + 2.0 * tol / w[index])
    return out


def _fmt(x):
    return repr(float(x))


class RowChecks(unittest.TestCase):

    def test_gkf_r2_on_closed_forms(self):
        eta2, kappa2, u = 0.9, 1.3, 0.4
        rows = []
        for i in range(3):
            rows += workloads.run_cli(["density", "--N", "2", "--eta2", _fmt(eta2), "--kappa2",
                                       _fmt(kappa2), "--index", str(i), f"--grid={u}"])
        rows = [{**r, "quantity": "expected-count"} for r in rows]
        lam = ref.euclid_lambda(eta2, kappa2)
        self.assertEqual(ref.check_gkf_euclid(rows, 2, lam, "expected-count", False), [])
        self.assertEqual(ref.check_saddles_n2(rows, eta2, kappa2), [])
        bad = _perturb(rows, 2, 1.0 + 1e-4)
        self.assertTrue(ref.check_gkf_euclid(bad, 2, lam, "expected-count", False))
        self.assertTrue(ref.check_saddles_n2(_perturb(rows, 1, 1.0 + 1e-4), eta2, kappa2))

    def test_gkf_s2_on_closed_forms(self):
        eta2, kappa2 = 0.8, 1.1
        rows = workloads.run_cli(["expect", "--space", "sphere", "--eta2", _fmt(eta2),
                                  "--kappa2", _fmt(kappa2), "--threshold=-0.3"])
        lam = ref.sphere_lambda(eta2, kappa2)
        self.assertEqual(ref.check_gkf_sphere2(rows, lam, False), [])
        self.assertTrue(ref.check_gkf_sphere2(_perturb(rows, 0, 1.0 + 1e-4), lam, False))

    def test_n3_totals_and_euler(self):
        eta2 = 1.7
        rows = [{"index": str(i), "grid_value": "-inf", "quantity": "expected-count",
                 "value": repr(v), "error": ""}
                for i, v in enumerate(ref.euclid_totals_n3(eta2))]
        self.assertEqual(ref.check_totals(rows, ref.euclid_totals_n3(eta2)), [])
        self.assertEqual(ref.check_euler_zero(rows, 3), [])
        bad = _perturb(rows, 1, 1.0 + 1e-4)
        self.assertTrue(ref.check_totals(bad, ref.euclid_totals_n3(eta2)))
        self.assertTrue(ref.check_euler_zero(bad, 3))

    def test_mc_height_identities(self):
        eta2, kappa2 = 1.2, 0.9
        rows = workloads.run_cli(["heights", "--N", "3", "--eta2", _fmt(eta2), "--kappa2",
                                  _fmt(kappa2), "--grid=-0.5:0.5:0.5", "--samples", "4000",
                                  "--seed", "5"])
        lam, tot = ref.euclid_lambda(eta2, kappa2), ref.euclid_totals_n3(eta2)
        for q in ("height-pdf", "height-cdf"):
            self.assertEqual(ref.check_gkf_euclid(rows, 3, lam, q, True, tot), [])
            bad = _shift_past_tolerance(rows, 1, q, tot)
            self.assertTrue(ref.check_gkf_euclid(bad, 3, lam, q, True, tot))

    def test_mc_counts(self):
        eta2, kappa2 = 1.0, 0.7
        common = ["--eta2", _fmt(eta2), "--kappa2", _fmt(kappa2), "--samples", "20000",
                  "--seed", "3"]
        rows = workloads.run_cli(["expect", "--N", "4"] + common)
        self.assertEqual(ref.check_euler_zero(rows, 4, mc=True), [])
        bad = _shift_past_tolerance(rows, 2, "expected-count")
        self.assertTrue(ref.check_euler_zero(bad, 4, mc=True))
        rows = workloads.run_cli(["expect", "--N", "3", "--method", "fyodorov",
                                  "--threshold=0.2"] + common)
        lam = ref.euclid_lambda(eta2, kappa2)
        self.assertEqual(ref.check_gkf_euclid(rows, 3, lam, "expected-count", True), [])
        bad = _shift_past_tolerance(rows, 1, "expected-count")
        self.assertTrue(ref.check_gkf_euclid(bad, 3, lam, "expected-count", True))


def _merge_closest(locs, idx, norm=False):
    """Locations and indices with the closest pair of points replaced by
    their mean, as a merge makes it, and a merge radius that covers the
    pair."""
    d = np.linalg.norm(locs[:, None, :] - locs[None, :, :], axis=-1)
    d[np.diag_indices(len(locs))] = np.inf
    a, b = np.unravel_index(np.argmin(d), d.shape)
    mean = 0.5 * (locs[a] + locs[b])
    if norm:
        mean /= np.linalg.norm(mean)
    keep = np.setdiff1d(np.arange(len(locs)), [a, b])
    return (np.vstack([locs[keep], mean]), np.append(idx[keep], idx[a]),
            1.5 * float(d[a, b]))


class PointChecks(unittest.TestCase):
    """A point that is not critical is wrong output (a problem) unless it
    is the mean of distinct critical points a merge made (a failure)."""

    def test_plane_points(self):
        rng = np.random.default_rng(4)
        r, k = 10.0, 300
        th = rng.uniform(0.0, 2.0 * math.pi, k)
        omegas = r * np.stack([np.cos(th), np.sin(th)], axis=-1)
        phases = rng.uniform(0.0, 2.0 * math.pi, k)
        m = euclidean.model_from_rho(2, -r * r / 4.0, r ** 4 / 32.0)
        fld = fields.PlanarWaveField(omegas, phases, m)
        res = find_critical_points_plane(fld, (0.0, 0.0), (1.5, 1.5))
        locs, idx = workloads._points(res)
        radius = workloads.merge_radius(m)

        def check(locs, idx, radius=radius):
            return ref.plane_points(omegas, phases, m.rho1, m.rho2, locs, idx, radius)

        self.assertEqual(check(locs, idx), ("", []))
        moved = locs.copy()
        moved[3] += 1e-3
        failure, problems = check(moved, idx)
        self.assertEqual(failure, "")
        self.assertIn("not merges", problems[0])
        self.assertIn("mean of distinct critical points", check(*_merge_closest(locs, idx))[0])
        flipped = idx.copy()
        flipped[3] = (flipped[3] + 1) % 3
        self.assertTrue(check(locs, flipped)[1])
        self.assertEqual(check(locs[:0], idx[:0]), ("", ["no points detected"]))

    def test_sphere_points(self):
        l = 6
        coeffs = np.random.default_rng(2).normal(0.0, math.sqrt(4 * math.pi / (2 * l + 1)),
                                                  2 * l + 1)
        m = sphere.model_from_legendre(l)
        fld = fields.SphericalHarmonicField(l, coeffs, m)
        locs, idx = workloads._points(find_critical_points_sphere(fld))
        radius = workloads.merge_radius(m)

        def check(locs, idx, radius=radius):
            return ref.sphere_points(l, coeffs, m.c1, m.c2, locs, idx, radius)

        self.assertEqual(check(locs, idx), ("", []))
        # own evaluation agrees with critfield's field values
        np.testing.assert_allclose(ref.sphere_values(l, coeffs, locs), fld.value(locs),
                                   atol=1e-12)
        moved = locs.copy()
        moved[0] = moved[0] + 1e-3 * np.cross(moved[0], [0.0, 0.0, 1.0])
        moved[0] /= np.linalg.norm(moved[0])
        failure, problems = check(moved, idx)
        self.assertEqual(failure, "")
        self.assertIn("not merges", problems[0])
        self.assertIn("mean of distinct critical points",
                      check(*_merge_closest(locs, idx, norm=True))[0])
        flipped = idx.copy()
        flipped[0] = 1 - flipped[0] if flipped[0] < 2 else 1
        failure, problems = check(locs, flipped)
        self.assertIn("not 2", failure)
        self.assertTrue(problems)

    def test_counts(self):
        expected = [223.0, 446.0, 223.0]       # a 10 x 10 plane-wave window
        self.assertEqual(ref.check_counts([230, 440, 221], expected, "x"), [])
        self.assertTrue(ref.check_counts([111, 446, 223], expected, "x"))


if __name__ == "__main__":
    unittest.main()
