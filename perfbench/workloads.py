"""The four workloads: inputs built from a seed, rounds of fixed work, checks.

A round is a fixed list of operations (a CLI call or one field's
detection).  A run repeats whole rounds, so the share of failed operations
is the same in every run.  Inputs of round k come from (seed, k) alone;
critfield sees only the generated arguments and fields.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import references as ref

# generator keys: (seed, tag, ...) or, for the fixed panels, (tag, field)
TAG_QUAD, TAG_MC, TAG_PLANE, TAG_SPHERE, TAG_CLI = 1, 2, 11, 12, 13


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def _cli_seed(seed: int, k: int) -> int:
    return int(_rng(seed, TAG_CLI, k).integers(1, 2 ** 31 - 1))


@dataclass
class Op:
    """One operation of a round.  run() does the timed work; verify(out)
    returns (failure, problems).  failure names a known fault of the program
    that the output shows ("" if none): the operation then counts as failed.
    problems lists every way the output of an operation that did not fail
    is wrong."""

    name: str
    run: Callable[[], object]
    verify: Callable[[object], tuple]


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


def run_cli(argv: list[str]) -> list[dict]:
    """critfield's CLI in-process; returns the parsed CSV rows."""
    from critfield import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"critfield {' '.join(argv)} exited with {code}")
    return list(csv.DictReader(io.StringIO(buf.getvalue())))


def _cli_op(name: str, argv: list[str], check) -> Op:
    return Op(name, lambda: run_cli(argv), lambda rows: ("", check(rows)))


def _fmt(x: float) -> str:
    return repr(float(x))


# The quadrature work per round does not depend on eta^2 (it only scales the
# prefactor on R^N) nor on kappa^2 for sphere totals, so the seed draws those
# and the threshold / sphere eta^2 stay fixed: every seed costs the same.
QUAD_THRESHOLD = 0.6
QUAD_KAPPA2 = 0.8
QUAD_SPHERE_ETA2 = 0.8


def quadrature_round(seed: int, k: int) -> list[Op]:
    r = _rng(seed, TAG_QUAD)
    eta2_3 = float(r.uniform(0.5, 2.0))
    eta2_2 = float(r.uniform(0.5, 2.0))
    sph_kappa2 = float(r.uniform(0.6, 1.4))
    u = QUAD_THRESHOLD
    ops = [_cli_op(
        "expect N=3 totals",
        ["expect", "--N", "3", "--eta2", _fmt(eta2_3), "--kappa2", "1.0"],
        lambda rows: ref.check_totals(rows, ref.euclid_totals_n3(eta2_3))
        + ref.check_euler_zero(rows, 3))]
    density_rows: list = []

    def density_op(i: int) -> Op:
        argv = ["density", "--N", "2", "--eta2", _fmt(eta2_2), "--kappa2", _fmt(QUAD_KAPPA2),
                "--method", "quadrature", "--index", str(i), f"--grid={_fmt(u)}"]

        def check(rows):
            density_rows.extend({**row, "quantity": "expected-count"} for row in rows)
            bad = ref.check_saddles_n2(rows, eta2_2, QUAD_KAPPA2)
            if i == 2:  # all three indices are in: the kinematic formula
                bad += ref.check_gkf_euclid(density_rows, 2,
                                            ref.euclid_lambda(eta2_2, QUAD_KAPPA2),
                                            "expected-count", mc=False)
            return bad
        return _cli_op(f"density N=2 index {i}", argv, check)

    ops += [density_op(i) for i in range(3)]
    ops.append(_cli_op(
        "expect sphere N=3 whole-sphere",
        ["expect", "--space", "sphere", "--N", "3", "--eta2", _fmt(QUAD_SPHERE_ETA2),
         "--kappa2", _fmt(sph_kappa2), "--whole-sphere"],
        lambda rows: ref.check_euler_zero(rows, 3)))
    return ops


MC_HEIGHT_SAMPLES = 20000
MC_EXPECT_SAMPLES = 50000


def montecarlo_round(seed: int, k: int) -> list[Op]:
    r = _rng(seed, TAG_MC)
    eta2 = float(r.uniform(0.5, 2.0))
    kappa2 = float(r.uniform(0.6, 1.3))
    kappa2_fy = float(r.uniform(0.3, 0.9))        # the GOE(N+1) route needs kappa^2 < 1
    shift = float(r.uniform(0.0, 0.25))
    u_fy = float(r.uniform(-0.5, 1.0))
    sph_eta2, sph_kappa2 = float(r.uniform(0.6, 1.2)), float(r.uniform(0.4, 1.0))
    u_sph = float(r.uniform(-0.5, 1.0))
    s = _cli_seed(seed, k)
    totals3 = ref.euclid_totals_n3(eta2)
    lam3 = ref.euclid_lambda(eta2, kappa2)
    grid = f"--grid={_fmt(-1.5 + shift)}:{_fmt(1.5 + shift)}:0.5"
    common = ["--seed", str(s)]
    return [
        _cli_op("heights N=3 pdf+cdf",
                ["heights", "--N", "3", "--eta2", _fmt(eta2), "--kappa2", _fmt(kappa2), grid,
                 "--quantity", "both", "--samples", str(MC_HEIGHT_SAMPLES)] + common,
                lambda rows: ref.check_gkf_euclid(rows, 3, lam3, "height-pdf", True, totals3)
                + ref.check_gkf_euclid(rows, 3, lam3, "height-cdf", True, totals3)),
        _cli_op("expect N=4 totals",
                ["expect", "--N", "4", "--eta2", _fmt(eta2), "--kappa2", _fmt(kappa2),
                 "--samples", str(MC_EXPECT_SAMPLES)] + common,
                lambda rows: ref.check_euler_zero(rows, 4, mc=True)),
        _cli_op("expect N=3 fyodorov above u",
                ["expect", "--N", "3", "--eta2", _fmt(eta2), "--kappa2", _fmt(kappa2_fy),
                 "--method", "fyodorov", f"--threshold={_fmt(u_fy)}",
                 "--samples", str(MC_EXPECT_SAMPLES)] + common,
                lambda rows: ref.check_gkf_euclid(
                    rows, 3, ref.euclid_lambda(eta2, kappa2_fy), "expected-count", True)),
        _cli_op("expect sphere N=2 above u",
                ["expect", "--space", "sphere", "--N", "2", "--eta2", _fmt(sph_eta2),
                 "--kappa2", _fmt(sph_kappa2), "--method", "monte-carlo",
                 f"--threshold={_fmt(u_sph)}", "--samples", str(MC_HEIGHT_SAMPLES)] + common,
                lambda rows: ref.check_gkf_sphere2(
                    rows, ref.sphere_lambda(sph_eta2, sph_kappa2), True)),
    ]


# ---------------------------------------------------------------------------
# simulation workloads
# ---------------------------------------------------------------------------

WAVENUMBER = 10.0
N_WAVES = 2000
SIDE = 10.0


def plane_field(rng: np.random.Generator):
    """Plane-wave field, covariance J0(r |h|): rho' = -r^2/4, rho'' = r^4/32."""
    from critfield import euclidean, fields
    r = WAVENUMBER
    th = rng.uniform(0.0, 2.0 * math.pi, N_WAVES)
    omegas = r * np.stack([np.cos(th), np.sin(th)], axis=-1)
    phases = rng.uniform(0.0, 2.0 * math.pi, N_WAVES)
    model = euclidean.model_from_rho(2, -r * r / 4.0, r ** 4 / 32.0)
    return fields.PlanarWaveField(omegas, phases, model)


def _points(res):
    locs = np.array([p.location for p in res.points], dtype=float)
    return locs, np.array([p.index for p in res.points], dtype=int)


def merge_radius(model) -> float:
    """Detection's default merge radius: half its default grid step eta / 6."""
    return model.eta / 12.0


def _plane_op(fld, key) -> Op:
    from critfield.detect import find_critical_points_plane
    m = fld.model

    def verify(res):
        locs, idx = _points(res)
        margin = merge_radius(m)       # counted inside one merge radius, as simulate does
        failure, problems = ref.plane_points(fld.omegas, fld.phases, m.rho1, m.rho2,
                                             locs, idx, margin)
        if failure:
            return failure, []
        inside = np.all((locs > margin) & (locs < SIDE - margin), axis=1)
        area = (SIDE - 2.0 * margin) ** 2
        expected = [area * t for t in ref.euclid_totals_n2(m.eta2)]
        return "", problems + ref.check_counts(np.bincount(idx[inside], minlength=3),
                                               expected, "plane")

    return Op(f"plane field {key}",
              lambda: find_critical_points_plane(fld, (0.0, 0.0), (SIDE, SIDE)), verify)


def _sphere_op(fld, key) -> Op:
    from critfield.detect import find_critical_points_sphere
    m = fld.model

    def verify(res):
        locs, idx = _points(res)
        failure, problems = ref.sphere_points(fld.degree, fld.coeffs, m.c1, m.c2, locs, idx,
                                              merge_radius(m))
        if failure:
            return failure, []
        expected = [ref.SPHERE2_AREA * t for t in ref.sphere_totals_n2(m.eta2)]
        return "", problems + ref.check_counts(np.bincount(idx, minlength=3), expected, "sphere")

    return Op(f"sphere field {key}", lambda: find_critical_points_sphere(fld), verify)


# Detection fails on random fields at random: a merge makes one point of two
# distinct critical points, and on the sphere the Morse identity can break.
# Fields drawn from the workload seed would make the failed share depend on
# the seed, so both simulation workloads detect a fixed panel: the first
# fields of a fixed generator key, whatever the seed.  Failing fields fail in
# every round: plane field (11, 2) holds a merged point (1 of 3, near the
# rate seen on random plane fields), sphere field (12, 7) breaks chi = 2.
PLANE_PANEL = 3
SPHERE_PANEL = 8


def plane_round(seed: int, k: int) -> list[Op]:
    keys = [(TAG_PLANE, j) for j in range(PLANE_PANEL)]
    return [_plane_op(plane_field(np.random.default_rng(key)), key) for key in keys]


DEGREE = 20


def sphere_field(rng: np.random.Generator):
    from critfield import fields, sphere
    sigma = math.sqrt(4.0 * math.pi / (2 * DEGREE + 1))
    coeffs = rng.normal(0.0, sigma, size=2 * DEGREE + 1)
    return fields.SphericalHarmonicField(DEGREE, coeffs, sphere.model_from_legendre(DEGREE))


def sphere_round(seed: int, k: int) -> list[Op]:
    keys = [(TAG_SPHERE, j) for j in range(SPHERE_PANEL)]
    return [_sphere_op(sphere_field(np.random.default_rng(key)), key) for key in keys]


# The speed probe (speed.py) whose kind of work each workload spends its
# time in: Python callbacks, small eigensolves, vectorized array arithmetic.
SPEED_KIND = {
    "quadrature": "python",
    "montecarlo": "eig",
    "simulate-plane": "trig",
    "simulate-sphere": "trig",
}

WORKLOADS = {
    "quadrature": quadrature_round,
    "montecarlo": montecarlo_round,
    "simulate-plane": plane_round,
    "simulate-sphere": sphere_round,
}
