"""Command-line interface: grids, CSV/JSON output, exit codes, configs."""
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import critfield
from critfield.cli import CSV_HEADER, main, parse_grid
from critfield.errors import ConfigError

HEADER_LINE = ",".join(CSV_HEADER)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def rows_of(out: str) -> list:
    return list(csv.DictReader(out.splitlines()))


def test_parse_grid():
    assert np.allclose(parse_grid("0:1:0.25"), [0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(parse_grid("2.5"), [2.5])
    assert np.allclose(parse_grid("-1:1:0.5"), [-1, -0.5, 0, 0.5, 1])
    g = parse_grid("-6:6:0.05")
    assert len(g) == 241 and g[-1] == pytest.approx(6.0)
    assert np.allclose(parse_grid("0:1:0.3"), [0, 0.3, 0.6, 0.9])
    for bad in ("1:2", "a:b:c", "0:1:-0.5", "1:0:0.5", "0:1:0",
                "nan", "inf", "nan:1:0.5", "0:inf:1", "0:1:inf",
                # too many points, or a point count that overflows
                "0:1e308:1e-308", "-1e308:1e308:1", "0:1e9:1e-3"):
        with pytest.raises(ConfigError):
            parse_grid(bad)


def test_expect_closed_form(capsys):
    code, out = run(capsys, "expect", "--eta2", "1", "--kappa2", "0.5")
    assert code == 0
    assert out.splitlines()[0] == HEADER_LINE
    rows = rows_of(out)
    assert [r["index"] for r in rows] == ["0", "1", "2"]
    b = 1.0 / (math.sqrt(3.0) * math.pi)
    vals = [float(r["value"]) for r in rows]
    assert vals == pytest.approx([b, 2 * b, b], rel=1e-12)
    assert all(r["space"] == "euclidean" and r["regime"] == "nonboundary"
               and r["method"] == "closed-form" and r["quantity"] == "expected-count"
               for r in rows)


def test_expect_single_index_and_volume(capsys):
    code, out = run(capsys, "expect", "--eta2", "1", "--kappa2", "0.5",
                    "--index", "1", "--volume", "10")
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 1
    assert float(rows[0]["value"]) == pytest.approx(
        20.0 / (math.sqrt(3.0) * math.pi), rel=1e-12)


def test_heights_spot_value(capsys):
    code, out = run(capsys, "heights", "--eta2", "1", "--kappa2", "1",
                    "--index", "1", "--grid", "0", "--quantity", "pdf")
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 1
    assert rows[0]["value"] == "0.488602511903"
    assert rows[0]["quantity"] == "height-pdf"


def test_heights_both_quantities(capsys):
    code, out = run(capsys, "heights", "--space", "sphere", "--legendre", "2",
                    "--index", "2", "--grid", "-1:1:1")
    assert code == 0
    rows = rows_of(out)
    assert [r["quantity"] for r in rows] == ["height-pdf"] * 3 + ["height-cdf"] * 3
    assert rows[0]["regime"] == "boundary"
    # boundary maxima never sit below zero
    assert float(rows[0]["value"]) == 0.0
    assert float(rows[3]["value"]) == 1.0


GOLDEN_HEIGHTS = Path(__file__).parent / "data" / "closed_form_heights.csv"


def test_closed_form_heights_match_golden_csv(capsys):
    # Euclidean interior and boundary, sphere interior and the degree-3
    # harmonic; the golden file holds the four outputs under one header
    cases = [["--eta2", "1", "--kappa2", "1"],
             ["--eta2", "1", "--kappa2", "2"],
             ["--space", "sphere", "--eta2", "0.8", "--kappa2", "1.1"],
             ["--space", "sphere", "--legendre", "3"]]
    lines = [HEADER_LINE]
    for model in cases:
        code, out = run(capsys, "heights", *model, "--grid=-3:3:0.25",
                        "--quantity", "both")
        assert code == 0
        lines += out.splitlines()[1:]
    assert "\n".join(lines) + "\n" == GOLDEN_HEIGHTS.read_text()


def test_density_negative_grid(capsys):
    code, out = run(capsys, "density", "--eta2", "1", "--kappa2", "0.5",
                    "--index", "0", "--grid", "-1:1:0.5")
    assert code == 0
    rows = rows_of(out)
    assert [float(r["grid_value"]) for r in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]
    dens = [float(r["value"]) for r in rows]
    assert all(a >= b - 1e-15 for a, b in zip(dens, dens[1:]))


def test_whole_sphere_legendre2(capsys):
    code, out = run(capsys, "expect", "--space", "sphere", "--legendre", "2",
                    "--whole-sphere")
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 3
    for r in rows:
        assert float(r["value"]) == pytest.approx(2.0, rel=1e-12)
        assert r["regime"] == "boundary"


def test_mc_outputs_are_reproducible(capsys):
    argv = ("density", "--dim", "3", "--eta2", "1", "--kappa2", "1",
            "--index", "1", "--grid", "-1:1:1", "--seed", "7",
            "--samples", "40000")
    code1, out1 = run(capsys, *argv)
    code2, out2 = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert rows_of(out1)[0]["method"] == "monte-carlo"
    assert rows_of(out1)[0]["seed"] == "7"


def test_out_file_and_json_mirror(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    json_path = tmp_path / "rows.json"
    code, out = run(capsys, "expect", "--eta2", "2", "--kappa2", "0.8",
                    "--out", str(csv_path), "--json", str(json_path))
    assert code == 0
    assert out == ""                           # everything went to the file
    text = csv_path.read_text()
    assert text.splitlines()[0] == HEADER_LINE
    payload = json.loads(json_path.read_text())
    assert payload["config"]["eta2"] == 2.0
    assert payload["rows"] == rows_of(text)


def test_config_file_fills_gaps_but_flags_win(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eta2": 2.0, "kappa2": 0.8}))
    code, out = run(capsys, "expect", "--config", str(cfg),
                    "--kappa2", "0.49", "--index", "1")
    assert code == 0
    row = rows_of(out)[0]
    assert row["eta2"] == "2" and row["kappa2"] == "0.49"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no-such-option": 1}))
    code, _ = run(capsys, "expect", "--config", str(bad), "--eta2", "1",
                  "--kappa2", "0.5")
    assert code == 2


def test_config_exit_codes(capsys, tmp_path):
    # missing required pieces
    assert run(capsys, "density", "--eta2", "1", "--kappa2", "0.5",
               "--grid", "0:1:0.5")[0] == 2          # no --index
    assert run(capsys, "heights", "--eta2", "1", "--kappa2", "0.5",
               "--index", "1")[0] == 2               # no --grid
    assert run(capsys, "expect", "--eta2", "1")[0] == 2
    # both model parameterizations at once
    assert run(capsys, "expect", "--eta2", "1", "--kappa2", "0.5",
               "--rho1=-1", "--rho2", "0.5")[0] == 2
    # Monte Carlo without a seed
    assert run(capsys, "density", "--dim", "3", "--eta2", "1", "--kappa2", "1",
               "--index", "1", "--grid", "0")[0] == 2
    # --whole-sphere against a planar model
    assert run(capsys, "expect", "--eta2", "1", "--kappa2", "0.5",
               "--whole-sphere")[0] == 2
    # closed form demanded where none exists
    assert run(capsys, "expect", "--dim", "3", "--eta2", "1", "--kappa2", "1",
               "--method", "closed-form")[0] == 2
    # malformed grid
    assert run(capsys, "density", "--eta2", "1", "--kappa2", "0.5",
               "--index", "0", "--grid", "0:1")[0] == 2
    # quadrature beyond N = 3, off and on the boundary regime
    for kappa2 in ("0.9", "1.5"):
        assert run(capsys, "heights", "--N", "4", "--eta2", "1", "--kappa2", kappa2,
                   "--grid=0:0.5:0.5", "--quantity", "pdf",
                   "--method", "quadrature")[0] == 2
    # a region volume that is not finite and positive
    for volume in ("nan", "inf", "-2"):
        assert run(capsys, "expect", "--eta2", "1", "--kappa2", "1",
                   "--volume", volume) == (2, "")
    assert run(capsys, "expect", "--eta2", "1", "--kappa2", "1",
               "--index", "x") == (2, "")
    # a negative seed, for Monte Carlo and for field synthesis
    assert run(capsys, "expect", "--N", "3", "--eta2", "1", "--kappa2", "0.9",
               "--method", "monte-carlo", "--seed", "-1") == (2, "")
    # too few samples
    assert run(capsys, "expect", "--N", "3", "--eta2", "1", "--kappa2", "0.9",
               "--method", "monte-carlo", "--samples", "1", "--seed", "1") == (2, "")
    assert run(capsys, "simulate", "--kind", "plane-wave", "--wavenumber",
               "10", "--side", "3", "--reps", "2", "--seed", "-1") == (2, "")
    assert run(capsys, "validate", "--tol", "nan") == (2, "")
    # config values go through their flags' types
    cfg = tmp_path / "c.json"
    for bad in ({"seed": "x"}, {"volume": "x"}, {"dim": 2.5}):
        cfg.write_text(json.dumps({**bad, "eta2": 1, "kappa2": 1}))
        assert run(capsys, "expect", "--config", str(cfg)) == (2, "")
    cfg.write_text(json.dumps({"volume": "2", "eta2": 1, "kappa2": 1}))
    assert run(capsys, "expect", "--config", str(cfg)) == run(
        capsys, "expect", "--volume", "2", "--eta2", "1", "--kappa2", "1")


def test_nan_threshold_exits_2(capsys):
    code, out = run(capsys, "expect", "--eta2", "1", "--kappa2", "1",
                    "--threshold", "nan")
    assert code == 2 and out == ""


def test_infinite_grid_step_exits_2(capsys):
    code, out = run(capsys, "heights", "--eta2", "1", "--kappa2", "1",
                    "--grid", "0:1:inf")
    assert code == 2 and out == ""


def test_nan_grid_start_exits_2(capsys):
    code, out = run(capsys, "heights", "--eta2", "1", "--kappa2", "1",
                    "--grid", "nan:1:0.5")
    assert code == 2 and out == ""


def test_minus_inf_threshold_as_separate_value(capsys):
    # '-inf' after the flag is a value, not an option; it means no threshold
    code, out = run(capsys, "expect", "--eta2", "1", "--kappa2", "1",
                    "--threshold", "-inf")
    assert code == 0
    _, plain = run(capsys, "expect", "--eta2", "1", "--kappa2", "1")
    assert out == plain
    _, joined = run(capsys, "expect", "--eta2", "1", "--kappa2", "1",
                    "--threshold=-inf")
    assert out == joined


def test_minus_inf_grid_as_separate_value_exits_2(capsys):
    # the grid reaches parse_grid, which rejects it, instead of argparse
    # stopping on a missing value
    code, out = run(capsys, "heights", "--eta2", "1", "--kappa2", "1",
                    "--grid", "-inf:1:0.5")
    assert code == 2 and out == ""
    code, out = run(capsys, "heights", "--eta2", "1", "--kappa2", "1",
                    "--index", "1", "--quantity", "pdf", "--grid", "-1e0:1:1")
    assert code == 0 and len(rows_of(out)) == 3


def test_model_exit_codes(capsys):
    # infeasible planar shape: kappa^2 > (N+2)/N
    assert run(capsys, "expect", "--eta2", "1", "--kappa2", "2.5")[0] == 3
    # infeasible sphere covariance
    assert run(capsys, "expect", "--space", "sphere", "--c1", "3", "--c2",
               "2")[0] == 3
    # fyodorov route outside its regime
    assert run(capsys, "expect", "--eta2", "1", "--kappa2", "1.5",
               "--method", "fyodorov", "--seed", "1")[0] == 3
    # an infinite covariance derivative
    assert run(capsys, "expect", "--rho1=-1", "--rho2", "inf") == (3, "")
    assert run(capsys, "expect", "--space", "sphere", "--c1", "1", "--c2",
               "inf") == (3, "")
    # derivatives so small that kappa^2 = C'^2 / C'' underflows to 0
    assert run(capsys, "expect", "--space", "sphere", "--c1", "1e-170",
               "--c2", "1", "--threshold", "0.5") == (3, "")
    # a tiny eta^2: kappa^2 / eta^4 overflows (exit 3) or stays finite
    for space in ("euclidean", "sphere"):
        assert run(capsys, "expect", "--space", space, "--N", "2", "--eta2",
                   "1e-170", "--kappa2", "1") == (3, "")
        code, out = run(capsys, "expect", "--space", space, "--N", "2",
                        "--eta2", "1e-300", "--kappa2", "1e-300")
        assert code == 0
        assert all(math.isfinite(float(r["value"])) for r in rows_of(out))


def test_validate_suite(capsys):
    code, out = run(capsys, "validate", "--suite", "closed-vs-quadrature")
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out
    # totals, counts above u = -0.5 and 0.8, and pdfs of four N = 2 models
    assert out.count("above[") == 4 * 3 * 2
    assert "ok   euclid-boundary above[2](0.8)" in out
    # absurd tolerance must surface failures through exit code 4
    code, out = run(capsys, "validate", "--suite", "closed-vs-quadrature",
                    "--tol", "1e-18")
    assert code == 4
    assert "SOME CHECKS FAILED" in out
    # argparse rejects unknown suites itself, still with status 2
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--suite", "nope"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_simulate_smoke(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    rep = tmp_path / "rep.json"
    code, out = run(capsys, "simulate", "--kind", "plane-wave",
                    "--wavenumber", "3", "--n-waves", "200", "--side", "4",
                    "--reps", "2", "--seed", "1",
                    "--points-csv", str(pts), "--json", str(rep))
    assert code == 0
    assert "euclidean: 2 replications" in out
    assert "index 1: intensity" in out
    with open(pts, newline="") as fh:
        first = next(csv.reader(fh))
    assert first == ["replicate", "x", "y", "height", "index",
                     "lambda1", "lambda2"]
    payload = json.loads(rep.read_text())
    assert payload["report"]["n_reps"] == 2
    assert len(payload["report"]["intensity_mean"]) == 3


def test_simulate_sphere_euler(tmp_path, capsys):
    rep = tmp_path / "rep.json"
    code, out = run(capsys, "simulate", "--kind", "spherical-harmonic",
                    "--degree", "2", "--reps", "2", "--seed", "3",
                    "--json", str(rep))
    assert code == 0
    payload = json.loads(rep.read_text())
    assert payload["report"]["space"] == "sphere"
    diag = payload["report"]["diagnostics"]
    assert diag["euler_mismatches"] == 0
    # Newton failures come split by reason
    assert {"newton_lost", "newton_singular", "newton_stalled"} <= set(diag)
    assert "newton_failures" not in diag
    assert "newton_stalled:" in out
    assert run(capsys, "simulate", "--kind", "spherical-harmonic",
               "--degree", "2", "--reps", "2")[0] == 2   # seed required
    assert run(capsys, "simulate", "--wavenumber", "3", "--side", "4",
               "--reps", "2", "--seed", "1")[0] == 2     # kind required


PLANE_SIM = ["simulate", "--kind", "plane-wave", "--wavenumber", "10",
             "--side", "3", "--reps", "2", "--seed", "1"]
SPHERE_SIM = ["simulate", "--kind", "spherical-harmonic", "--degree", "20",
              "--reps", "2", "--seed", "1"]


@pytest.mark.parametrize("argv", [
    PLANE_SIM + ["--side", "nan"],
    PLANE_SIM + ["--side", "inf"],
    PLANE_SIM + ["--grid-step", "0"],
    PLANE_SIM + ["--grid-step", "nan"],
    PLANE_SIM + ["--grid-step", "-0.1"],
    SPHERE_SIM + ["--grid-step", "0"],
    SPHERE_SIM + ["--grid-step", "nan"],
    PLANE_SIM + ["--n-waves", "0"],
    PLANE_SIM + ["--wavenumber", "inf"],
    ["simulate", "--kind", "custom-spectral", "--radii", "1,x", "--weights",
     "1,1", "--side", "3", "--reps", "2", "--seed", "1"],
    PLANE_SIM + ["--merge-radius", "-1"],
    PLANE_SIM + ["--merge-radius", "nan"],
    SPHERE_SIM + ["--degree", "151"],
], ids=["side-nan", "side-inf", "step-0", "step-nan", "step-negative",
        "sphere-step-0", "sphere-step-nan", "n-waves-0", "wavenumber-inf",
        "radii-not-numbers", "merge-radius-negative", "merge-radius-nan",
        "degree-above-limit"])
def test_simulate_bad_numbers_exit_2_before_synthesis(capsys, monkeypatch, argv):
    def no_synthesis(*args, **kwargs):
        raise AssertionError("a field was synthesized")

    monkeypatch.setattr("critfield.detect.synthesize", no_synthesis)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:")


def test_legendre_model_has_no_degree_limit(capsys):
    # the degree limit is on synthesized fields; a model builds no tables
    code, out = run(capsys, "expect", "--space", "sphere", "--legendre", "151")
    assert code == 0 and len(rows_of(out)) == 3


@pytest.mark.parametrize("model", [
    ["--eta2", "1", "--kappa2", "2"],
    ["--space", "sphere", "--eta2", "1", "--kappa2", "3"],
], ids=["plane-boundary", "sphere-boundary"])
def test_threshold_plus_inf_gives_zero_rows(capsys, model):
    code, out = run(capsys, "expect", "--N", "2", *model, "--threshold=inf")
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 3
    assert "nan" not in out
    assert all(float(r["value"]) == 0.0 for r in rows)


def test_console_script_entry_point():
    # the child imports the same critfield as this process, installed or not
    src = str(Path(critfield.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src if not path else os.pathsep.join([src, path])}
    proc = subprocess.run(
        [sys.executable, "-m", "critfield.cli", "expect", "--eta2", "1",
         "--kappa2", "0.5", "--index", "1"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == HEADER_LINE
