"""Command-line interface: grids, CSV/JSON output, exit codes, configs."""
import ast
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
from critfield import _kacrice, fyodorov, goi
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


@pytest.mark.parametrize("argv,name", [
    (["--eta2", "1", "--kappa2", "nan"], "kappa^2"),
    (["--eta2", "inf", "--kappa2", "1"], "eta^2"),
    (["--rho1", "nan", "--rho2", "1"], "rho'(0)"),
    (["--rho1=-1", "--rho2", "nan"], "rho''(0)"),
    (["--space", "sphere", "--eta2", "nan", "--kappa2", "1"], "eta^2"),
    (["--space", "sphere", "--eta2", "1", "--kappa2=-inf"], "kappa^2"),
    (["--space", "sphere", "--c1", "nan", "--c2", "1"], "C'(1)"),
    (["--space", "sphere", "--c1", "1", "--c2", "nan"], "C''(1)"),
])
def test_non_finite_model_input_is_named(capsys, argv, name):
    assert main(["expect", "--N", "3", *argv]) == 3
    assert capsys.readouterr().err.startswith(f"error: {name} must be finite")


@pytest.mark.parametrize("space", ["euclidean", "sphere"])
@pytest.mark.parametrize("eta2,kappa2,what", [
    ("1e-300", "1e300", "overflows"), ("1e300", "1e-300", "underflows")])
def test_out_of_range_shape_pair_is_named(capsys, space, eta2, kappa2, what):
    # finite inputs whose ratio kappa^2/eta^4 leaves the float range: the
    # message names the pair given, not a covariance derivative built from it
    assert main(["expect", "--space", space, "--N", "2", "--eta2", eta2,
                 "--kappa2", kappa2]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: (eta^2, kappa^2) = ({float(eta2):g}, "
                          f"{float(kappa2):g}) is out of range")
    assert what in err
    assert "rho" not in err and "C'" not in err


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


def test_sphere_report_golden(capsys):
    # the lines every detection of these fields must keep; the Newton
    # failure counts may only fall (138 lost and 434 stalled walkers when
    # both charts scanned the whole sphere)
    code, out = run(capsys, "simulate", "--kind", "spherical-harmonic",
                    "--degree", "20", "--reps", "3", "--seed", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[1:9] == [
        "  index 0: intensity 9.60235 +/- 0.19 (theory 9.66661)",
        "  index 1: intensity 19.0455 +/- 0.11 (theory 19.1741)",
        "  index 2: intensity 9.60235 +/- 0.14 (theory 9.66661)",
        "  index 0: KS 0.1524 over 362 heights (crit 1% if iid 0.08555)",
        "  index 1: KS 0.04149 over 718 heights (crit 1% if iid 0.06074)",
        "  index 2: KS 0.1506 over 362 heights (crit 1% if iid 0.08555)",
        "  euler_mismatches: 0",
        "  flagged_points: 0",
    ]
    diag = dict(line.strip().split(": ") for line in lines[7:])
    assert int(diag["newton_lost"]) < 138
    assert int(diag["newton_stalled"]) < 434


def test_plane_report_golden(capsys):
    # every line of this report, the Newton failure counts included, is
    # the one the 2x2-tile models and per-line exp factors gave
    code, out = run(capsys, "simulate", "--kind", "plane-wave",
                    "--wavenumber", "10", "--side", "10", "--reps", "3",
                    "--seed", "1")
    assert code == 0
    assert out.splitlines() == [
        "euclidean: 3 replications, area 99.0594",
        "  index 0: intensity 2.27136 +/- 0 (theory 2.2972)",
        "  index 1: intensity 4.58311 +/- 0.035 (theory 4.59441)",
        "  index 2: intensity 2.26127 +/- 0.025 (theory 2.2972)",
        "  index 0: KS 0.05833 over 675 heights (crit 1% if iid 0.06265)",
        "  index 1: KS 0.02846 over 1362 heights (crit 1% if iid 0.0441)",
        "  index 2: KS 0.06152 over 672 heights (crit 1% if iid 0.06279)",
        "  flagged_points: 0",
        "  newton_lost: 61",
        "  newton_singular: 0",
        "  newton_stalled: 393",
    ]


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


def _run_module(*argv):
    # the child imports the same critfield as this process, installed or not
    src = str(Path(critfield.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    # the suite's RuntimeWarning filter reaches the child too
    env = {**os.environ,
           "PYTHONPATH": src if not path else os.pathsep.join([src, path]),
           "PYTHONWARNINGS": "error::RuntimeWarning"}
    return subprocess.run([sys.executable, "-m", *argv],
                          capture_output=True, text=True, env=env)


def test_console_script_entry_point():
    proc = _run_module("critfield.cli", "expect", "--eta2", "1",
                       "--kappa2", "0.5", "--index", "1")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == HEADER_LINE


def test_package_runs_as_module():
    proc = _run_module("critfield", "expect", "--N", "2", "--eta2", "1",
                       "--kappa2", "0.8")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == HEADER_LINE


def test_cli_imports_only_public_names():
    # the front end calls the package's public API, never a private helper
    tree = ast.parse((Path(critfield.__file__).parent / "cli.py").read_text())
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_fyodorov_count_above_inf_runs_clean():
    proc = _run_module("critfield", "expect", "--N", "1", "--rho1=-0.5",
                       "--rho2", "0.5", "--method", "fyodorov",
                       "--threshold=inf")
    assert proc.returncode == 0, proc.stderr
    assert [(r["value"], r["error"]) for r in rows_of(proc.stdout)] == \
        [("0", "0")] * 2


@pytest.mark.parametrize("method", [[], ["--method", "fyodorov"]],
                         ids=["general", "fyodorov"])
def test_seeded_reruns_in_fresh_processes_are_byte_identical(method):
    # the Fyodorov route reads eigenvalues solved lazily on the draw
    argv = ["critfield", "expect", "--N", "4", "--eta2", "1", "--kappa2", "0.9",
            "--seed", "1", *method]
    first, second = _run_module(*argv), _run_module(*argv)
    assert first.returncode == second.returncode == 0
    assert len(rows_of(first.stdout)) == 5
    assert first.stdout == second.stdout


def test_only_the_fyodorov_route_solves_eigenproblems(monkeypatch, capsys):
    # every other Monte Carlo value reads |det| and the index off the
    # pivots of the tridiagonal draw; the GOE(N+1) route reads eigenvalues
    # from the QL pass
    def refuse(*args, **kwargs):
        raise RuntimeError("eigensolver called")

    goi._bank.clear()
    monkeypatch.setattr(goi, "_tridiagonal_eigvals", refuse)
    monkeypatch.setattr(goi.np.linalg, "eigvalsh", refuse)
    model = ["--eta2", "1", "--kappa2", "0.9", "--seed", "1"]
    for argv in (["expect", "--N", "4", *model],
                 ["heights", "--N", "3", *model, "--grid=-1:1:0.5",
                  "--quantity", "both"],
                 ["expect", "--space", "sphere", "--N", "2", *model,
                  "--method", "monte-carlo", "--threshold=0.3"]):
        code, out = run(capsys, *argv)
        assert code == 0 and "nan" not in out
    with pytest.raises(RuntimeError, match="eigensolver called"):
        main(["expect", "--N", "4", *model, "--method", "fyodorov"])
    goi._bank.clear()


def test_unconverged_eigenvalues_exit_2_without_rows(monkeypatch, capsys):
    goi._bank.clear()
    monkeypatch.setattr(goi, "QL_MAXIT", 0)
    code = main(["expect", "--N", "3", "--eta2", "1", "--kappa2", "0.5",
                 "--method", "fyodorov", "--seed", "1", "--samples", "500"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "tridiagonal 4 x 4 matrices" in captured.err
    goi._bank.clear()


def test_fyodorov_totals_integrate_each_mirror_pair_once(monkeypatch, capsys):
    # at u = -inf the GOE(N+1) weight is even, so quadrature over GOE(2)
    # serves indices 0 and 1 from one engine call, and their rows agree
    # bit for bit
    calls = []
    real = fyodorov.nested_ordered_quadrature

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return real(*args, **kwargs)

    monkeypatch.setattr(fyodorov, "nested_ordered_quadrature", counting)
    code, out = run(capsys, "expect", "--N", "1", "--eta2", "1", "--kappa2",
                    "0.5", "--method", "fyodorov")
    rows = rows_of(out)
    assert code == 0 and len(rows) == 2 and calls == [(2, 0.0)]
    assert (rows[0]["value"], rows[0]["error"]) == (rows[1]["value"], rows[1]["error"])
    assert float(rows[0]["value"]) > 0.0
    # a threshold breaks the symmetry: one call per index
    calls.clear()
    code, out = run(capsys, "expect", "--N", "1", "--eta2", "1", "--kappa2",
                    "0.5", "--method", "fyodorov", "--threshold=-0.4")
    assert code == 0 and len(rows_of(out)) == 2 and len(calls) == 2


def test_heights_compute_each_total_once(monkeypatch, capsys):
    # one totals table serves both quantities, a quadrature total its mirror
    # index too: 2 totals, then a density numerator and a count above the
    # height per index
    calls = []
    for module in (goi, _kacrice):
        real = module.nested_ordered_quadrature

        def counting(*args, real=real, **kwargs):
            calls.append(args[:2])
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "nested_ordered_quadrature", counting)
    code, out = run(capsys, "heights", "--N", "3", "--eta2", "1", "--kappa2", "0.9",
                    "--grid=0", "--quantity", "both", "--method", "quadrature")
    assert code == 0 and len(rows_of(out)) == 8
    c_tot, c_cnd = 0.5, 0.05
    assert len(calls) == 10
    assert calls.count((3, c_tot)) == 2 + 4
    assert calls.count((3, pytest.approx(c_cnd))) == 4


@pytest.mark.parametrize("method", [[], ["--method", "fyodorov"]],
                         ids=["auto", "fyodorov"])
def test_density_rows_are_the_expect_rows(capsys, method):
    # one count loop: a density grid point is the thresholded expect row
    model = ["--N", "3", "--eta2", "1", "--kappa2", "0.6", "--seed", "2",
             "--samples", "4000", *method]
    for i in range(4):
        code, out = run(capsys, "density", "--index", str(i),
                        "--grid=-0.4:0.6:1", *model)
        assert code == 0
        density = rows_of(out)
        assert len(density) == 2
        for row in density:
            code, out = run(capsys, "expect", "--index", str(i),
                            f"--threshold={row['grid_value']}", *model)
            assert code == 0
            (want,) = rows_of(out)
            assert (row["value"], row["error"], row["method"]) == \
                (want["value"], want["error"], want["method"])


@pytest.mark.parametrize("n,samples", [(400, 200)], ids=["pivot-product"])
def test_monte_carlo_overflow_exits_2(capsys, n, samples):
    # |det| of N = 400 draws overflows float64: no row is printed, and no
    # RuntimeWarning escapes
    goi._bank.clear()
    code = main(["expect", "--N", str(n), "--eta2", "1", "--kappa2", "0.5",
                 "--seed", "1", "--samples", str(samples)])
    goi._bank.clear()
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"N = {n}" in captured.err and "float64" in captured.err


def test_monte_carlo_errors_stay_finite_where_the_means_do(capsys):
    # at N = 200 the counts near index N/2 are about 1e133-1e136, whose
    # squares overflow float64; _mean_error takes each index's deviations in
    # units of a power of 2 near its mean, so every row and error is finite
    goi._bank.clear()
    code, out = run(capsys, "expect", "--N", "200", "--eta2", "1",
                    "--kappa2", "0.5", "--seed", "1", "--samples", "1000")
    goi._bank.clear()
    assert code == 0
    rows = rows_of(out)
    assert [int(r["index"]) for r in rows] == list(range(201))
    values = np.array([[float(r["value"]), float(r["error"])] for r in rows])
    assert np.isfinite(values).all() and values.max() > 1e133


def test_monte_carlo_overflow_refuses_only_the_indices_it_reaches(capsys):
    # at N = 400 the all-index pass overflows at indices near N/2, yet the
    # index-0 row is finite and prints as before
    goi._bank.clear()
    args = ["expect", "--N", "400", "--eta2", "1", "--kappa2", "0.5",
            "--seed", "1", "--samples", "200"]
    code, out = run(capsys, *args, "--index", "0")
    assert code == 0
    assert out.splitlines()[1] == ("euclidean,400,1,0.5,nonboundary,0,-inf,"
                                   "expected-count,0,0,monte-carlo,1")
    assert main(args + ["--index", "200"]) == 2
    goi._bank.clear()
    assert "N = 400" in capsys.readouterr().err
