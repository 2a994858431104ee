"""Command-line front end.

Subcommands:
  density   expected count above each threshold, per unit volume/area
  expect    expected counts in a region, optionally thresholded
  heights   height density / upper-tail distribution over a grid
  validate  internal cross-method consistency suites
  simulate  synthesize fields, detect critical points, compare with theory

Tabular commands emit CSV with the fixed header
  space,N,eta2,kappa2,regime,index,grid_value,quantity,value,error,method,seed
and optionally a JSON mirror {"config": ..., "rows": [...]}.  Reruns with
identical configuration and seed are byte-identical.

Exit codes: 0 success, 2 bad configuration, 3 infeasible model or regime,
4 validation tolerance failure.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import euclidean as eu
from . import sphere as sp
from ._kacrice import (expected_counts, expected_crit_above,
                       expected_crit_totals, fyodorov_expected_crit,
                       height_cdf_result, height_pdf_result, resolve_method)
from .detect import simulation_study, write_points_csv
from .errors import (ConfigError, CritfieldError, DegenerateEnsembleError,
                     ImpossibleFieldError, InsufficientDataError,
                     InvalidCovarianceError, MethodError, ParameterError,
                     RegimeError, UndefinedDistributionError)
from .fields import SynthesisSpec
from .fyodorov import goe_method
from .goi import NumericConfig

CSV_HEADER = ["space", "N", "eta2", "kappa2", "regime", "index",
              "grid_value", "quantity", "value", "error", "method", "seed"]

# Points a height grid may hold: each point is at least one pass over a
# Monte Carlo draw or one quadrature value per index, so a larger grid is
# a typo, not a plot.
MAX_GRID_POINTS = 100_000

CONFIG_EXIT_ERRORS = (ConfigError, ParameterError, MethodError)
MODEL_EXIT_ERRORS = (ImpossibleFieldError, InvalidCovarianceError,
                     RegimeError, DegenerateEnsembleError,
                     UndefinedDistributionError, InsufficientDataError)


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def parse_grid(text: str) -> np.ndarray:
    """'a:b:step' -> inclusive grid; a bare number is a one-point grid."""
    parts = text.split(":")
    try:
        if len(parts) not in (1, 3):
            raise ValueError
        vals = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"bad grid {text!r}; expected 'a:b:step'") from None
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"grid {text!r} holds a non-finite value")
    if len(vals) == 1:
        return np.array(vals)
    a, b, step = vals
    if step <= 0:
        raise ConfigError("grid step must be positive")
    if b < a:
        raise ConfigError("grid end must not precede its start")
    span = (b - a) / step + 1e-9
    if not span < MAX_GRID_POINTS:   # also an infinite span
        raise ConfigError(
            f"grid {text!r} holds more than {MAX_GRID_POINTS} points")
    return a + step * np.arange(math.floor(span) + 1)


def _load_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fill unset flags from the flat JSON config file, if any.  A value
    goes through its flag's type as if typed after the flag."""
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {args.config}: {e}") from None
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a flat JSON object")
    sub = next(a for a in parser._actions if a.dest == "command")
    types = {a.dest: a.type for a in sub.choices[args.command]._actions}
    for key, val in data.items():
        dest = key.replace("-", "_")
        if dest in ("config", "help") or dest not in types:
            raise ConfigError(f"config key {key!r} is not a known option")
        if getattr(args, dest) is None:
            kind = types[dest]
            try:
                setattr(args, dest, val if kind is None else kind(str(val)))
            except ValueError:
                raise ConfigError(f"config key {key!r}: bad value {val!r}") from None


def _build_model(args: argparse.Namespace):
    space = args.space or "euclidean"
    n = int(args.dim) if args.dim is not None else 2
    shape = args.eta2 is not None or args.kappa2 is not None
    if space == "euclidean":
        direct = args.rho1 is not None or args.rho2 is not None
        if shape and direct:
            raise ConfigError("give either --eta2/--kappa2 or --rho1/--rho2, "
                              "not both")
        if direct:
            if args.rho1 is None or args.rho2 is None:
                raise ConfigError("--rho1 and --rho2 go together")
            return eu.model_from_rho(n, float(args.rho1), float(args.rho2))
        if args.eta2 is None or args.kappa2 is None:
            raise ConfigError("euclidean model needs --eta2 and --kappa2 "
                              "(or --rho1/--rho2)")
        return eu.model_from_shape(n, float(args.eta2), float(args.kappa2))
    if space == "sphere":
        direct = args.c1 is not None or args.c2 is not None
        legendre = getattr(args, "legendre", None) is not None
        if sum([shape, direct, legendre]) > 1:
            raise ConfigError("give exactly one of --eta2/--kappa2, "
                              "--c1/--c2, or --legendre")
        if legendre:
            return sp.model_from_legendre(int(args.legendre))
        if direct:
            if args.c1 is None or args.c2 is None:
                raise ConfigError("--c1 and --c2 go together")
            return sp.model_from_C(n, float(args.c1), float(args.c2))
        if args.eta2 is None or args.kappa2 is None:
            raise ConfigError("sphere model needs --eta2 and --kappa2 "
                              "(or --c1/--c2, or --legendre)")
        return sp.model_from_shape(n, float(args.eta2), float(args.kappa2))
    raise ConfigError(f"unknown space {space!r}")


def _numeric_config(args: argparse.Namespace) -> NumericConfig:
    return NumericConfig(
        mc_samples=int(args.samples) if args.samples is not None else 200000,
        seed=int(args.seed) if args.seed is not None else None,
    )


def _indices(args: argparse.Namespace, model) -> list:
    if args.index is None or args.index == "all":
        return list(range(model.n + 1))
    try:
        return [int(args.index)]
    except ValueError:
        raise ConfigError(f"--index must be an integer or 'all', got "
                          f"{args.index!r}") from None


def _require_seed(args: argparse.Namespace, why: str) -> None:
    if args.seed is None:
        raise ConfigError(f"--seed is required: {why}")


def _method_uses_mc(model, method: str, threshold: bool) -> bool:
    if method == "fyodorov":
        return goe_method(model.n + 1) == "monte-carlo"
    return resolve_method(model, method, threshold) == "monte-carlo"


class _RowSink:
    """Accumulates result rows; writes CSV (stdout or file) and JSON."""

    def __init__(self, args: argparse.Namespace):
        self.rows: list[list[str]] = []
        self.out = getattr(args, "out", None)
        self.json_path = getattr(args, "json", None)
        self.config = {k: v for k, v in sorted(vars(args).items())
                       if k not in ("func", "config") and v is not None}
        self.seed_str = "" if args.seed is None else str(int(args.seed))

    def add(self, model, index: int, grid_value: float, quantity: str,
            value: float, error: float, method: str) -> None:
        self.rows.append([
            model.space, str(model.n), _fmt(model.eta2), _fmt(model.kappa2),
            model.regime, str(index), _fmt(grid_value), quantity,
            _fmt(value), _fmt(error), method, self.seed_str,
        ])

    def flush(self) -> None:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(CSV_HEADER)
        w.writerows(self.rows)
        text = buf.getvalue()
        if self.out in (None, "-"):
            sys.stdout.write(text)
        else:
            with open(self.out, "w", newline="") as fh:
                fh.write(text)
        if self.json_path:
            payload = {
                "config": self.config,
                "rows": [dict(zip(CSV_HEADER, r)) for r in self.rows],
            }
            with open(self.json_path, "w") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")


def _count_rows(args: argparse.Namespace, model, indices: list,
                heights: np.ndarray, quantity: str, scale: float = 1.0) -> int:
    """Write the count of each index above each height (u = -inf: the
    total), heights outermost, times scale, by expected_counts (--method
    fyodorov: the GOE(N+1) route), which shares a total between mirror
    indices on quadrature."""
    method = args.method or "auto"
    cfg = _numeric_config(args)
    if _method_uses_mc(model, method, bool((heights > -math.inf).any())):
        _require_seed(args, "Monte Carlo sampling is in play")
    sink = _RowSink(args)
    for u in heights.tolist():
        for i, r in zip(indices, expected_counts(model, indices, u, method, cfg)):
            sink.add(model, i, u, quantity, scale * r.value, scale * r.error,
                     r.method)
    sink.flush()
    return 0


def cmd_density(args: argparse.Namespace) -> int:
    model = _build_model(args)
    return _count_rows(args, model, [int(args.index)], parse_grid(args.grid),
                       "count-density")


def cmd_expect(args: argparse.Namespace) -> int:
    model = _build_model(args)
    u = float(args.threshold) if args.threshold is not None else -math.inf
    if math.isnan(u):
        raise ConfigError("--threshold must be a number, not nan")
    if args.volume is not None and args.whole_sphere:
        raise ConfigError("--volume and --whole-sphere conflict")
    if args.volume is not None and not (math.isfinite(args.volume)
                                        and args.volume > 0):
        raise ConfigError(f"--volume must be finite and > 0, got {args.volume}")
    if model.space == "sphere":
        scale = sp.sphere_area(model.n) if args.whole_sphere else \
            (float(args.volume) if args.volume is not None else 1.0)
    else:
        if args.whole_sphere:
            raise ConfigError("--whole-sphere applies to sphere models only")
        scale = float(args.volume) if args.volume is not None else 1.0
    return _count_rows(args, model, _indices(args, model), np.array([u]),
                       "expected-count", scale)


def cmd_heights(args: argparse.Namespace) -> int:
    model = _build_model(args)
    grid = parse_grid(args.grid)
    method = args.method or "auto"
    if method == "fyodorov":
        raise ConfigError("heights supports auto, closed-form, quadrature, "
                          "monte-carlo")
    cfg = _numeric_config(args)
    resolved = resolve_method(model, method, threshold=True)
    if resolved == "monte-carlo":
        _require_seed(args, "Monte Carlo sampling is in play")
    want = args.quantity or "both"
    quantities = {"pdf": ["height-pdf"], "cdf": ["height-cdf"],
                  "both": ["height-pdf", "height-cdf"]}.get(want)
    if quantities is None:
        raise ConfigError(f"unknown quantity {want!r}")
    indices = _indices(args, model)
    # one totals table serves both quantities (a quadrature total serves
    # its mirror index too)
    totals = ([None] * len(indices) if resolved == "closed-form"
              else expected_crit_totals(model, indices, resolved, cfg))
    sink = _RowSink(args)
    for i, total in zip(indices, totals):
        for q in quantities:
            fn = height_pdf_result if q == "height-pdf" else height_cdf_result
            r = fn(model, i, grid, resolved, cfg, total)
            for x, v, e in zip(grid, r.value, r.error):
                sink.add(model, i, float(x), q, v, e, r.method)
    sink.flush()
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _check_line(name: str, got: float, ref: float, tol: float) -> tuple[bool, str]:
    diff = abs(got - ref)
    scale = max(abs(ref), 1e-300)
    ok = diff <= tol * scale
    tag = "ok  " if ok else "FAIL"
    return ok, (f"{tag} {name}: got {got:.10g} ref {ref:.10g} "
                f"rel {diff / scale:.3g} (tol {tol:g})")


def _sigma_line(name: str, a: float, ea: float, b: float, eb: float,
                nsig: float) -> tuple[bool, str]:
    diff = abs(a - b)
    band = nsig * (ea + eb) + 1e-12
    ok = diff <= band
    tag = "ok  " if ok else "FAIL"
    return ok, (f"{tag} {name}: {a:.8g} vs {b:.8g} "
                f"diff {diff:.3g} band {band:.3g}")


def _suite_closed_vs_quadrature(tol: float, lines: list) -> bool:
    cfg = NumericConfig()
    all_ok = True
    models = [
        ("euclid-interior", eu.model_from_shape(2, 1.0, 0.8)),
        ("euclid-boundary", eu.model_from_shape(2, 1.3, 2.0)),
        ("sphere-interior", sp.model_from_shape(2, 0.8, 1.1)),
        ("sphere-boundary", sp.model_from_legendre(3)),
    ]
    for name, model in models:
        closed_totals = expected_crit_totals(model, range(3), "closed-form", cfg)
        quad_totals = expected_crit_totals(model, range(3), "quadrature", cfg)
        for i in range(3):
            ok, line = _check_line(f"{name} total[{i}]", closed_totals[i].value,
                                   quad_totals[i].value, tol)
            lines.append(line)
            all_ok &= ok
            for u in (-0.5, 0.8):
                closed = expected_crit_above(model, i, u, "closed-form", cfg)
                quad = expected_crit_above(model, i, u, "quadrature", cfg)
                ok, line = _check_line(f"{name} above[{i}]({u})", closed.value,
                                       quad.value, tol)
                lines.append(line)
                all_ok &= ok
        pdf_tol = max(tol, 1e-5)
        for x in (-1.0, 0.0, 1.5):
            closed_v = height_pdf_result(model, 2, x, "closed-form", cfg).value
            quad_v = height_pdf_result(model, 2, x, "quadrature", cfg).value
            ok, line = _check_line(f"{name} pdf2({x})", closed_v, quad_v,
                                   pdf_tol)
            lines.append(line)
            all_ok &= ok
    return all_ok


def _suite_cross_path(tol: float, cfg: NumericConfig, lines: list) -> bool:
    all_ok = True
    cases = [
        ("euclid-n2", eu.model_from_shape(2, 1.0, 0.49), (-math.inf, 0.5)),
        ("sphere-n2", sp.model_from_shape(2, 0.5, 1.0), (-math.inf, 0.4)),
        ("euclid-n3", eu.model_from_shape(3, 1.0, 0.5), (-math.inf,)),
    ]
    for name, model, thresholds in cases:
        for u in thresholds:
            for i in range(model.n + 1):
                fy = fyodorov_expected_crit(model, i, u, config=cfg)
                gen = expected_crit_above(model, i, u, "auto", cfg)
                label = f"{name} i={i} u={'-inf' if math.isinf(u) else u}"
                if fy.error > 0 or gen.error > 0:
                    ok, line = _sigma_line(label, fy.value, fy.error,
                                           gen.value, gen.error, 4.0)
                    # quadrature-only comparisons degrade to relative checks
                    if fy.error + gen.error < tol * abs(gen.value):
                        ok, line = _check_line(label, fy.value, gen.value, tol)
                else:
                    ok, line = _check_line(label, fy.value, gen.value, tol)
                lines.append(line)
                all_ok &= ok
    return all_ok


def cmd_validate(args: argparse.Namespace) -> int:
    suite = args.suite or "all"
    tol = float(args.tol) if args.tol is not None else 1e-6
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"--tol must be finite and > 0, got {args.tol}")
    lines: list[str] = []
    ok = True
    if suite in ("closed-vs-quadrature", "all"):
        ok &= _suite_closed_vs_quadrature(tol, lines)
    if suite in ("cross-path", "all"):
        _require_seed(args, "the cross-path suite samples eigenvalues")
        ok &= _suite_cross_path(tol, _numeric_config(args), lines)
    if suite not in ("closed-vs-quadrature", "cross-path", "all"):
        raise ConfigError(f"unknown suite {suite!r}")
    for line in lines:
        print(line)
    print("validate:", "all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 4


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _floats(flag: str, text) -> list:
    """A comma-separated list of numbers."""
    try:
        return [float(v) for v in str(text).split(",")]
    except ValueError:
        raise ConfigError(f"--{flag} must be comma-separated numbers, got "
                          f"{text!r}") from None


def _build_spec(args: argparse.Namespace) -> SynthesisSpec:
    kind = args.kind
    if kind is None:
        raise ConfigError("--kind is required")
    n_waves = int(args.n_waves) if args.n_waves is not None else 2000
    if kind == "gaussian-covariance":
        if args.length_scale is None:
            raise ConfigError("gaussian-covariance needs --length-scale")
        return SynthesisSpec.gaussian_covariance(float(args.length_scale), n_waves)
    if kind == "plane-wave":
        if args.wavenumber is None:
            raise ConfigError("plane-wave needs --wavenumber")
        return SynthesisSpec.plane_wave(float(args.wavenumber), n_waves)
    if kind == "custom-spectral":
        if not args.radii or not args.weights:
            raise ConfigError("custom-spectral needs --radii and --weights")
        return SynthesisSpec.custom_spectral(_floats("radii", args.radii),
                                             _floats("weights", args.weights),
                                             n_waves)
    if kind == "spherical-harmonic":
        if args.degree is None:
            raise ConfigError("spherical-harmonic needs --degree")
        return SynthesisSpec.spherical_harmonic(int(args.degree))
    raise ConfigError(f"unknown kind {kind!r}")


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    _require_seed(args, "field synthesis is random")
    side = float(args.side) if args.side is not None else None
    reps = int(args.reps) if args.reps is not None else 50
    report = simulation_study(
        spec, side=side, n_reps=reps, seed=int(args.seed),
        grid_step=float(args.grid_step) if args.grid_step is not None else None,
        merge_radius=(float(args.merge_radius)
                      if args.merge_radius is not None else None),
        keep_raw=bool(args.points_csv))
    for line in report.summary_lines():
        print(line)
    if args.points_csv:
        write_points_csv(args.points_csv, report.raw)
        print(f"raw points written to {args.points_csv}")
    if getattr(args, "json", None):
        payload = {
            "config": {k: v for k, v in sorted(vars(args).items())
                       if k not in ("func", "config") and v is not None},
            "report": {
                "space": report.space,
                "n_reps": report.n_reps,
                "area": report.area,
                "intensity_mean": report.intensity_mean.tolist(),
                "intensity_se": report.intensity_se.tolist(),
                "theory_intensity": report.theory_intensity.tolist(),
                "ks": {str(k): v for k, v in sorted(report.ks.items())},
                "diagnostics": report.diagnostics,
            },
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("model")
    g.add_argument("--space", choices=["euclidean", "sphere"],
                   help="geometry (default euclidean)")
    g.add_argument("--dim", "--N", dest="dim", type=int,
                   help="manifold dimension N (default 2)")
    g.add_argument("--eta2", type=float, help="eta^2 shape parameter")
    g.add_argument("--kappa2", type=float, help="kappa^2 shape parameter")
    g.add_argument("--rho1", type=float, help="rho'(0) (euclidean)")
    g.add_argument("--rho2", type=float, help="rho''(0) (euclidean)")
    g.add_argument("--c1", type=float, help="C'(1) (sphere)")
    g.add_argument("--c2", type=float, help="C''(1) (sphere)")
    g.add_argument("--legendre", type=int,
                   help="sphere model of a degree-l random harmonic")


def _add_numeric_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("numerics")
    g.add_argument("--method",
                   choices=["auto", "closed-form", "quadrature",
                            "monte-carlo", "fyodorov"],
                   help="evaluation route (default auto)")
    g.add_argument("--samples", type=int,
                   help="Monte Carlo sample count (default 200000)")
    g.add_argument("--seed", type=int,
                   help="RNG seed; required whenever sampling happens")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("output")
    g.add_argument("--out", help="CSV output path ('-' = stdout, default)")
    g.add_argument("--json", help="also write a JSON mirror to this path")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="critfield",
        description="Expected counts and height distributions of critical "
                    "points of isotropic Gaussian fields")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="count density above thresholds")
    p.add_argument("--config", help="flat JSON config; flags take precedence")
    p.add_argument("--index", type=int, required=False,
                   help="Morse index (required)")
    p.add_argument("--grid", help="thresholds, 'a:b:step' inclusive")
    _add_model_flags(p)
    _add_numeric_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("expect", help="expected counts in a region")
    p.add_argument("--config", help="flat JSON config; flags take precedence")
    p.add_argument("--index", help="Morse index or 'all' (default all)")
    p.add_argument("--threshold", type=float,
                   help="count only points above this height")
    p.add_argument("--volume", type=float,
                   help="region volume/area multiplier (default 1)")
    p.add_argument("--whole-sphere", action="store_true", default=None,
                   help="scale by the full sphere area")
    _add_model_flags(p)
    _add_numeric_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_expect)

    p = sub.add_parser("heights", help="height pdf / upper-tail cdf")
    p.add_argument("--config", help="flat JSON config; flags take precedence")
    p.add_argument("--index", help="Morse index or 'all' (default all)")
    p.add_argument("--grid", help="heights, 'a:b:step' inclusive")
    p.add_argument("--quantity", choices=["pdf", "cdf", "both"],
                   help="which curves to emit (default both)")
    _add_model_flags(p)
    _add_numeric_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_heights)

    p = sub.add_parser("validate", help="internal consistency suites")
    p.add_argument("--config", help="flat JSON config; flags take precedence")
    p.add_argument("--suite",
                   choices=["closed-vs-quadrature", "cross-path", "all"],
                   help="which suite to run (default all)")
    p.add_argument("--tol", type=float,
                   help="relative tolerance for deterministic checks "
                        "(default 1e-6)")
    _add_numeric_flags(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="synthesize, detect, compare")
    p.add_argument("--config", help="flat JSON config; flags take precedence")
    p.add_argument("--kind",
                   choices=["gaussian-covariance", "plane-wave",
                            "custom-spectral", "spherical-harmonic"])
    p.add_argument("--length-scale", type=float)
    p.add_argument("--wavenumber", type=float)
    p.add_argument("--radii", help="comma-separated ring radii")
    p.add_argument("--weights", help="comma-separated ring weights")
    p.add_argument("--degree", type=int, help="spherical harmonic degree")
    p.add_argument("--n-waves", type=int, help="trig-sum size (default 2000)")
    p.add_argument("--side", type=float, help="planar window side length")
    p.add_argument("--reps", type=int, help="replications (default 50)")
    p.add_argument("--grid-step", type=float,
                   help="detection grid step (default eta/6)")
    p.add_argument("--merge-radius", type=float,
                   help="dedup radius (default 1e-6 grid steps)")
    p.add_argument("--points-csv", help="write raw detections here")
    p.add_argument("--seed", type=int, help="RNG seed (required)")
    p.add_argument("--json", help="write a JSON report to this path")
    p.set_defaults(func=cmd_simulate)

    return ap


def _require(args: argparse.Namespace, names: list) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise ConfigError(f"--{name.replace('_', '-')} is required")


# flags whose values may begin with '-' (negative grids, thresholds, rho');
# fold 'FLAG value' into 'FLAG=value' so argparse does not read the value as
# an option: any number float() reads (-1, -.5, -1e3, -inf), and for --grid
# anything but another long flag (parse_grid then judges it)
_NEGATIVE_VALUE_FLAGS = {"--grid", "--threshold", "--rho1", "--rho2"}


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _fold_negative_values(argv: list) -> list:
    out = []
    i = 0
    while i < len(argv):
        a = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (a in _NEGATIVE_VALUE_FLAGS and nxt is not None
                and nxt.startswith("-") and len(nxt) > 1
                and (_is_number(nxt) or (a == "--grid" and not nxt.startswith("--")))):
            out.append(f"{a}={nxt}")
            i += 2
            continue
        out.append(a)
        i += 1
    return out


def main(argv=None) -> int:
    ap = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = ap.parse_args(_fold_negative_values(argv))
    try:
        _load_config(args, ap)
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        if args.command == "density":
            _require(args, ["index", "grid"])
        if args.command == "heights":
            _require(args, ["grid"])
        if args.command == "simulate":
            _require(args, ["kind"])
        return args.func(args)
    except CONFIG_EXIT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MODEL_EXIT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
