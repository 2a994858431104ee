"""Spans around calls into critfield, recorded from the benchmark's side.

Each traced function is replaced, for the length of a traced round, by a
wrapper that records a span (name, start, end, parent, run id) plus a few
work counts.  A function is wrapped under every module-level name it is
looked up by: `_kacrice.nested_ordered_quadrature` as well as
`goi.nested_ordered_quadrature`, and numpy's `eigvalsh` as `np.linalg`
is seen from `goi`, `_kacrice` and `fyodorov`.  A name that no longer
exists is reported as absent; its metrics then read 0.

Spans stay in memory and are written out when the benchmark ends; the
per-layer metrics are derived from them (self time = span duration minus
the time its child spans cover).
"""
from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict


def _arg(args, kwargs, pos, name):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


def _rows(x) -> int:
    return int(len(x)) if x is not None else 0


def _quad_weight(args, kwargs):
    """Count weight evaluations by wrapping the `weight` argument."""
    counter = [0]
    w = _arg(args, kwargs, 2, "weight")

    def counted(lam):
        counter[0] += 1
        return w(lam)

    if len(args) > 2:
        args = args[:2] + (counted,) + args[3:]
    else:
        kwargs = {**kwargs, "weight": counted}
    return args, kwargs, counter


def _sample_counts(a, k, out):
    return {"matrices": len(out) if out.ndim == 3 else 1}


def _eig_counts(a, k, out):
    return {"matrices": int(out.size // out.shape[-1])}


def _newton_counts(a, k, out):
    return {"candidates": _rows(_arg(a, k, 1, "centers")), "converged": int(out[1].sum())}


def _points_counts(a, k, out):
    return {"points": _rows(out)}


# (span name, module, attribute path, work counter); a counter is None,
# "quad" (weight evaluations) or f(args, kwargs, result) -> {name: count}
TARGETS = [
    ("quad", "critfield._kacrice", "nested_ordered_quadrature", "quad"),
    ("quad", "critfield.goi", "nested_ordered_quadrature", "quad"),
    ("quad", "critfield.fyodorov", "nested_ordered_quadrature", "quad"),
    ("above_quad", "critfield._kacrice", "above_quadrature", None),
    ("sample", "critfield._kacrice", "sample_goi",
     _sample_counts),
    ("sample", "critfield.goi", "sample_goi",
     _sample_counts),
    ("sample", "critfield.fyodorov", "sample_goi",
     _sample_counts),
    ("eigvalsh", "critfield.goi", "np.linalg.eigvalsh", _eig_counts),
    ("eigvalsh", "critfield._kacrice", "np.linalg.eigvalsh", _eig_counts),
    ("eigvalsh", "critfield.fyodorov", "np.linalg.eigvalsh", _eig_counts),
    ("mc", "critfield.goi", "mc_eigen_expectation", None),
    ("mc", "critfield._kacrice", "mc_eigen_expectation", None),
    ("above_mc", "critfield._kacrice", "above_mc", None),
    ("fy_mc", "critfield.fyodorov", "_goe_weighted_mc", None),
    ("plane.gradient", "critfield.fields", "PlanarWaveField.gradient",
     _points_counts),
    ("plane.hessian", "critfield.fields", "PlanarWaveField.hessian",
     _points_counts),
    ("sphere.ambient", "critfield.fields", "SphericalHarmonicField.ambient",
     lambda a, k, out: {"points": _rows(out[1])}),
    ("scan", "critfield.detect", "_chunked_gradient", None),
    ("scan", "critfield.detect", "_sign_change_cells", None),
    ("scan", "critfield.detect", "_chart_candidates", None),
    ("newton", "critfield.detect", "_newton_plane", _newton_counts),
    ("newton", "critfield.detect", "_newton_sphere", _newton_counts),
    ("merge", "critfield.detect", "_merge_points",
     lambda a, k, out: {"in": _rows(a[0]), "out": _rows(out)}),
    ("classify", "critfield.detect", "_classify_plane", None),
    ("classify", "critfield.detect", "_classify_sphere", None),
    ("flush", "critfield.cli", "_RowSink.flush",
     lambda a, k, out: {"rows": len(a[0].rows)}),
]


_INHERITED = object()


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("inner_calls"):
        return "calls/value"
    return "count"


class _Proxy:
    """Stands in for a module-level name (`np`, `np.linalg`): one attribute
    is replaced, every other lookup goes to the real object."""

    def __init__(self, real, name, value):
        self._real, self._name, self._value = real, name, value

    def __getattr__(self, attr):
        if attr == self._name:
            return self._value
        return getattr(self._real, attr)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, run_id, counts]
        self.stack: list[int] = []
        self.run_id = 0
        self.absent: list[str] = []
        self._undo: list = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            counts = None
            if counter == "quad":
                args, kwargs, counts = _quad_weight(args, kwargs)
            rec = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.run_id, {}]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer.stack.pop()
            if counter == "quad":
                rec[5] = {"evals": counts[0]}
            elif counter is not None:
                rec[5] = counter(args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        for name, modname, path, counter in TARGETS:
            label = f"{modname}.{path}"
            try:
                owner = importlib.import_module(modname)
                parts = path.split(".")
                holders = [owner]
                for p in parts[:-1]:
                    holders.append(getattr(holders[-1], p))
                fn = getattr(holders[-1], parts[-1])
            except (ImportError, AttributeError):
                if label not in self.absent:
                    self.absent.append(label)
                continue
            wrapped = self._wrap(name, fn, counter)
            if len(parts) == 1 or isinstance(holders[-1], type):
                self._set(holders[-1], parts[-1], wrapped)
            else:
                # a dotted path through modules (np.linalg.eigvalsh): swap
                # the caller's top-level name for a proxy chain, so only
                # lookups from this module see the wrapper
                value = wrapped
                for holder, attr in zip(reversed(holders[1:]), reversed(parts[1:])):
                    value = _Proxy(holder, attr, value)
                self._set(owner, parts[0], value)

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, vars(obj).get(attr, _INHERITED)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            if old is _INHERITED:
                delattr(obj, attr)
            else:
                setattr(obj, attr, old)

    # -- metrics ----------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics, per traced round."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]

        def ancestors(i):
            p = spans[i][3]
            while p >= 0:
                yield spans[p][0]
                p = spans[p][3]

        self_t = defaultdict(float)
        total_t = defaultdict(float)
        calls = defaultdict(int)
        work = defaultdict(float)
        scan_top = scan_points = newton_points = inner_calls = 0.0
        for i, (name, t0, t1, parent, _, counts) in enumerate(spans):
            self_t[name] += (t1 - t0) - child_time[i]
            total_t[name] += t1 - t0
            calls[name] += 1
            for key, v in counts.items():
                work[f"{name}.{key}"] += v
            up = set(ancestors(i))
            if name == "scan" and "scan" not in up:
                scan_top += t1 - t0
            if name in ("plane.gradient", "plane.hessian", "sphere.ambient"):
                if "scan" in up:
                    scan_points += counts.get("points", 0)
                if "newton" in up:
                    newton_points += counts.get("points", 0)
            if name == "quad" and parent >= 0 and spans[parent][0] == "above_quad":
                inner_calls += 1

        mc_time = (self_t["sample"] + self_t["eigvalsh"] + self_t["mc"]
                   + self_t["above_mc"] + self_t["fy_mc"])
        cand = work["newton.candidates"]
        r = max(rounds, 1)
        return {
            "goi.quad.s": self_t["quad"] / r,
            "goi.quad.calls": calls["quad"] / r,
            "goi.quad.evals": work["quad.evals"] / r,
            "kacrice.outer.s": self_t["above_quad"] / r,
            "kacrice.outer.inner_calls": (inner_calls / calls["above_quad"]
                                          if calls["above_quad"] else 0.0),
            "goi.sample.s": self_t["sample"] / r,
            "goi.sample.matrices": work["sample.matrices"] / r,
            "goi.eigvalsh.s": self_t["eigvalsh"] / r,
            "goi.eigvalsh.matrices": work["eigvalsh.matrices"] / r,
            "goi.mc.s": self_t["mc"] / r,
            "kacrice.above_mc.s": self_t["above_mc"] / r,
            "fyodorov.mc.s": self_t["fy_mc"] / r,
            "goi.mc.matrices_per_s": work["eigvalsh.matrices"] / mc_time if mc_time > 0 else 0.0,
            "fields.plane.gradient.s": total_t["plane.gradient"] / r,
            "fields.plane.gradient.points": work["plane.gradient.points"] / r,
            "fields.plane.hessian.s": total_t["plane.hessian"] / r,
            "fields.sphere.ambient.s": total_t["sphere.ambient"] / r,
            "fields.sphere.ambient.points": work["sphere.ambient.points"] / r,
            "detect.scan.s": scan_top / r,
            "detect.scan.grid_points": scan_points / r,
            "detect.newton.s": total_t["newton"] / r,
            "detect.newton.candidates": cand / r,
            "detect.newton.converged": work["newton.converged"] / r,
            "detect.newton.converged_ratio": work["newton.converged"] / cand if cand else 0.0,
            "detect.newton.points_evaluated": newton_points / r,
            "detect.merge.s": total_t["merge"] / r,
            "detect.merge.in": work["merge.in"] / r,
            "detect.merge.out": work["merge.out"] / r,
            "detect.classify.s": total_t["classify"] / r,
            "cli.flush.s": total_t["flush"] / r,
            "cli.rows": work["flush.rows"] / r,
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"absent": self.absent,
                       "fields": ["name", "start", "end", "parent", "run_id", "counts"],
                       "spans": self.spans}, fh)
            fh.write("\n")
