"""Reference figures: several seeds per workload, then one traced run each.

    python3 perfbench/figures.py [--seeds 1-10]

Run from the repository root.  Each run is `perfbench/run.py` in its own
process, one after another.  Prints, per workload and end-to-end metric,
the median, the quartiles and the spread (quartile distance over the
median, as statistics.quantiles(n=4) gives them), the failed share, and
the per-layer metrics of one traced run at the first seed of the range.  All results also go to
perfbench/out/figures-<time>.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args()
    seeds = _seeds(args.seeds)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for w in (w["name"] for w in bench["workloads"]):
        runs = [run_once(w, s, seconds, 0) for s in seeds]
        entry = {"runs": runs, "metrics": {}}
        print(f"## {w}: {len(runs)} runs, failed "
              f"{sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}, "
              f"correct in {sum(r['correct'] for r in runs)} of {len(runs)}")
        for m in bounds:
            vals = [r["metrics"][m]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            entry["metrics"][m] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"  {m:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {spread:.4f} (bound {bounds[m]})")
        traced = run_once(w, seeds[0], seconds, 1)
        entry["traced"] = traced
        for m, v in traced["metrics"].items():
            if v["value"]:
                print(f"    {m:34s} {v['value']:.6g} {v['unit']}")
        report[w] = entry
        sys.stdout.flush()
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"figures-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"written {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
