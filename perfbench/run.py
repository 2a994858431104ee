"""Benchmark of critfield's Kac-Rice engines and field detection.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  It imports critfield from ./src, builds
the workload's inputs from --seed, repeats whole rounds of the workload's
fixed work for about --seconds seconds, checks every output against
references computed apart from critfield (see references.py), and prints
one JSON object as its last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (setup_s, run_s, peak_rss_mb);
times are stated at a reference machine speed (see speed.py);
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of the traced ones, plus the tracing overhead.  Spans and the
result are also written under perfbench/out/.
"""
from __future__ import annotations

import os

# BLAS / OpenMP threads are fixed before numpy loads: one per process, at or
# below nproc on any machine, so timings do not depend on the host's default.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 9


def _import_critfield():
    """Import critfield from this checkout's src/, never from elsewhere."""
    if not (SRC / "critfield" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'critfield'} not found; run from a "
                         "checkout of the repository root")
    sys.path.insert(0, str(SRC))
    import critfield
    if Path(critfield.__file__).resolve().parent != (SRC / "critfield").resolve():
        raise SystemExit(f"error: imported critfield from {critfield.__file__}, "
                         f"not from {SRC}")


def _probe_setup(workload: str, seed: int) -> None:
    """Child process of a setup measurement: import, build inputs, report."""
    _import_critfield()
    import workloads
    workloads.WORKLOADS[workload](seed, 0)
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> tuple[float, list[float]]:
    """Median over fresh processes of start -> critfield imported and the
    first round's inputs built, each at reference speed by the mean of the
    Python-callback kernel timed just before and just after it.  Returns the
    median and the raw times."""
    import speed
    kernel = speed.probe("python", 1)
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                               "--probe-setup", "--workload", workload, "--seed", str(seed)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"error: setup probe for {workload} exited with {code}")
        after = speed.probe("python", 1)
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * speed.scale("python", kernel + after))
        kernel = after
    return statistics.median(scaled), raw


class Run:
    """Rounds of one workload, their timings, failure counts and checks."""

    def __init__(self, workload: str, seed: int):
        import workloads
        self.make_round = workloads.WORKLOADS[workload]
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []

    def round(self, k: int, tracer=None, between=None) -> float:
        """Run round k; returns the wall time of its operations.  between(),
        if given, runs after each operation, outside the timed part."""
        ops = self.make_round(self.seed, k)
        outs = []
        elapsed = 0.0
        if tracer is not None:
            tracer.install()
        try:
            for j, op in enumerate(ops):
                if tracer is not None:
                    tracer.run_id = k * len(ops) + j
                t0 = time.perf_counter()
                try:
                    outs.append(op.run())
                except Exception as e:  # an operation that raises counts as failed
                    outs.append(e)
                elapsed += time.perf_counter() - t0
                if between is not None:
                    between()
        finally:
            if tracer is not None:
                tracer.uninstall()
        for op, out in zip(ops, outs):
            self.attempted += 1
            if isinstance(out, Exception):
                self.failed += 1
                self.notes.append(f"round {k} {op.name}: {type(out).__name__}: {out}")
                continue
            failure, problems = op.verify(out)
            if failure:
                self.failed += 1
                self.notes.append(f"round {k} {op.name} failed: {failure}")
                continue
            self.problems += [f"round {k} {op.name}: {msg}" for msg in problems]
        return elapsed


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


def main(argv=None) -> int:
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe_setup:
        _probe_setup(args.workload, args.seed)
        return 0

    _import_critfield()
    import speed
    run = Run(args.workload, args.seed)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        # one untimed operation first: the first round, untraced, would
        # otherwise carry the first-call costs and bias the overhead low
        run.make_round(args.seed, 0)[0].run()
    else:
        setup_s, setup_raw = measure_setup(args.workload, args.seed)
        kind = workloads.SPEED_KIND[args.workload]
        probes = speed.probe(kind)

    # Whole rounds until the next one would end past --seconds (at least
    # one; with tracing at least one untraced and one traced round).
    plain: list[float] = []
    traced: list[float] = []
    walls: list[float] = []          # whole rounds: operations, probes, checks
    start = time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        if tracer is None:
            plain.append(run.round(k, between=lambda: probes.extend(speed.probe(kind))))
        elif k % 2 == 1:
            traced.append(run.round(k, tracer))
        else:
            plain.append(run.round(k))
        walls.append(time.perf_counter() - t0)
        k += 1
        if tracer is not None and not traced:
            continue
        if time.perf_counter() - start + statistics.median(walls) > args.seconds:
            break

    extra = {}
    if tracer is None:
        # at the speed of all probes, taken before and after every operation
        run_scale = speed.scale(kind, probes)
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (statistics.median(plain) * run_scale, "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
        extra = {"raw_setup_s": setup_raw, "probe_kind": kind, "probe_s": probes}
    else:
        from spans import unit_of
        layer = tracer.metrics(len(traced))
        layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        metrics = {name: (v, unit_of(name)) for name, v in layer.items()}

    for line in run.notes + run.problems:
        print(line, file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump({**result, **extra, "rounds": len(plain) + len(traced),
                   "round_s": {"untraced": plain, "traced": traced},
                   "threads": THREADS, "nproc": os.cpu_count(),
                   "problems": run.problems, "notes": run.notes}, fh, indent=1)
        fh.write("\n")
    if tracer is not None:
        tracer.dump(OUT / f"trace-{tag}.json")
        if tracer.absent:
            print("absent (metrics read 0): " + ", ".join(tracer.absent), file=sys.stderr)
    print(f"threads {THREADS} (nproc {os.cpu_count()}), {len(plain) + len(traced)} rounds",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
