"""Run one divprog benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload {ladder,voronoi,sweeps,expsums} \
        --seed N --seconds S --trace {0,1}

Run it from the repository root.  divprog is imported from ./src, not
from an installed copy, and the run fails when ./src/divprog is absent.
Scratch files go to ./.bench_out.

--trace 0 prints the end-to-end metrics:
  setup_s       median over separate fresh processes of the time from
                process start to inputs ready (imports, seeded inputs);
  cold_s        the first pass over the workload in this process;
  warm_s        median of the later passes, run until --seconds is used up
                (at least one);
  peak_rss_mib  peak resident memory of this process, read before the
                output checks run.

--trace 1 prints the per-module metrics instead: one traced cold pass
through the span recorder (spans.py), then an untraced and a traced warm
pass whose times give the tracing overhead, then route timings for every
`method="auto"` progression call the pass made.

Both modes check the outputs outside the timed passes; `correct` is false
when a check fails, and `failed` counts operations that raised.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5


def limit_threads() -> None:
    """At most nproc numerical threads, set before numpy is imported."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= n:
            os.environ[var] = str(n)


def load_workloads():
    if not (SRC / "divprog" / "__init__.py").is_file():
        raise SystemExit(f"bench: no src/divprog under {ROOT}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import divprog
    import workloads

    if Path(divprog.__file__).resolve().parent != (SRC / "divprog").resolve():
        raise SystemExit(f"bench: divprog was imported from {divprog.__file__}, not from src/")
    return workloads


def same(a, b) -> bool:
    """Exact equality of two pass outputs, arrays and bytes included."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if hasattr(a, "shape"):
        import numpy as np

        return hasattr(b, "shape") and a.shape == b.shape and bool(np.array_equal(a, b))
    return a == b


def run_pass(workload, workdir: Path, index: int):
    """One timed pass; returns (seconds, outputs, attempted, failed)."""
    pass_dir = workdir / f"pass{index}"
    pass_dir.mkdir()
    ops = workload.operations(pass_dir)
    results, failed = {}, 0
    start = time.perf_counter()
    for name, op in ops:
        try:
            results[name] = op()
        except Exception as exc:  # one failed operation must not end the run
            failed += 1
            print(f"bench: {workload.name}: {name} failed: {exc!r}", file=sys.stderr)
    seconds = time.perf_counter() - start
    outputs = workload.collect(results, pass_dir)
    shutil.rmtree(pass_dir)
    return seconds, outputs, len(ops), failed


def measure_setup(args) -> float:
    """Median time from starting a fresh interpreter to its inputs being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE) as child:
            try:
                line = child.stdout.readline()
                times.append(time.perf_counter() - start)
                child.stdout.read()
                code = child.wait(timeout=120)
            except BaseException:
                child.kill()
                child.wait()
                raise
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up process exited {code} before its inputs were ready")
    return statistics.median(times)


def timed_run(workload, args, workdir: Path, setup_s: float) -> dict:
    start = time.perf_counter()
    cold_s, cold, attempted, failed = run_pass(workload, workdir, 0)
    warm: list[float] = []
    fails = []
    while not warm or time.perf_counter() - start + warm[-1] <= args.seconds:
        seconds, outputs, n, f = run_pass(workload, workdir, len(warm) + 1)
        warm.append(seconds)
        attempted += n
        failed += f
        if not same(cold, outputs):
            fails.append(("passes_identical", f"pass {len(warm)} differs from the first pass"))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    fails += workload.checks(cold, workload.reference())
    metrics = {
        "setup_s": (setup_s, "s"),
        "cold_s": (cold_s, "s"),
        "warm_s": (statistics.median(warm), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    print(f"bench: {workload.name}: cold {cold_s:.3f} s, warm passes "
          f"{', '.join(f'{t:.3f}' for t in warm)} s", file=sys.stderr)
    return finish(fails, attempted, failed, metrics)


def route_timings(pairs, limit: int) -> dict:
    """Seconds of divisor_sum_progressions per route, for each (X, q)."""
    from divprog import tausieve

    out = {}
    for X, q in pairs:
        routes = ["auto", "naive"] + (["hyperbola"] if math.isqrt(X) * q <= limit else [])
        out[(X, q)] = {}
        for route in routes:
            start = time.perf_counter()
            tausieve.divisor_sum_progressions(X, q, method=route)
            out[(X, q)][route] = time.perf_counter() - start
    return out


def traced_run(workload, args, workdir: Path, wl) -> dict:
    import spans
    from divprog import characters

    recorder = spans.Recorder()
    builds_before = characters.character_table.cache_info().misses
    recorder.install()
    try:
        _, cold, attempted, failed = run_pass(workload, workdir, 0)
    finally:
        recorder.uninstall()
    table_builds = characters.character_table.cache_info().misses - builds_before
    agg = spans.rollup(recorder.spans)

    untraced_s, plain, n1, f1 = run_pass(workload, workdir, 1)
    overhead = spans.Recorder()
    overhead.install()
    try:
        traced_s, traced, n2, f2 = run_pass(workload, workdir, 2)
    finally:
        overhead.uninstall()
    attempted += n1 + n2
    failed += f1 + f2
    fails = [("passes_identical", f"pass {i} differs from the first pass")
             for i, out in ((1, plain), (2, traced)) if not same(cold, out)]
    fails += workload.checks(cold, workload.reference())

    auto_pairs = sorted({(X, q) for X, q, method in agg.get("tausieve.progressions", {}).get("keys", ())
                         if method == "auto"})
    timings = route_timings(auto_pairs, wl.HYPERBOLA_LIMIT)
    metrics = {name: (m["value"], m["unit"]) for name, m in spans.module_metrics(agg).items()}
    metrics["characters.table.builds"] = (table_builds, "count")
    best = {key: min(t[r] for r in ("naive", "hyperbola") if r in t) for key, t in timings.items()}
    total_best = sum(best.values())
    metrics["tausieve.auto_over_best"] = (
        sum(t["auto"] for t in timings.values()) / total_best if total_best else 0.0, "ratio")
    for X, q in wl.LADDER_RUNGS:
        label = wl.rung_label(X, q)
        t = timings.get((X, q), {})
        metrics[f"tausieve.auto_over_best.{label}"] = (t["auto"] / best[(X, q)] if t else 0.0, "ratio")
        for route in ("auto", "naive", "hyperbola"):
            if route != "hyperbola" or math.isqrt(X) * q <= wl.HYPERBOLA_LIMIT:
                metrics[f"tausieve.{route}_s.{label}"] = (t.get(route, 0.0), "s")
    metrics["trace.untraced_pass_s"] = (untraced_s, "s")
    metrics["trace.traced_pass_s"] = (traced_s, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
    recorder.write(OUT / f"spans_{workload.name}_seed{args.seed}.jsonl")
    return finish(fails, attempted, failed, metrics)


def finish(fails, attempted: int, failed: int, metrics: dict) -> dict:
    for check, message in fails:
        print(f"bench: check {check} failed: {message}", file=sys.stderr)
    return {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("ladder", "voronoi", "sweeps", "expsums"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print 'ready' and exit (used to time set-up)")
    ap.add_argument("--write-configs", metavar="DIR",
                    help="write the generated paper-scale sweep configs for --seed to DIR and exit")
    args = ap.parse_args(argv)
    if not args.write_configs and not args.workload:
        ap.error("--workload is required")
    limit_threads()
    wl = load_workloads()
    if args.write_configs:
        for path in wl.write_paper_configs(args.seed, Path(args.write_configs)):
            print(path)
        return 0
    OUT.mkdir(exist_ok=True)
    setup_s = 0.0 if args.setup_only or args.trace else measure_setup(args)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = wl.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        if args.trace:
            result = traced_run(workload, args, workdir, wl)
        else:
            result = timed_run(workload, args, workdir, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
