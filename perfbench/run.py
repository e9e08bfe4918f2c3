#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload stream_seed --seed 0 --seconds 50 --trace 0

With --trace 0 the last stdout line carries the end-to-end metrics
(setup_s, wall_s, peak_rss_mb); with --trace 1 it carries the per-layer
metrics from the timing shims. Every output is checked; the line reports
how many checks ran and failed. A line starting with "# info" before it
gives the time of each iteration, the environment and the src/ line
count. Results and spans are also written under perfbench/out/.
"""

from __future__ import annotations

import os

# numpy reads these at import; the bundled OpenBLAS would otherwise start
# one thread per core on a shared machine
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
# one core for the whole run (children inherit it): no migration between
# cores, which on a 2-core machine made runs slower and more variable
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import uuid  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 3
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
IMPORT_PROBE = "import embhist.pipeline, embhist.cli"


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the package."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                   env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=ROOT)
    return time.perf_counter() - start


def environment(config: object) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "commit": commit,
        "config_hash": hashlib.sha256(repr(config).encode()).hexdigest()[:16],
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def measure(wl, seed: int, seconds: float, checks) -> tuple[dict, dict, object]:
    """Set up several times, then repeat the timed work until the budget
    would be exceeded (at least once); medians of both."""
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = wl.setup(seed)
        setups.append(time.perf_counter() - start)
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]

    walls, info = [], {}
    while True:
        start = time.perf_counter()
        out = wl.run(inputs)
        walls.append(time.perf_counter() - start)
        info.update(wl.check(inputs, out, checks))
        del out  # the next iteration must not run beside this one's output
        if checks.failed or sum(walls) + walls[-1] > seconds:
            break
    metrics = {
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info.update(iterations=len(walls), walls=walls, import_s=statistics.median(imports),
                input_setup_s=statistics.median(setups))
    return metrics, info, inputs


def trace(wl, seed: int, checks, run_id: str) -> tuple[dict, dict, object]:
    """Shimmed set-up and timed work, then the same work unshimmed to give
    the tracing overhead."""
    from shims import Tracer

    tracer = Tracer(run_id)
    with tracer:
        inputs = wl.setup(seed)
        start = time.perf_counter()
        out = wl.run(inputs)
        traced = time.perf_counter() - start
    info = wl.check(inputs, out, checks)
    del out
    start = time.perf_counter()
    plain = wl.run(inputs)
    untraced = time.perf_counter() - start
    wl.check(inputs, plain, checks)
    metrics = tracer.layer_metrics()
    metrics.update({
        "pipeline.report_identical": info.get("report_identical", 0),
        "bench.traced_wall_s": traced,
        "bench.trace_overhead_s": traced - untraced,
    })
    tracer.write_spans(OUT_DIR / f"spans-{wl.name}-seed{seed}.tsv.gz")
    return metrics, {"untraced_wall_s": untraced, "spans": len(tracer.spans)}, inputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "embhist" / "__init__.py").is_file():
        print(f"error: no embhist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import embhist
    from shims import PER_LAYER
    from workloads import WORKLOADS, Checks

    if Path(embhist.__file__).resolve().parent != SRC / "embhist":
        print(f"error: imported embhist from {embhist.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    run_id = uuid.uuid4().hex[:12]
    checks = Checks()
    if args.trace:
        values, info, inputs = trace(wl, args.seed, checks, run_id)
        units = PER_LAYER
    else:
        values, info, inputs = measure(wl, args.seed, args.seconds, checks)
        units = END_TO_END

    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    info.update(run_id=run_id, workload=wl.name, seed=args.seed,
                failed_frac=checks.failed / max(checks.attempted, 1),
                env=environment(wl.config(inputs)))
    result = {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    (OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "info": info}, indent=1, default=str) + "\n")
    print("# info " + json.dumps(info, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
