#!/usr/bin/env python3
"""Regenerate perfbench/reference.json: the outputs the benchmark's
correctness checks compare against, for seeds 0-4.

    python3 perfbench/make_reference.py [workload ...]

Only rerun this when a change to the program is meant to change its
outputs, and say in the change why they moved.
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import json  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from workloads import REFERENCE_PATH, WORKLOADS  # noqa: E402

SEEDS = (0, 1, 2, 3, 4)


def main(names) -> int:
    ref = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    for name in names:
        wl = WORKLOADS[name]
        if wl.reference is None:
            continue
        entries = ref.setdefault(name, {})
        for seed in SEEDS:
            entries[str(seed)] = wl.reference(wl.run(wl.setup(seed)))
            print(f"{name} seed {seed} done", flush=True)
        REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or [n for n, w in WORKLOADS.items() if w.reference]))
