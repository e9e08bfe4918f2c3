#!/usr/bin/env python3
"""Regenerate tests/golden.json: seeded outputs that tests/test_golden.py
recomputes and compares bit for bit.

    python3 scripts/make_golden.py

Sections:
  theory  every run_theory_suite(20, s) row for the seeds in THEORY_SEEDS,
          as [check, world, threshold, passed, float.hex(value)]

Only rerun this when a change to the program is meant to change these
outputs, and list every value that moved in that change.
"""

import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import json  # noqa: E402
from pathlib import Path  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO / "tests" / "golden.json"
sys.path.insert(0, str(REPO / "src"))

from embhist.pipeline import run_theory_suite  # noqa: E402

THEORY_SEEDS = (0, 1, 2, 3, 4, 7, 11)


def theory_rows(seed: int) -> list[list]:
    return [[c.name, c.world, c.threshold, c.passed, float(c.value).hex()]
            for c in run_theory_suite(20, seed).checks]


def dump(golden: dict) -> str:
    """JSON with one row per line, so a diff names the rows that moved."""
    lines = ["{", ' "theory": {']
    for i, (seed, rows) in enumerate(golden["theory"].items()):
        lines.append(f"  {json.dumps(seed)}: [")
        lines += [f"   {json.dumps(row)}," for row in rows]
        lines[-1] = lines[-1].rstrip(",")
        lines.append("  ]," if i + 1 < len(golden["theory"]) else "  ]")
    lines += [" }", "}"]
    return "\n".join(lines) + "\n"


def main() -> int:
    golden = {"theory": {str(s): theory_rows(s) for s in THEORY_SEEDS}}
    GOLDEN_PATH.write_text(dump(golden))
    print(f"wrote {GOLDEN_PATH}: {sum(map(len, golden['theory'].values()))} theory rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
