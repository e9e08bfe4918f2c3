#!/usr/bin/env python3
"""Regenerate tests/golden.json: seeded outputs that tests/test_golden.py
recomputes and compares bit for bit.

    python3 scripts/make_golden.py

Sections:
  theory     every run_theory_suite(20, s) row for the seeds in THEORY_SEEDS,
             as [check, world, threshold, passed, float.hex(value)]
  ablations  the sha256 of each `embhist ablate <axis>` TSV on TINY (the
             runtime smoke config of .github/workflows/tests.yml), and of
             the din_attention student's report.tsv on it

Only rerun this when a change to the program is meant to change these
outputs, and list every value that moved in that change.
"""

import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import hashlib  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO / "tests" / "golden.json"
sys.path.insert(0, str(REPO / "src"))

from embhist.compression import AEConfig  # noqa: E402
from embhist.models import FMConfig  # noqa: E402
from embhist.pipeline import (  # noqa: E402
    ABLATION_AXES, ExperimentConfig, run_ablation, run_streaming_experiment,
    run_theory_suite, write_tsv,
)
from embhist.synthworld import WorldSpec  # noqa: E402

THEORY_SEEDS = (0, 1, 2, 3, 4, 7, 11)
TINY = ExperimentConfig(world=WorldSpec(n_users=24, events_per_user=16),
                        fm=FMConfig(epochs=1), ae=AEConfig(epochs=2), seeds=(0,))


def theory_rows(seed: int) -> list[list]:
    return [[c.name, c.world, c.threshold, c.passed, float(c.value).hex()]
            for c in run_theory_suite(20, seed).checks]


def ablation_digests():
    """(name, sha256) of each ablation axis's TSV, as `ablate` writes it, and
    then of the din_attention report; each computed when it is asked for."""
    with tempfile.TemporaryDirectory() as tmp:
        for axis in ABLATION_AXES:
            path = Path(tmp) / f"{axis}.tsv"
            write_tsv(path, run_ablation(TINY, axis))
            yield axis, hashlib.sha256(path.read_bytes()).hexdigest()
    din = replace(TINY, vm=replace(TINY.vm, seq_encoder="din_attention"))
    yield "din_attention", hashlib.sha256(run_streaming_experiment(din).to_text().encode()).hexdigest()


def dump(golden: dict) -> str:
    """JSON with one row per line, so a diff names the rows that moved."""
    lines = ["{", ' "theory": {']
    for i, (seed, rows) in enumerate(golden["theory"].items()):
        lines.append(f"  {json.dumps(seed)}: [")
        lines += [f"   {json.dumps(row)}," for row in rows]
        lines[-1] = lines[-1].rstrip(",")
        lines.append("  ]," if i + 1 < len(golden["theory"]) else "  ]")
    lines += [" },", ' "ablations": {']
    lines += [f"  {json.dumps(name)}: {json.dumps(digest)}," for name, digest in golden["ablations"].items()]
    lines[-1] = lines[-1].rstrip(",")
    lines += [" }", "}"]
    return "\n".join(lines) + "\n"


def main() -> int:
    golden = {"theory": {str(s): theory_rows(s) for s in THEORY_SEEDS},
              "ablations": dict(ablation_digests())}
    GOLDEN_PATH.write_text(dump(golden))
    print(f"wrote {GOLDEN_PATH}: {sum(map(len, golden['theory'].values()))} theory rows, "
          f"{len(golden['ablations'])} ablation digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
