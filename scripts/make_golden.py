#!/usr/bin/env python3
"""Regenerate tests/golden.json: seeded outputs that tests/test_golden.py
recomputes and compares bit for bit.

    python3 scripts/make_golden.py

Sections:
  theory     every run_theory_suite(20, s) row for the seeds in THEORY_SEEDS,
             as [check, world, threshold, passed, float.hex(value)]
  ablations  the sha256 of each `embhist ablate <axis>` TSV on TINY (the
             runtime smoke config of .github/workflows/tests.yml), and of
             report.tsv on it with the din_attention student and with the
             per_split checkpoint policy
  staged     the sha256 of each file the staged CLI chain writes on
             tests/staged.ini for seed 0 (event log, teacher checkpoint,
             teacher embeddings, autoencoder, codec descriptor, sequence
             store and student checkpoint), and the line `embhist eval`
             prints

Only rerun this when a change to the program is meant to change these
outputs, and list every value that moved in that change.
"""

import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO / "tests" / "golden.json"
sys.path.insert(0, str(REPO / "src"))

from embhist.cli import main as cli_main  # noqa: E402
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
    then of the din_attention and per_split reports; each computed when it
    is asked for."""
    with tempfile.TemporaryDirectory() as tmp:
        for axis in ABLATION_AXES:
            path = Path(tmp) / f"{axis}.tsv"
            write_tsv(path, run_ablation(TINY, axis))
            yield axis, hashlib.sha256(path.read_bytes()).hexdigest()
    din = replace(TINY, vm=replace(TINY.vm, seq_encoder="din_attention"))
    for name, cfg in (("din_attention", din),
                      ("per_split", replace(TINY, checkpoint_policy="per_split"))):
        yield name, hashlib.sha256(run_streaming_experiment(cfg).to_text().encode()).hexdigest()


# the staged chain: each command and its file arguments, in stage order;
# train-vm and eval take the default arm, kd_emb_hist
STAGED = (
    ("gen-world", {"out": "events.tsv"}),
    ("train-fm", {"events": "events.tsv", "out": "fm.lfmm"}),
    ("extract", {"events": "events.tsv", "fm": "fm.lfmm", "out": "teacher.npz"}),
    ("train-ae", {"teacher": "teacher.npz", "out": "ae.lfmm"}),
    ("quantize", {"teacher": "teacher.npz", "ae": "ae.lfmm", "out": "codec.json"}),
    ("build-store", {"teacher": "teacher.npz", "ae": "ae.lfmm", "codec": "codec.json",
                     "out": "store.lfsq"}),
    ("train-vm", {"events": "events.tsv", "store": "store.lfsq", "teacher": "teacher.npz",
                  "out": "vm.lfmm"}),
    ("eval", {"events": "events.tsv", "vm": "vm.lfmm", "store": "store.lfsq"}),
)


def staged_digests():
    """(file, sha256) of each file the staged chain writes, and ("eval", the
    line eval prints); each computed when it is asked for."""
    with tempfile.TemporaryDirectory() as tmp:
        for command, files in STAGED:
            args = [command, "--config", str(REPO / "tests" / "staged.ini"), "--seed", "0"]
            for flag, name in files.items():
                args += [f"--{flag}", str(Path(tmp) / name)]
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                rc = cli_main(args)
            if rc:
                raise RuntimeError(f"embhist {command} exited {rc}")
            if "out" in files:
                yield files["out"], hashlib.sha256((Path(tmp) / files["out"]).read_bytes()).hexdigest()
            else:
                yield command, printed.getvalue().strip()


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
    lines += [" },", ' "staged": {']
    lines += [f"  {json.dumps(name)}: {json.dumps(value)}," for name, value in golden["staged"].items()]
    lines[-1] = lines[-1].rstrip(",")
    lines += [" }", "}"]
    return "\n".join(lines) + "\n"


def main() -> int:
    golden = {"theory": {str(s): theory_rows(s) for s in THEORY_SEEDS},
              "ablations": dict(ablation_digests()),
              "staged": dict(staged_digests())}
    GOLDEN_PATH.write_text(dump(golden))
    print(f"wrote {GOLDEN_PATH}: {sum(map(len, golden['theory'].values()))} theory rows, "
          f"{len(golden['ablations'])} ablation digests, {len(golden['staged'])} staged outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
