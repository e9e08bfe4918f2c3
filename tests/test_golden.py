"""Seeded outputs against tests/golden.json, bit for bit: the theory rows,
and the sha256 of each ablation table and of the din_attention report.

The file is written by scripts/make_golden.py; regenerate it only in a
change that means to move these outputs.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((REPO / "tests" / "golden.json").read_text())


def _make_golden():
    spec = importlib.util.spec_from_file_location("make_golden", REPO / "scripts" / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make_golden = _make_golden()


def test_golden_covers_the_theory_seeds():
    assert list(GOLDEN["theory"]) == [str(s) for s in make_golden.THEORY_SEEDS]
    assert sum(map(len, GOLDEN["theory"].values())) == 1_554


@pytest.mark.parametrize("seed", make_golden.THEORY_SEEDS)
def test_theory_rows_match_golden(seed):
    want = GOLDEN["theory"][str(seed)]
    got = make_golden.theory_rows(seed)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"seed {seed} row {i} ({w[0]}, {w[1]}): got {g}, golden {w}"
    assert len(got) == len(want), f"seed {seed}: {len(got)} rows, golden has {len(want)}"


def test_ablation_outputs_match_golden():
    got = make_golden.ablation_digests()
    for name, digest in GOLDEN["ablations"].items():
        assert next(got, None) == (name, digest), f"ablation output {name!r} differs from golden"
    assert next(got, None) is None, "an ablation output has no golden entry"
