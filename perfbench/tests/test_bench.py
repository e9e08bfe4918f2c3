"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from embhist.compression import AEConfig  # noqa: E402
from embhist.models import FMConfig  # noqa: E402
from embhist.pipeline import ExperimentConfig, TheoryCheck, TheorySuiteResult  # noqa: E402
from embhist.synthworld import WorldSpec  # noqa: E402
from shims import PER_LAYER, Tracer, shimmed_attributes  # noqa: E402
from workloads import WORKLOADS, Checks, stream_run, stream_setup  # noqa: E402

SMALL = ExperimentConfig(world=WorldSpec(n_users=24, events_per_user=16),
                         fm=FMConfig(epochs=1), ae=AEConfig(epochs=2))


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _small_report(seed=0):
    return stream_run(stream_setup(seed, SMALL)).to_text()


def test_untraced_run_leaves_every_shimmed_attribute_alone():
    before = shimmed_attributes()
    assert len(before) > len(WORKLOADS)
    _small_report()
    assert all(_current(owner, attr) is original for owner, attr, original in before)


def test_tracer_patches_aliases_and_restores_them():
    before = shimmed_attributes()
    names = {(getattr(o, "__name__", ""), a) for o, a, _ in before}
    # names bound at import in other modules are patched too
    assert ("embhist.pipeline", "make_fm_batch") in names
    assert ("embhist.seqstore", "dequantize_batch") in names
    with Tracer("t") as tracer:
        assert all(_current(o, a) is not orig for o, a, orig in before)
        _small_report()
    assert all(_current(o, a) is orig for o, a, orig in before)
    metrics = tracer.layer_metrics()
    assert metrics["pipeline.train_fm_calls"] == 1
    assert metrics["pipeline.teacher_reuse_ratio"] == 1.0
    assert metrics["seqstore.build_sequence_calls"] > 0
    assert metrics["models.make_fm_batch_calls"] > 0
    assert metrics["infotheory.remap_calls"] == 0


def test_tracing_does_not_change_the_report():
    plain = _small_report(1)
    with Tracer("t"):
        traced = _small_report(1)
    assert traced == plain


def test_reused_teacher_inputs_share_one_content_key():
    cfg = replace(SMALL, arms=("kd",))
    with Tracer("t") as tracer:
        for seq_len in (5, 10):
            stream_run(stream_setup(0, replace(cfg, seq_len=seq_len)))
    assert tracer.layer_metrics()["pipeline.teacher_reuse_ratio"] == 0.5


def test_stream_check_counts_failures():
    inputs = stream_setup(0, SMALL)
    report = stream_run(inputs)
    checks = Checks()
    WORKLOADS["stream_seed"].check(inputs, report, checks)
    assert checks.attempted > 0 and checks.failed == 0
    report.results[0].arm_results["kd"] = replace(report.results[0].arm_results["kd"],
                                                  auc=1.5)
    bad = Checks()
    WORKLOADS["stream_seed"].check(inputs, report, bad)
    assert bad.failed == 1


def test_theory_check_counts_failed_suite_checks():
    result = TheorySuiteResult([TheoryCheck("tr_pop_ge_lb", "delta1", -1.0, -1e-9, False),
                                TheoryCheck("tr_pop_ge_lb", "delta2", 0.5, -1e-9, True)])
    checks = Checks()
    # seed 1000 has no reference entry, so only the suite's own flags count
    WORKLOADS["theory_sweep"].check(1000, result, checks)
    assert (checks.attempted, checks.failed) == (2, 1)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    from run import END_TO_END

    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream_seed", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
