"""The benchmark's two workloads, built on the public embhist API.

Each workload has a `setup(seed)` that makes its inputs (timed apart from
the work, as part of `setup_s`), a `run(inputs)` that is the timed work,
and a `check(inputs, output, checks)` that verifies the output against
the committed reference for the seed, or against invariants when the seed
has none. Every embhist call goes through a module attribute
(`pipeline.tr_sweep_suite`, not a name imported here), so the timing
shims in `shims.py` see it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

from embhist import pipeline

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"
# answers must match the reference to this many digits; byte identity of
# the report is counted on its own (pipeline.report_identical), not gated
REF_TOL = 1e-6
THEORY_TOL = 1e-9


class Checks:
    """Counts correctness checks; keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def __call__(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok


def _close(value: float, ref: float, tol: float) -> bool:
    if math.isnan(ref):
        return math.isnan(value)
    return math.isclose(value, ref, rel_tol=tol, abs_tol=tol)


def load_reference(workload: str, seed: int):
    if not REFERENCE_PATH.exists():
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


@dataclass
class Workload:
    name: str
    setup: Callable[[int], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any, Checks], dict]   # returns info counters
    reference: Callable[[Any], Any] | None      # output -> reference entry
    config: Callable[[Any], object]             # inputs -> what the config hash covers


# ---------------------------------------------------------------------------
# stream_seed: the four-arm streaming experiment, one seed, default world
# ---------------------------------------------------------------------------


@dataclass
class StreamInputs:
    seed: int
    cfg: pipeline.ExperimentConfig


def stream_setup(seed: int, cfg: pipeline.ExperimentConfig | None = None) -> StreamInputs:
    cfg = cfg if cfg is not None else pipeline.ExperimentConfig()
    return StreamInputs(seed, replace(cfg, seeds=(seed,)))


def stream_run(inputs: StreamInputs):
    return pipeline.run_streaming_experiment(inputs.cfg)


def _report_entry(report) -> dict:
    res = report.results[report.seeds[0]]
    arms = {arm: {"auc": r.auc, "ne": r.ne} for arm, r in res.arm_results.items()}
    arms["teacher"] = {"auc": res.fm_result.auc, "ne": res.fm_result.ne}
    return {"report_sha256": hashlib.sha256(report.to_text().encode()).hexdigest(),
            "arms": arms}


def stream_check(inputs: StreamInputs, report, checks: Checks) -> dict:
    got = _report_entry(report)
    checks(set(got["arms"]) == set(inputs.cfg.arms) | {"teacher"},
           f"arms {sorted(got['arms'])}")
    for arm, r in got["arms"].items():
        checks(0.0 < r["auc"] < 1.0 and math.isfinite(r["ne"]) and r["ne"] > 0.0,
               f"{arm}: auc {r['auc']} ne {r['ne']} out of range")
    ref = load_reference("stream_seed", inputs.seed) \
        if inputs.cfg == stream_setup(inputs.seed).cfg else None
    identical = 0
    if ref is not None:
        for arm, want in ref["arms"].items():
            r = got["arms"].get(arm)
            checks(r is not None and _close(r["auc"], want["auc"], REF_TOL)
                   and _close(r["ne"], want["ne"], REF_TOL),
                   f"{arm}: {r} differs from reference {want}")
        identical = int(got["report_sha256"] == ref["report_sha256"])
    return {"report_identical": identical}


# ---------------------------------------------------------------------------
# theory_sweep: the transfer-ratio sweep of the exact enumeration suite
# ---------------------------------------------------------------------------
#
# `run_theory_suite(n, seed)` is `theory_battery(n, seed)` followed by
# `tr_sweep_suite(seed)`. The sweep is about 90% of its time, almost all of
# it `JointTable.remap`. The battery is left out because it fails on valid
# input: for about one seed in six, one of its random worlds gives a
# computed eta a few 1e-12 below zero and `PipelineReport` raises
# NumericError (the eta floor is absolute; ROADMAP item 3). A benchmark run
# must not fail, and the sweep passed on every seed tried.


def theory_setup(seed: int) -> int:
    return seed


def theory_run(seed: int):
    return pipeline.tr_sweep_suite(seed)


def _theory_entry(result) -> list:
    return [[c.name, c.world, c.value, bool(c.passed)] for c in result.checks]


def theory_check(seed: int, result, checks: Checks) -> dict:
    for c in result.checks:
        checks(c.passed, f"{c.name} ({c.world}) failed: value {c.value}")
    ref = load_reference("theory_sweep", seed)
    if ref is not None:
        got = _theory_entry(result)
        checks(len(got) == len(ref), f"{len(got)} checks, reference has {len(ref)}")
        for g, want in zip(got, ref):
            checks(g[0] == want[0] and g[1] == want[1] and g[3] == want[3]
                   and _close(g[2], want[2], THEORY_TOL),
                   f"check {g} differs from reference {want}")
    return {}


WORKLOADS = {
    "stream_seed": Workload("stream_seed", stream_setup, stream_run, stream_check,
                            _report_entry, lambda inputs: inputs.cfg),
    "theory_sweep": Workload("theory_sweep", theory_setup, theory_run, theory_check,
                             _theory_entry, lambda seed: seed),
}
