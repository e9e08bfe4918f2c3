"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Everything is seeded and
deterministic; tolerances are pinned here and nowhere else.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from embhist import nncore as nn
from embhist.compression import AEConfig, ae_train, prefix_mse
from embhist.infotheory import (
    TablePipeline, identity_stage, verify_monotone_L,
)
from embhist.metrics import auc, normalized_entropy
from embhist.models import (
    SELECTORS, FeatureSchema, FMConfig, FMModel, VMConfig, VMModel,
    history_index, make_fm_batch, make_vm_batch, schema_ids,
)
from embhist.pipeline import (
    ExperimentConfig, log_teacher, run_ablation, run_streaming_experiment,
    theory_battery, tr_sweep_suite, train_fm,
)
from embhist.quantization import (
    Codec, dequantize, fit_kmeans_int4, quantize, reconstruction_mse,
)
from embhist.seqstore import EmbeddingRecord, SequenceFeature, SequenceStore
from embhist.synthworld import (
    WorldSpec, default_verification_spec, enumerate_world, generate,
)


def report(n: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {n}: {description}{suffix}")
    assert ok, f"criterion {n}: {description}{suffix}"


SMALL_WORLD = WorldSpec(
    n_users=48, events_per_user=32,
    vm_cardinalities=(3, 2), vm_weights=(0.7, -0.55),
    extra_cardinalities=(2, 2), extra_weights=(1.0, -0.8),
    base_logit=-1.4, temporal_window=8, temporal_cap=4, beta_temporal=0.35,
)


@pytest.fixture(scope="module")
def battery():
    start = time.monotonic()
    result = theory_battery(n_worlds=20, seed=0)
    return result, time.monotonic() - start


def test_criterion_1_exact_identities(battery):
    result, elapsed = battery
    identities = [c for c in result.checks
                  if c.name in ("gain_identity_residual", "cross_identity_residual")]
    n_worlds = len({c.world for c in identities})
    ok = (
        n_worlds >= 20
        and all(c.passed and c.value < 1e-10 for c in identities)
        and elapsed < 60.0
    )
    worst = max(c.value for c in identities)
    report(1, "exact decomposition/telescoping identities on 20-world battery",
           ok, f"worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_inequalities(battery):
    result, _ = battery
    wanted = ("pipeline_bound_slack", "gain_sandwich", "dpi_cross_le_raw",
              "conditioning_reduces_entropy", "eta_in_unit_interval")
    checks = [c for c in result.checks if c.name in wanted]
    ok = bool(checks) and all(c.passed for c in checks)
    report(2, "pipeline bound, gain sandwich, DPI, conditioning inequalities",
           ok, f"{len(checks)} checks at 1e-9 slack")


def test_criterion_3_monotone_sequence_length():
    world = enumerate_world(default_verification_spec(), n_hist=5)
    # the per-event map (vm, ex) -> vm + ex over the first extra, as a table
    vms = list(itertools.product(*map(range, world.vm_feature_cards)))
    exs = [(e,) for e in range(world.extra_feature_cards[0])]
    emb = np.array([[vm + ex for ex in exs] for vm in vms], dtype=np.float64)
    pipe = TablePipeline(n_extras_visible=1, emb=emb, ae_fn=identity_stage,
                         quant_fn=identity_stage)
    gains = verify_monotone_L(world, pipe, lengths=range(6))
    diffs = np.diff(gains)
    cap = world.table.cond_entropy(("Y",), ("V",))
    ok = (
        gains[0] == 0.0
        and bool((diffs >= -1e-10).all())
        and gains[-1] <= cap + 1e-10
    )
    report(3, "history-length gain non-decreasing for L=0..5 (exact)",
           ok, "gains " + ", ".join(f"{g:.5f}" for g in gains))


def test_criterion_4_transfer_ratio_bound():
    result = tr_sweep_suite(seed=0)
    names = {c.name for c in result.checks}
    needed = {
        "a3_holds_on_sweep", "tr_bound_applicable", "tr_pop_ge_lb",
        "tr_lb_nondecreasing_in_delta", "tr_lb_grid_monotone",
        "negative_transfer_a3_violated", "negative_transfer_tr_negative",
    }
    ok = needed <= names and result.all_passed
    report(4, "population TR >= closed-form bound over the feature-gap sweep, "
              "monotone 64-point grid, crafted negative transfer",
           ok, f"{len(result.checks)} checks")


def test_criterion_5_gradient_checks():
    schema = FeatureSchema.from_world(SMALL_WORLD)
    log = generate(SMALL_WORLD, seed=2)
    ids = schema_ids(schema, log)
    chosen = np.arange(12)  # the first 12 events with their user histories
    rng = np.random.default_rng(0)
    results = {}

    for use_history in (True, False):
        fm = FMModel(schema, FMConfig(use_history=use_history), seed=5)
        fm.params.set_("out.w", nn.glorot_uniform(*fm.params["out.w"].shape, 9, "p"))
        batch = make_fm_batch(schema, ids, log.labels, chosen,
                              history_index(log.keys, fm.config.history_len, chosen))
        key = "teacher+attn" if use_history else "teacher"
        results[key] = nn.grad_check(fm.loss_fn(batch), fm.params, n_probes=40)

    vm_plain = VMModel(schema, VMConfig(), seed=6)
    vm_plain.params.set_("out.w", nn.glorot_uniform(*vm_plain.params["out.w"].shape, 3, "p"))
    results["student"] = nn.grad_check(
        vm_plain.loss_fn(make_vm_batch(schema, ids, log.labels, chosen)), vm_plain.params,
        n_probes=40)

    for encoder in ("mean_pool", "sum_pool", "din_attention"):
        vm = VMModel(schema, VMConfig(seq_encoder=encoder, seq_dim=5), seed=6)
        vm.params.set_("out.w", nn.glorot_uniform(*vm.params["out.w"].shape, 3, "p"))
        w0 = vm.params["mlp0.w"].copy()
        w0[vm.emb_width:] = nn.glorot_uniform(
            w0.shape[0] - vm.emb_width, w0.shape[1], 4, "pb")
        vm.params.set_("mlp0.w", w0)
        seqs = []
        for _ in chosen:
            length = int(rng.integers(0, 4))
            entries = np.zeros((4, 5))
            entries[:length] = rng.uniform(-1, 1, (length, 5))
            mask = np.zeros(4, bool)
            mask[:length] = True
            ts = np.full(4, -1, np.int64)
            ts[:length] = np.arange(length)[::-1]
            seqs.append(SequenceFeature(entries, mask, ts, length))
        batch = make_vm_batch(schema, ids, log.labels, chosen, seqs,
                              soft_labels=rng.uniform(0.05, 0.95, len(chosen)),
                              seq_len=4, seq_dim=5)
        # joint task + distillation loss through the sequence branch
        results[f"student+{encoder}+kd"] = nn.grad_check(
            vm.loss_fn(batch, kd_weight=1.0), vm.params, n_probes=40)

    ae = ae_train(rng.uniform(-1, 1, (32, 10)), AEConfig(dims=(2, 4, 8), epochs=1),
                  seed=1)[0]
    results["autoencoder"] = nn.grad_check(
        ae.loss_fn(rng.uniform(-1, 1, (16, 10))), ae.params, n_probes=40)

    # linear-only path at the tight tolerance
    store = nn.ParamStore()
    store.add("w", nn.glorot_uniform(6, 1, 0, "w"))
    x = rng.uniform(-1, 1, (12, 6))

    def linear_loss(s):
        nodes = s.as_nodes()
        return nn.mean_all(nn.matmul(nn.constant(x), nodes["w"])), nodes

    linear_err = nn.grad_check(linear_loss, store, n_probes=12)

    worst = max(results.values())
    ok = worst < 1e-3 and linear_err < 1e-6
    detail = f"worst nonlinear {worst:.2e}, linear {linear_err:.2e}"
    report(5, "finite-difference gradient checks across all model variants",
           ok, detail)


def test_criterion_6_quantization():
    codec = Codec("int4_uniform")
    grid = np.arange(-1.0, 1.0 + 1e-9, 1e-4)
    recon = np.clip(np.round(np.clip(grid, -1, 1) * 8), -8, 7) / 8
    err = np.abs(recon - grid)
    inner = grid <= 0.9375
    grid_ok = err[inner].max() <= 1 / 16 + 1e-12 and err[~inner].max() <= 1 / 8 + 1e-12
    # cross-check a subsample through the actual codec path
    sub = grid[::37]
    via_codec = dequantize(codec, quantize(codec, sub))
    grid_ok = grid_ok and np.array_equal(via_codec, recon[::37])

    rng = np.random.default_rng(5)
    cb = tuple(sorted(rng.uniform(-1, 1, 16)))
    idempotent = True
    for kind_codec in (Codec("fp32"), Codec("int8_uniform"), Codec("int4_uniform"),
                       Codec("int4_kmeans", cb)):
        vectors = rng.uniform(-1.1, 1.1, (25_000, 8))
        for v in vectors:
            q1 = quantize(kind_codec, v)
            q2 = quantize(kind_codec, dequantize(kind_codec, q1))
            if q1.payload != q2.payload:
                idempotent = False
                break

    sizes_ok = all(
        len(quantize(codec, np.zeros(d)).payload) == (d + 1) // 2
        for d in (1, 7, 8, 31, 32, 33)
    )

    tanh_samples = np.tanh(rng.normal(0, 1, 20_000))
    km, _ = fit_kmeans_int4(tanh_samples, iters=60, seed=1)
    km_better = reconstruction_mse(km, tanh_samples) < reconstruction_mse(
        codec, tanh_samples)

    ok = grid_ok and idempotent and sizes_ok and km_better
    report(6, "int4 grid-scan error bounds, idempotence on 1e5 vectors, "
              "packed sizes, k-means < uniform on tanh data", ok)


def test_criterion_7_store_oracle():
    codec = Codec("int4_uniform")
    dim = 6
    rng = np.random.default_rng(3)
    records = []
    store = SequenceStore(dim, codec)
    for _ in range(600):
        rec = EmbeddingRecord(
            key=int(rng.integers(0, 15)), timestamp=int(rng.integers(0, 64)),
            payload=quantize(codec, rng.uniform(-1, 1, dim)),
            soft_label=float(rng.uniform()),
        )
        records.append(rec)
        store.append(rec)

    mismatches = 0
    for _ in range(10_000):
        key = int(rng.integers(0, 17))
        t_cur = int(rng.integers(0, 70))
        seq_len = int(rng.integers(1, 10))
        window = int(rng.integers(1, 80))
        eligible = [
            (r.timestamp, i) for i, r in enumerate(records)
            if r.key == key and t_cur - window <= r.timestamp < t_cur
        ]
        eligible.sort()
        want = [i for _, i in eligible[-seq_len:]][::-1]
        got = store.build_sequence(key, t_cur, seq_len, window)
        if got.length != len(want):
            mismatches += 1
            continue
        for pos, ridx in enumerate(want):
            expect = dequantize(codec, records[ridx].payload)
            if not np.array_equal(got.entries[pos], expect) or \
                    got.timestamps[pos] != records[ridx].timestamp:
                mismatches += 1
                break
        if got.length and not (got.timestamps[: got.length] < t_cur).all():
            mismatches += 1
        if got.length and (got.timestamps[: got.length] < t_cur - window).any():
            mismatches += 1

    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = Path(tmp) / "a.lfsq", Path(tmp) / "b.lfsq"
        store.persist(p1)
        SequenceStore.load(p1).persist(p2)
        round_trip_ok = p1.read_bytes() == p2.read_bytes()

    ok = mismatches == 0 and round_trip_ok
    report(7, "sequence retrieval equals brute-force oracle on 1e4 queries; "
              "persistence round trip bit-exact", ok,
           f"{mismatches} mismatches")


def test_criterion_8_metric_oracles():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 120))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.uniform(0, 1, n), 2)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        oracle = ((pos[:, None] > neg[None, :]).sum()
                  + 0.5 * (pos[:, None] == neg[None, :]).sum()) / (len(pos) * len(neg))
        worst = max(worst, abs(auc(scores, labels) - oracle))

    labels = np.array([1, 0] * 32)  # balanced: every per-sample loss identical
    ne = normalized_entropy(np.full(len(labels), labels.mean()), labels)
    ok = worst <= 1e-12 and ne == 1.0
    report(8, "AUC equals pair counting within 1e-12; base-rate NE is exactly 1",
           ok, f"worst AUC gap {worst:.2e}, NE {ne!r}")


def test_criterion_9_end_to_end_ordering():
    start = time.monotonic()
    cfg = ExperimentConfig(seeds=(0, 1, 2, 3, 4))
    run = run_streaming_experiment(cfg)
    elapsed = time.monotonic() - start
    ordered = 0
    gaps = []
    for seed in run.seeds:
        a = {arm: r.auc for arm, r in run.results[seed].arm_results.items()}
        if a["kd_emb_hist"] > a["kd"] > a["baseline"]:
            ordered += 1
        gaps.append(a["kd_emb_hist"] - a["kd"])
    mean_gap = float(np.mean(gaps))
    ok = ordered >= 4 and mean_gap >= 0.005 and elapsed < 300.0
    report(9, "five-seed arm ordering kd+hist > kd > baseline with margin",
           ok, f"{ordered}/5 ordered, mean gap {mean_gap:+.4f}, {elapsed:.0f}s")


def test_criterion_10_ablation_trends():
    # sequence length: mean AUC at L=100 >= at L=10 on the default world
    auc_by_len = {}
    for seq_len in (10, 100):
        values = []
        for seed in (0, 1, 2):
            cfg = ExperimentConfig(arms=("kd_emb_hist",), seq_len=seq_len,
                                   seeds=(seed,))
            rep = run_streaming_experiment(cfg)
            values.append(rep.mean_auc("kd_emb_hist"))
        auc_by_len[seq_len] = float(np.mean(values))
    seqlen_ok = auc_by_len[100] >= auc_by_len[10]

    # prefix reconstruction: trained on real teacher embeddings
    schema = FeatureSchema.from_world(SMALL_WORLD)
    log = generate(SMALL_WORLD, 0)
    fm = train_fm(log, schema, FMConfig(epochs=2), seed=0)
    teacher = log_teacher(fm, log, "hidden_0", (4,))
    ae, _ = ae_train(teacher.emb, AEConfig(dims=(8, 16, 32), epochs=50), seed=0)
    mse = prefix_mse(ae, teacher.emb)
    prefix_ok = mse[8] >= mse[16] >= mse[32]

    # checkpoint freshness: frozen teacher drifts far less than per-split
    small = ExperimentConfig(
        world=SMALL_WORLD,
        fm=FMConfig(epochs=2, hidden=(16, 8, 4), embed_dim=4, history_len=4),
        seq_len=10, arms=("kd_emb_hist",), seeds=(0,),
    )
    drift = {}
    for policy in ("fixed", "per_split"):
        rep = run_streaming_experiment(replace(small, checkpoint_policy=policy))
        drift[policy] = float(np.mean(rep.results[0].drift_per_chunk_pair))
    drift_ok = drift["fixed"] < drift["per_split"]

    # layer axis: all seven selectors run the full protocol without error
    rows = run_ablation(small, "layer", values=SELECTORS)
    layers_ok = len(rows) == len(SELECTORS) and all(
        0.0 < r["auc_kd_emb_hist"] < 1.0 for r in rows
    )

    ok = seqlen_ok and prefix_ok and drift_ok and layers_ok
    detail = (f"AUC L100-L10 {auc_by_len[100]-auc_by_len[10]:+.4f}; "
              f"prefix mse {mse[8]:.3f}>={mse[16]:.3f}>={mse[32]:.3f}; "
              f"drift {drift['fixed']:.4f} vs {drift['per_split']:.4f}; "
              f"{len(rows)} selectors")
    report(10, "qualitative ablation trends (seqlen, prefix MSE, drift, layers)",
           ok, detail)
