import gc
import logging
import math
import re
import tracemalloc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from embhist import infotheory, pipeline
from embhist.errors import ConfigError, DataError
from embhist.infotheory import mixed_radix_table
from embhist.models import FMConfig, FMModel, FeatureSchema, VMConfig, VMModel
from embhist.pipeline import (
    ExperimentConfig, FM_TRAIN_CHUNKS, TEST_CHUNK, VM_TRAIN_CHUNKS,
    eval_vm, load_event_log, run_ablation,
    run_streaming_experiment, theory_battery, tr_sweep_suite, train_vm, write_tsv,
)
from embhist.synthworld import WorldSpec, generate

SMALL_WORLD = WorldSpec(
    n_users=48, events_per_user=32,
    vm_cardinalities=(3, 2), vm_weights=(0.7, -0.55),
    extra_cardinalities=(2, 2), extra_weights=(1.0, -0.8),
    base_logit=-1.4, temporal_window=8, temporal_cap=4, beta_temporal=0.35,
)


def small_cfg(**kw):
    defaults = dict(
        world=SMALL_WORLD,
        fm=FMConfig(epochs=2, hidden=(16, 8, 4), embed_dim=4, history_len=4),
        vm=VMConfig(),
        seq_len=10,
        seeds=(0,),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestConfigValidation:
    def test_unknown_arm(self):
        with pytest.raises(ConfigError):
            small_cfg(arms=("baseline", "mystery"))

    def test_active_dim_must_be_trained(self):
        with pytest.raises(ConfigError):
            small_cfg(active_dim=12)

    def test_empty_seeds(self):
        with pytest.raises(ConfigError):
            small_cfg(seeds=())

    def test_bad_codec(self):
        with pytest.raises(ConfigError):
            small_cfg(codec_kind="int2")

    def test_protocol_chunks_disjoint(self):
        assert not set(FM_TRAIN_CHUNKS) & set(VM_TRAIN_CHUNKS)
        assert TEST_CHUNK not in FM_TRAIN_CHUNKS + VM_TRAIN_CHUNKS


@pytest.fixture(scope="module")
def report():
    return run_streaming_experiment(small_cfg())


@pytest.fixture(scope="module")
def stack():
    """(config, log, schema, teacher stack) of seed 0 of small_cfg()."""
    cfg = small_cfg()
    log = generate(cfg.world, 0)
    schema = FeatureSchema.from_world(cfg.world)
    segments = pipeline.checkpoint_segments(cfg.checkpoint_policy, 0)
    return cfg, log, schema, pipeline.teacher_stack(log, schema, cfg, segments)


class TestStreamingExperiment:

    def test_all_arms_present(self, report):
        res = report.results[0]
        assert set(res.arm_results) == {"baseline", "kd", "emb_hist", "kd_emb_hist"}

    def test_deterministic_rerun_bit_identical(self, report):
        again = run_streaming_experiment(small_cfg())
        assert again.to_text() == report.to_text()
        assert again.config_hash == report.config_hash

    def test_seed_changes_results(self, report):
        other = run_streaming_experiment(small_cfg(seeds=(1,)))
        assert other.to_text() != report.to_text()

    @pytest.mark.parametrize("arm", pipeline.ARMS)
    def test_each_arm_equals_the_arm_trained_alone(self, report, stack, arm):
        # arms trained in lockstep do not see each other: each result equals
        # its arm trained and scored on its own; the baseline arm IS a
        # branch-less, lambda=0 student, so it needs neither store nor teacher
        cfg, log, schema, built = stack
        store, teacher = (None, None) if arm == "baseline" else (built.store, built.teacher)
        vms = train_vm(log, schema, cfg, (arm,), store, teacher, 0)
        assert list(vms) == [arm]
        assert eval_vm(vms, log, schema, cfg, store)[arm] == report.results[0].arm_results[arm]

    def test_arms_of_one_width_share_read_only_batches(self, stack):
        cfg, log, schema, built = stack
        ids = pipeline.schema_ids(schema, log)
        seq_dims = {arm: pipeline._arm_settings(arm, cfg, built.store)[1]
                    for arm in pipeline.ARMS}
        batches = pipeline._arm_batches(log, ids, np.arange(40), schema, cfg, seq_dims,
                                        built.store)
        assert batches["baseline"] is batches["kd"]
        assert batches["emb_hist"] is batches["kd_emb_hist"]
        assert batches["baseline"].ids is batches["emb_hist"].ids
        assert batches["baseline"].seq_entries is None
        assert batches["emb_hist"].seq_entries.shape == (40, cfg.seq_len, cfg.active_dim)
        full = batches["emb_hist"]
        for column in (full.ids, full.labels, full.seq_entries, full.seq_mask):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0

    def test_no_test_label_leakage(self):
        # flipping chunk-7 labels must not change any student's predictions
        cfg = small_cfg(arms=("baseline", "kd"))
        log = generate(cfg.world, 0)
        schema = FeatureSchema.from_world(cfg.world)

        def flipped(log):
            test = log.chunks == TEST_CHUNK
            return replace(log, labels=np.where(test, 1 - log.labels, log.labels))

        from embhist.pipeline import log_teacher, train_fm

        fm = train_fm(log, schema, cfg.fm, 0)
        teacher = log_teacher(fm, log, cfg.layer, (4, 5, 6, 7))
        vm_a = train_vm(log, schema, cfg, ("kd",), None, teacher, 0)["kd"]
        vm_b = train_vm(flipped(log), schema, cfg, ("kd",), None, teacher, 0)["kd"]
        for name in vm_a.params.names():
            assert np.array_equal(vm_a.params[name], vm_b.params[name])

    def test_drift_reported_per_chunk_pair(self, report):
        assert len(report.results[0].drift_per_chunk_pair) == 3
        assert all(d >= 0 for d in report.results[0].drift_per_chunk_pair)

    def test_teacher_beats_coin_flip_on_held_out_chunk(self, report):
        assert report.results[0].fm_result.auc > 0.5

    def test_soft_labels_found_by_key_and_timestamp(self):
        from embhist.pipeline import TeacherLog

        rng = np.random.default_rng(3)
        n = 50
        keys, stamps = rng.integers(0, 6, n), rng.permutation(n) * 3
        teacher = TeacherLog(keys=keys, timestamps=stamps, chunks=np.full(n, 4),
                             labels=np.zeros(n), soft=rng.uniform(0, 1, n),
                             emb=np.zeros((n, 2)))
        query = rng.permutation(n)[:20]
        assert np.array_equal(teacher.soft_at(keys[query], stamps[query]),
                              teacher.soft[query])
        with pytest.raises(DataError, match="key 99 at timestamp 3"):
            teacher.soft_at(np.array([keys[0], 99]), np.array([stamps[0], 3]))

    def test_sequence_arm_requires_store(self):
        cfg = small_cfg()
        log = generate(cfg.world, 0)
        schema = FeatureSchema.from_world(cfg.world)
        with pytest.raises(ConfigError):
            train_vm(log, schema, cfg, ("emb_hist",), None, None, 0)

    def test_ae_training_leaves_teacher_parameters_bit_identical(self):
        from embhist.compression import AEConfig, ae_train
        from embhist.pipeline import log_teacher, train_fm

        cfg = small_cfg()
        log = generate(cfg.world, 0)
        schema = FeatureSchema.from_world(cfg.world)
        fm = train_fm(log, schema, cfg.fm, 0)
        snapshot = {k: v.copy() for k, v in fm.params.items()}
        teacher = log_teacher(fm, log, "hidden_0", (4,))
        ae_train(teacher.emb, AEConfig(dims=(4, 8), epochs=5), seed=0)
        for name, value in fm.params.items():
            assert np.array_equal(value, snapshot[name])

    def test_arms_share_embedding_init(self):
        # where architectures coincide, the same seed gives identical params,
        # so arm deltas isolate the transfer channel
        cfg = small_cfg()
        schema = FeatureSchema.from_world(cfg.world)
        from embhist.models import VMModel

        plain = VMModel(schema, cfg.vm, seed=3)
        from dataclasses import replace as dc_replace

        seqvm = VMModel(schema, dc_replace(cfg.vm, seq_dim=cfg.active_dim), seed=3)
        assert np.array_equal(plain.params["emb"], seqvm.params["emb"])

    def test_store_payloads_match_per_row_quantize(self):
        from embhist.compression import AEConfig, ae_train
        from embhist.pipeline import TeacherLog, append_store
        from embhist.quantization import Codec, fit_kmeans_int4, quantize
        from embhist.seqstore import SequenceStore

        rng = np.random.default_rng(5)
        n = 40
        teacher = TeacherLog(
            keys=np.arange(n) % 7, timestamps=np.arange(n), chunks=np.full(n, 4),
            labels=np.arange(n) % 2, soft=rng.uniform(0, 1, n),
            emb=rng.uniform(-1, 1, (n, 6)),
        )
        ae, _ = ae_train(teacher.emb, AEConfig(dims=(3, 6), epochs=2), seed=0)
        z = ae.encode_batch(teacher.emb)[:, :3]  # odd d'
        assert np.array_equal(pipeline.encode(ae, teacher.emb, 3), z)  # one 256-row block
        kmeans, _ = fit_kmeans_int4(rng.uniform(-1, 1, 200), seed=0)
        for codec in (Codec("fp32"), Codec("int8_uniform"), Codec("int4_uniform"), kmeans):
            store = SequenceStore(3, codec)
            append_store(store, teacher, z)
            assert len(store) == len(z)
            for row, vec in zip(store.payloads, z):
                q = quantize(codec, vec)
                assert (row.tobytes(), store.dim, store.codec_id()) == (q.payload, q.dim,
                                                                        q.codec_id)

    def test_embedding_dims_preserve_label_correlation_structure(self):
        # per-dimension correlations of the compressed code with the
        # teacher's soft label and with ground truth agree in ranking
        from embhist.compression import dimension_correlation_probe
        from embhist.pipeline import log_teacher, train_fm
        from embhist.compression import AEConfig, ae_train

        cfg = small_cfg()
        log = generate(cfg.world, 0)
        schema = FeatureSchema.from_world(cfg.world)
        fm = train_fm(log, schema, cfg.fm, 0)
        teacher = log_teacher(fm, log, "hidden_0", (4, 5, 6, 7))
        ae, _ = ae_train(teacher.emb[teacher.rows_in_chunk(4)],
                         AEConfig(dims=(4, 8), epochs=40), seed=0)
        z = ae.encode_batch(teacher.emb)
        _, _, rho = dimension_correlation_probe(z, teacher.soft, teacher.labels)
        assert rho > 0.0


class TestAblations:
    def test_unknown_axis(self):
        with pytest.raises(ConfigError):
            run_ablation(small_cfg(), "width")

    def test_layer_axis_runs_selected(self):
        rows = run_ablation(small_cfg(arms=("kd_emb_hist",)), "layer",
                            values=("hidden_1", "softlabel_only"))
        assert [r["setting"] for r in rows] == ["hidden_1", "softlabel_only"]
        assert all(0.0 < r["auc_kd_emb_hist"] < 1.0 for r in rows)

    def test_codec_axis_mse_ordering(self):
        rows = run_ablation(small_cfg(arms=("kd_emb_hist",)), "codec")
        mse = {r["setting"]: r["codec_mse"] for r in rows}
        assert mse["int8_uniform"] < mse["int4_kmeans"] <= mse["int4_uniform"]
        assert mse["fp32"] < mse["int8_uniform"]

    def test_checkpoint_axis_drift_ordering(self):
        rows = run_ablation(small_cfg(arms=("kd_emb_hist",)), "checkpoint")
        drift = {r["setting"]: r["mean_drift"] for r in rows}
        assert drift["fixed"] < drift["per_split"]

    def test_deltasweep_axis_reports_bound_and_empirical(self):
        from embhist.pipeline import run_delta_sweep

        cfg = small_cfg(fm=FMConfig(epochs=2))
        rows = run_delta_sweep(cfg, deltas=(1,))
        row = rows[0]
        assert {"tr_empirical", "tr_lb", "tr_pop"} <= set(row)
        assert row["tr_pop"] >= row["tr_lb"] - 1e-9
        assert np.isfinite(row["tr_empirical"])

    def test_deltasweep_writes_nan_when_the_teacher_ne_does_not_move(self, monkeypatch):
        same = pipeline.EvalResult(auc=0.6, logloss=0.5, ne=0.9, n_samples=8, base_rate=0.5)
        monkeypatch.setattr(pipeline, "run_protocol", lambda *args: pipeline.SeedResult(
            {"kd_emb_hist": same}, same, (), 0.0))
        row, = pipeline.run_delta_sweep(small_cfg(), deltas=(1,))
        assert math.isnan(row["tr_empirical"]) and row["ne_fm_old"] == row["ne_fm_new"]


def traced_peak_mb(fn) -> float:
    """Peak of the memory that `fn()` allocates, in MiB (tracemalloc)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def default_stage_inputs():
    """Default config and world (seed 0), an untrained teacher, its logged
    columns and a frozen store built through an untrained compressor."""
    cfg = ExperimentConfig()
    log = generate(cfg.world, 0)
    schema = FeatureSchema.from_world(cfg.world)
    fm = FMModel(schema, cfg.fm, 0)
    teacher = pipeline.log_teacher(fm, log, cfg.layer, pipeline.LOG_CHUNKS)
    ae, _ = pipeline.ae_train(teacher.emb, replace(cfg.ae, epochs=0), 0)
    z = pipeline.encode(ae, teacher.emb, cfg.active_dim)
    store = pipeline.SequenceStore(cfg.active_dim, pipeline.fit_codec(cfg.codec_kind, z, 0))
    pipeline.append_store(store, teacher, z)
    store.freeze()
    store.build_sequence(0, 0, 1, 1)  # the first query builds the index, in train_vm
    return cfg, log, schema, fm, teacher, store


class TestStageMemory:
    """Each stage holds one batch of derived data plus its output columns.
    The first three bounds sit at least 2x below the peaks of the whole-set
    versions (22.0, 19.8 and 14.6 MiB), so a whole-set transient that comes
    back fails. The batched stages peaked at 5.8, 8.8 and 3.4 MiB (numpy
    2.4), and at 2.7, 7.3 and 2.7 MiB once ids and history rows were int32
    and the store kept codes."""

    def test_ae_epoch0_loss(self, default_stage_inputs):
        cfg, *_, teacher, _ = default_stage_inputs
        first = teacher.emb[teacher.rows_in_chunk(4)]
        assert traced_peak_mb(lambda: pipeline.ae_train(first, replace(cfg.ae, epochs=0))) < 8.5

    def test_log_teacher(self, default_stage_inputs):
        cfg, log, _, fm, *_ = default_stage_inputs
        assert traced_peak_mb(
            lambda: pipeline.log_teacher(fm, log, cfg.layer, pipeline.LOG_CHUNKS)) < 9.5

    def test_eval_vm(self, default_stage_inputs):
        cfg, log, schema, _, _, store = default_stage_inputs
        vms = {arm: VMModel(schema, replace(
            cfg.vm, seq_dim=pipeline._arm_settings(arm, cfg, store)[1]), 0)
            for arm in cfg.arms}
        assert traced_peak_mb(lambda: eval_vm(vms, log, schema, cfg, store)) < 5.0

    def test_store_query_index(self, default_stage_inputs):
        # the index keeps one byte of code per entry, not 8 bytes of value
        # (3.0 MiB for this store)
        *_, store = default_stage_inputs
        fresh = pipeline.SequenceStore(store.dim, store.codec)
        fresh.extend(store.keys, store.timestamps, store.soft_labels, store.payloads,
                     store.dim)
        fresh.freeze()
        assert traced_peak_mb(lambda: fresh.build_sequence(0, 0, 1, 1)) < 1.0

    def test_train_fm(self, default_stage_inputs):
        # 6.97 MiB while the attention input took four ops and history was
        # indexed for every log row; 5.7 with one fused op and history for
        # the trained rows only
        cfg, log, schema, *_ = default_stage_inputs
        assert traced_peak_mb(lambda: pipeline.train_fm(
            log, schema, replace(cfg.fm, epochs=1), 0)) < 6.5

    def test_log_teacher_one_chunk(self, default_stage_inputs):
        # one logged chunk, as teacher_stack logs them: 4.91 MiB with a
        # whole-log history index, 3.4 with the chunk's own
        cfg, log, _, fm, *_ = default_stage_inputs
        assert traced_peak_mb(lambda: pipeline.log_teacher(fm, log, cfg.layer, (4,))) < 4.0

    def test_teacher_stack_encodes_each_row_once(self, monkeypatch):
        # 3,072 rows for the compressor's epoch-0 loss, then each of the four
        # logged chunks once (18,432 rows when the codec pool encoded the
        # first chunk again); training epochs do not change the count
        encode_batch, rows = pipeline.MatryoshkaAE.encode_batch, []

        def counted(ae, e):
            rows.append(len(e))
            return encode_batch(ae, e)

        monkeypatch.setattr(pipeline.MatryoshkaAE, "encode_batch", counted)
        cfg = ExperimentConfig()
        cfg = replace(cfg, fm=replace(cfg.fm, epochs=0), ae=replace(cfg.ae, epochs=0))
        log = generate(cfg.world, 0)
        pipeline.teacher_stack(log, FeatureSchema.from_world(cfg.world), cfg,
                               pipeline.checkpoint_segments("fixed", 0))
        assert sum(rows) == 15_360

    def test_generate(self):
        # 4.74 MiB while the log kept an int64 id plane, 3.99 with int32 ids
        assert traced_peak_mb(lambda: generate(WorldSpec(), 0)) < 4.5

    def test_default_seed(self):
        # 14.7 MiB when the store held float64 values, the teacher embeddings
        # lived through the student phase and stages copied whole sets
        assert traced_peak_mb(lambda: pipeline.run_seed(ExperimentConfig(), 0)) <= 12.0


class TestIngestion:
    def test_round_trip(self, tmp_path):
        log = generate(SMALL_WORLD, 3)
        path = tmp_path / "events.tsv"
        log.write_text(path)
        loaded = load_event_log(path, SMALL_WORLD)
        assert len(loaded.samples) == len(log.samples)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1\t0\t0\t1,0\t0,1\t1\n1\t0\t0\t1,0\n")
        with pytest.raises(DataError, match="line 2"):
            load_event_log(path, SMALL_WORLD)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1\t0\t0\t1,0\t0,1\t7\n")
        with pytest.raises(DataError, match="label"):
            load_event_log(path, SMALL_WORLD)

    def test_chunk_range(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1\t0\t9\t1,0\t0,1\t1\n")
        with pytest.raises(DataError, match="chunk"):
            load_event_log(path, SMALL_WORLD)

    def test_nonmonotone_timestamp_warns(self, tmp_path, caplog):
        path = tmp_path / "warn.tsv"
        path.write_text("1\t5\t0\t1,0\t0,1\t1\n2\t3\t0\t1,0\t0,1\t0\n")
        with caplog.at_level(logging.WARNING):
            load_event_log(path, SMALL_WORLD)
        assert any("non-monotone" in r.message for r in caplog.records)

    def test_reversed_log_warns_once(self, tmp_path, caplog):
        path = tmp_path / "reversed.tsv"
        generate(SMALL_WORLD, 0).write_text(path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(reversed(lines)))
        latest, backwards = {}, []  # per chunk, as the reader checks them
        for line_no, line in enumerate(reversed(lines), 1):
            _, ts, chunk = map(int, line.split("\t")[:3])
            if ts < latest.get(chunk, -1):
                backwards.append(line_no)
            else:
                latest[chunk] = ts
        with caplog.at_level(logging.WARNING):
            load_event_log(path, SMALL_WORLD)
        assert len(backwards) > 1000
        assert [r.getMessage() for r in caplog.records] == [
            f"non-monotone timestamp within its chunk on {len(backwards)} lines, "
            f"first on line {backwards[0]}"]

    def test_streaming_bounded_memory(self, tmp_path):
        path = tmp_path / "big.tsv"
        with open(path, "w") as fh:
            for i in range(200_000):
                fh.write(f"{i % 97}\t{i // 97}\t{min(i * 8 // 200_000, 7)}\t1,0\t0,1\t{i % 2}\n")
        tracemalloc.start()
        log = load_event_log(path, SMALL_WORLD)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(log.labels) == 200_000
        # the columns it returns take 10.7 MiB: the bound leaves room for the
        # column buffers and the repeat sort, not for a Python object per line
        assert peak < 30 * 1024 * 1024

    def test_feature_count_validated(self, tmp_path):
        path = tmp_path / "bad.tsv"
        for line, kind in (("1\t0\t0\t1,0,0\t0,1\t1\n", "visible"),
                           ("1\t0\t0\t1,0\t0,1,1\t1\n", "extra")):
            path.write_text(line)
            with pytest.raises(DataError, match=f"line 1: wrong {kind} feature count"):
                load_event_log(path, SMALL_WORLD)


    def test_duplicate_key_timestamp_names_both_lines(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("1\t0\t0\t1,0\t0,1\t1\n"
                        "2\t0\t0\t1,0\t0,1\t0\n"
                        "\n"
                        "1\t0\t0\t2,1\t1,1\t0\n")
        with pytest.raises(DataError, match="lines 1 and 4"):
            load_event_log(path, SMALL_WORLD)

    @pytest.mark.parametrize("line, message", [
        (b"1\t1\t0\t1,0\t0,\xff\t1\n", "line 2: 'utf-8' codec can't decode byte 0xff"),
        (b"-1\t1\t0\t1,0\t0,1\t1\n", "line 2: key and timestamp must be non-negative"),
        (b"1\t-1\t5\t1,0\t0,1\t1\n", "line 2: key and timestamp must be non-negative"),
        (b"1\t9223372036854775808\t0\t1,0\t0,1\t1\n", "line 2: value outside int64"),
    ], ids=["not_utf8", "negative_key", "negative_timestamp", "over_int64"])
    def test_bad_value_names_its_line(self, tmp_path, line, message):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"1\t0\t0\t1,0\t0,1\t1\n" + line)
        with pytest.raises(DataError, match=re.escape(message)):
            load_event_log(path, SMALL_WORLD)

    def test_repeat_found_after_every_line_passed(self, tmp_path):
        path = tmp_path / "dup.tsv"
        rows = ["1\t0\t0\t1,0\t0,1\t1", "2\t0\t0\t1,0\t0,1\t0",
                "2\t0\t0\t1,0\t0,1\t1", "1\t0\t0\t1,0\t0,1\t0"]
        path.write_text("\n".join(rows) + "\n")
        # the earliest line that repeats a pair, named with that pair's first line
        with pytest.raises(DataError, match="lines 2 and 3: duplicate key 2 at timestamp 0"):
            load_event_log(path, SMALL_WORLD)
        # a bad line after the repeats is reported first
        path.write_text("\n".join([*rows, "3\t0\t0\t1,0\t0,1\t7"]) + "\n")
        with pytest.raises(DataError, match="line 5: label"):
            load_event_log(path, SMALL_WORLD)

    def test_external_log_read_once_per_experiment(self, tmp_path, monkeypatch, report):
        path = tmp_path / "events.tsv"
        generate(SMALL_WORLD, 0).write_text(path)
        reads = []

        def counted(*args):
            reads.append(args)
            return load_event_log(*args)

        monkeypatch.setattr(pipeline, "load_event_log", counted)
        shared = run_streaming_experiment(small_cfg(seeds=(0, 1), event_log_path=str(path)))
        assert len(reads) == 1
        # seed 0 on the written log is seed 0 on the log generated in memory
        assert shared.results[0] == report.results[0]

    def test_external_log_read_once_per_ablation(self, tmp_path, monkeypatch):
        path = tmp_path / "events.tsv"
        generate(SMALL_WORLD, 0).write_text(path)
        reads = []

        def counted(*args):
            reads.append(args)
            return load_event_log(*args)

        monkeypatch.setattr(pipeline, "load_event_log", counted)
        cfg = small_cfg(arms=("emb_hist",), event_log_path=str(path))
        rows = run_ablation(cfg, "seqlen", values=(5, 10, 20))
        assert len(reads) == 1
        assert [r["setting"] for r in rows] == [5, 10, 20]

    def test_same_timestamp_other_key_accepted(self, tmp_path):
        path = tmp_path / "ok.tsv"
        path.write_text("1\t0\t0\t1,0\t0,1\t1\n2\t0\t0\t1,0\t0,1\t0\n"
                        "1\t1\t0\t1,0\t0,1\t0\n")
        log = load_event_log(path, SMALL_WORLD)
        assert log.keys.tolist() == [1, 2, 1]
        assert np.isnan(log.true_p).all()


class TestTheoryBattery:
    def test_small_battery_all_pass(self):
        result = theory_battery(n_worlds=4, seed=11)
        assert result.all_passed, [c.name for c in result.failures()]

    def test_rows_exportable(self, tmp_path):
        result = theory_battery(n_worlds=1, seed=0)
        write_tsv(tmp_path / "rows.tsv", result.to_rows())
        text = (tmp_path / "rows.tsv").read_text()
        assert text.startswith("check\tworld\tvalue\tthreshold\tpassed")

    def test_every_fold_reads_a_small_marginal(self, monkeypatch):
        """Each battery fold adds up a small marginal of a factor-held world
        (13,122 cells at most), so a fold of a full joint fails here."""
        fold, folded = infotheory._fold_cells, []
        monkeypatch.setattr(infotheory, "_fold_cells",
                            lambda key, probs, total: folded.append(probs.size)
                            or fold(key, probs, total))
        theory_battery(n_worlds=20, seed=0)
        assert folded and max(folded) <= 2**14


class TestSweepReuse:
    def test_sweep_fold_count_and_world_freed(self, monkeypatch):
        """Shared sweep artifacts are computed once, every fold adds up only
        a small marginal of the world, and nothing the reuse keeps outlives
        the suite: its world is freed by reference counting alone."""
        fold, calls = infotheory._fold_cells, []
        monkeypatch.setattr(infotheory, "_fold_cells",
                            lambda key, probs, total: calls.append(probs.size)
                            or fold(key, probs, total))
        entropy_bits, sums = infotheory._entropy_bits, []
        monkeypatch.setattr(infotheory, "_entropy_bits",
                            lambda p: sums.append(p.size) or entropy_bits(p))
        original, tables = pipeline.enumerate_world, []

        def enumerate_world(*args, **kwargs):
            world = original(*args, **kwargs)
            tables.append(weakref.ref(world.table))
            return world

        monkeypatch.setattr(pipeline, "enumerate_world", enumerate_world)
        gc.disable()
        try:
            result = tr_sweep_suite(0)
            assert len(tables) == 1 and tables[0]() is None
        finally:
            gc.enable()
        assert result.all_passed, result.failures()
        # each risk folds its own (V, E, Y) or (V1, E1, V, Y) marginal. 68
        # folds of 227,328 cells and 358 entropy sums while an equal fold was
        # redone: remap now looks each fold up by its content, so the lossless
        # stacks' Zseq and Sseq read Eseq's fold and its entropies
        assert len(calls) == 45
        assert sum(calls) == 147_456
        assert max(calls) <= 4_096
        assert len(sums) == 212

    def test_no_sweep_fold_adds_up_the_world(self, monkeypatch):
        """Every sweep fold is taken from a small marginal contracted from the
        world's chain factors: the world's 4,194,304-cell joint is never
        built."""
        fold, folded, worlds = infotheory._fold_cells, [], []
        monkeypatch.setattr(infotheory, "_fold_cells",
                            lambda key, probs, total: folded.append(probs.size)
                            or fold(key, probs, total))
        original = pipeline.enumerate_world

        def enumerate_world(*args, **kwargs):
            world = original(*args, **kwargs)
            worlds.append(world)
            return world

        monkeypatch.setattr(pipeline, "enumerate_world", enumerate_world)
        tr_sweep_suite(0)
        [world] = worlds
        assert math.prod(world.table.cards) == 4_194_304
        assert "probs" not in vars(world.table)  # probs is built on first read
        assert folded and max(folded) <= 4_096

    def test_sweep_allocates_no_world_sized_array(self):
        """The traced peak of a whole sweep stays under a byte per world
        cell, so no array of the world's 4,194,304 cells is ever made."""
        tracemalloc.start()
        try:
            result = tr_sweep_suite(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.all_passed, result.failures()
        assert peak < 4_194_304

    def test_stage_codes_match_a_per_cell_pass(self, monkeypatch):
        """Each sweep pipeline runs its stages once per (V, visible extras
        prefix); its codes equal those of one pass over every (V, E) cell."""
        stage_codes, seen = infotheory.TablePipeline.stage_codes, {}

        def record(pipe, world):
            seen[id(pipe)] = pipe, world, stage_codes(pipe, world)
            return seen[id(pipe)][2]

        monkeypatch.setattr(infotheory.TablePipeline, "stage_codes", record)
        tr_sweep_suite(0)
        assert len(seen) == 6
        for pipe, world, codes in seen.values():
            ids, rows = ({}, {}, {}), []
            for vm in mixed_radix_table(world.vm_feature_cards):
                for ex in mixed_radix_table(world.extra_feature_cards):
                    emb = tuple(pipe.emb_fn(vm, ex[: pipe.n_extras_visible]))
                    z = tuple(pipe.ae_fn(emb))
                    rows.append([d.setdefault(value, len(d)) for d, value
                                 in zip(ids, (emb, z, tuple(pipe.quant_fn(z))))])
            assert np.array_equal(codes, np.array(rows).T.reshape(codes.shape))


# checks that pass strictly below their threshold; every other check passes
# at or above it
_BELOW = {"gain_identity_residual", "cross_identity_residual", "eta_in_unit_interval",
          "negative_transfer_tr_negative"}


def _assert_threshold_is_gate(result):
    for c in result.checks:
        gate = c.value < c.threshold if c.name in _BELOW else c.value >= c.threshold
        assert c.passed == gate, c


class TestTheoryGates:
    def test_reported_threshold_is_the_gate(self):
        """Each check passes by the threshold it reports. The sweep and a
        battery with an a3_implies_eta_ordering world report every check of
        pipeline._GATES, each at the threshold the table gives it, and the
        table passes below exactly where _BELOW does."""
        checks = tr_sweep_suite(0).checks + theory_battery(4, 11).checks
        _assert_threshold_is_gate(pipeline.TheorySuiteResult(checks))
        assert {c.name for c in checks} == set(pipeline._GATES)
        assert all(c.threshold == pipeline._GATES[c.name][0] for c in checks)
        assert {name for name, (_, below) in pipeline._GATES.items() if below} == _BELOW

    def test_values_just_below_zero_meet_the_reported_gate(self, monkeypatch):
        """Bound values within rounding of a zero gate: each check passes,
        and the threshold it reports admits the value."""
        eps = 5e-13
        pops = [SimpleNamespace(a3_holds=True, bound_applicable=True, tr_pop=1.0, tr_lb=lb)
                for lb in (0.1, 0.1 - eps, 0.1 - eps, 0.1 - eps)]
        monkeypatch.setattr(pipeline, "tr_delta_sweep", lambda *args: pops)
        # a grid just above the bound's limit (0.14) that dips at its last point
        monkeypatch.setattr(pipeline, "eval_tr_lower_bound",
                            lambda p: 0.14 + (eps / 2 if p.delta == 64 else eps))
        monkeypatch.setattr(pipeline, "verify_tr_bound_population", lambda *a, **kw:
                            SimpleNamespace(tr_pop=-eps, tr_lb=-1.0, a3_holds=False))
        result = tr_sweep_suite(0)
        assert result.all_passed, result.failures()
        names = {c.name for c in result.checks if -1e-12 < c.value < 0.0}
        assert {"tr_lb_nondecreasing_in_delta", "tr_lb_grid_monotone",
                "tr_lb_grid_below_limit", "initial_launch_tr_nonneg"} <= names
        _assert_threshold_is_gate(result)
