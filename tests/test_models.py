import math
from dataclasses import replace

import numpy as np
import pytest

from embhist import nncore as nn
from embhist.errors import ConfigError, ContractViolation, DimensionError, SchemaError
from embhist.models import (
    EXTRA_OWNER, SELECTORS, SEQ_ENCODERS, VM_OWNER, Feature, FeatureSchema, FMConfig,
    FMModel, VMConfig, VMModel, _pool, add_embedding, history_index, lookup,
    make_attention_params, make_fm_batch, make_vm_batch, pool_input, read_checkpoint,
    schema_ids, shift_ids, write_checkpoint,
)
from embhist.seqstore import SequenceFeature
from embhist.synthworld import WorldSpec, generate

WORLD = WorldSpec(
    n_users=24, events_per_user=16,
    vm_cardinalities=(3, 2), vm_weights=(0.8, -0.6),
    extra_cardinalities=(2, 2), extra_weights=(0.9, -0.7),
    temporal_window=4, temporal_cap=2, beta_temporal=0.5,
)


def schema():
    return FeatureSchema.from_world(WORLD)


def sample_log():
    return generate(WORLD, seed=2)


def fm_batch(schema_, log, rows, history_len=6):
    """Teacher batch of the given log rows with their same-user histories."""
    rows = np.asarray(rows)
    return make_fm_batch(schema_, schema_ids(schema_, log), log.labels,
                         rows, history_index(log.keys, history_len, rows))


def vm_batch(schema_, log, rows, **kw):
    return make_vm_batch(schema_, schema_ids(schema_, log), log.labels,
                         np.asarray(rows), **kw)


def with_ids(log, row, values):
    """The log with row `row`'s id vector replaced (all columns)."""
    ids = log.ids.copy()
    ids[row] = values
    return replace(log, ids=ids)


def vm_predict(vm, log, row=0, seq=None):
    """Prediction of the student for one log row."""
    kw = {}
    if seq is not None:
        kw = dict(sequences=[seq], seq_len=seq.entries.shape[0], seq_dim=seq.entries.shape[1])
    return float(vm.predict_batch(vm_batch(vm.schema, log, [row], **kw))[0])


def make_seq(entries, seq_len):
    n, d = entries.shape
    out = SequenceFeature(
        entries=np.zeros((seq_len, d)), mask=np.zeros(seq_len, bool),
        timestamps=np.full(seq_len, -1, np.int64), length=n,
    )
    out.entries[:n] = entries
    out.mask[:n] = True
    out.timestamps[:n] = np.arange(n)[::-1]
    return out


class TestSchema:
    def test_counts(self):
        s = schema()
        assert s.m_s == 2 and s.m_k == 4

    def test_teacher_needs_extra_features(self):
        with pytest.raises(SchemaError):
            FeatureSchema((Feature("a", 2, "vm_visible"),))

    def test_duplicate_names(self):
        with pytest.raises(SchemaError):
            FeatureSchema((
                Feature("a", 2, "vm_visible"), Feature("a", 2, "fm_extra"),
            ))

    def test_extra_before_visible_rejected(self):
        with pytest.raises(SchemaError, match="before any extra"):
            FeatureSchema((
                Feature("a", 2, "fm_extra"), Feature("b", 2, "vm_visible"),
            ))

    @pytest.mark.parametrize("features", [
        # a cardinality other than the log's, then one visible column too few
        lambda s: s.features[:-1] + (Feature("zz", 3, "fm_extra"),),
        lambda s: s.features[:1] + s.features[2:],
    ], ids=["cardinality", "visible_count"])
    def test_schema_must_match_the_logs_leading_columns(self, features):
        bad = FeatureSchema(features(schema()))
        with pytest.raises(SchemaError, match="leading columns"):
            schema_ids(bad, sample_log())

    def test_hash_stable_and_sensitive(self):
        a, b = schema(), schema()
        assert a.hash64() == b.hash64()
        other = FeatureSchema(a.features[:-1] + (Feature("zz", 5, "fm_extra"),))
        assert other.hash64() != a.hash64()


class TestFMForward:
    def test_untrained_predicts_half(self):
        fm = FMModel(schema(), FMConfig(), seed=0)
        p, _ = fm.embed(fm_batch(fm.schema, sample_log(), [0]), "hidden_0")
        assert p[0] == 0.5

    def test_emb_layer_width(self):
        fm = FMModel(schema(), FMConfig(embed_dim=8), seed=0)
        _, emb = fm.embed(fm_batch(fm.schema, sample_log(), [0]), "emb_layer")
        assert emb.shape == (1, 4 * 8)

    def test_activations_all_named(self):
        fm = FMModel(schema(), FMConfig(), seed=0)
        nodes = fm.params.as_nodes(fm.arrays(fm_batch(fm.schema, sample_log(), [0])))
        _, acts = fm._forward(nodes)
        assert list(acts) == ["emb_layer", "hidden_0", "hidden_1", "deep", "softlabel"]
        assert {name for names in SELECTORS.values() for name in names} == set(acts)


class TestOneTable:
    def test_lookup_matches_per_feature_gathers(self):
        # an event lookup, then a history lookup on the same table, as the
        # teacher does, against per-feature parameters (row slices of the
        # table) with one gather each and a column concat
        rng = np.random.default_rng(7)
        cards, d, b, lh = (3, 5, 2, 4), 3, 6, 4
        offsets = np.cumsum([0, *cards[:-1]])
        table = rng.uniform(-1, 1, (sum(cards), d))
        ids = np.stack([rng.integers(0, c, b) for c in cards], axis=1)
        hist = np.stack([rng.integers(0, c, (b, lh)) for c in cards], axis=2)
        up = rng.uniform(-1, 1, (b, len(cards) * d))
        up_hist = rng.uniform(-1, 1, (b * lh, len(cards) * d))

        def loss(layer, hist_layer):
            return nn.add(nn.sum_all(nn.mul(layer, nn.constant(up))),
                          nn.sum_all(nn.mul(hist_layer, nn.constant(up_hist))))

        one = nn.ParamStore()
        one.add("emb", table)
        nodes = one.as_nodes()
        layer = lookup(nodes["emb"], nn.Node(shift_ids(ids, offsets)), len(cards))
        hist_layer = lookup(nodes["emb"], nn.Node(shift_ids(hist, offsets)), len(cards))
        nn.backward(loss(layer, hist_layer))

        per = nn.ParamStore()
        for j, (start, card) in enumerate(zip(offsets, cards)):
            per.add(f"emb.{j}", table[start : start + card])
        ref = per.as_nodes()
        tables = [ref[f"emb.{j}"] for j in range(len(cards))]
        ref_layer = nn.concat_cols([nn.gather_rows(t, nn.Node(ids[:, j]))
                                    for j, t in enumerate(tables)])
        ref_hist = nn.concat_cols([nn.gather_rows(t, nn.Node(hist[:, :, j].reshape(-1)))
                                   for j, t in enumerate(tables)])
        nn.backward(loss(ref_layer, ref_hist))

        assert np.array_equal(layer.value, ref_layer.value)
        assert np.array_equal(hist_layer.value, ref_hist.value)
        assert np.array_equal(nodes["emb"].grad, np.vstack([t.grad for t in tables]))

    def test_one_table_and_one_gather_per_lookup(self, monkeypatch):
        calls = []
        gather = nn.gather_rows
        monkeypatch.setattr(nn, "gather_rows", lambda *a: calls.append(1) or gather(*a))
        log = sample_log()
        fm = FMModel(schema(), FMConfig(), seed=0)
        vm = VMModel(schema(), VMConfig(seq_dim=4), seed=0)
        for model, features, prefix in ((fm, fm.schema.features, ""),
                                        (vm, vm.schema.vm_features, "vm.")):
            names = model.params.names()
            assert "emb" in names and not [n for n in names if n.startswith("emb.")]
            # each feature's rows keep their per-feature init stream
            d = model.config.embed_dim
            assert np.array_equal(model.params["emb"], np.vstack([
                nn.glorot_uniform(f.cardinality, d, 0, f"{prefix}emb.{f.name}")
                for f in features]))
        fm.embed(fm_batch(fm.schema, log, np.arange(8)), "emb_layer")
        assert len(calls) == 2  # the events, then their histories
        seq = make_seq(np.zeros((1, 4)), 4)
        vm.predict_batch(vm_batch(vm.schema, log, [0], sequences=[seq], seq_len=4, seq_dim=4))
        assert len(calls) == 3

    def test_table_rows_are_int32_and_tables_stay_under_2_to_the_31_cells(self):
        ids = np.array([[0, 2], [1, 0]])
        rows = shift_ids(ids, np.array([0, 3]))
        assert rows.dtype == np.int32 and rows.tolist() == [0, 5, 1, 3]
        # gather_rows multiplies an int32 row by d: 2^28 rows of width 8 overflow
        huge = (Feature("vm0", 2**27, VM_OWNER), Feature("ex0", 2**27, EXTRA_OWNER))
        with pytest.raises(SchemaError, match="2\\^31"):
            add_embedding(huge, 8, 0, "", nn.ParamStore())
        with pytest.raises(SchemaError):
            FMModel(FeatureSchema(huge), FMConfig(embed_dim=8), seed=0)


@pytest.fixture(scope="module")
def teacher():
    fm = FMModel(schema(), FMConfig(embed_dim=8, hidden=(32, 16, 8)), seed=1)
    return fm, fm_batch(fm.schema, sample_log(), np.arange(5))


class TestExtraction:

    def test_selector_widths(self, teacher):
        fm, batch = teacher
        expected = {
            "emb_layer": 32, "hidden_0": 32, "hidden_1": 16, "deep": 8,
            "all_joint": 32 + 32 + 16 + 8, "softlabel_only": 1,
            "item_only": 8 * sum(f.item_side for f in fm.schema.features),
        }
        assert list(expected) == list(SELECTORS)
        for sel, width in expected.items():
            assert fm.layer_width(sel) == width
            assert fm.embed(batch, sel)[1].shape == (5, width)

    def test_selectors_slice_one_forward_pass(self, teacher):
        fm, batch = teacher
        embs = {sel: fm.embed(batch, sel) for sel in SELECTORS}
        soft, joint = embs["all_joint"]
        assert all(np.array_equal(p, soft) for p, _ in embs.values())
        widths = np.cumsum([0, 32, 32, 16, 8])
        for i, sel in enumerate(("emb_layer", "hidden_0", "hidden_1", "deep")):
            assert np.array_equal(embs[sel][1], joint[:, widths[i]:widths[i + 1]])
        assert np.array_equal(embs["item_only"][1], embs["emb_layer"][1][:, fm.item_cols])

    def test_softlabel_only_is_probability(self, teacher):
        fm, batch = teacher
        p, e = fm.embed(batch, "softlabel_only")
        assert np.all((e > 0) & (e < 1))
        assert np.array_equal(e[:, 0], p)

    def test_item_only_needs_an_item_side_feature(self):
        no_items = FeatureSchema(tuple(replace(f, item_side=False) for f in schema().features))
        with pytest.raises(ConfigError, match="item-side"):
            FMModel(no_items, FMConfig(), seed=0).layer_width("item_only")

    def test_unknown_selector(self):
        from embhist.pipeline import ExperimentConfig

        with pytest.raises(ConfigError, match="penultimate"):
            ExperimentConfig(layer="penultimate")


def seq_encode(kind, seq, query=None):
    """Pool one SequenceFeature through the batched pooling path (a batch of
    one); attention uses fixed seed-0 score parameters."""
    q_node = nodes = None
    if query is not None:
        params = nn.ParamStore()
        make_attention_params(seq.entries.shape[1], 16, seed=0, prefix="attn", params=params)
        q_node, nodes = nn.constant(np.reshape(query, (1, -1))), params.as_nodes()
    mask = nn.Node(pool_input(kind, seq.mask[None, :]))
    pooled = _pool(kind, nn.constant(seq.entries), mask, q_node, nodes, "attn")
    return pooled.value[0]


class TestSeqEncode:
    def test_mean_pool(self):
        seq = make_seq(np.array([[1.0, 1.0], [3.0, 3.0]]), seq_len=4)
        assert np.allclose(seq_encode("mean_pool", seq), [2.0, 2.0])

    def test_sum_pool_empty_is_zero(self):
        seq = make_seq(np.zeros((0, 3)), seq_len=4)
        assert np.array_equal(seq_encode("sum_pool", seq), np.zeros(3))

    def test_attention_uniform_on_identical_entries(self):
        entries = np.tile(np.array([[0.3, -0.2, 0.5]]), (4, 1))
        seq = make_seq(entries, seq_len=6)
        pooled = seq_encode("din_attention", seq, query=np.array([0.1, 0.9, -0.3]))
        assert np.allclose(pooled, entries[0], atol=1e-12)

    def test_attention_needs_matching_query(self):
        seq = make_seq(np.zeros((2, 3)), seq_len=4)
        with pytest.raises(nn.DimensionError):
            seq_encode("din_attention", seq, query=np.zeros(5))

    def test_pool_permutation_invariant(self):
        rng = np.random.default_rng(3)
        entries = rng.uniform(-1, 1, (5, 4))
        perm = entries[rng.permutation(5)]
        for kind in ("mean_pool", "sum_pool"):
            a = seq_encode(kind, make_seq(entries, 8))
            b = seq_encode(kind, make_seq(perm, 8))
            assert np.allclose(a, b, atol=1e-12)

    def test_attention_pool_permutation_invariant(self):
        rng = np.random.default_rng(4)
        entries = rng.uniform(-1, 1, (5, 4))
        query = rng.uniform(-1, 1, 4)
        perm = entries[rng.permutation(5)]
        a = seq_encode("din_attention", make_seq(entries, 8), query)
        b = seq_encode("din_attention", make_seq(perm, 8), query)
        assert np.allclose(a, b, atol=1e-12)


class TestVMForward:
    def test_sequences_may_be_any_iterable_of_len_rows(self):
        log, s = sample_log(), schema()
        seqs = [make_seq(np.full((k + 1, 4), k + 1.0), 3) for k in range(3)]
        kw = dict(seq_len=3, seq_dim=4)
        want = vm_batch(s, log, [0, 1, 2], sequences=seqs, **kw)
        lazy = vm_batch(s, log, [0, 1, 2], sequences=iter(seqs), **kw)
        assert np.array_equal(lazy.seq_entries, want.seq_entries)
        assert np.array_equal(lazy.seq_mask, want.seq_mask)
        assert want.seq_mask.sum(axis=1).tolist() == [1, 2, 3]
        for rows in ([0, 1], [0, 1, 2, 3]):  # more, then fewer sequences than rows
            with pytest.raises(DimensionError, match="sequences for"):
                vm_batch(s, log, rows, sequences=(q for q in seqs), **kw)

    def test_branchless_zero_head_is_half(self):
        vm = VMModel(schema(), VMConfig(), seed=0)
        assert vm_predict(vm, sample_log()) == 0.5

    def test_seq_to_branchless_rejected(self):
        vm = VMModel(schema(), VMConfig(), seed=0)
        seq = make_seq(np.zeros((1, 4)), 4)
        with pytest.raises(ConfigError):
            vm_predict(vm, sample_log(), seq=seq)

    def test_branch_requires_seq(self):
        vm = VMModel(schema(), VMConfig(seq_dim=4), seed=0)
        with pytest.raises(ConfigError):
            vm.predict_batch(vm_batch(vm.schema, sample_log(), [0]))

    def test_empty_history_matches_branchless_at_init(self):
        # branch block weights start at zero, so first-step predictions of
        # the two architectures coincide on any input
        log = sample_log()
        plain = VMModel(schema(), VMConfig(), seed=7)
        seqvm = VMModel(schema(), VMConfig(seq_dim=4), seed=7)
        rng = np.random.default_rng(0)
        seq = make_seq(rng.uniform(-1, 1, (3, 4)), 5)
        assert vm_predict(seqvm, log, seq=seq) == vm_predict(plain, log)

    def test_never_reads_extra_features(self):
        vm = VMModel(schema(), VMConfig(hidden=(8, 4)), seed=3)
        # train a step so the head is nonzero
        log = sample_log()
        batch = vm_batch(vm.schema, log, np.arange(16))
        loss, nodes = vm.loss_fn(batch)(vm.params)
        nn.backward(loss)
        nn.adam_step(vm.params, nn.collect_grads(vm.params, nodes),
                     nn.AdamState.for_params(vm.params, lr=0.05))
        m = log.n_visible
        perturbed = with_ids(log, 0, (*log.ids[0, :m], *((log.ids[0, m:] + 1) % 2)))
        assert vm_predict(vm, log) == vm_predict(vm, perturbed)


def kd_loss(p_v, p_f, y, lam):
    """Student loss with distillation weight lam on one event with label y,
    teacher soft label p_f, and student prediction p_v."""
    vm = VMModel(schema(), VMConfig(), seed=0)
    vm.params.set_("out.b", np.array([[math.log(p_v / (1.0 - p_v))]]))  # out.w is zero
    log = sample_log()
    row = int(np.flatnonzero(log.labels == y)[0])
    batch = vm_batch(vm.schema, log, [row], soft_labels=np.array([p_f]))
    return float(vm.loss_fn(batch, kd_weight=lam)(vm.params)[0].value[0, 0])


class TestJointLoss:
    def test_lambda_zero_is_task_loss(self):
        assert kd_loss(0.3, 0.9, 1, 0.0) == pytest.approx(-math.log(0.3))

    def test_hard_teacher_collapses(self):
        got = kd_loss(0.3, 1.0, 1, 2.0)
        # clamped teacher target differs from the exact label only at 1e-7
        assert got == pytest.approx(-3.0 * math.log(0.3), rel=1e-5)

    def test_hand_case(self):
        got = kd_loss(0.5, 0.8, 1, 1.0)
        assert got == pytest.approx(2 * math.log(2), rel=1e-9)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigError):
            kd_loss(0.5, 0.5, 1, -0.1)


class TestGradChecks:
    """Finite differences through every model variant."""

    def _fm(self, use_history, rows=np.arange(10)):
        fm = FMModel(schema(), FMConfig(use_history=use_history), seed=5)
        fm.params.set_("out.w", nn.glorot_uniform(*fm.params["out.w"].shape, 9, "probe"))
        batch = fm_batch(fm.schema, sample_log(), rows, fm.config.history_len)
        return nn.grad_check(fm.loss_fn(batch), fm.params, n_probes=40, h=1e-5)

    def test_fm_with_attention(self):
        assert self._fm(True) < 1e-3

    def test_fm_with_attention_over_past_events(self):
        # the first rows are t=0 events with empty histories; these rows
        # attend over real past events, and over different numbers of them
        keys = sample_log().keys
        _, mask = history_index(keys, FMConfig().history_len, np.arange(len(keys)))
        rows = np.flatnonzero(mask.any(axis=1))
        rows = rows[np.linspace(0, len(rows) - 1, 10).astype(int)]
        assert mask[rows].any(axis=1).all() and len(set(mask[rows].sum(axis=1))) > 1
        assert self._fm(True, rows) < 1e-3

    def test_fm_without_attention(self):
        assert self._fm(False) < 1e-3

    @pytest.mark.parametrize("encoder", ["mean_pool", "sum_pool", "din_attention"])
    def test_vm_with_kd_and_sequences(self, encoder):
        vm = VMModel(schema(), VMConfig(seq_encoder=encoder, seq_dim=5), seed=6)
        vm.params.set_("out.w", nn.glorot_uniform(*vm.params["out.w"].shape, 5, "probe"))
        # branch block is zero-initialized; nudge it so gradients flow
        w0 = vm.params["mlp0.w"].copy()
        w0[vm.emb_width:] = nn.glorot_uniform(
            w0.shape[0] - vm.emb_width, w0.shape[1], 4, "probe.block")
        vm.params.set_("mlp0.w", w0)
        log = sample_log()
        rng = np.random.default_rng(1)
        seqs = [make_seq(rng.uniform(-1, 1, (int(rng.integers(0, 4)), 5)), 4)
                for _ in range(12)]
        batch = vm_batch(vm.schema, log, np.arange(12), sequences=seqs,
                         soft_labels=rng.uniform(0.05, 0.95, 12),
                         seq_len=4, seq_dim=5)
        err = nn.grad_check(vm.loss_fn(batch, kd_weight=1.0), vm.params,
                            n_probes=40, h=1e-5)
        assert err < 1e-3


def _steps(make, batches, traced):
    """(loss, gradient) of each training step over `batches` and the final
    parameters: eager graphs with collect_grads, or one nncore.Trace."""
    model, build = make()
    state = nn.AdamState.for_params(model.params, lr=0.05)
    trace, out = nn.Trace(build, model.params, state), []
    for arrays in batches:
        if traced:
            out.append((trace.step(arrays), trace.grads.copy()))
            continue
        loss, nodes = nn.loss_fn(build, arrays)(model.params)
        nn.backward(loss)
        grads = nn.collect_grads(model.params, nodes)
        nn.adam_step(model.params, grads, state)
        out.append((float(loss.value[0, 0]), grads))
    return out, model.params.flat.copy()


def _seq_batch(vm, log, rows, rng, soft=False):
    seqs = [make_seq(rng.uniform(-1, 1, (n, 4)), 5) if n else None
            for n in rng.integers(0, 6, len(rows))]
    return vm.arrays(vm_batch(vm.schema, log, rows, sequences=seqs, seq_len=5, seq_dim=4,
                              soft_labels=rng.uniform(0.05, 0.95, len(rows)) if soft else None))


class TestReplay:
    """A replayed tape gives the eager step's bits: the loss, every gradient
    and the parameters after each Adam step. The batches are two shapes
    (full, then a short last batch), each traced once and replayed."""

    SIZES = (16, 16, 7, 16, 7)

    def _check(self, make, arrays_of):
        rows = np.arange(sum(self.SIZES))
        batches = [arrays_of(part) for part in np.split(rows, np.cumsum(self.SIZES)[:-1])]
        (eager, eager_params), (replayed, replayed_params) = (
            _steps(make, batches, traced) for traced in (False, True))
        for (loss_e, grads_e), (loss_r, grads_r) in zip(eager, replayed):
            assert loss_e == loss_r and np.array_equal(grads_e, grads_r)
        assert np.array_equal(eager_params, replayed_params)

    @pytest.mark.parametrize("use_history", [True, False])
    def test_teacher(self, use_history):
        log = sample_log()
        cfg = FMConfig(embed_dim=4, hidden=(8, 6, 4), history_len=3, use_history=use_history)

        def make():
            fm = FMModel(schema(), cfg, seed=3)
            return fm, fm.loss

        probe = FMModel(schema(), cfg, seed=3)
        self._check(make, lambda rows: probe.arrays(fm_batch(probe.schema, log, rows, 3)))

    @pytest.mark.parametrize("arm", ["baseline", "kd"])
    def test_student(self, arm):
        log, rng = sample_log(), np.random.default_rng(1)
        lam = 1.0 if arm == "kd" else 0.0

        def make():
            vm = VMModel(schema(), VMConfig(hidden=(8, 4)), seed=5)
            return vm, lambda nodes: vm.loss(nodes, lam)

        probe = make()[0]
        soft = rng.uniform(0.05, 0.95, len(log.labels))
        self._check(make, lambda rows: probe.arrays(vm_batch(
            probe.schema, log, rows, soft_labels=soft[rows] if lam else None)))

    @pytest.mark.parametrize("encoder", SEQ_ENCODERS)
    def test_student_sequence_encoders(self, encoder):
        log, rng = sample_log(), np.random.default_rng(2)
        cfg = VMConfig(hidden=(8, 4), seq_encoder=encoder, seq_dim=4, attn_hidden=6)

        def make():
            vm = VMModel(schema(), cfg, seed=5)
            return vm, lambda nodes: vm.loss(nodes, 1.0)

        probe = make()[0]
        self._check(make, lambda rows: _seq_batch(probe, log, rows, rng, soft=True))

    def test_autoencoder(self):
        from embhist.compression import AEConfig, MatryoshkaAE

        e = np.random.default_rng(3).uniform(-1, 1, (sum(self.SIZES), 10))

        def make():
            ae = MatryoshkaAE(10, AEConfig(dims=(2, 4, 8)), seed=1)
            return ae, ae.loss

        self._check(make, lambda rows: {"x": e[rows]})

    def test_view_gradients_get_no_replay_buffer(self):
        # each gather's gradient is its reshape's, viewed; the attention
        # input's is written by the affine over it
        fm = FMModel(schema(), FMConfig(embed_dim=4, hidden=(8, 6, 4), history_len=3), seed=3)
        trace = nn.Trace(fm.loss, fm.params, nn.AdamState.for_params(fm.params))
        trace.step(fm.arrays(fm_batch(fm.schema, sample_log(), np.arange(16), 3)))
        (_, _, flowing, *_), = trace.tapes.values()
        gathers = [n for n in flowing if isinstance(n, nn.gather_rows)]
        assert len(gathers) == 2 and all(n.gbuf is None for n in gathers)
        assert all(n.gbuf is not None for n in flowing if isinstance(n, nn.din_features))

    def test_outside_mutation_rejected(self):
        vm = VMModel(schema(), VMConfig(hidden=(8, 4)), seed=5)
        arrays = vm.arrays(vm_batch(vm.schema, sample_log(), np.arange(8)))
        trace = nn.Trace(vm.loss, vm.params, nn.AdamState.for_params(vm.params))
        trace.step(arrays)
        trace.step(arrays)  # a replay after the trace's own Adam step
        vm.params.set_("out.b", np.ones((1, 1)))
        with pytest.raises(ContractViolation):
            trace.step(arrays)

    def test_array_outside_the_batch_rejected(self):
        vm = VMModel(schema(), VMConfig(hidden=(8, 4)), seed=5)
        arrays = vm.arrays(vm_batch(vm.schema, sample_log(), np.arange(8)))

        def build(nodes):  # the labels as a fixed constant, which replay could not rebind
            return nn.mean_all(nn.bce(vm._forward(nodes), nn.constant(arrays["labels"])))

        with pytest.raises(ContractViolation):
            nn.Trace(build, vm.params, nn.AdamState.for_params(vm.params)).step(arrays)


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        fm = FMModel(schema(), FMConfig(), seed=8)
        path = tmp_path / "fm.lfmm"
        write_checkpoint(path, fm.params, fm.schema.hash64())
        params, schema_hash, extra = read_checkpoint(path)
        assert schema_hash == fm.schema.hash64()
        assert extra == ()
        assert params.names() == fm.params.names()
        for name in params.names():
            assert np.array_equal(params[name], fm.params[name])

    def test_blob_layout_lexicographic(self, tmp_path):
        store = nn.ParamStore()
        store.add("b.w", np.array([[2.0]]))
        store.add("a.w", np.array([[1.0]]))
        path = tmp_path / "p.lfmm"
        write_checkpoint(path, store, schema_hash=7, extra_dims=(4, 8))
        blob = path.read_bytes()
        assert blob[:4] == b"LFMM"
        assert blob.find(b"a.w") < blob.find(b"b.w")
        _, _, extra = read_checkpoint(path)
        assert extra == (4, 8)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.lfmm"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        from embhist.errors import FormatError

        with pytest.raises(FormatError):
            read_checkpoint(path)

    def test_truncation_at_every_offset_is_format_error(self, tmp_path):
        from embhist.errors import FormatError

        store = nn.ParamStore()
        store.add("b.w", np.arange(6.0).reshape(2, 3))
        store.add("a", np.array([[1.5]]))
        path = tmp_path / "p.lfmm"
        write_checkpoint(path, store, schema_hash=3, extra_dims=(4, 8))
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(FormatError):
                read_checkpoint(path)

    def test_short_file_names_offset(self, tmp_path):
        from embhist.errors import FormatError

        path = tmp_path / "short.lfmm"
        path.write_bytes(b"LFMM" + b"\x00" * 6)
        with pytest.raises(FormatError, match="offset 4"):
            read_checkpoint(path)

    def test_forward_pure_and_deterministic(self):
        fm1 = FMModel(schema(), FMConfig(), seed=11)
        fm2 = FMModel(schema(), FMConfig(), seed=11)
        batch = fm_batch(fm1.schema, sample_log(), np.arange(8))
        for layer in SELECTORS:
            (p1, e1), (p2, e2) = fm1.embed(batch, layer), fm2.embed(batch, layer)
            assert np.array_equal(p1, p2) and np.array_equal(e1, e2)
