import itertools
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embhist import infotheory
from embhist.errors import DomainError, NumericError, SchemaError, SizeError
from embhist.infotheory import (
    Derived, JointTable, TablePipeline, TRBoundParams, clamp_eta, cmi_from_terms,
    cross_sum_rounding_bound, eval_tr_lower_bound, grid_ae, identity_stage,
    mixed_radix_table, posterior_embedding, random_table_pipeline,
    uniform_quantizer, verify_gain_sandwich, verify_monotone_L, verify_pipeline,
    verify_tr_bound_population,
)
from embhist.synthworld import WorldSpec, enumerate_world, random_enumerable_spec


def random_table(names, cards, seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.01, 1.0, cards)
    return JointTable(names, cards, p / p.sum())


def brute_entropy(table, names):
    """Independent summation order: python loop over a dict of cells."""
    arr = table.marginal_array(names)
    acc = {}
    for idx in itertools.product(*(range(c) for c in arr.shape)):
        acc[idx] = arr[idx]
    return -math.fsum(p * math.log2(p) for p in acc.values() if p > 0)


def brute_remap(table, outputs):
    """Per-cell reference for JointTable.remap: visits every cell of the
    table in row-major order and adds its mass to the output cell."""
    luts, cards = {}, []
    for spec in outputs:
        if isinstance(spec, str):
            cards.append(table.cards[table.names.index(spec)])
            continue
        src_cards = [table.cards[table.names.index(s)] for s in spec.sources]
        codes = {}
        luts[spec.name] = {
            combo: codes.setdefault(int(spec.codes[combo]), len(codes))
            for combo in itertools.product(*(range(c) for c in src_cards))
        }
        cards.append(max(len(codes), 1))
    out = np.zeros(cards)
    for cell in itertools.product(*(range(c) for c in table.cards)):
        value = dict(zip(table.names, cell))
        idx = tuple(
            value[spec] if isinstance(spec, str)
            else luts[spec.name][tuple(value[s] for s in spec.sources)]
            for spec in outputs
        )
        out[idx] += table.probs[cell]
    names = tuple(spec if isinstance(spec, str) else spec.name for spec in outputs)
    return names, tuple(cards), out


def lookup_derived(name, sources, src_cards, codes):
    """Derived whose value is codes[i] on the i-th row-major combination of
    its sources, so values first appear in no particular order."""
    return Derived(name, sources, np.reshape(codes, src_cards))


def assert_remap_exact(table, outputs):
    got = table.remap(outputs)
    names, cards, probs = brute_remap(table, outputs)
    assert got.names == names
    assert got.cards == cards
    assert np.array_equal(got.probs, probs)


@st.composite
def remap_cases(draw):
    cards = draw(st.lists(st.integers(1, 4), max_size=4))
    names = [f"x{i}" for i in range(len(cards))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = np.asarray(rng.uniform(0.0, 1.0, cards))
    table = JointTable(names, cards, probs / probs.sum())
    # kept variables in a permuted order; the rest may stay unreferenced
    kept = draw(st.permutations(names))[: draw(st.integers(0, len(names)))]
    outputs = list(kept)
    for d in range(draw(st.integers(0, 2))):
        order = draw(st.permutations(names))
        sources = tuple(order[: draw(st.integers(0, len(names)))])
        src_cards = [cards[names.index(s)] for s in sources]
        n_values = draw(st.integers(1, 3))   # 1 gives a constant (card 1)
        codes = rng.integers(0, n_values, math.prod(src_cards))
        spec = lookup_derived(f"d{d}", sources, src_cards, codes)
        outputs.insert(draw(st.integers(0, len(outputs))), spec)
    return table, outputs


def first_seen_ranks(codes):
    """Each code's rank among the distinct codes by first row-major sight."""
    seen = {}
    return np.array([seen.setdefault(int(c), len(seen)) for c in codes.ravel()],
                    dtype=np.int64).reshape(codes.shape), len(seen)


@st.composite
def memo_cases(draw):
    """A small table and remap outputs whose Derived codes are negative,
    gapped, repeated or already dense in first-seen order."""
    cards = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    names = [f"x{i}" for i in range(len(cards))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = rng.uniform(0.0, 1.0, cards)
    table = JointTable(names, cards, probs / probs.sum())
    outputs = list(draw(st.permutations(names))[: draw(st.integers(0, len(names)))])
    for d in range(draw(st.integers(1, 3))):
        sources = tuple(draw(st.permutations(names))[: draw(st.integers(1, len(names)))])
        shape = tuple(cards[names.index(s)] for s in sources)
        kind = draw(st.sampled_from(("negative", "gapped", "repeated", "dense")))
        if kind == "negative":
            codes = rng.integers(-4, 2, shape)
        elif kind == "gapped":
            codes = rng.integers(0, 3, shape) * 5 + 7
        elif kind == "repeated":
            codes = np.full(shape, draw(st.integers(-2, 2)))
        else:
            codes = first_seen_ranks(rng.integers(0, 4, shape))[0]
        dtype = draw(st.sampled_from((np.int64, np.int32)))
        outputs.insert(draw(st.integers(0, len(outputs))),
                       Derived(f"d{d}", sources, codes.astype(dtype)))
    return table, outputs


def add_at_oracle(table, outputs):
    """remap by np.add.at over every cell in row-major order, each Derived's
    codes ranked by first sight."""
    grids = np.indices(table.cards)
    idx, cards = [], []
    for spec in outputs:
        if isinstance(spec, str):
            axis = table.names.index(spec)
            idx.append(grids[axis].ravel())
            cards.append(table.cards[axis])
            continue
        dense, card = first_seen_ranks(np.asarray(spec.codes))
        src = tuple(grids[table.names.index(s)].ravel() for s in spec.sources)
        idx.append(dense[src])
        cards.append(card)
    out = np.zeros(cards)
    np.add.at(out, tuple(idx), table.probs.ravel())
    return out


class TestJointTable:
    def test_mass_validation(self):
        with pytest.raises(NumericError):
            JointTable(("a",), (2,), np.array([0.6, 0.5]))

    def test_negative_mass_rejected(self):
        with pytest.raises(NumericError):
            JointTable(("a",), (2,), np.array([1.1, -0.1]))

    def test_unknown_variable(self):
        t = random_table(("a", "b"), (2, 3), 0)
        with pytest.raises(SchemaError):
            t.entropy(("z",))

    def test_overlapping_sets_rejected(self):
        t = random_table(("a", "b", "c"), (2, 2, 2), 1)
        with pytest.raises(SchemaError):
            t.cond_mutual_info(("a",), ("a",), ("c",))

    def test_fair_coin_entropy(self):
        t = JointTable(("c",), (2,), np.array([0.5, 0.5]))
        assert t.entropy(("c",)) == pytest.approx(1.0, abs=1e-15)

    def test_deterministic_given_z(self):
        # y = z exactly
        p = np.zeros((2, 2))
        p[0, 0] = p[1, 1] = 0.5
        t = JointTable(("z", "y"), (2, 2), p)
        assert t.cond_entropy(("y",), ("z",)) == pytest.approx(0.0, abs=1e-15)

    def test_entropy_matches_independent_summation(self):
        t = random_table(("a", "b", "c"), (3, 2, 4), 7)
        for names in (("a",), ("a", "c"), ("a", "b", "c")):
            assert t.entropy(names) == pytest.approx(brute_entropy(t, names), abs=1e-12)

    def test_independent_vars_zero_mi(self):
        pa, pb = np.array([0.3, 0.7]), np.array([0.2, 0.5, 0.3])
        t = JointTable(("a", "b"), (2, 3), np.outer(pa, pb))
        assert t.cond_mutual_info(("a",), ("b",)) == 0.0

    def test_xor_world(self):
        p = np.zeros((2, 2, 2))
        for a, b in itertools.product(range(2), range(2)):
            p[a, b, a ^ b] = 0.25
        t = JointTable(("x1", "x2", "y"), (2, 2, 2), p)
        assert t.cond_mutual_info(("x1",), ("y",)) == 0.0
        assert t.cond_mutual_info(("x1",), ("y",), ("x2",)) == pytest.approx(1.0, abs=1e-12)

    def test_two_independent_coins(self):
        t = JointTable(("a", "b"), (2, 2), np.full((2, 2), 0.25))
        assert t.entropy() == pytest.approx(2.0, abs=1e-15)

    def test_remap_keep_reorders(self):
        t = random_table(("a", "b", "c"), (2, 3, 2), 3)
        r = t.remap(["c", "a"])
        assert r.names == ("c", "a")
        assert np.allclose(r.probs, t.marginal_array(("c", "a")), atol=1e-15)

    def test_remap_derived_partition(self):
        t = random_table(("a", "b"), (4, 3), 5)
        parity = Derived("p", ("a",), np.arange(4) % 2)
        r = t.remap([parity, "b"])
        direct = t.marginal_array(("a", "b"))
        assert np.allclose(r.probs[0], direct[0::2].sum(axis=0), atol=1e-15)
        assert np.allclose(r.probs[1], direct[1::2].sum(axis=0), atol=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(remap_cases())
    def test_remap_matches_per_cell_reference(self, case):
        table, outputs = case
        assert_remap_exact(table, outputs)

    @settings(max_examples=200, deadline=None)
    @given(memo_cases())
    def test_remap_memo_matches_oracle_and_shares_renamed_folds(self, case):
        table, outputs = case
        got = table.remap(outputs)
        assert np.array_equal(got.probs, add_at_oracle(table, outputs))
        # equal content under new names: the first fold's probs and entropies
        renamed = [spec if isinstance(spec, str) else replace(spec, name="n" + spec.name)
                   for spec in outputs]
        again = table.remap(renamed)
        assert again.names == tuple(s if isinstance(s, str) else s.name for s in renamed)
        assert again.cards == got.cards and again.probs is got.probs
        by_name = dict(zip(got.names, again.names))
        for names in (got.names, got.names[::-1], got.names[:1]):
            h_again = again.entropy([by_name[n] for n in names])
            assert h_again.hex() == got.entropy(names).hex()
        # an unknown source is a schema error where the fold is memoized (hit)
        # and on a fresh table (miss)
        i, spec = next((i, s) for i, s in enumerate(outputs) if isinstance(s, Derived))
        unknown = outputs[:i] + [replace(spec, sources=("zz",) + spec.sources[1:])] + outputs[i + 1:]
        fresh = JointTable(table.names, table.cards, table.probs)
        for t in (table, fresh):
            with pytest.raises(SchemaError):
                t.remap(unknown)

    def test_dense_codes_skip_ranking(self, monkeypatch):
        """Codes dense in first-seen order fold as they are, without
        np.unique; any other codes are ranked."""
        t = random_table(("a", "b"), (3, 2), 6)
        unique, ranked = np.unique, []
        monkeypatch.setattr(np, "unique", lambda *a, **kw: ranked.append(1) or unique(*a, **kw))
        dense = Derived("d", ("a", "b"), np.array([[0, 1], [0, 2], [1, 2]]))
        assert_remap_exact(t, [dense])
        assert not ranked
        for codes in ([[1, 0], [0, 2], [1, 2]], [[0, 2], [1, 2], [0, 1]], [[0, -1], [0, 1], [2, 1]]):
            assert_remap_exact(t, [Derived("r", ("a", "b"), np.array(codes))])
        assert len(ranked) == 3

    def test_repeated_variable_is_schema_error(self):
        t = random_table(("a", "b"), (2, 3), 4)
        with pytest.raises(SchemaError):
            t.entropy(("a", "a"))
        with pytest.raises(SchemaError):
            t.cond_entropy(("a",), ("a",))
        with pytest.raises(SchemaError):
            t.marginal_array(("a", "b", "a"))
        with pytest.raises(SchemaError):
            t.remap(["a", Derived("a", ("b",), np.arange(3))])
        with pytest.raises(SchemaError):  # codes not shaped by the sources' cards
            t.remap([Derived("d", ("a", "b"), np.zeros((3, 2), dtype=np.int64))])

    def test_repeated_entropy_sums_its_marginal_once(self):
        class CountingSums(np.ndarray):
            calls = 0

            def sum(self, *args, **kwargs):
                CountingSums.calls += 1
                return super().sum(*args, **kwargs)

        t = random_table(("a", "b", "c"), (3, 2, 4), 8)
        want = t.probs.sum(axis=1)
        t.probs = t.probs.view(CountingSums)
        first = t.entropy(("a", "c"))
        again = t.entropy(("a", "c"))
        assert CountingSums.calls == 1
        assert again.hex() == first.hex()
        assert first.hex() == infotheory._entropy_bits(want).hex()
        m = t.marginal_array(("a", "c"))
        assert type(m) is np.ndarray and np.array_equal(m, want) and not m.flags.writeable
        assert np.shares_memory(t.marginal_array(("c", "a")), m)
        assert CountingSums.calls == 1

    def test_marginal_keeps_axis_order_and_all_names_is_self(self):
        t = random_table(("a", "b", "c"), (3, 2, 4), 9)
        m = t.marginal(("c", "a"))
        assert (m.names, m.cards) == (("a", "c"), (3, 4))
        assert t.marginal(["a", "c"]) is m
        assert t.marginal(("b", "c", "a")) is t
        assert float(t.marginal(()).probs) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(SchemaError):
            t.marginal(("a", "z"))

    def test_zero_dim_table_is_a_read_only_array(self):
        t = JointTable((), (), np.array(1.0))
        assert isinstance(t.probs, np.ndarray) and not t.probs.flags.writeable
        first = t.remap([])
        assert np.array_equal(t.remap([]).probs, first.probs)
        assert first.probs.shape == () and float(first.probs) == 1.0

    def test_mixed_radix_table_matches_decode(self):
        for cards in ((), (3,), (2, 1, 4), (3, 2, 2)):
            # np.unravel_index takes no empty shape; its one index has no digits
            expect = (tuple(zip(*np.unravel_index(np.arange(math.prod(cards)), cards)))
                      if cards else ((),))
            assert mixed_radix_table(cards) == expect

    def test_remap_key_spans_only_referenced_axes(self, monkeypatch):
        # 2^20 cells; the middle axis is unreferenced and the inner run is 2
        t = random_table(("a", "b", "c"), (4, 2**17, 2), 13)
        pair = lookup_derived("ac", ("c", "a"), (2, 4), [0, 1, 2, 0, 1, 2, 0, 1])
        fold, keys = infotheory._fold_cells, []
        monkeypatch.setattr(infotheory, "_fold_cells",
                            lambda key, probs, total: keys.append(key.shape)
                            or fold(key, probs, total))
        r = t.remap(["c", pair])
        # _fold_cells broadcasts this key to one int64 per cell while it adds
        assert keys == [(4, 1, 2)]
        want = np.zeros((2, 3))
        codes = np.array([[0, 1, 2, 0], [1, 2, 0, 1]])
        np.add.at(want, (np.arange(2)[:, None], codes), t.marginal_array(("c", "a")))
        assert np.allclose(r.probs, want, rtol=1e-12, atol=0.0)

    def test_remap_exact_on_named_shapes(self):
        t = random_table(("a", "b", "c", "d"), (3, 2, 4, 2), 11)
        # two sources out of axis order, axis b referenced by nothing
        pair = lookup_derived("pair", ("d", "a"), (2, 3), [2, 0, 1, 1, 0, 2])
        const = Derived("k", ("c",), np.full(4, 7))
        assert_remap_exact(t, ["c", pair, const, "a"])
        assert t.remap([const]).cards == (1,)
        one = JointTable(("z",), (1,), np.array([1.0]))
        assert_remap_exact(one, ["z", Derived("k", ("z",), np.zeros(1, dtype=np.int64))])
        assert_remap_exact(JointTable((), (), np.array(1.0)), [])

    def test_dpi_random_deterministic_maps(self):
        rng = np.random.default_rng(17)
        for trial in range(25):
            t = random_table(("x", "y", "z"), (5, 3, 2), 100 + trial)
            fn_table = rng.integers(0, 3, 5)
            f = Derived("fx", ("x",), fn_table)
            r = t.remap([f, "x", "y", "z"])
            i_full = r.cond_mutual_info(("x",), ("y",), ("z",))
            i_mapped = r.cond_mutual_info(("fx",), ("y",), ("z",))
            assert i_mapped <= i_full + 1e-9


def first_seen_codes(values):
    ids = {}
    return [ids.setdefault(v, len(ids)) for v in values]


class TestDerivedCodes:
    def test_extras_codes_partition_like_decoded_features(self):
        world = enumerate_world(random_enumerable_spec(5), n_hist=1)
        cards = world.extra_feature_cards
        decoded = mixed_radix_table(cards)
        for pick in [slice(k) for k in range(len(cards) + 1)] + list(range(len(cards))):
            codes = infotheory._extras_derived(world, "x", "E", pick).codes
            assert codes.shape == (len(decoded),)
            assert first_seen_codes(codes.tolist()) == first_seen_codes(
                [features[pick] for features in decoded])

    def test_signed_zero_stage_values_merge_in_sequence_codes(self):
        spec = WorldSpec(
            n_users=4, events_per_user=8,
            vm_cardinalities=(2,), vm_weights=(0.7,),
            extra_cardinalities=(2, 2), extra_weights=(0.8, -0.5),
            beta_temporal=0.4, temporal_window=2, temporal_cap=1,
        )
        world = enumerate_world(spec, n_hist=2)

        def emb_fn(vm, ex):  # the zero's sign follows the first extra
            if vm[0]:
                return (1.0,)
            return (-0.0,) if ex[0] else (0.0,)

        pipe = TablePipeline(1, emb_fn, identity_stage, lambda z: (int(z[0]),))
        # -0.0 == 0.0, so each stage has two values, as tuple equality says
        assert [len(np.unique(codes)) for codes in pipe.stage_codes(world)] == [2, 2, 2]
        for stage in range(3):
            s_var = infotheory._seq_derived(world, pipe, stage, "S")
            assert s_var.sources == ("V1", "E1", "V2", "E2")
            assert world.table.remap([s_var]).cards == (4,)
            assert_remap_exact(world.table, ["V", s_var, "Y"])


def gain_terms_oracle(world, pipe):
    """(i_loopgain, i_temporal, i_cross, i_residual, i_feature_raw) as the
    CMIs of one remap of the whole world onto V, Y, history, views and S."""
    hist = world.hist_vm_vars()
    views = infotheory._hist_view_vars(world, pipe)
    view_names = tuple(v.name for v in views)
    s_var = infotheory._seq_derived(world, pipe, stage=2, name="S")
    t = world.table.remap(["V", "Y", *hist, *views, s_var])
    return (t.cond_mutual_info(("S",), ("Y",), ("V",)),
            t.cond_mutual_info(hist, ("Y",), ("V",)),
            t.cond_mutual_info(("S",), ("Y",), ("V",) + hist),
            t.cond_mutual_info(hist, ("Y",), ("V", "S")),
            t.cond_mutual_info(view_names, ("Y",), ("V",) + hist))


class TestGainDecomposition:
    def test_identity_residual_tiny_everywhere(self):
        for k in range(10):
            spec = random_enumerable_spec(k)
            world = enumerate_world(spec, n_hist=2)
            pipe = random_table_pipeline(world, seed=k)
            rep = verify_pipeline(world, pipe)
            assert rep.gain_identity_residual < 1e-10
            assert rep.i_cross <= rep.i_feature_raw + 1e-9
            got = (rep.i_loopgain, rep.i_temporal, rep.i_cross, rep.i_residual,
                   rep.i_feature_raw)
            assert got == pytest.approx(gain_terms_oracle(world, pipe), rel=0, abs=1e-12)

    def test_lossless_pipeline_with_full_view(self):
        spec = random_enumerable_spec(3)
        world = enumerate_world(spec, n_hist=1)
        n_extras = len(world.extra_feature_cards)
        pipe = TablePipeline(
            n_extras_visible=n_extras,
            emb_fn=lambda vm, ex: tuple(vm) + tuple(ex),
            ae_fn=identity_stage,
            quant_fn=lambda z: tuple(int(v) for v in z),
        )
        rep = verify_pipeline(world, pipe)
        # identity pipeline: no compression residual, cross carries all raw info
        assert rep.i_residual == pytest.approx(0.0, abs=1e-12)
        assert rep.i_cross == pytest.approx(rep.i_feature_raw, abs=1e-12)
        assert rep.i_loopgain == pytest.approx(
            rep.i_temporal + rep.i_feature_raw, abs=1e-10
        )

    def test_degenerate_channels(self):
        # no extras signal and no temporal channel: every term collapses
        spec = WorldSpec(
            n_users=4, events_per_user=8,
            vm_cardinalities=(2,), vm_weights=(0.9,),
            extra_cardinalities=(2,), extra_weights=(0.0,),
            beta_temporal=0.0, temporal_window=2, temporal_cap=1,
        )
        world = enumerate_world(spec, n_hist=2)
        pipe = TablePipeline(
            n_extras_visible=1,
            emb_fn=lambda vm, ex: tuple(vm) + tuple(ex),
            ae_fn=identity_stage,
            quant_fn=lambda z: tuple(int(v) for v in z),
        )
        rep = verify_pipeline(world, pipe)
        assert rep.i_temporal == pytest.approx(0.0, abs=1e-12)
        assert rep.i_cross == pytest.approx(0.0, abs=1e-12)
        assert rep.i_loopgain == pytest.approx(0.0, abs=1e-12)

    def test_zero_extra_features_world(self):
        # a world without any teacher-only features: cross terms vanish and
        # the gain reduces to the temporal channel alone
        spec = WorldSpec(
            n_users=4, events_per_user=8,
            vm_cardinalities=(2, 2), vm_weights=(0.8, -0.6),
            extra_cardinalities=(), extra_weights=(),
            beta_temporal=0.6, temporal_window=2, temporal_cap=1,
        )
        world = enumerate_world(spec, n_hist=2)
        pipe = TablePipeline(0, lambda vm, ex: tuple(vm), identity_stage,
                             lambda z: tuple(int(v) for v in z))
        rep = verify_pipeline(world, pipe)
        assert rep.i_cross == 0.0
        assert rep.i_feature_raw == 0.0
        assert rep.i_temporal > 1e-5
        assert rep.i_loopgain == pytest.approx(rep.i_temporal, abs=1e-12)


class TestPipelineDecomposition:
    def test_identity_pipeline_all_losses_zero(self):
        spec = random_enumerable_spec(5)
        world = enumerate_world(spec, n_hist=1)
        pipe = TablePipeline(
            n_extras_visible=len(world.extra_feature_cards),
            emb_fn=lambda vm, ex: tuple(vm) + tuple(ex),
            ae_fn=identity_stage,
            quant_fn=lambda z: tuple(int(v) for v in z),
        )
        rep = verify_pipeline(world, pipe)
        for loss in (rep.l_repr, rep.l_ae, rep.l_q, rep.l_repr_cross,
                     rep.l_ae_cross, rep.l_q_cross):
            assert loss == pytest.approx(0.0, abs=1e-11)
        assert rep.tau == pytest.approx(0.0, abs=1e-9)
        assert rep.eta == pytest.approx(0.0, abs=1e-9)

    def test_cross_identity_exact_and_bound(self):
        for k in range(8):
            spec = random_enumerable_spec(50 + k)
            world = enumerate_world(spec, n_hist=2)
            pipe = random_table_pipeline(world, seed=k)
            rep = verify_pipeline(world, pipe)
            assert rep.cross_identity_residual < 1e-10
            assert rep.pipeline_bound_slack >= -1e-9
            assert -1e-12 <= rep.eta <= 1.0 + 1e-9

    def test_coarser_quantization_grows_cross_loss(self):
        spec = random_enumerable_spec(9)
        world = enumerate_world(spec, n_hist=1)
        emb = posterior_embedding(world, len(world.extra_feature_cards))
        losses = []
        for bits in (4, 3, 2):
            pipe = TablePipeline(len(world.extra_feature_cards), emb,
                                 identity_stage, uniform_quantizer(bits))
            losses.append(verify_pipeline(world, pipe).l_q_cross)
        assert losses[0] <= losses[1] + 1e-12 <= losses[2] + 2e-12


class TestEtaRoundingBudget:
    @pytest.mark.parametrize("seed", [11, 12, 19, 24])
    def test_battery_seeds_once_below_absolute_floor(self, seed):
        # each has a world whose computed eta is a few 1e-12 below 0
        from embhist.pipeline import theory_battery

        assert theory_battery(20, seed).all_passed

    def test_clamp_within_budget_raise_beyond(self):
        world = enumerate_world(random_enumerable_spec(3), n_hist=1)
        cond = ("V",) + world.hist_vm_vars()
        terms = world.table.cmi_terms(world.hist_extra_vars(), ("Y",), cond)
        i_raw = cmi_from_terms(terms)
        err = cross_sum_rounding_bound(terms, terms, (i_raw, 0.0, 0.0),
                                       world.table.probs.size)
        assert 0.0 < err < 1e-9
        assert clamp_eta(-2.8e-12 * i_raw, i_raw, err) == 0.0
        assert clamp_eta(0.25 * i_raw, i_raw, err) == 0.25
        with pytest.raises(NumericError):
            clamp_eta(-1e-6, i_raw, err)
        # no clamp from above: an eta above 1 is reported as it is
        assert clamp_eta(1.5 * i_raw, i_raw, err) == 1.5

    def test_eta_above_one_reaches_its_gate(self):
        """A report carries an eta above 1, and the theory suite's
        eta_in_unit_interval gate fails it."""
        from embhist.pipeline import _checks

        world = enumerate_world(random_enumerable_spec(3), n_hist=1)
        rep = replace(verify_pipeline(world, random_table_pipeline(world, seed=0)), eta=1.5)
        [check] = _checks("w0", {"eta_in_unit_interval": rep.eta})
        assert (check.value, check.passed) == (1.5, False)


class TestSandwich:
    def test_holds_on_random_battery(self):
        for k in range(20):
            spec = random_enumerable_spec(200 + k)
            world = enumerate_world(spec, n_hist=2)
            pipe = random_table_pipeline(world, seed=300 + k)
            rep = verify_pipeline(world, pipe)
            assert min(verify_gain_sandwich(rep)) >= -1e-9  # the gain_sandwich gate

    def test_inflated_tau_keeps_lower_bound(self):
        from dataclasses import replace

        spec = random_enumerable_spec(4)
        world = enumerate_world(spec, n_hist=1)
        pipe = random_table_pipeline(world, seed=2)
        rep = verify_pipeline(world, pipe)
        inflated = replace(rep, tau=min(rep.tau * 2 + 0.1, 1e6))
        lower_slack, _ = verify_gain_sandwich(inflated)
        assert lower_slack >= -1e-9


class TestMonotoneL:
    def test_zero_length_and_monotone(self):
        spec = random_enumerable_spec(12)
        world = enumerate_world(spec, n_hist=2)
        pipe = random_table_pipeline(world, seed=4)
        gains = verify_monotone_L(world, pipe)
        assert gains[0] == 0.0
        assert all(b >= a - 1e-10 for a, b in zip(gains, gains[1:]))
        assert gains[-1] <= world.table.cond_entropy(("Y",), ("V",)) + 1e-10

    def test_channel_off_is_flat_zero(self):
        spec = WorldSpec(
            n_users=4, events_per_user=8,
            vm_cardinalities=(2, 2), vm_weights=(0.8, -0.5),
            extra_cardinalities=(2,), extra_weights=(0.0,),
            beta_temporal=0.0, temporal_window=2, temporal_cap=1,
        )
        world = enumerate_world(spec, n_hist=3)
        pipe = TablePipeline(1, lambda vm, ex: tuple(vm) + tuple(ex),
                             identity_stage, lambda z: tuple(int(v) for v in z))
        gains = verify_monotone_L(world, pipe)
        assert np.allclose(gains, 0.0, atol=1e-10)


class TestTRBound:
    def test_cancellation_case(self):
        p = TRBoundParams(tau2=0.0, eta1=0.4, kappa_gap_hist_lo=0.02,
                          kappa_gap_hi=0.05, i_temporal=0.3, delta=1.0)
        v1 = eval_tr_lower_bound(p)
        from dataclasses import replace

        v8 = eval_tr_lower_bound(replace(p, delta=8.0))
        expect = (1 - 0.4) * 0.02 / 0.05
        assert v1 == pytest.approx(expect, rel=1e-12)
        assert v8 == pytest.approx(expect, rel=1e-12)

    def test_monotone_grid_and_limit(self):
        from dataclasses import replace

        p = TRBoundParams(tau2=0.1, eta1=0.3, kappa_gap_hist_lo=0.01,
                          kappa_gap_hi=0.04, i_temporal=0.25, delta=1.0,
                          kappa_over_hi=0.3, kappa_over_lo=0.15,
                          # the envelope m/n + n/(p - m) of a teacher with m = 20
                          # feature directions, p parameters and n = 500 samples
                          xi1=20 / 500 + 500 / (4000 - 20),
                          xi2=20 / 500 + 500 / (8000 - 20))
        values = [eval_tr_lower_bound(replace(p, delta=float(d))) for d in range(1, 65)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        limit = (1 - 0.3) * 0.01 / 0.04
        assert values[-1] <= limit
        assert values[-1] == pytest.approx(limit, rel=0.15)  # approaches from below

    def test_nonpositive_denominator(self):
        p = TRBoundParams(tau2=0.0, eta1=0.0, kappa_gap_hist_lo=0.1,
                          kappa_gap_hi=0.1, i_temporal=0.1, delta=0.0)
        with pytest.raises(DomainError):
            eval_tr_lower_bound(p)

    def test_kappa_order_validated(self):
        with pytest.raises(DomainError):
            TRBoundParams(tau2=0.0, eta1=0.0, kappa_gap_hist_lo=0.1,
                          kappa_gap_hi=0.1, i_temporal=0.1, delta=1.0,
                          kappa_over_hi=0.1, kappa_over_lo=0.2)


def _small_sweep_world():
    """Five extras keep the enumeration at 16k cells (fast unit testing)."""
    spec = WorldSpec(
        n_users=8, events_per_user=8,
        vm_cardinalities=(2,), vm_weights=(0.8,),
        extra_cardinalities=(2,) * 5,
        extra_weights=(0.9, -0.75, 0.7, -0.65, 0.6),
        base_logit=-0.9, temporal_window=8, temporal_cap=3, beta_temporal=0.6,
    )
    return enumerate_world(spec, n_hist=1)


def _lossless_pipe(world, n_vis):
    from embhist.infotheory import fixed_point_quantizer

    return TablePipeline(n_vis, posterior_embedding(world, n_vis),
                         identity_stage, fixed_point_quantizer())


def _coarse_pipe(world, n_vis, bits=2):
    return TablePipeline(n_vis, posterior_embedding(world, n_vis),
                         grid_ae(2), uniform_quantizer(bits))


@pytest.fixture(scope="module")
def world():
    return _small_sweep_world()


class TestTRPopulation:

    def test_bound_holds_across_deltas(self, world):
        from embhist.infotheory import tr_delta_sweep

        reps = tr_delta_sweep(world, _coarse_pipe(world, 1),
                              lambda m2: _lossless_pipe(world, m2), (1, 2, 4))
        prev = -1e18
        for rep in reps:
            assert rep.a3_holds
            assert rep.bound_applicable
            assert rep.tr_pop >= rep.tr_lb - 1e-9
            assert rep.tr_lb >= prev - 1e-12
            prev = rep.tr_lb

    def test_negative_transfer_when_a3_violated(self, world):
        rep = verify_tr_bound_population(
            world, _lossless_pipe(world, 2), _coarse_pipe(world, 3, bits=1)
        )
        assert not rep.a3_holds
        assert rep.eta2 > rep.eta1
        assert rep.tr_pop < 0.0

    def test_initial_launch_nonnegative(self, world):
        rep = verify_tr_bound_population(world, None, _lossless_pipe(world, 3),
                                         m1_features=1)
        assert rep.tr_pop >= -1e-12
        assert rep.tr_pop - max(rep.tr_lb, 0.0) >= -1e-9  # the initial_launch_bound_holds gate

    def test_teacher_must_improve(self):
        # the added feature carries no signal, so the teacher delta is zero
        spec = WorldSpec(
            n_users=4, events_per_user=8,
            vm_cardinalities=(2,), vm_weights=(0.7,),
            extra_cardinalities=(2, 2), extra_weights=(0.8, 0.0),
            beta_temporal=0.4, temporal_window=2, temporal_cap=1,
        )
        world = enumerate_world(spec, n_hist=1)
        with pytest.raises(DomainError):
            verify_tr_bound_population(
                world, _lossless_pipe(world, 1), _lossless_pipe(world, 2)
            )


class TestRemapReferenced:
    def test_world_folds_match_the_full_fold_within_gamma_n(self, monkeypatch):
        """Every world-level fold, taken from the marginal over the variables
        its outputs reference, matches the world table's own row-major fold
        cell by cell within relative gamma_N, N the world's cell count: the
        bound the module docstring states for any summation order."""
        fold, calls = infotheory._remap_referenced, []

        def record(table, outputs):
            # the calling function, past comprehension frames: 3.11 gives a
            # comprehension its own frame, 3.12+ inlines it (PEP 709)
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<"):
                frame = frame.f_back
            calls.append((frame.f_code.co_name, table, list(outputs)))
            return fold(table, outputs)

        monkeypatch.setattr(infotheory, "_remap_referenced", record)
        for k in (3, 6, 9):
            world = enumerate_world(random_enumerable_spec(k), n_hist=2)
            pipe = random_table_pipeline(world, seed=k)
            verify_pipeline(world, pipe)
            verify_monotone_L(world, pipe)
            n_extras = len(world.extra_feature_cards)
            verify_tr_bound_population(world, None, _lossless_pipe(world, n_extras),
                                       m1_features=n_extras - 1)
            if n_extras > 1:
                verify_tr_bound_population(world, _coarse_pipe(world, 1),
                                           _lossless_pipe(world, n_extras))
        # posterior_embedding folds inside its memoized `posterior`
        sites = {"posterior", "_pipeline_report", "verify_monotone_L",
                 "_gap_terms", "_assemble_tr_report"}
        assert {site for site, _, _ in calls} == sites
        marginalized = reordered = 0
        for _, table, outputs in calls:
            n = table.probs.size
            gamma_n = n * 2.0**-53 / (1.0 - n * 2.0**-53)
            got, want = fold(table, outputs), table.remap(outputs)
            assert (got.names, got.cards) == (want.names, want.cards)
            assert np.all(np.abs(got.probs - want.probs) <= gamma_n * want.probs)
            marginalized += got.probs is not want.probs
            reordered += not np.array_equal(got.probs, want.probs)
        assert marginalized > len(calls) // 2 and reordered > 0


def dense_joint(table):
    """Reference joint of a factor table: each factor broadcast onto the
    table's axes and multiplied cell by cell, in np.longdouble."""
    out = np.ones(table.cards, dtype=np.longdouble)
    for f, axes in zip(table._factors[::2], table._factors[1::2]):
        shape = [1] * len(table.cards)
        for a in axes:
            shape[a] = table.cards[a]
        out = out * np.transpose(f, np.argsort(axes)).reshape(shape)
    return out


class TestFactorTables:
    def test_negative_factor_entry_is_numeric_error(self):
        with pytest.raises(NumericError):
            JointTable.from_factors(("a", "b"), (2, 2),
                                    [(("a",), [1.0 + 1e-9, -1e-9]), (("b",), [0.5, 0.5])])

    def test_mass_off_one_is_numeric_error(self):
        def table(off):
            return JointTable.from_factors(
                ("a", "b"), (2, 2),
                [(("a",), [0.25, 0.75]), (("b", "a"), [[0.5, 0.1], [0.5 + off, 0.9]])])

        assert float(table(5e-13).marginal(()).probs) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(NumericError):
            table(1e-11)

    @pytest.mark.parametrize("factors", [
        [(("a",), [0.5, 0.5])],                     # b has no factor
        [(("a",), [0.5, 0.5]), (("b",), [1.0])],    # shape is not b's card
        [(("a", "a"), np.eye(2) / 2), (("b",), [0.5, 0.5])],
    ])
    def test_bad_factor_schema(self, factors):
        with pytest.raises(SchemaError):
            JointTable.from_factors(("a", "b"), (2, 2), factors)

    def test_joint_over_the_cell_budget_is_size_error(self):
        uniform = np.full(10**4, 1e-4)
        with pytest.raises(SizeError):
            JointTable.from_factors(("a", "b"), (10**4, 10**4),
                                    [(("a",), uniform), (("b",), uniform)])

    def test_sweep_and_battery_marginals_match_the_dense_product(self, monkeypatch):
        """Every marginal that the sweep's and the battery's operations read
        from an enumerated world is within relative gamma_{N+k} of the
        world's dense factor product (N cells, k factors): the budget the
        module docstring states for any contraction order."""
        from embhist.pipeline import (
            negative_transfer_example, new_generation_pipe, old_generation_pipe,
            theory_battery,
        )

        marginal, reads = JointTable.marginal, []

        def record(table, names):
            m = marginal(table, names)
            if table._factors is not None and m is not table:
                reads.append((table, m))
            return m

        monkeypatch.setattr(JointTable, "marginal", record)
        world = _small_sweep_world()
        infotheory.tr_delta_sweep(world, old_generation_pipe(world, 1),
                                  lambda m2: new_generation_pipe(world, m2), (1, 2, 4))
        verify_tr_bound_population(world, None, new_generation_pipe(world, 3),
                                   m1_features=1)
        negative_transfer_example(world, new_generation_pipe(world, 2))
        assert {("V1", "E1", "Y1"), ("V", "E", "Y"),
                ("V1", "E1", "V", "Y")} <= {m.names for _, m in reads}
        theory_battery(3, 0)
        dense = {}
        for table, m in reads:
            if id(table) not in dense:
                dense[id(table)] = dense_joint(table)
            drop = tuple(i for i, name in enumerate(table.names) if name not in m.names)
            want = dense[id(table)].sum(axis=drop)
            n = math.prod(table.cards) + len(table._factors) // 2
            gamma = n * 2.0**-53 / (1.0 - n * 2.0**-53)
            assert np.all(np.abs(m.probs - want) <= gamma * want), m.names
        assert len(dense) == 4


class TestPipelineQualityOrdering:
    def test_a3_implies_eta_ordering(self):
        spec = random_enumerable_spec(33)
        world = enumerate_world(spec, n_hist=1)
        n = len(world.extra_feature_cards)
        emb = posterior_embedding(world, n)
        coarse = TablePipeline(n, emb, grid_ae(2), uniform_quantizer(1))
        fine = TablePipeline(n, emb, identity_stage, uniform_quantizer(4))
        rc, rf = verify_pipeline(world, coarse), verify_pipeline(world, fine)
        cross_c = rc.l_repr_cross + rc.l_ae_cross + rc.l_q_cross
        cross_f = rf.l_repr_cross + rf.l_ae_cross + rf.l_q_cross
        assert cross_f <= cross_c + 1e-12  # A3 between this pair
        assert rf.eta <= rc.eta + 1e-9
