"""The columnar event log against per-event reference implementations.

The oracles below are the scalar per-user generator and the per-sample
history and batch builders the columnar code replaced; the vectorized
paths must reproduce them exactly.
"""

from dataclasses import replace

import numpy as np
import pytest

from embhist.models import (
    EXTRA_OWNER, VM_OWNER, FeatureSchema, history_index, make_fm_batch, make_vm_batch,
    schema_ids,
)
from embhist.pipeline import _subschema, delta_sweep_world
from embhist.prng import Stream, derive_seed
from embhist.seqstore import SequenceFeature
from embhist.synthworld import (
    EventLog, WorldSpec, default_verification_spec, generate,
    random_enumerable_spec, true_probability,
)

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def oracle_generate(spec: WorldSpec, seed: int):
    """Per-user, per-event scalar generator; columns in log order."""
    cards = spec.vm_cardinalities + spec.extra_cardinalities
    uniform = tuple(np.full(c, 1.0 / c) for c in cards)
    given = (spec.vm_feature_probs or uniform[: len(spec.vm_cardinalities)]) \
        + (spec.extra_feature_probs or uniform[len(spec.vm_cardinalities):])
    cums = [np.cumsum(np.asarray(p, dtype=np.float64)) for p in given]
    m_vm, t_count = len(spec.vm_cardinalities), spec.events_per_user
    per_user = []
    for user in range(spec.n_users):
        stream = Stream(derive_seed(seed, "user", user))
        u_feat = stream.uniforms(t_count * len(cards)).reshape(t_count, -1)
        u_label = stream.uniforms(t_count)
        history, events = [], []
        for t in range(t_count):
            values = tuple(int(np.searchsorted(cums[j], u_feat[t, j], side="right"))
                           for j in range(len(cards)))
            pos = sum(history[-spec.temporal_window:])
            p = true_probability(spec, values[:m_vm], values[m_vm:], pos)
            label = int(u_label[t] < p)
            history.append(label)
            events.append((user, t, spec.chunk_of(t), values, label, p))
        per_user.append(events)
    rows = [per_user[u][t] for t in range(t_count) for u in range(spec.n_users)]
    keys, stamps, chunks, ids, labels, true_p = zip(*rows)
    return (np.array(keys), np.array(stamps), np.array(chunks), np.array(ids),
            np.array(labels), np.array(true_p))


def oracle_values(schema, sample):
    out = {}
    for j, f in enumerate(f for f in schema.features if f.owner == VM_OWNER):
        out[f.name] = sample.vm_values[j]
    for j, f in enumerate(f for f in schema.features if f.owner == EXTRA_OWNER):
        out[f.name] = sample.extra_values[j]
    return out


def oracle_histories(samples, history_len):
    by_user, out = {}, []
    for s in samples:
        past = by_user.setdefault(s.key, [])
        out.append(past[-history_len:])
        past.append(s)
    return out


def oracle_fm_batch(schema, samples, histories, history_len):
    b = len(samples)
    # batch ids are int32 (schema_ids), and so are the oracle's
    ids = {f.name: np.array([oracle_values(schema, s)[f.name] for s in samples],
                            dtype=np.int32) for f in schema.features}
    hist_ids = {f.name: np.zeros((b, history_len), dtype=np.int32) for f in schema.features}
    mask = np.zeros((b, history_len), dtype=bool)
    for i, hist in enumerate(histories):
        for t, ev in enumerate(list(hist)[-history_len:]):
            vals = oracle_values(schema, ev)
            for f in schema.features:
                hist_ids[f.name][i, t] = vals[f.name]
            mask[i, t] = True
    labels = np.array([[float(s.label)] for s in samples])
    return ids, hist_ids, mask, labels


def assert_same_ids(got: np.ndarray, want: dict):
    """`got`'s last axis holds the columns of `want`, in its order."""
    assert got.shape[-1] == len(want)
    for j, name in enumerate(want):
        assert got[..., j].dtype == want[name].dtype
        assert np.array_equal(got[..., j], want[name]), name


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

SKEWED = WorldSpec(
    n_users=40, events_per_user=24,
    vm_cardinalities=(3, 2), vm_weights=(0.9, -0.4),
    extra_cardinalities=(4,), extra_weights=(1.2,),
    vm_feature_probs=((0.6, 0.3, 0.1), (0.25, 0.75)),
    extra_feature_probs=((0.1, 0.2, 0.3, 0.4),),
    temporal_window=5, temporal_cap=3, beta_temporal=0.5, label_noise=0.15,
)

WORLDS = {
    "skewed_noisy": (SKEWED, 4),
    "label_noise": (replace(WorldSpec(n_users=24, events_per_user=32), label_noise=0.2), 2),
    "random_enumerable": (random_enumerable_spec(5), 5),
    "verification": (default_verification_spec(), 0),
    "delta_sweep": (replace(delta_sweep_world(), seed=1, n_users=40), 1),
}


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_generate_matches_scalar_oracle(name):
    spec, seed = WORLDS[name]
    keys, stamps, chunks, ids, labels, true_p = oracle_generate(spec, seed)
    log = generate(spec, seed)
    assert np.array_equal(log.keys, keys)
    assert np.array_equal(log.timestamps, stamps)
    assert np.array_equal(log.chunks, chunks)
    assert np.array_equal(log.ids, ids)
    assert np.array_equal(log.labels, labels)
    assert (log.true_p == true_p).all()


def test_event_log_columns_read_only():
    log = generate(SKEWED, 0)
    with pytest.raises(ValueError):
        log.ids[0, 0] = 1
    assert len(log.samples) == len(log.labels)


# ---------------------------------------------------------------------------
# teacher and student batches
# ---------------------------------------------------------------------------


def crafted_log() -> EventLog:
    """Interleaved users with 1, 2, 3 and 7 events, keys out of order."""
    keys = [9, 4, 9, 2, 9, 4, 9, 9, 7, 9, 4, 9]
    spec = WorldSpec(n_users=4, events_per_user=8, vm_cardinalities=(3, 2),
                     vm_weights=(0.5, 0.5), extra_cardinalities=(2, 3),
                     extra_weights=(0.5, 0.5))
    rng = np.random.default_rng(11)
    n = len(keys)
    ids = np.stack([rng.integers(0, c, n) for c in (3, 2, 2, 3)], axis=1)
    return EventLog(spec=spec, keys=keys, timestamps=np.arange(n), chunks=np.arange(n) % 8,
                    ids=ids, labels=rng.integers(0, 2, n), true_p=np.full(n, np.nan))


CASES = {
    "generated": lambda: (generate(SKEWED, 3), (0, 5, 39, 40, 41, 400, 959)),
    "crafted": lambda: (crafted_log(), tuple(range(12))),
}


@pytest.mark.parametrize("history_len", [1, 3, 8])
@pytest.mark.parametrize("case", sorted(CASES))
def test_fm_batch_matches_per_sample_oracle(case, history_len):
    log, rows = CASES[case]()
    schema = FeatureSchema.from_world(log.spec)
    samples = log.samples
    hists = oracle_histories(samples, history_len)
    want_ids, want_hist, want_mask, want_labels = oracle_fm_batch(
        schema, [samples[i] for i in rows], [hists[i] for i in rows], history_len)
    batch = make_fm_batch(schema, schema_ids(schema, log), log.labels, np.array(rows),
                          history_index(log.keys, history_len, np.array(rows)))
    assert_same_ids(batch.ids, want_ids)
    assert_same_ids(batch.hist_ids, want_hist)
    assert np.array_equal(batch.hist_mask, want_mask)
    assert batch.labels.dtype == want_labels.dtype
    assert np.array_equal(batch.labels, want_labels)


def test_history_index_on_all_rows():
    log = crafted_log()
    rows, mask = history_index(log.keys, 3, np.arange(len(log.keys)))
    for i, past in enumerate(oracle_histories(log.samples, 3)):
        assert mask[i].sum() == len(past)
        got = [log.timestamps[r] for r in rows[i, : len(past)]]
        assert got == [s.timestamp for s in past]


def test_history_index_of_rows_is_their_rows_of_the_whole_log():
    log = generate(SKEWED, 1)
    every = history_index(log.keys, 5, np.arange(len(log.keys)))
    rows = np.array([700, 3, 3, 0, len(log.keys) - 1, 41])  # any order, repeats too
    got = history_index(log.keys, 5, rows)
    assert all(g.dtype == e.dtype and np.array_equal(g, e[rows]) for g, e in zip(got, every))


def test_prefix_schema_reads_leading_extra_columns():
    # a teacher over the first 3 of 9 extras, as in the delta sweep
    world = replace(delta_sweep_world(), seed=0, n_users=8)
    log = generate(world, 0)
    schema = _subschema(world, 3)
    rows = np.arange(0, len(log.labels), 7)
    hists = oracle_histories(log.samples, 4)
    want_ids, want_hist, _, _ = oracle_fm_batch(
        schema, [log.samples[i] for i in rows], [hists[i] for i in rows], 4)
    batch = make_fm_batch(schema, schema_ids(schema, log), log.labels, rows,
                          history_index(log.keys, 4, rows))
    assert_same_ids(batch.ids, want_ids)
    assert_same_ids(batch.hist_ids, want_hist)


@pytest.mark.parametrize("n_extras", [None, 3])
def test_schema_ids_is_a_view_of_the_log(n_extras):
    # the default schema reads every column, a delta-sweep teacher a prefix
    world = replace(delta_sweep_world(), seed=0, n_users=8)
    log = generate(world, 0)
    schema = FeatureSchema.from_world(world) if n_extras is None else _subschema(world, n_extras)
    ids = schema_ids(schema, log)
    assert np.shares_memory(ids, log.ids)
    assert ids.shape == (len(log.labels), schema.m_k) and ids.dtype == np.int32


def test_vm_batch_matches_per_sample_oracle():
    log = generate(SKEWED, 1)
    schema = FeatureSchema.from_world(SKEWED)
    rows = np.array([3, 17, 200, 500])
    rng = np.random.default_rng(2)
    seqs = []
    for length in (0, 2, 5, None):
        if length is None:
            seqs.append(None)
            continue
        seq = SequenceFeature(np.zeros((5, 3)), np.arange(5) < length,
                              np.full(5, -1, dtype=np.int64), length)
        seq.entries[:length] = rng.uniform(-1, 1, (length, 3))
        seqs.append(seq)
    soft = rng.uniform(0.05, 0.95, 4)
    batch = make_vm_batch(schema, schema_ids(schema, log), log.labels, rows, seqs, soft,
                          seq_len=5, seq_dim=3)
    chosen = [log.samples[i] for i in rows]
    assert_same_ids(batch.ids, {
        f.name: np.array([oracle_values(schema, s)[f.name] for s in chosen], dtype=np.int32)
        for f in schema.vm_features
    })
    assert np.array_equal(batch.labels, np.array([[float(s.label)] for s in chosen]))
    assert np.array_equal(batch.soft_labels, soft[:, None])
    assert batch.seq_mask.sum(axis=1).tolist() == [0, 2, 5, 0]
    for i, seq in enumerate(seqs):
        want = np.zeros((5, 3))
        if seq is not None:
            want[: seq.length] = seq.entries[: seq.length]
        assert np.array_equal(batch.seq_entries[i], want)
