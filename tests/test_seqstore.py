from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embhist.errors import ConfigError, DataError, FormatError
from embhist.quantization import CODEC_IDS, Codec, dequantize_batch, payload_matrix, quantize
from embhist.seqstore import (
    EmbeddingRecord, SequenceStore, centroid_drift,
)

DIM = 4
CODEC = Codec("int4_uniform")


def rec(key, ts, values, soft=None):
    return EmbeddingRecord(key, ts, quantize(CODEC, np.asarray(values, float)), soft)


def fresh_store(records=()):
    store = SequenceStore(DIM, CODEC)
    for r in records:
        store.append(r)
    return store


def extended_store(records):
    """The same records as fresh_store, entered by one extend call."""
    store = SequenceStore(DIM, CODEC)
    store.extend([r.key for r in records], [r.timestamp for r in records],
                 [np.nan if r.soft_label is None else r.soft_label for r in records],
                 np.array([np.frombuffer(r.payload.payload, np.uint8) for r in records]),
                 DIM)
    return store


def assert_same_columns(a, b):
    """Equal key, timestamp, soft-label and payload columns, dtypes included
    (a missing soft label is NaN in both)."""
    for name in ("keys", "timestamps", "soft_labels", "payloads"):
        col_a, col_b = getattr(a, name), getattr(b, name)
        assert col_a.dtype == col_b.dtype
        assert np.array_equal(col_a, col_b, equal_nan=name == "soft_labels")


def brute_force_sequence(records, key, t_cur, seq_len, window):
    """Oracle: filter + sort the raw record list."""
    eligible = [
        (r.timestamp, i)
        for i, r in enumerate(records)
        if r.key == key and t_cur - window <= r.timestamp < t_cur
    ]
    eligible.sort()  # ascending (timestamp, insertion counter)
    chosen = eligible[-seq_len:][::-1]
    return [i for _, i in chosen]


class TestAppend:
    def test_count_increases(self):
        store = fresh_store()
        store.append(rec(1, 0, [0.1] * DIM))
        assert len(store) == 1
        store.append(rec(1, 1, [0.2] * DIM))
        assert len(store) == 2

    def test_same_timestamp_both_kept(self):
        store = fresh_store([rec(3, 5, [0.1] * DIM), rec(3, 5, [0.9] * DIM)])
        assert len(store) == 2
        seq = store.build_sequence(3, 6, seq_len=5, window=10)
        assert seq.length == 2
        # later-inserted-first on ties
        assert seq.entries[0, 0] == pytest.approx(0.875)
        assert seq.entries[1, 0] == pytest.approx(0.125)

    def test_dim_mismatch(self):
        store = fresh_store()
        bad = EmbeddingRecord(1, 0, quantize(CODEC, np.zeros(DIM + 1)))
        with pytest.raises(FormatError):
            store.append(bad)

    def test_appends_match_extend(self, tmp_path):
        rng = np.random.default_rng(3)
        records = [rec(int(rng.integers(0, 9)), int(rng.integers(0, 50)),
                       rng.uniform(-1, 1, DIM), soft=[None, 0.5][i % 2])
                   for i in range(3000)]
        store = fresh_store()
        for r in records:
            store.append(r)
            assert not store.keys.flags.writeable and not store.payloads.flags.writeable
        appended, extended = tmp_path / "appended.lfsq", tmp_path / "extended.lfsq"
        store.persist(appended)
        extended_store(records).persist(extended)
        assert appended.read_bytes() == extended.read_bytes()

    def test_frozen_store_rejects_appends(self):
        store = fresh_store([rec(1, 0, [0.0] * DIM)])
        store.freeze()
        with pytest.raises(ConfigError):
            store.append(rec(1, 1, [0.0] * DIM))


class TestExtend:
    def test_matches_appends(self):
        rng = np.random.default_rng(8)
        records = [rec(int(rng.integers(0, 5)), int(rng.integers(0, 20)),
                       rng.uniform(-1, 1, DIM), soft=[None, 0.25][i % 2])
                   for i in range(30)]
        store = extended_store(records)
        assert len(store) == len(records)
        assert_same_columns(store, fresh_store(records))
        for key in range(5):
            a = store.build_sequence(key, 15, 4, 10)
            b = fresh_store(records).build_sequence(key, 15, 4, 10)
            assert np.array_equal(a.entries, b.entries)
            assert np.array_equal(a.timestamps, b.timestamps)

    @pytest.mark.parametrize("change", [
        dict(keys=[-1]), dict(timestamps=[-1]), dict(soft_labels=[1.5]),
        dict(soft_labels=[-0.1]), dict(dim=DIM + 1),
        dict(payloads=np.zeros((1, 3), np.uint8)),
    ])
    def test_rejects_bad_rows(self, change):
        args = dict(keys=[1], timestamps=[0], soft_labels=[0.5],
                    payloads=np.zeros((1, CODEC.payload_size(DIM)), np.uint8), dim=DIM)
        args.update(change)
        store = fresh_store()
        with pytest.raises(FormatError):
            store.extend(**args)
        assert len(store) == 0

    def test_frozen_store_rejects_extend(self):
        store = fresh_store()
        store.freeze()
        with pytest.raises(ConfigError):
            store.extend([1], [0], [0.5], np.zeros((1, 2), np.uint8), DIM)

    def test_columns_read_only(self):
        store = fresh_store([rec(1, 0, [0.1] * DIM)])
        with pytest.raises(ValueError):
            store.keys[0] = 2


class TestBuildSequence:
    def test_record_at_t_cur_excluded(self):
        store = fresh_store([rec(1, 10, [0.5] * DIM)])
        assert store.build_sequence(1, 10, 5, 100).length == 0
        assert store.build_sequence(1, 11, 5, 100).length == 1

    def test_cold_start_empty(self):
        store = fresh_store()
        seq = store.build_sequence(42, 10, 5, 100)
        assert seq.length == 0
        assert not seq.mask.any()
        assert np.all(seq.entries == 0.0)

    def test_truncates_to_most_recent(self):
        records = [rec(1, t, [t / 10.0] * DIM) for t in range(7)]
        store = fresh_store(records)
        seq = store.build_sequence(1, 100, 5, 1000)
        assert seq.length == 5
        assert list(seq.timestamps[:5]) == [6, 5, 4, 3, 2]

    def test_retention_window(self):
        records = [rec(1, t, [0.1] * DIM) for t in range(10)]
        store = fresh_store(records)
        seq = store.build_sequence(1, 10, 20, window=3)
        assert list(seq.timestamps[: seq.length]) == [9, 8, 7]

    def test_validation(self):
        store = fresh_store()
        with pytest.raises(ConfigError):
            store.build_sequence(1, 10, 0, 10)
        with pytest.raises(ConfigError):
            store.build_sequence(1, 10, 5, 0)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        records = []
        for _ in range(400):
            records.append(
                rec(int(rng.integers(0, 12)), int(rng.integers(0, 50)),
                    rng.uniform(-1, 1, DIM))
            )
        store = fresh_store(records)
        for _ in range(2000):
            key = int(rng.integers(0, 14))
            t_cur = int(rng.integers(0, 55))
            seq_len = int(rng.integers(1, 9))
            window = int(rng.integers(1, 60))
            want = brute_force_sequence(records, key, t_cur, seq_len, window)
            got = store.build_sequence(key, t_cur, seq_len, window)
            assert got.length == len(want)
            for i, ridx in enumerate(want):
                assert np.array_equal(got.entries[i], stored_values(records[ridx]))
                assert got.timestamps[i] == records[ridx].timestamp


CODECS = {kind: Codec(kind, tuple(np.linspace(-0.9, 0.9, 16)) if kind == "int4_kmeans"
                      else None) for kind in CODEC_IDS}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(CODECS)), dim=st.integers(1, 5), seed=st.integers(0, 2**32),
       # few keys and timestamps: equal timestamps are common
       rows=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 6)), max_size=30),
       # keys 4 and 5 are never stored; windows 1-8 cut histories of up to 7 steps
       queries=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 8), st.integers(1, 4),
                                  st.integers(1, 8)), min_size=1, max_size=8))
def test_sequences_are_the_decoded_payload_rows(tmp_path_factory, kind, dim, seed, rows,
                                                queries):
    """For every codec, a sequence's entries are the oracle's rows of
    dequantize_batch over the whole payload matrix, bit for bit, and a
    persisted and reloaded store returns the same sequences."""
    codec = CODECS[kind]
    z = np.random.default_rng(seed).uniform(-1.2, 1.2, (len(rows), dim))
    store = SequenceStore(dim, codec)
    store.extend([k for k, _ in rows], [t for _, t in rows], [np.nan] * len(rows),
                 payload_matrix(codec, z), dim)
    store.freeze()
    values = dequantize_batch(codec, store.payloads, dim)
    path = tmp_path_factory.mktemp("store") / "store.lfsq"
    store.persist(path)
    loaded = SequenceStore.load(path)
    records = [SimpleNamespace(key=k, timestamp=t) for k, t in rows]
    for key, t_cur, seq_len, window in queries:
        want = brute_force_sequence(records, key, t_cur, seq_len, window)
        got = store.build_sequence(key, t_cur, seq_len, window)
        assert type(got.length) is int and got.length == len(want)
        assert got.entries[: got.length].tobytes() == values[want].tobytes()
        assert not got.entries[got.length :].any()
        again = loaded.build_sequence(key, t_cur, seq_len, window)
        assert again.length == got.length
        for name in ("entries", "mask", "timestamps"):
            assert getattr(again, name).tobytes() == getattr(got, name).tobytes()


def stored_values(record):
    from embhist.quantization import dequantize

    return dequantize(CODEC, record.payload)


class TestPersistence:
    def test_empty_round_trip(self, tmp_path):
        store = fresh_store()
        path = tmp_path / "empty.lfsq"
        store.persist(path)
        loaded = SequenceStore.load(path)
        assert len(loaded) == 0
        assert loaded.dim == DIM

    def test_round_trip_preserves_queries(self, tmp_path):
        rng = np.random.default_rng(4)
        records = [
            rec(int(rng.integers(0, 6)), int(rng.integers(0, 30)),
                rng.uniform(-1, 1, DIM), soft=float(rng.uniform()))
            for _ in range(200)
        ]
        store = fresh_store(records)
        path = tmp_path / "store.lfsq"
        store.persist(path)
        loaded = SequenceStore.load(path)
        assert len(loaded) == len(store)
        for key in range(6):
            for t_cur in (0, 7, 29, 31):
                a = store.build_sequence(key, t_cur, 6, 12)
                b = loaded.build_sequence(key, t_cur, 6, 12)
                assert a.length == b.length
                assert np.array_equal(a.entries, b.entries)
                assert np.array_equal(a.timestamps, b.timestamps)

    def test_persist_load_persist_byte_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        records = [
            rec(int(rng.integers(0, 4)), int(rng.integers(0, 9)),
                rng.uniform(-1, 1, DIM))
            for _ in range(60)
        ]
        store = fresh_store(records)
        p1, p2 = tmp_path / "a.lfsq", tmp_path / "b.lfsq"
        store.persist(p1)
        SequenceStore.load(p1).persist(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lfsq"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            SequenceStore.load(path)

    def test_truncation_reports_offset(self, tmp_path):
        store = fresh_store([rec(1, 0, [0.1] * DIM)])
        path = tmp_path / "trunc.lfsq"
        store.persist(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(FormatError, match="truncated|offset"):
            SequenceStore.load(path)

    def test_corrupt_payload_names_record(self, tmp_path):
        records = [rec(1, t, [0.3] * DIM) for t in range(5)]
        store = fresh_store(records)
        path = tmp_path / "corrupt.lfsq"
        store.persist(path)
        blob = bytearray(path.read_bytes())
        # header: 4 magic + 10 fixed + 8 count; record: 8+8+1+payload+4crc
        payload_len = CODEC.payload_size(DIM)
        rec_size = 8 + 8 + 1 + payload_len + 4
        header = 22
        target = header + 2 * rec_size + 17 + 1  # payload byte of record 2
        blob[target] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="record 2"):
            SequenceStore.load(path)

    @pytest.mark.parametrize("codec", [
        Codec("fp32"), Codec("int8_uniform"), Codec("int4_uniform"),
        Codec("int4_kmeans", tuple(np.linspace(-0.9, 0.9, 16))),
    ], ids=lambda c: c.kind)
    def test_truncation_at_every_offset_is_format_error(self, tmp_path, codec):
        store = SequenceStore(3, codec)
        for t, soft in enumerate((0.5, None, 1.0)):
            store.append(EmbeddingRecord(t % 2, t, quantize(codec, np.full(3, 0.3 * t)), soft))
        path = tmp_path / "s.lfsq"
        store.persist(path)
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(FormatError, match="offset"):
                SequenceStore.load(path)

    def test_quantized_payloads_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        records = [rec(0, t, rng.uniform(-1, 1, DIM)) for t in range(50)]
        store = fresh_store(records)
        path = tmp_path / "payload.lfsq"
        store.persist(path)
        loaded = SequenceStore.load(path)
        assert np.array_equal(loaded.payloads, store.payloads)
        assert [row.tobytes() for row in loaded.payloads] == [r.payload.payload for r in records]


class TestCentroidDrift:
    def test_identical_stores_zero(self):
        records = [rec(1, t, [0.2, -0.4, 0.6, 0.0]) for t in range(5)]
        a, b = fresh_store(records), fresh_store(records)
        assert centroid_drift(a.dequantized(), b.dequantized()) == 0.0

    def test_constant_shift(self):
        base = [np.full(DIM, 0.1), np.full(DIM, 0.3)]
        shift = 0.25  # exactly two int4 steps
        a = fresh_store([rec(1, t, v) for t, v in enumerate(base)])
        b = fresh_store([rec(1, t, v + shift) for t, v in enumerate(base)])
        assert centroid_drift(a.dequantized(), b.dequantized()) == pytest.approx(
            np.sqrt(DIM) * shift, abs=1e-12)

    def test_empty_store_rejected(self):
        with pytest.raises(DataError):
            centroid_drift(fresh_store().dequantized(),
                           fresh_store([rec(1, 0, [0.0] * DIM)]).dequantized())
