import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embhist import quantization
from embhist.errors import DataError, FormatError
from embhist.prng import Stream, derive_seed, uniform_array
from embhist.quantization import (
    Codec, QuantizedVec, _nearest, _sorted_nearest, dequantize, dequantize_batch,
    fit_kmeans_int4, payload_matrix, quantize, reconstruction_mse,
)

UNIFORM_MIDPOINTS = tuple((2 * k + 1 - 16) / 16 for k in range(16))


INT4 = Codec("int4_uniform")


def pack_codes(codes) -> bytes:
    """Payload of signed int4 codes in [-8, 7], through the batch codec."""
    return payload_matrix(INT4, np.asarray(codes, dtype=float)[None, :] / 8)[0].tobytes()


def unpack_codes(data: bytes, dim: int) -> np.ndarray:
    return dequantize_batch(INT4, np.frombuffer(data, dtype=np.uint8)[None, :], dim)[0] * 8


class TestNibbles:
    def test_layout(self):
        # low nibble holds the even-indexed code, offset by 8
        assert pack_codes([-8, 7]) == bytes([0xF0])

    def test_odd_dim_pads(self):
        data = pack_codes([3])
        assert data == bytes([3 + 8])  # high (padding) nibble is zero
        assert np.array_equal(unpack_codes(data, 1), [3])

    @given(st.lists(st.integers(-8, 7), min_size=1, max_size=1000))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, codes):
        arr = np.array(codes)
        assert np.array_equal(unpack_codes(pack_codes(arr), len(arr)), arr)


class TestUniformCodecs:
    def test_int4_zero(self):
        codec = Codec("int4_uniform")
        assert dequantize(codec, quantize(codec, np.zeros(3)))[0] == 0.0

    def test_int4_clamp_region(self):
        codec = Codec("int4_uniform")
        out = dequantize(codec, quantize(codec, np.array([0.99])))
        assert out[0] == 0.875  # round(7.92)=8, clamped to 7, then /8

    def test_code7(self):
        codec = Codec("int4_uniform")
        q = quantize(codec, np.array([0.875]))
        assert dequantize(codec, q)[0] == 0.875

    def test_fp32_identity_within_storage(self):
        codec = Codec("fp32")
        z = np.random.default_rng(0).uniform(-1, 1, 33)
        out = dequantize(codec, quantize(codec, z))
        assert np.allclose(out, z, atol=1e-7)
        assert np.array_equal(out, z.astype("<f4").astype(np.float64))

    def test_int8_resolution(self):
        codec = Codec("int8_uniform")
        z = np.random.default_rng(1).uniform(-1, 1, 100)
        out = dequantize(codec, quantize(codec, z))
        assert np.max(np.abs(out - z)) <= 0.5 / 127 + 1e-12

    def test_truncated_payload(self):
        codec = Codec("int4_uniform")
        q = quantize(codec, np.zeros(8))
        with pytest.raises(FormatError):
            dequantize(codec, QuantizedVec(q.codec_id, 8, q.payload[:-1]))

    def test_payload_sizes(self):
        for dim in (1, 2, 7, 8, 31, 32, 33):
            assert len(quantize(Codec("int4_uniform"), np.zeros(dim)).payload) == (dim + 1) // 2
            assert len(quantize(Codec("int8_uniform"), np.zeros(dim)).payload) == dim
            assert len(quantize(Codec("fp32"), np.zeros(dim)).payload) == 4 * dim

    def test_exhaustive_grid_error_bound(self):
        codec = Codec("int4_uniform")
        z = np.arange(-1.0, 1.0 + 1e-9, 1e-4)
        out = dequantize_batch(codec, payload_matrix(codec, z[None, :]), len(z))[0]
        err = np.abs(out - z)
        inner = z <= 0.9375
        assert err[inner].max() <= 1 / 16 + 1e-12
        assert err[~inner].max() <= 1 / 8 + 1e-12

    def test_idempotence_all_codecs(self):
        rng = np.random.default_rng(7)
        cb = tuple(sorted(rng.uniform(-1, 1, 16)))
        for codec in (Codec("fp32"), Codec("int8_uniform"), Codec("int4_uniform"),
                      Codec("int4_kmeans", cb)):
            z = rng.uniform(-1.2, 1.2, 64)  # includes out-of-range values
            q1 = quantize(codec, z)
            q2 = quantize(codec, dequantize(codec, q1))
            assert q1.payload == q2.payload


class TestKMeansCodec:
    def test_boundary_assignment(self):
        codec = Codec("int4_kmeans", UNIFORM_MIDPOINTS)
        q = quantize(codec, np.array([-1.0]))
        assert dequantize(codec, q)[0] == UNIFORM_MIDPOINTS[0]

    def test_exact_16_values(self):
        values = np.linspace(-0.9, 0.9, 16)
        samples = np.tile(values, 30)
        codec, history = fit_kmeans_int4(samples, iters=30, seed=0)
        assert np.allclose(sorted(codec.codebook), values, atol=1e-12)
        assert history[-1] == pytest.approx(0.0, abs=1e-20)

    def test_needs_16_distinct(self):
        with pytest.raises(DataError):
            fit_kmeans_int4(np.repeat(np.linspace(0, 1, 10), 5))

    def test_sse_monotone_and_beats_uniform_grid(self):
        rng = np.random.default_rng(11)
        samples = rng.uniform(-1, 1, 10_000)
        codec, history = fit_kmeans_int4(samples, iters=120, seed=3)
        assert all(a >= b - 1e-9 for a, b in zip(history, history[1:]))
        mse_kmeans = reconstruction_mse(codec, samples)
        mse_grid = reconstruction_mse(Codec("int4_uniform"), samples)
        assert mse_kmeans <= mse_grid

    def test_tanh_shaped_beats_uniform(self):
        rng = np.random.default_rng(5)
        samples = np.tanh(rng.normal(0, 1, 20_000))
        codec, _ = fit_kmeans_int4(samples, iters=40, seed=1)
        assert reconstruction_mse(codec, samples) < reconstruction_mse(
            Codec("int4_uniform"), samples
        )

    def test_codebook_sorted_strictly(self):
        rng = np.random.default_rng(9)
        codec, _ = fit_kmeans_int4(np.tanh(rng.normal(0, 0.8, 5000)), seed=2)
        assert np.all(np.diff(codec.codebook) > 0)

    def test_default_size_pool_fits_lean_and_unchanged(self):
        # 98,304 samples, as many as the default store's codec pool (3,072
        # rows x 32 dims): the fit peaks under 6.0 MiB, where its
        # whole-array version took 6.8, and returns that version's codebook
        # and SSE history bit for bit (float.hex values recorded from it)
        u = uniform_array(3, 98_304)
        pool = u * u * u * 2.0 - 1.0
        tracemalloc.start()
        try:
            codec, history = fit_kmeans_int4(pool, iters=40, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.0 * 2**20
        assert [c.hex() for c in codec.codebook] == [
            "-0x1.fa1b93b3296b6p-1", "-0x1.d6a88cf685550p-1", "-0x1.aa833077abf91p-1",
            "-0x1.79750911c093fp-1", "-0x1.4450ea1fccb84p-1", "-0x1.0d3d07ce92754p-1",
            "-0x1.a9759fa7675e2p-2", "-0x1.33e70a6e32cd5p-2", "-0x1.751b85f964f9ep-3",
            "-0x1.c1e9a013762bcp-5", "0x1.610706910a1e3p-4", "0x1.e0e6c456d8ceap-3",
            "0x1.90f0f1cfce599p-2", "0x1.1e243a7ff1554p-1", "0x1.75e6025a5323ep-1",
            "0x1.d0ed8e2805be6p-1"]
        assert (len(history), history[0].hex(), history[-1].hex()) == (
            41, "0x1.16d456f4c56d6p+8", "0x1.774a5fd2f8a35p+6")
        assert hashlib.sha256(" ".join(h.hex() for h in history).encode()).hexdigest() == (
            "5184e9492866fbde6338993097930e834628c291945d646ee0ec08e47d39225c")

    def test_ties_take_lower_index(self):
        codec = Codec("int4_kmeans", UNIFORM_MIDPOINTS)
        # exactly between centers 0 and 1
        mid = 0.5 * (UNIFORM_MIDPOINTS[0] + UNIFORM_MIDPOINTS[1])
        q = quantize(codec, np.array([mid]))
        assert dequantize(codec, q)[0] == UNIFORM_MIDPOINTS[0]


EPS = np.finfo(np.float64).eps


@st.composite
def assignment_cases(draw):
    """(samples, 16 centers): centers spread out, with duplicates, a few ulps
    apart, or a few eps*scale apart around the exactness limit; samples at
    random, at every center, and at and next to each midpoint."""
    scale = 2.0 ** draw(st.integers(-6, 6))
    mode = draw(st.sampled_from(["spread", "duplicates", "ulps", "near_limit"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centers = rng.uniform(-scale, scale, 16)
    if mode == "duplicates":
        centers[rng.integers(0, 16, 4)] = centers[rng.integers(0, 16, 4)]
    elif mode == "ulps":
        steps = [centers[0]]
        for k in rng.integers(0, 4, 15):
            steps.append(steps[-1])
            for _ in range(k):
                steps[-1] = np.nextafter(steps[-1], np.inf)
        centers = np.array(steps)
    elif mode == "near_limit":
        gap = draw(st.integers(2, 9)) * EPS * scale
        centers = rng.uniform(-scale / 2, scale / 2) + gap * np.arange(16)
    rng.shuffle(centers)
    ordered = np.sort(centers)
    mids = (ordered[:-1] + ordered[1:]) / 2
    drawn = draw(st.lists(st.floats(-scale, scale), max_size=40))
    x = np.concatenate([np.array(drawn, dtype=np.float64), rng.uniform(-scale, scale, 100),
                        centers, mids, np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf)])
    return rng.permutation(x), centers


def reference_fit(samples, iters, seed):
    """fit_kmeans_int4 as one masked pass per center: assignments from
    _nearest, each mean over x[assign == k]."""
    x = np.asarray(samples, dtype=np.float64).ravel()
    uniq = np.unique(x)
    stream = Stream(derive_seed(seed, "kmeanspp"))
    centers = np.empty(16)
    centers[0] = x[stream.randint(len(x))]
    d2 = (x - centers[0]) ** 2
    for k in range(1, 16):
        if d2.sum() <= 0.0:
            centers[k] = np.setdiff1d(uniq, centers[:k])[0]
        else:
            cumulative = np.cumsum(d2)
            centers[k] = x[np.searchsorted(cumulative, stream.uniform() * cumulative[-1],
                                           side="right")]
        d2 = np.minimum(d2, (x - centers[k]) ** 2)
    history = []
    for _ in range(iters):
        assign = _nearest(x, centers)
        err = (x - centers[assign]) ** 2
        history.append(float(err.sum()))
        new_centers = centers.copy()
        for k in range(16):
            members = x[assign == k]
            if len(members):
                new_centers[k] = members.mean()
            else:
                far = int(err.argmax())
                new_centers[k] = x[far]
                err[far] = 0.0
        if np.array_equal(new_centers, centers):
            break
        centers = new_centers
    history.append(float(((x - centers[_nearest(x, centers)]) ** 2).sum()))
    centers = np.sort(centers)
    if not np.all(np.diff(centers) > 0):
        centers = np.unique(centers)
        fill = np.setdiff1d(uniq, centers)
        centers = np.sort(np.concatenate([centers, fill[: 16 - len(centers)]]))
    return tuple(float(c) for c in centers), history


class TestSortOnceLloyd:
    @given(assignment_cases())
    @settings(max_examples=400, deadline=None)
    def test_sorted_assignment_equals_nearest(self, case):
        x, centers = case
        perm = np.argsort(x, kind="stable")
        scale = float(np.abs(x).max())
        got = _sorted_nearest(x[perm], perm, centers, scale)
        limit = 4 * EPS * max(scale, np.abs(centers).max())
        if np.diff(np.sort(centers)).min() > limit:
            assert got is not None  # the sort-once path is taken wherever it is exact
        if got is not None:
            assert np.array_equal(got, _nearest(x, centers))

    @pytest.mark.parametrize("kind", ["uniform", "tanh", "rounded", "grid", "clustered"])
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(16, 3000),
           iters=st.integers(1, 40))
    @settings(max_examples=20, deadline=None)
    def test_fit_equals_per_center_loop(self, kind, seed, n, iters):
        rng = np.random.default_rng(seed)
        x = {"uniform": lambda: rng.uniform(-1, 1, n),
             "tanh": lambda: np.tanh(rng.normal(0, 1, n)),
             "rounded": lambda: np.round(rng.normal(0, 1, n), 2),
             "grid": lambda: np.resize(np.linspace(-0.9, 0.9, 16), n),
             "clustered": lambda: rng.normal(0, 1, n) * 1e-9 + rng.integers(0, 20, n)}[kind]()
        if len(np.unique(x)) < 16:
            return
        codec, history = fit_kmeans_int4(x, iters=iters, seed=seed % 97)
        assert (codec.codebook, history) == reference_fit(x, iters, seed % 97)

    def test_fit_off_the_sort_path_is_unchanged(self, monkeypatch):
        # centers too close for the sort are assigned by _nearest, and each
        # mean then takes its members by mask; force that path throughout
        x = np.tanh(np.random.default_rng(4).normal(0, 1, 2000))
        codec, history = fit_kmeans_int4(x, iters=20, seed=5)
        monkeypatch.setattr(quantization, "_sorted_nearest", lambda *args: None)
        assert fit_kmeans_int4(x, iters=20, seed=5) == (codec, history)
        assert (codec.codebook, history) == reference_fit(x, 20, 5)

    def test_zero_mass_pick(self, monkeypatch):
        # spaced 1e-170 apart, every squared distance underflows to 0: after
        # the first center no mass is left to draw by, so each later center
        # is the smallest unused value
        x = np.arange(20) * 1e-170
        assert not ((x - x[:, None]) ** 2).any()
        draws, uniform = [], Stream.uniform
        monkeypatch.setattr(Stream, "uniform", lambda self: draws.append(1) or uniform(self))
        codec, history = fit_kmeans_int4(x, iters=5, seed=3)
        assert len(draws) == 1  # the first center's
        assert (codec.codebook, history) == reference_fit(x, 5, 3)

    def test_empty_cluster_reseed(self, monkeypatch):
        # the mean of three 0.1s rounds up to the next double, which is also
        # a sample and so a center: the two centers tie, the higher one is
        # left empty, and it is reseeded to the sample farthest from its center
        x = np.concatenate([[0.1] * 3, [np.nextafter(0.1, 1)], np.arange(1.0, 15.0)])
        assert x[:3].mean() == x[3]
        counts, nearest = [], quantization._nearest
        monkeypatch.setattr(quantization, "_nearest", lambda *args: (
            lambda assign: counts.append(np.bincount(assign, minlength=16)) or assign)(
                nearest(*args)))
        codec, history = fit_kmeans_int4(x, iters=4, seed=0)
        assert any((c == 0).any() for c in counts[:-1])  # the last call ends the fit
        assert (codec.codebook, history) == reference_fit(x, 4, 0)

    def test_sse_alternates_when_a_mean_rounds_onto_a_center(self):
        # the input above: each reseed undoes the tie, so the SSE is not
        # monotone but alternates 0, 5.8e-34, 0, ... until iters runs out
        tie = np.nextafter(0.1, 1.0)
        codec, history = fit_kmeans_int4([0.1] * 3 + [tie] + list(range(1, 15)), iters=10)
        assert codec.codebook == (0.1, tie, *map(float, range(1, 15)))
        assert np.all(np.diff(codec.codebook) > 0)
        assert len(history) == 11  # every iteration ran, then the final SSE
        assert set(history[::2]) == {0.0} and min(history[1::2]) > 0.0

    def test_non_finite_sample_names_its_index(self):
        x = np.linspace(-1, 1, 40)
        x[7] = np.nan
        with pytest.raises(DataError, match="index 7"):
            fit_kmeans_int4(x)
        z = np.zeros((3, 4))
        z[2, 1] = np.inf
        for codec in (Codec("fp32"), Codec("int4_uniform"),
                      Codec("int4_kmeans", UNIFORM_MIDPOINTS)):
            with pytest.raises(DataError, match=r"index \(2, 1\)"):
                payload_matrix(codec, z)


class TestBatchDequantize:
    def test_matches_single(self):
        rng = np.random.default_rng(2)
        cb = tuple(sorted(rng.uniform(-1, 1, 16)))
        for codec in (Codec("fp32"), Codec("int8_uniform"), Codec("int4_uniform"),
                      Codec("int4_kmeans", cb)):
            vecs = rng.uniform(-1, 1, (20, 9))
            payloads = [quantize(codec, v).payload for v in vecs]
            batch = dequantize_batch(
                codec, np.array([np.frombuffer(p, np.uint8) for p in payloads]), 9)
            for i, payload in enumerate(payloads):
                single = dequantize(codec, QuantizedVec(batch_codec_id(codec), 9, payload))
                assert np.array_equal(batch[i], single)


def batch_codec_id(codec):
    from embhist.quantization import CODEC_IDS

    return CODEC_IDS[codec.kind]


def scalar_payload(codec, z):
    """Per-element reference encoder for one vector."""
    z = [min(max(float(v), -1.0), 1.0) for v in z]
    if codec.kind == "fp32":
        return np.array(z, dtype="<f4").tobytes()
    if codec.kind == "int8_uniform":
        return bytes(int(min(max(np.round(v * 127.0), -128), 127)) & 0xFF for v in z)
    if codec.kind == "int4_uniform":
        codes = [int(min(max(np.round(v * 8.0), -8), 7)) for v in z]
    else:
        cb = codec.codebook
        codes = [min(range(16), key=lambda k: (abs(v - cb[k]), k)) - 8 for v in z]
    nib = [c + 8 for c in codes] + [0] * (len(codes) % 2)
    return bytes(nib[i] | (nib[i + 1] << 4) for i in range(0, len(nib), 2))


class TestPayloadMatrix:
    @pytest.mark.parametrize("dim", [1, 7, 8])
    def test_rows_match_per_row_quantize(self, dim):
        rng = np.random.default_rng(dim)
        cb = tuple(sorted(rng.uniform(-1, 1, 16)))
        z = rng.uniform(-1.3, 1.3, (25, dim))
        z[0] = 0.0
        for codec in (Codec("fp32"), Codec("int8_uniform"), Codec("int4_uniform"),
                      Codec("int4_kmeans", cb)):
            block = payload_matrix(codec, z)
            assert block.shape == (25, codec.payload_size(dim))
            assert block.dtype == np.uint8
            for row, vec in zip(block, z):
                assert row.tobytes() == quantize(codec, vec).payload
                assert row.tobytes() == scalar_payload(codec, vec)

    @pytest.mark.parametrize("dim", [1, 7, 8])
    def test_dequantize_batch_inverts_payload_matrix(self, dim):
        rng = np.random.default_rng(dim + 10)
        cb = tuple(sorted(rng.uniform(-1, 1, 16)))
        z = rng.uniform(-1.3, 1.3, (25, dim))
        for codec in (Codec("fp32"), Codec("int8_uniform"), Codec("int4_uniform"),
                      Codec("int4_kmeans", cb)):
            values = dequantize_batch(codec, payload_matrix(codec, z), dim)
            assert values.shape == (25, dim)
            for row, vec in zip(values, z):
                assert np.array_equal(row, dequantize(codec, quantize(codec, vec)))
            empty = np.zeros((0, codec.payload_size(dim)), np.uint8)
            assert dequantize_batch(codec, empty, dim).shape == (0, dim)
