import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from embhist import nncore as nn
from embhist.compression import AEConfig, MatryoshkaAE
from embhist.errors import ContractViolation, DimensionError


def rand(shape, seed):
    return np.random.default_rng(seed).uniform(-1, 1, shape)


def affine(x, w, b):
    return nn.affine(nn.constant(x), nn.constant(w), nn.constant(b)).value


def bce(p, y):
    return float(nn.bce(nn.constant([[p]]), nn.constant([[y]])).value[0, 0])


class TestAffine:
    def test_identity(self):
        out = affine([[1.0, 2.0]], [[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0]])
        assert np.array_equal(out, [[1.0, 2.0]])

    def test_zero_input_gives_bias(self):
        out = affine([[0.0, 0.0]], rand((2, 2), 0), [[3.0, 4.0]])
        assert np.allclose(out, [[3.0, 4.0]])

    def test_matches_triple_loop(self):
        x, w, b = rand((3, 4), 1), rand((4, 2), 2), rand((1, 2), 3)
        expect = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                expect[i, j] = b[0, j]
                for k in range(4):
                    expect[i, j] += x[i, k] * w[k, j]
        assert np.allclose(affine(x, w, b), expect, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            affine(rand((2, 3), 0), rand((4, 2), 1), rand((1, 2), 2))


class TestActivation:
    def test_fixed_points(self):
        assert nn.sigmoid(nn.constant([[0.0]])).value[0, 0] == 0.5
        assert nn.tanh_(nn.constant([[0.0]])).value[0, 0] == 0.0
        assert nn.relu(nn.constant([[-2.0]])).value[0, 0] == 0.0
        assert nn.relu(nn.constant([[3.0]])).value[0, 0] == 3.0

    def test_ranges(self):
        x = rand((4, 5), 7) * 10
        assert np.all(np.abs(nn.tanh_(nn.constant(x)).value) < 1.0)
        s = nn.sigmoid(nn.constant(x)).value
        assert np.all((s > 0) & (s < 1))


class TestBCE:
    def test_half(self):
        assert math.isclose(bce(0.5, 1), math.log(2), rel_tol=1e-12)

    def test_near_perfect(self):
        assert bce(1 - 1e-7, 1) == pytest.approx(1e-7, rel=1e-2)

    def test_hand_case(self):
        assert bce(0.2, 0) == pytest.approx(-math.log(0.8), rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(0, 1))
    def test_finite_everywhere(self, p, y):
        assert math.isfinite(bce(p, y))


class TestBackward:
    def test_constant_loss_zero_grads(self):
        store = nn.ParamStore()
        store.add("w", rand((3, 2), 0))

        def loss_fn(s):
            nodes = s.as_nodes()
            # loss ignores the parameter entirely
            return nn.mean_all(nn.constant([[1.0]])), nodes

        loss, nodes = loss_fn(store)
        nn.backward(loss)
        grads = nn.collect_grads(store, nodes)
        assert np.all(store.views(grads)["w"] == 0.0)

    def test_affine_sigmoid_bce_matches_fd(self):
        store = nn.ParamStore()
        store.add("w", rand((2, 1), 3))
        store.add("b", np.zeros((1, 1)))
        x = rand((4, 2), 5)
        y = np.array([[1.0], [0.0], [1.0], [0.0]])

        def loss_fn(s):
            nodes = s.as_nodes()
            p = nn.sigmoid(nn.affine(nn.constant(x), nodes["w"], nodes["b"]))
            return nn.mean_all(nn.bce(p, nn.constant(y))), nodes

        assert nn.grad_check(loss_fn, store, n_probes=12, h=1e-5) < 1e-6

    def test_stale_cache_rejected(self):
        store = nn.ParamStore()
        store.add("w", rand((2, 2), 0))
        nodes = store.as_nodes()
        out = nn.mean_all(nn.matmul(nn.constant(rand((3, 2), 1)), nodes["w"]))
        store.set_("w", store["w"] * 2.0)
        with pytest.raises(ContractViolation):
            nn.backward(out)

    def test_loss_over_two_tapes_rejected(self):
        # backward walks the loss's tape only, so it would never run the
        # backward of ops recorded on the other store's tape
        a, b = nn.ParamStore(), nn.ParamStore()
        a.add("w", rand((2, 2), 0))
        b.add("v", rand((2, 2), 1))
        other = nn.relu(b.as_nodes()["v"])
        out = nn.mean_all(nn.mul(a.as_nodes()["w"], other))
        with pytest.raises(ContractViolation):
            nn.backward(out)


class TestOpsGradients:
    """Central finite differences for each composite op."""

    def _check(self, build, shapes, tol=1e-6, seed=0):
        store = nn.ParamStore()
        for name, shape in shapes.items():
            store.add(name, rand(shape, hash(name) % 1000 + seed))

        def loss_fn(s):
            nodes = s.as_nodes()
            return build(nodes), nodes

        assert nn.grad_check(loss_fn, store, n_probes=25, h=1e-5, seed=seed) < tol

    def test_masked_softmax_pool(self):
        mask = np.array([[True, True, False], [True, False, False]])

        def build(nodes):
            scores = nn.reshape(nn.matmul(nn.constant(rand((6, 2), 1)), nodes["w"]), 2, 3)
            weights = nn.masked_softmax(scores, nn.Node(mask))
            pooled = nn.attn_pool(weights, nn.constant(rand((6, 4), 2)), 3)
            return nn.mean_all(nn.mul(pooled, pooled))

        self._check(build, {"w": (2, 1)}, tol=1e-5)

    def test_gather_and_concat(self):
        idx = np.array([0, 2, 1, 2])

        def build(nodes):
            e = nn.gather_rows(nodes["table"], nn.Node(idx))
            both = nn.concat_cols([e, nn.relu(e)])
            return nn.mean_all(nn.mul(both, both))

        self._check(build, {"table": (3, 4)}, tol=1e-5)

    def test_din_features_and_slice(self):
        # both parents flow, as in the teacher's attention over its history;
        # the slice reads part of each of the four blocks
        def build(nodes):
            feats = nn.din_features(nodes["z"], nodes["q"], 3)
            part = nn.slice_cols(feats, 2, 14)
            return nn.mean_all(nn.mul(part, nn.tanh_(part)))

        self._check(build, {"z": (6, 4), "q": (2, 4)}, tol=1e-5)

    def test_din_features_constant_entries(self):
        # the student's din_attention arm: only the query flows
        z = rand((6, 4), 3)

        def build(nodes):
            feats = nn.din_features(nn.constant(z), nodes["q"], 3)
            return nn.mean_all(nn.mul(feats, nn.tanh_(feats)))

        self._check(build, {"q": (2, 4)}, tol=1e-5)


class TestGradCheckOp:
    def test_linear_model_exact(self):
        store = nn.ParamStore()
        store.add("w", rand((5, 1), 2))
        x = rand((8, 5), 3)

        def loss_fn(s):
            nodes = s.as_nodes()
            return nn.mean_all(nn.matmul(nn.constant(x), nodes["w"])), nodes

        assert nn.grad_check(loss_fn, store, n_probes=10) <= 1e-9

    def test_mlp(self):
        store = nn.ParamStore()
        store.add("w0", nn.glorot_uniform(8, 4, 0, "w0"))
        store.add("b0", np.zeros((1, 4)))
        store.add("w1", nn.glorot_uniform(4, 1, 0, "w1"))
        store.add("b1", np.zeros((1, 1)))
        x = rand((16, 8), 9)
        y = (rand((16, 1), 10) > 0).astype(float)

        def loss_fn(s):
            nodes = s.as_nodes()
            h = nn.relu(nn.affine(nn.constant(x), nodes["w0"], nodes["b0"]))
            p = nn.sigmoid(nn.affine(h, nodes["w1"], nodes["b1"]))
            return nn.mean_all(nn.bce(p, nn.constant(y))), nodes

        assert nn.grad_check(loss_fn, store, n_probes=40) < 1e-4

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_nonfinite_loss_raises(self):
        store = nn.ParamStore()
        store.add("w", np.array([[1e300]]))

        def loss_fn(s):
            nodes = s.as_nodes()
            doubled = nn.mul(nodes["w"], nodes["w"])
            return nn.mean_all(nn.mul(doubled, doubled)), nodes

        with pytest.raises(nn.NumericError):
            nn.grad_check(loss_fn, store, n_probes=2)


class TestAdam:
    def test_zero_grad_no_move(self):
        store = nn.ParamStore()
        store.add("w", rand((2, 2), 0))
        before = store["w"].copy()
        state = nn.AdamState.for_params(store, lr=0.1)
        nn.adam_step(store, np.zeros(4), state)
        assert np.array_equal(store["w"], before)
        assert state.t == 1

    def test_bias_corrected_first_step(self):
        store = nn.ParamStore()
        store.add("w", np.array([[1.0]]))
        state = nn.AdamState.for_params(store, lr=0.1)
        nn.adam_step(store, np.array([1.0]), state)
        # mhat = vhat = 1 after bias correction: a full lr-sized step
        assert store["w"][0, 0] == pytest.approx(1.0 - 0.1, abs=1e-8)

    def test_step_allocates_less_than_one_parameter_vector(self):
        # every temporary of a step lives in the state's two scratch vectors
        store = MatryoshkaAE(32, AEConfig(), seed=0).params
        assert store.flat.size == 14_208
        state = nn.AdamState.for_params(store, lr=0.01)
        grads = rand(store.flat.shape, 1)
        tracemalloc.start()
        try:
            nn.adam_step(store, grads, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < store.flat.nbytes

    def test_two_steps_monotone(self):
        store = nn.ParamStore()
        store.add("w", np.array([[1.0]]))
        state = nn.AdamState.for_params(store, lr=0.05)
        values = [store["w"][0, 0]]
        for _ in range(2):
            nn.adam_step(store, np.array([1.0]), state)
            values.append(store["w"][0, 0])
        assert values[0] > values[1] > values[2]


class TestDeterminism:
    def test_forward_pure(self):
        store = nn.ParamStore()
        store.add("w", nn.glorot_uniform(6, 3, 11, "w"))
        x = rand((5, 6), 0)

        def run():
            nodes = store.as_nodes()
            return nn.sigmoid(nn.matmul(nn.constant(x), nodes["w"])).value

        assert np.array_equal(run(), run())

    def test_named_init_reproducible(self):
        a = nn.glorot_uniform(4, 7, 42, "layer.w")
        b = nn.glorot_uniform(4, 7, 42, "layer.w")
        c = nn.glorot_uniform(4, 7, 42, "other.w")
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        limit = math.sqrt(6.0 / 11.0)
        assert np.all(np.abs(a) <= limit)


class _RepeatRows(nn._Unary):
    """The row repeat that din_features fuses: (B, d) -> (B*k, d), as (x, k)."""

    def fw(self, out):
        return np.repeat(self.parents[0].value, self.aux[0], axis=0)

    def bw(self, g):
        x = self.parents[0]
        b, d = x.value.shape
        nn._acc(x, g.reshape(b, self.aux[0], d).sum(axis=1, out=nn._buf(x)))


def _unfused_din_features(z, q, seq_len):
    rep = _RepeatRows(q, seq_len)
    return nn.concat_cols([z, rep, nn.mul(z, rep), nn.sub(z, rep)])


class TestDinFeatures:
    """din_features gives the bits of the four ops it fuses, forward and
    backward."""

    def test_forward_is_the_concatenated_blocks(self):
        z, q = rand((12, 5), 1), rand((3, 5), 2)
        rep = np.repeat(q, 4, axis=0)
        want = np.concatenate([z, rep, z * rep, z - rep], axis=1)
        got = nn.din_features(nn.constant(z), nn.constant(q), 4).value
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("entries_flow", [True, False])
    def test_gradients_match_the_unfused_ops(self, entries_flow):
        rng = np.random.default_rng(6)
        # a wide dynamic range, so a different summation order changes the bits
        init = {"z": rng.normal(size=(12, 5)) * 10.0 ** rng.uniform(-6, 6, (12, 5)),
                "q": rng.normal(size=(3, 5)), "w": rng.normal(size=(20, 1))}
        grads = {}
        for feats_fn in (nn.din_features, _unfused_din_features):
            store = nn.ParamStore()
            for name, value in init.items():
                store.add(name, value)
            nodes = store.as_nodes()
            # z and q also reach the loss through other ops, before and after
            # the features, so each of their gradients sums several parts
            z = nn.scale(nodes["z"], 0.5) if entries_flow else nn.constant(init["z"])
            q = nn.scale(nodes["q"], 2.0)
            h = nn.matmul(feats_fn(z, q, 4), nodes["w"])
            pooled = nn.attn_pool(nn.reshape(h, 3, 4), z, 4)
            nn.backward(nn.sum_all(nn.mul(pooled, q)))
            grads[feats_fn] = nn.collect_grads(store, nodes)
        assert grads[nn.din_features].tobytes() == grads[_unfused_din_features].tobytes()

    def test_layout_mismatch(self):
        with pytest.raises(DimensionError):
            nn.din_features(nn.constant(rand((12, 5), 1)), nn.constant(rand((3, 5), 2)), 5)
        with pytest.raises(DimensionError):
            nn.din_features(nn.constant(rand((12, 4), 1)), nn.constant(rand((3, 5), 2)), 4)


class TestLeanTape:
    """The flat store, fused Adam and sparse gradients keep the zero-filled,
    per-name tape's results bit for bit."""

    def test_gather_backward_matches_add_at(self):
        rng = np.random.default_rng(4)
        table = rng.uniform(-1, 1, (5, 3))
        idx1, idx2 = np.array([3, 1, 3, 0, 3]), np.array([1, 3, 3, 1])
        # wide dynamic range, so a different summation order changes the bits
        c1 = rng.normal(size=(5, 3)) * 10.0 ** rng.uniform(-8, 8, (5, 3))
        c2 = rng.normal(size=(4, 3)) * 10.0 ** rng.uniform(-8, 8, (4, 3))
        # cell (3, 0): 1e16 then two 0.75s rounds back to 1e16 added one at a
        # time, and to 1e16 + 2 when the two are summed first
        c2[1, 0], c2[2, 0], c1[0, 0], c1[2, 0], c1[4, 0] = 1e16, 0.0, 0.75, 0.75, 0.0
        c1[1, 1], c1[3, 2], c2[0, :] = -0.0, -0.0, -0.0
        store = nn.ParamStore()
        store.add("t", table)
        nodes = store.as_nodes()
        e1 = nn.gather_rows(nodes["t"], nn.Node(idx1))
        e2 = nn.gather_rows(nodes["t"], nn.Node(idx2))
        loss = nn.add(nn.sum_all(nn.mul(e1, nn.constant(c1))),
                      nn.sum_all(nn.mul(e2, nn.constant(c2))))
        nn.backward(loss)

        # the zero-filled tape: the later gather's rows first, then the earlier's
        ref = np.zeros_like(table)
        np.add.at(ref, idx2, c2)
        np.add.at(ref, idx1, c1)
        # the data tells apart other orders: the earlier gather first, or each
        # gather's rows summed before the existing gradient is added
        other, later, earlier = (np.zeros_like(table) for _ in range(3))
        np.add.at(other, idx1, c1)
        np.add.at(other, idx2, c2)
        np.add.at(later, idx2, c2)
        np.add.at(earlier, idx1, c1)
        assert other.tobytes() != ref.tobytes()
        assert (later + earlier).tobytes() != ref.tobytes()
        assert nodes["t"].grad.tobytes() == ref.tobytes()
        assert nn.collect_grads(store, nodes).tobytes() == ref.tobytes()

    def test_gather_rejects_negative_index(self):
        with pytest.raises(DimensionError):
            nn.gather_rows(nn.constant(rand((3, 2), 0)), nn.Node(np.array([0, -1])))

    def test_fused_adam_matches_per_name_update(self):
        rng = np.random.default_rng(7)
        # small parameters, so every bit of each step shows in the result
        init = {"b": rng.normal(size=(1, 30)) * 1e-3, "a": rng.normal(size=(20, 2)) * 1e-3}
        store = nn.ParamStore()
        for name, value in init.items():
            store.add(name, value)
        state = nn.AdamState.for_params(store, lr=0.03)
        ref = {name: value.copy() for name, value in init.items()}
        m = {name: np.zeros_like(value) for name, value in init.items()}
        v = {name: np.zeros_like(value) for name, value in init.items()}
        b1, b2, lr, eps = 0.9, 0.999, 0.03, 1e-8
        for t in range(1, 6):
            grads = {name: rng.normal(size=value.shape) for name, value in init.items()}
            grads["a"][0, 0] = 0.0
            for name, g in grads.items():
                m[name] = b1 * m[name] + (1.0 - b1) * g
                v[name] = b2 * v[name] + (1.0 - b2) * g * g
                mhat = m[name] / (1.0 - b1**t)
                vhat = v[name] / (1.0 - b2**t)
                ref[name] = ref[name] - lr * mhat / (np.sqrt(vhat) + eps)
            nn.adam_step(store, np.concatenate([grads["a"].ravel(), grads["b"].ravel()]),
                         state)
        for name in init:
            assert store[name].tobytes() == ref[name].tobytes()
            assert store.views(state.m)[name].tobytes() == m[name].tobytes()
            assert store.views(state.v)[name].tobytes() == v[name].tobytes()

    def test_constant_leaves_get_no_gradient(self):
        store = nn.ParamStore()
        store.add("w", rand((3, 2), 0))
        store.add("unused", rand((2, 2), 1))
        nodes = store.as_nodes()
        x, target = nn.constant(rand((4, 3), 2)), nn.constant(rand((4, 2), 3))
        diff = nn.sub(nn.matmul(x, nodes["w"]), target)
        nn.backward(nn.mean_all(nn.mul(diff, diff)))
        assert x.grad is None and target.grad is None
        assert nodes["unused"].grad is None
        unused = store.views(nn.collect_grads(store, nodes))["unused"]
        assert np.all(unused == 0.0) and not np.signbit(unused).any()
        assert np.all(store.views(nn.collect_grads(store, nodes))["w"] != 0.0)

    def test_adam_step_invalidates_forward_cache(self):
        store = nn.ParamStore()
        store.add("w", rand((2, 2), 0))
        nodes = store.as_nodes()
        out = nn.mean_all(nn.matmul(nn.constant(rand((3, 2), 1)), nodes["w"]))
        version = store.version
        nn.adam_step(store, np.ones(4), nn.AdamState.for_params(store))
        assert store.version > version
        with pytest.raises(ContractViolation):
            nn.backward(out)

    def test_loss_over_two_tapes_rejected(self):
        # backward walks the loss's tape only, so it would never run the
        # backward of ops recorded on the other store's tape
        a, b = nn.ParamStore(), nn.ParamStore()
        a.add("w", rand((2, 2), 0))
        b.add("v", rand((2, 2), 1))
        other = nn.relu(b.as_nodes()["v"])
        out = nn.mean_all(nn.mul(a.as_nodes()["w"], other))
        with pytest.raises(ContractViolation):
            nn.backward(out)

    def test_views_alias_flat_and_copy_shares_nothing(self):
        store = nn.ParamStore()
        store.add("z", rand((2, 3), 0))
        store.add("a", rand((1, 3), 1))
        assert store.names() == ["a", "z"]
        assert np.array_equal(store.flat, np.concatenate([store["a"].ravel(),
                                                          store["z"].ravel()]))
        for _, view in store.items():
            assert np.shares_memory(view, store.flat)
        store.set_("a", np.full((1, 3), 5.0))
        assert np.array_equal(store.flat[:3], [5.0, 5.0, 5.0])
        dup = store.copy()
        assert np.array_equal(dup.flat, store.flat)
        assert not np.shares_memory(dup.flat, store.flat)
        for name, view in dup.items():
            assert np.shares_memory(view, dup.flat)
            assert not np.shares_memory(view, store.flat)
        dup.flat[:] = 0.0
        assert np.array_equal(store["a"], np.full((1, 3), 5.0))
