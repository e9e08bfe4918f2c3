import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from embhist import nncore as nn
from embhist.errors import ContractViolation, DimensionError


def rand(shape, seed):
    return np.random.default_rng(seed).uniform(-1, 1, shape)


def affine(x, w, b):
    return nn.affine(nn.constant(x), nn.constant(w), nn.constant(b)).value


def bce(p, y):
    return float(nn.bce(nn.constant([[p]]), [[y]]).value[0, 0])


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
        assert np.all(grads["w"] == 0.0)

    def test_affine_sigmoid_bce_matches_fd(self):
        store = nn.ParamStore()
        store.add("w", rand((2, 1), 3))
        store.add("b", np.zeros((1, 1)))
        x = rand((4, 2), 5)
        y = np.array([[1.0], [0.0], [1.0], [0.0]])

        def loss_fn(s):
            nodes = s.as_nodes()
            p = nn.sigmoid(nn.affine(nn.constant(x), nodes["w"], nodes["b"]))
            return nn.mean_all(nn.bce(p, y)), nodes

        assert nn.grad_check(loss_fn, store, n_probes=12, h=1e-5) < 1e-6

    def test_stale_cache_rejected(self):
        store = nn.ParamStore()
        store.add("w", rand((2, 2), 0))
        nodes = store.as_nodes()
        out = nn.mean_all(nn.matmul(nn.constant(rand((3, 2), 1)), nodes["w"]))
        store.set_("w", store["w"] * 2.0)
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
            weights = nn.masked_softmax(scores, mask)
            pooled = nn.attn_pool(weights, nn.constant(rand((6, 4), 2)), 3)
            return nn.mean_all(nn.mul(pooled, pooled))

        self._check(build, {"w": (2, 1)}, tol=1e-5)

    def test_gather_and_concat(self):
        idx = np.array([0, 2, 1, 2])

        def build(nodes):
            e = nn.gather_rows(nodes["table"], idx)
            both = nn.concat_cols([e, nn.relu(e)])
            return nn.mean_all(nn.mul(both, both))

        self._check(build, {"table": (3, 4)}, tol=1e-5)

    def test_repeat_and_slice(self):
        def build(nodes):
            rep = nn.repeat_rows(nodes["q"], 3)
            part = nn.slice_cols(rep, 1, 3)
            return nn.mean_all(nn.mul(part, nn.tanh_(part)))

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
            return nn.mean_all(nn.bce(p, y)), nodes

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
        nn.adam_step(store, {"w": np.zeros((2, 2))}, state)
        assert np.array_equal(store["w"], before)
        assert state.t == 1

    def test_bias_corrected_first_step(self):
        store = nn.ParamStore()
        store.add("w", np.array([[1.0]]))
        state = nn.AdamState.for_params(store, lr=0.1)
        nn.adam_step(store, {"w": np.array([[1.0]])}, state)
        # mhat = vhat = 1 after bias correction: a full lr-sized step
        assert store["w"][0, 0] == pytest.approx(1.0 - 0.1, abs=1e-8)

    def test_two_steps_monotone(self):
        store = nn.ParamStore()
        store.add("w", np.array([[1.0]]))
        state = nn.AdamState.for_params(store, lr=0.05)
        values = [store["w"][0, 0]]
        for _ in range(2):
            nn.adam_step(store, {"w": np.array([[1.0]])}, state)
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
