"""Dense neural-net kernel: float64 arrays, reverse-mode tape, Adam.

Everything is plain numpy float64; matrices are 2-D row-major arrays.
Forward passes build a small graph of Node objects and `backward` replays
it in reverse creation order. The op vocabulary is fixed to what the
models in this package need (affine, a few activations, embedding gather,
masked softmax, pooling, concat, clamped cross-entropy); this is manual
backpropagation with a recorded cache, not a general autodiff system.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, DimensionError, FormatError, NumericError
from .prng import derive_seed, uniform_array

EPS_PROB = 1e-7  # probability clamp applied before every log

_node_ids = itertools.count()


def _as_matrix(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"expected 2-D matrix, got shape {arr.shape}")
    return arr


class Node:
    """One value in the recorded forward cache."""

    __slots__ = ("value", "grad", "parents", "_bw", "_id", "_guard")

    def __init__(self, value: np.ndarray, parents=(), bw=None, guard=None):
        self.value = value
        self.grad = None
        self.parents = parents
        self._bw = bw
        self._id = next(_node_ids)
        self._guard = guard  # (ParamStore, version) for staleness checks

    @property
    def shape(self):
        return self.value.shape


def constant(x) -> Node:
    return Node(_as_matrix(x))


def backward(loss: Node, seed: float = 1.0) -> None:
    """Fill .grad on every node reachable from `loss`.

    The forward cache must still match the parameter values it was
    recorded for; a ParamStore mutation in between raises ContractViolation.
    """
    if loss.value.shape != (1, 1):
        raise DimensionError(f"loss must be scalar (1,1), got {loss.value.shape}")
    if not np.isfinite(loss.value[0, 0]):
        raise NumericError("loss is not finite")
    # collect reachable subgraph
    seen: dict[int, Node] = {}
    stack = [loss]
    while stack:
        node = stack.pop()
        if node._id in seen:
            continue
        seen[node._id] = node
        if node._guard is not None:
            store, version = node._guard
            if store.version != version:
                raise ContractViolation(
                    "stale forward cache: parameters changed since forward pass"
                )
        stack.extend(node.parents)
    order = sorted(seen.values(), key=lambda n: n._id, reverse=True)
    for node in order:
        node.grad = np.zeros_like(node.value)
    loss.grad = np.full((1, 1), float(seed))
    for node in order:
        if node._bw is not None:
            node._bw(node.grad)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def matmul(a: Node, b: Node) -> Node:
    if a.value.shape[1] != b.value.shape[0]:
        raise DimensionError(f"matmul {a.value.shape} x {b.value.shape}")
    out = Node(a.value @ b.value, (a, b))

    def bw(g):
        a.grad += g @ b.value.T
        b.grad += a.value.T @ g

    out._bw = bw
    return out


def add_bias(x: Node, b: Node) -> Node:
    """Row-broadcast bias: x (n,k) + b (1,k)."""
    if b.value.shape != (1, x.value.shape[1]):
        raise DimensionError(f"bias {b.value.shape} against {x.value.shape}")
    out = Node(x.value + b.value, (x, b))

    def bw(g):
        x.grad += g
        b.grad += g.sum(axis=0, keepdims=True)

    out._bw = bw
    return out


def affine(x: Node, w: Node, b: Node) -> Node:
    return add_bias(matmul(x, w), b)


def _binary(a: Node, b: Node, fwd, bwa, bwb) -> Node:
    if a.value.shape != b.value.shape:
        raise DimensionError(f"shape mismatch {a.value.shape} vs {b.value.shape}")
    out = Node(fwd(a.value, b.value), (a, b))

    def bw(g):
        a.grad += bwa(g, a.value, b.value)
        b.grad += bwb(g, a.value, b.value)

    out._bw = bw
    return out


def add(a: Node, b: Node) -> Node:
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g)


def sub(a: Node, b: Node) -> Node:
    return _binary(a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a: Node, b: Node) -> Node:
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x)


def scale(a: Node, s: float) -> Node:
    out = Node(a.value * float(s), (a,))

    def bw(g):
        a.grad += g * float(s)

    out._bw = bw
    return out


def relu(x: Node) -> Node:
    out = Node(np.maximum(x.value, 0.0), (x,))

    def bw(g):
        x.grad += g * (x.value > 0.0)

    out._bw = bw
    return out


def tanh_(x: Node) -> Node:
    t = np.tanh(x.value)
    out = Node(t, (x,))

    def bw(g):
        x.grad += g * (1.0 - t * t)

    out._bw = bw
    return out


def sigmoid(x: Node) -> Node:
    s = 1.0 / (1.0 + np.exp(-x.value))
    out = Node(s, (x,))

    def bw(g):
        x.grad += g * s * (1.0 - s)

    out._bw = bw
    return out


def concat_cols(nodes: list[Node]) -> Node:
    rows = nodes[0].value.shape[0]
    for n in nodes:
        if n.value.shape[0] != rows:
            raise DimensionError("concat_cols row mismatch")
    out = Node(np.concatenate([n.value for n in nodes], axis=1), tuple(nodes))
    widths = [n.value.shape[1] for n in nodes]

    def bw(g):
        off = 0
        for n, w in zip(nodes, widths):
            n.grad += g[:, off : off + w]
            off += w

    out._bw = bw
    return out


def slice_cols(x: Node, start: int, stop: int) -> Node:
    out = Node(x.value[:, start:stop].copy(), (x,))

    def bw(g):
        x.grad[:, start:stop] += g

    out._bw = bw
    return out


def reshape(x: Node, rows: int, cols: int) -> Node:
    out = Node(x.value.reshape(rows, cols), (x,))

    def bw(g):
        x.grad += g.reshape(x.value.shape)

    out._bw = bw
    return out


def gather_rows(table: Node, idx: np.ndarray) -> Node:
    """Embedding lookup: select rows of `table` by integer index."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise DimensionError("gather index must be 1-D")
    out = Node(table.value[idx], (table,))

    def bw(g):
        np.add.at(table.grad, idx, g)

    out._bw = bw
    return out


def repeat_rows(x: Node, k: int) -> Node:
    """Tile each row k times consecutively: (B, d) -> (B*k, d)."""
    b, d = x.value.shape
    out = Node(np.repeat(x.value, k, axis=0), (x,))

    def bw(g):
        x.grad += g.reshape(b, k, d).sum(axis=1)

    out._bw = bw
    return out


def masked_softmax(scores: Node, mask: np.ndarray) -> Node:
    """Row-wise softmax over valid entries; all-invalid rows give zeros."""
    m = np.asarray(mask, dtype=bool)
    if m.shape != scores.value.shape:
        raise DimensionError("mask shape mismatch")
    neg = np.where(m, scores.value, -np.inf)
    rows_any = m.any(axis=1, keepdims=True)
    shifted = neg - np.where(rows_any, neg.max(axis=1, keepdims=True), 0.0)
    expd = np.where(m, np.exp(shifted), 0.0)
    denom = expd.sum(axis=1, keepdims=True)
    soft = np.divide(expd, denom, out=np.zeros_like(expd), where=denom > 0)
    out = Node(soft, (scores,))

    def bw(g):
        dot = (g * soft).sum(axis=1, keepdims=True)
        scores.grad += soft * (g - dot)

    out._bw = bw
    return out


def attn_pool(weights: Node, entries: Node, seq_len: int) -> Node:
    """Pool sequence entries with per-entry weights.

    weights: (B, L); entries: (B*L, d) laid out batch-major. Output (B, d).
    """
    b, l = weights.value.shape
    if l != seq_len or entries.value.shape[0] != b * l:
        raise DimensionError("attn_pool layout mismatch")
    d = entries.value.shape[1]
    ent = entries.value.reshape(b, l, d)
    out = Node(np.einsum("bl,bld->bd", weights.value, ent), (weights, entries))

    def bw(g):
        weights.grad += np.einsum("bd,bld->bl", g, ent)
        entries.grad += (weights.value[:, :, None] * g[:, None, :]).reshape(b * l, d)

    out._bw = bw
    return out


def sum_all(x: Node) -> Node:
    out = Node(np.array([[x.value.sum()]]), (x,))

    def bw(g):
        x.grad += g[0, 0]

    out._bw = bw
    return out


def mean_all(x: Node) -> Node:
    n = x.value.size
    return scale(sum_all(x), 1.0 / n)


def bce(p: Node, target: np.ndarray) -> Node:
    """Elementwise cross-entropy against a (possibly soft) target in [0,1].

    p is clamped into [EPS_PROB, 1-EPS_PROB] before the logs; the clamp
    zeroes the gradient outside the band.
    """
    t = _as_matrix(target)
    if t.shape != p.value.shape:
        raise DimensionError("bce target shape mismatch")
    pc = np.clip(p.value, EPS_PROB, 1.0 - EPS_PROB)
    loss = -(t * np.log(pc) + (1.0 - t) * np.log(1.0 - pc))
    out = Node(loss, (p,))
    inside = (p.value > EPS_PROB) & (p.value < 1.0 - EPS_PROB)

    def bw(g):
        p.grad += g * inside * (pc - t) / (pc * (1.0 - pc))

    out._bw = bw
    return out


# ---------------------------------------------------------------------------
# parameters and optimizer
# ---------------------------------------------------------------------------


class ParamStore:
    """Named float64 matrices with lexicographic iteration order.

    Shapes are frozen when a name is first added; `set_` bumps a version
    counter that invalidates forward caches recorded against older values.
    """

    def __init__(self):
        self._data: dict[str, np.ndarray] = {}
        self.version = 0

    def add(self, name: str, value) -> None:
        if name in self._data:
            raise ContractViolation(f"parameter {name!r} already exists")
        self._data[name] = _as_matrix(value).copy()

    def __getitem__(self, name: str) -> np.ndarray:
        return self._data[name]

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def names(self) -> list[str]:
        return sorted(self._data)

    def items(self):
        for name in self.names():
            yield name, self._data[name]

    def set_(self, name: str, value: np.ndarray) -> None:
        old = self._data[name]
        if value.shape != old.shape:
            raise DimensionError(f"shape of {name!r} is immutable")
        self._data[name] = value
        self.version += 1

    def restore(self, saved: "ParamStore") -> None:
        """Copy a checkpoint's parameters into this store; a checkpoint whose
        names or shapes differ from this store's is a FormatError."""
        shapes = {name: value.shape for name, value in self.items()}
        saved_shapes = {name: value.shape for name, value in saved.items()}
        if saved_shapes != shapes:
            diff = sorted(n for n in shapes.keys() | saved_shapes.keys()
                          if shapes.get(n) != saved_shapes.get(n))
            raise FormatError(f"checkpoint parameters do not match the model: {diff}")
        for name, value in saved.items():
            self.set_(name, value)

    def as_nodes(self) -> dict[str, Node]:
        version = self.version
        return {
            name: Node(value, guard=(self, version)) for name, value in self.items()
        }

    def copy(self) -> "ParamStore":
        dup = ParamStore()
        for name, value in self.items():
            dup.add(name, value)
        return dup

    def n_scalars(self) -> int:
        return sum(v.size for v in self._data.values())


def glorot_uniform(rows: int, cols: int, seed: int, name: str) -> np.ndarray:
    """Uniform(-sqrt(6/(fan_in+fan_out)), +...) from a per-name stream."""
    limit = math.sqrt(6.0 / (rows + cols))
    u = uniform_array(derive_seed(seed, "init", name), rows * cols)
    return ((u * 2.0 - 1.0) * limit).reshape(rows, cols)


@dataclass
class AdamState:
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: ParamStore, lr: float = 0.01) -> "AdamState":
        state = cls(lr=lr)
        for name, value in params.items():
            state.m[name] = np.zeros_like(value)
            state.v[name] = np.zeros_like(value)
        return state


def adam_step(params: ParamStore, grads: dict[str, np.ndarray], state: AdamState) -> None:
    """Standard Adam update with bias correction; mutates params and state."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    for name, value in params.items():
        g = grads[name]
        if g.shape != value.shape:
            raise DimensionError(f"gradient shape mismatch for {name!r}")
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        mhat = state.m[name] / c1
        vhat = state.v[name] / c2
        params.set_(name, value - state.lr * mhat / (np.sqrt(vhat) + state.eps))


def collect_grads(params: ParamStore, nodes: dict[str, Node]) -> dict[str, np.ndarray]:
    """Gradients aligned with the store; untouched parameters get zeros."""
    out = {}
    for name, value in params.items():
        node = nodes[name]
        out[name] = node.grad if node.grad is not None else np.zeros_like(value)
    return out


def grad_check(loss_fn, params: ParamStore, n_probes: int = 50, h: float = 1e-5,
               seed: int = 0) -> float:
    """Max relative error between tape gradients and central differences.

    loss_fn(store) must return (loss Node, param-node dict) built fresh
    from the given store.
    """
    loss, nodes = loss_fn(params)
    if not np.isfinite(loss.value[0, 0]):
        raise NumericError("loss is not finite at the probe point")
    backward(loss)
    grads = collect_grads(params, nodes)

    names = params.names()
    sizes = np.array([params[n].size for n in names], dtype=np.float64)
    u = uniform_array(derive_seed(seed, "gradcheck"), 2 * n_probes)
    worst = 0.0
    for k in range(n_probes):
        pi = int(np.searchsorted(np.cumsum(sizes), u[2 * k] * sizes.sum(), side="right"))
        pi = min(pi, len(names) - 1)
        name = names[pi]
        flat = min(int(u[2 * k + 1] * sizes[pi]), int(sizes[pi]) - 1)
        idx = np.unravel_index(flat, params[name].shape)

        def loss_at(delta: float) -> float:
            probe = params.copy()
            bumped = probe[name].copy()
            bumped[idx] += delta
            probe.set_(name, bumped)
            value, _ = loss_fn(probe)
            return float(value.value[0, 0])

        fd = (loss_at(h) - loss_at(-h)) / (2.0 * h)
        an = float(grads[name][idx])
        worst = max(worst, abs(an - fd) / (abs(an) + abs(fd) + 1e-12))
    return worst
