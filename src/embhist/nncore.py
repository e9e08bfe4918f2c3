"""Dense neural-net kernel: float64 arrays, reverse-mode tape, Adam.

Everything is plain numpy float64; matrices are 2-D row-major arrays.
Forward passes build a small graph of Node objects and `backward` replays
it in reverse creation order. The op vocabulary is fixed to what the
models in this package need (affine, a few activations, embedding gather,
masked softmax, pooling, concat, clamped cross-entropy); this is manual
backpropagation with a recorded cache, not a general autodiff system.
Parameters live in one flat vector (`ParamStore.flat`) and one Adam step
is a few whole-vector operations over it.
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
    """One value in the recorded forward cache.

    A node `flows` when it is a parameter or depends on one; gradients are
    computed only into flowing nodes, so constants never get one.
    """

    __slots__ = ("value", "grad", "parents", "flows", "_bw", "_id", "_guard")

    def __init__(self, value: np.ndarray, parents=(), bw=None, guard=None):
        self.value = value
        self.grad = None
        self.parents = parents
        self.flows = guard is not None or any(p.flows for p in parents)
        self._bw = bw
        self._id = next(_node_ids)
        self._guard = guard  # (ParamStore, version) for staleness checks


def constant(x) -> Node:
    return Node(_as_matrix(x))


def _acc(node: Node, g: np.ndarray) -> None:
    """Add one gradient contribution to `node`. The first is stored as is and
    never mutated; a later one makes a new array, so a `g` handed to two
    parents is never aliased into a sum."""
    node.grad = g if node.grad is None else node.grad + g


def backward(loss: Node) -> None:
    """Fill .grad on every node between `loss` and the parameters.

    Each op adds its contributions through `_acc`, in reverse creation order
    of the ops, so a node's gradient is summed in the order a zero-filled
    accumulator sums it and every nonzero value is bit-identical to one;
    only the sign of an exact zero can differ. Nodes that depend on no
    parameter (constants) are skipped and keep `grad` None.
    The forward cache must still match the parameter values it was
    recorded for; a ParamStore mutation in between raises ContractViolation.
    """
    if loss.value.shape != (1, 1):
        raise DimensionError(f"loss must be scalar (1,1), got {loss.value.shape}")
    if not np.isfinite(loss.value[0, 0]):
        raise NumericError("loss is not finite")
    # collect the reachable subgraph that leads to a parameter
    seen: dict[int, Node] = {}
    stack = [loss]
    while stack:
        node = stack.pop()
        if node._id in seen or not node.flows:
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
        node.grad = None
    loss.grad = np.ones((1, 1))
    for node in order:
        if node._bw is not None and node.grad is not None:
            node._bw(node.grad)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def matmul(a: Node, b: Node) -> Node:
    if a.value.shape[1] != b.value.shape[0]:
        raise DimensionError(f"matmul {a.value.shape} x {b.value.shape}")

    def bw(g):
        if a.flows:
            _acc(a, g @ b.value.T)
        if b.flows:
            _acc(b, a.value.T @ g)

    return Node(a.value @ b.value, (a, b), bw)


def add_bias(x: Node, b: Node) -> Node:
    """Row-broadcast bias: x (n,k) + b (1,k)."""
    if b.value.shape != (1, x.value.shape[1]):
        raise DimensionError(f"bias {b.value.shape} against {x.value.shape}")

    def bw(g):
        if x.flows:
            _acc(x, g)
        if b.flows:
            _acc(b, g.sum(axis=0, keepdims=True))

    return Node(x.value + b.value, (x, b), bw)


def affine(x: Node, w: Node, b: Node) -> Node:
    return add_bias(matmul(x, w), b)


def _binary(a: Node, b: Node, fwd, bwa, bwb) -> Node:
    if a.value.shape != b.value.shape:
        raise DimensionError(f"shape mismatch {a.value.shape} vs {b.value.shape}")

    def bw(g):
        if a.flows:
            _acc(a, bwa(g, a.value, b.value))
        if b.flows:
            _acc(b, bwb(g, a.value, b.value))

    return Node(fwd(a.value, b.value), (a, b), bw)


def add(a: Node, b: Node) -> Node:
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g)


def sub(a: Node, b: Node) -> Node:
    return _binary(a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a: Node, b: Node) -> Node:
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x)


def scale(a: Node, s: float) -> Node:
    return Node(a.value * float(s), (a,), lambda g: _acc(a, g * float(s)))


def relu(x: Node) -> Node:
    return Node(np.maximum(x.value, 0.0), (x,), lambda g: _acc(x, g * (x.value > 0.0)))


def tanh_(x: Node) -> Node:
    t = np.tanh(x.value)
    return Node(t, (x,), lambda g: _acc(x, g * (1.0 - t * t)))


def sigmoid(x: Node) -> Node:
    s = 1.0 / (1.0 + np.exp(-x.value))
    return Node(s, (x,), lambda g: _acc(x, g * s * (1.0 - s)))


def concat_cols(nodes: list[Node]) -> Node:
    rows = nodes[0].value.shape[0]
    for n in nodes:
        if n.value.shape[0] != rows:
            raise DimensionError("concat_cols row mismatch")
    widths = [n.value.shape[1] for n in nodes]

    def bw(g):
        off = 0
        for n, w in zip(nodes, widths):
            if n.flows:
                _acc(n, g[:, off : off + w])
            off += w

    return Node(np.concatenate([n.value for n in nodes], axis=1), tuple(nodes), bw)


def slice_cols(x: Node, start: int, stop: int) -> Node:
    def bw(g):
        full = np.zeros_like(x.value)  # owned, so the in-place add is safe
        full[:, start:stop] += g
        _acc(x, full)

    return Node(x.value[:, start:stop].copy(), (x,), bw)


def reshape(x: Node, rows: int, cols: int) -> Node:
    return Node(x.value.reshape(rows, cols), (x,), lambda g: _acc(x, g.reshape(x.value.shape)))


def gather_rows(table: Node, idx: np.ndarray) -> Node:
    """Embedding lookup: select rows of `table` by integer index.

    The backward pass is one flat `np.bincount` over the cells `idx*d + col`.
    A gradient the table already holds goes first in the index and weight
    arrays, so every cell is summed in `np.add.at`'s order: existing value,
    then the gathered rows in index order.
    """
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1 or (idx.size and idx.min() < 0):
        raise DimensionError("gather index must be 1-D and non-negative")

    def bw(g):
        n, d = table.value.shape
        cells = (idx[:, None] * d + np.arange(d)).ravel()
        weights = g.ravel()
        if table.grad is not None:
            cells = np.concatenate([np.arange(n * d), cells])
            weights = np.concatenate([table.grad.ravel(), weights])
        table.grad = np.bincount(cells, weights, minlength=n * d).reshape(n, d)

    return Node(table.value[idx], (table,), bw)


def repeat_rows(x: Node, k: int) -> Node:
    """Tile each row k times consecutively: (B, d) -> (B*k, d)."""
    b, d = x.value.shape
    return Node(np.repeat(x.value, k, axis=0), (x,),
                lambda g: _acc(x, g.reshape(b, k, d).sum(axis=1)))


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

    def bw(g):
        dot = (g * soft).sum(axis=1, keepdims=True)
        _acc(scores, soft * (g - dot))

    return Node(soft, (scores,), bw)


def attn_pool(weights: Node, entries: Node, seq_len: int) -> Node:
    """Pool sequence entries with per-entry weights.

    weights: (B, L); entries: (B*L, d) laid out batch-major. Output (B, d).
    """
    b, l = weights.value.shape
    if l != seq_len or entries.value.shape[0] != b * l:
        raise DimensionError("attn_pool layout mismatch")
    d = entries.value.shape[1]
    ent = entries.value.reshape(b, l, d)

    def bw(g):
        if weights.flows:
            _acc(weights, np.einsum("bd,bld->bl", g, ent))
        if entries.flows:
            _acc(entries, (weights.value[:, :, None] * g[:, None, :]).reshape(b * l, d))

    return Node(np.einsum("bl,bld->bd", weights.value, ent), (weights, entries), bw)


def sum_all(x: Node) -> Node:
    return Node(np.array([[x.value.sum()]]), (x,),
                lambda g: _acc(x, np.full(x.value.shape, g[0, 0])))


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
    inside = (p.value > EPS_PROB) & (p.value < 1.0 - EPS_PROB)
    return Node(loss, (p,), lambda g: _acc(p, g * inside * (pc - t) / (pc * (1.0 - pc))))


# ---------------------------------------------------------------------------
# parameters and optimizer
# ---------------------------------------------------------------------------


class ParamStore:
    """Named float64 matrices held as views into one contiguous vector.

    `flat` holds every parameter in lexicographic name order and `store[name]`
    is a reshaped view into it; gradients (`collect_grads`) and Adam's
    moments use the same layout. Shapes are frozen when a name is first
    added. `set_` writes through the view and `adam_step` updates `flat` in
    place; both bump a version counter that invalidates forward caches
    recorded against older values. Whole-vector arithmetic is elementwise,
    so every parameter gets the bits a per-name update would give it.
    """

    def __init__(self):
        self._views: dict[str, np.ndarray] = {}
        self._flat: np.ndarray | None = np.zeros(0)
        self.version = 0

    def add(self, name: str, value) -> None:
        if name in self._views:
            raise ContractViolation(f"parameter {name!r} already exists")
        self._views[name] = _as_matrix(value).copy()
        self._flat = None  # laid out again on first use

    def _layout(self) -> dict[str, np.ndarray]:
        if self._flat is None:
            self._views = {name: self._views[name] for name in sorted(self._views)}
            self._flat = np.concatenate([v.ravel() for v in self._views.values()])
            self._views = self.views(self._flat)
        return self._views

    @property
    def flat(self) -> np.ndarray:
        self._layout()
        return self._flat

    def views(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Name -> reshaped view of a vector laid out like `flat`."""
        out, off = {}, 0
        for name, value in self._layout().items():
            out[name] = vec[off : off + value.size].reshape(value.shape)
            off += value.size
        return out

    def __getitem__(self, name: str) -> np.ndarray:
        return self._layout()[name]

    def __contains__(self, name: str) -> bool:
        return name in self._views

    def names(self) -> list[str]:
        return list(self._layout())

    def items(self):
        return self._layout().items()

    def set_(self, name: str, value: np.ndarray) -> None:
        view = self[name]
        if value.shape != view.shape:
            raise DimensionError(f"shape of {name!r} is immutable")
        view[...] = value
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
        self.flat[...] = saved.flat  # same names and shapes: same layout
        self.version += 1

    def as_nodes(self) -> dict[str, Node]:
        return {name: Node(value, guard=(self, self.version)) for name, value in self.items()}

    def copy(self) -> "ParamStore":
        dup = ParamStore()
        dup._flat = self.flat.copy()
        dup._views = self.views(dup._flat)
        return dup


def glorot_uniform(rows: int, cols: int, seed: int, name: str) -> np.ndarray:
    """Uniform(-sqrt(6/(fan_in+fan_out)), +...) from a per-name stream."""
    limit = math.sqrt(6.0 / (rows + cols))
    u = uniform_array(derive_seed(seed, "init", name), rows * cols)
    return ((u * 2.0 - 1.0) * limit).reshape(rows, cols)


@dataclass
class AdamState:
    """Adam's step count and moments; `m` and `v` are laid out like `ParamStore.flat`."""

    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @classmethod
    def for_params(cls, params: ParamStore, lr: float = 0.01) -> "AdamState":
        return cls(lr=lr, m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adam_step(params: ParamStore, grads: np.ndarray, state: AdamState) -> None:
    """Standard Adam update with bias correction over the flat vector;
    `grads` is laid out like `params.flat`. Mutates params and state."""
    flat = params.flat
    if grads.shape != flat.shape:
        raise DimensionError(f"gradient shape {grads.shape} != parameters {flat.shape}")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    # in place; every element gets the bits of m = b1*m + (1-b1)*g,
    # v = b2*v + (1-b2)*g*g and flat -= lr * (m/c1) / (sqrt(v/c2) + eps)
    state.m *= b1
    state.m += (1.0 - b1) * grads
    state.v *= b2
    state.v += (1.0 - b2) * grads * grads
    step = state.m / c1
    step *= state.lr
    step /= np.sqrt(state.v / c2) + state.eps
    flat -= step
    params.version += 1


def collect_grads(params: ParamStore, nodes: dict[str, Node]) -> np.ndarray:
    """The gradient laid out like `params.flat`; parameters the loss does not
    reach get exact zeros."""
    parts = [np.zeros(0)]  # so an empty store concatenates too
    for name, value in params.items():
        grad = nodes[name].grad
        parts.append(np.zeros(value.size) if grad is None else grad.ravel())
    return np.concatenate(parts)


def grad_check(loss_fn, params: ParamStore, n_probes: int = 50, h: float = 1e-5,
               seed: int = 0) -> float:
    """Max relative error between tape gradients and central differences.

    loss_fn(store) must return (loss Node, param-node dict) built fresh
    from the given store. Each probe picks a parameter with probability
    proportional to its size, then a cell of it.
    """
    loss, nodes = loss_fn(params)
    if not np.isfinite(loss.value[0, 0]):
        raise NumericError("loss is not finite at the probe point")
    backward(loss)
    grads = collect_grads(params, nodes)

    sizes = np.array([value.size for _, value in params.items()], dtype=np.float64)
    ends = np.cumsum(sizes)
    u = uniform_array(derive_seed(seed, "gradcheck"), 2 * n_probes)
    worst = 0.0
    for k in range(n_probes):
        pi = int(np.searchsorted(ends, u[2 * k] * sizes.sum(), side="right"))
        pi = min(pi, len(sizes) - 1)
        pos = int(ends[pi] - sizes[pi]) + min(int(u[2 * k + 1] * sizes[pi]), int(sizes[pi]) - 1)

        def loss_at(delta: float) -> float:
            probe = params.copy()  # shares no memory with params
            probe.flat[pos] += delta
            value, _ = loss_fn(probe)
            return float(value.value[0, 0])

        fd = (loss_at(h) - loss_at(-h)) / (2.0 * h)
        an = float(grads[pos])
        worst = max(worst, abs(an - fd) / (abs(an) + abs(fd) + 1e-12))
    return worst
