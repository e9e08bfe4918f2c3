"""Dense neural-net kernel: float64 arrays, reverse-mode tape, Adam.

Everything is plain numpy float64; matrices are 2-D row-major arrays. The
op vocabulary is fixed to what the models in this package need (affine,
elementwise add/sub/mul/scale, a few activations, embedding gather, column
concat and slice, reshape, DIN's [z; q; z*q; z-q] attention input as one
fused op, masked softmax, pooling, sums, clamped cross-entropy); this is
manual backpropagation with a recorded cache, not a general autodiff system.

Each op is a Node subclass with one forward/backward pair. A tape starts
at `ParamStore.as_nodes` (a node per parameter and per batch array) and
lists every op node built over them in creation order; each node holds its
value, the op's auxiliary arrays and its gradient, and `backward` walks the
tape once in reverse. `Trace` runs a training step eagerly once per batch
shape and keeps its tape; every later batch of that shape replays it:
rebind the batch arrays, rerun the forward and backward functions in
recorded order into the first run's buffers (`out=` where numpy allows
it), and write the gradient straight into a vector laid out like
`ParamStore.flat`. A replay calls the same ufuncs and gemm routines on the
same operands in the same order as the eager step, so the two give the same
bits; this is the record-once, replay-many scheme of Frostig, Johnson and
Leary, "Compiling machine learning programs via high-level tracing" (SysML
2018), without the compiler. Parameters live in one flat vector, and one
Adam step is a few whole-vector operations over it.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, DimensionError, FormatError, NumericError
from .prng import derive_seed, uniform_array

EPS_PROB = 1e-7  # probability clamp applied before every log


def _as_matrix(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"expected 2-D matrix, got shape {arr.shape}")
    return arr


class Node:
    """One value in the recorded forward cache.

    A node `flows` when it is a parameter or depends on one; gradients are
    computed only into flowing nodes, so constants never get one. A node
    joins the tape of its first parent that has one. Tapes hold weak
    references, so a graph forms no reference cycle and is freed with its
    last node. `gbuf` is the buffer a replay writes the gradient into.
    """

    __slots__ = ("value", "grad", "gbuf", "parents", "flows", "aux", "tape", "_guard",
                 "__weakref__")
    fw = bw = None  # an op's forward and backward function (see _Op)

    def __init__(self, value, parents=(), aux=None, guard=None, tape=None):
        self.value, self.grad, self.gbuf, self.parents, self.aux = value, None, None, parents, aux
        self.flows = guard is not None or any(p.flows for p in parents)
        self._guard = guard  # (ParamStore, version) for staleness checks
        self.tape = next((p.tape for p in parents if p.tape is not None), tape)
        if self.tape is not None:
            self.tape.append(weakref.ref(self))


def constant(x) -> Node:
    return Node(_as_matrix(x))


def _live(tape: list) -> list[Node]:
    """The nodes of a tape still alive, in creation order."""
    return [node for ref in tape if (node := ref()) is not None]


def _buf(node: Node):
    """Where `node`'s next gradient contribution may be written: its replay
    buffer if it is the first, else a new array."""
    return node.gbuf if node.grad is None else None


def _acc(node: Node, g: np.ndarray) -> None:
    """Add one gradient contribution to `node`. The first is stored as is and
    never mutated; later ones are summed into the node's own buffer (a new
    array on an eager tape), so a `g` handed to two parents is never aliased
    into a sum."""
    node.grad = g if node.grad is None else np.add(node.grad, g, out=node.gbuf)


def backward(loss: Node) -> None:
    """Fill .grad on every node between `loss` and the parameters.

    Each op adds its contributions through `_acc`, in reverse tape order, so
    a node's gradient is summed in the order a zero-filled accumulator sums
    it and every nonzero value is bit-identical to one; only the sign of an
    exact zero can differ. Nodes that depend on no parameter (constants)
    keep `grad` None. The forward cache must still match the parameter
    values it was recorded for; a ParamStore mutation in between raises
    ContractViolation, as does a gradient that would flow into another
    `as_nodes` call's tape, which this walk would not visit.
    """
    if loss.value.shape != (1, 1):
        raise DimensionError(f"loss must be scalar (1,1), got {loss.value.shape}")
    nodes = _live(loss.tape) if loss.flows else []
    if any(p.flows and p.tape is not loss.tape for node in nodes for p in node.parents):
        raise ContractViolation("the loss mixes the tapes of two as_nodes calls")
    for node in nodes:
        if node._guard is not None and node._guard[0].version != node._guard[1]:
            raise ContractViolation("stale forward cache: parameters changed since forward pass")
    _backprop(loss, nodes, _backward_steps(nodes))


def _backward_steps(nodes: list[Node]) -> list[tuple]:
    """(node, its bound bw) of each op among `nodes`, in reverse tape order."""
    return [(node, node.bw) for node in reversed(nodes) if node.bw is not None]


def _backprop(loss: Node, nodes: list[Node], steps: list[tuple]) -> None:
    """Reset the gradients of `nodes`, then run each backward step from `loss`
    whose node has received a gradient."""
    if not np.isfinite(loss.value[0, 0]):
        raise NumericError("loss is not finite")
    for node in nodes:
        node.grad = None
    loss.grad = np.ones((1, 1))
    for node, bw in steps:
        if node.grad is not None:
            bw(node.grad)


# ---------------------------------------------------------------------------
# ops: fw(out) returns the node's value, written into `out` when a replay
# passes one; bw(g) adds the parents' gradient contributions
# ---------------------------------------------------------------------------


class _Op(Node):
    """An op's output node: it joins its parents' tape, then computes its value."""

    def __init__(self, *parents: Node, aux=None):
        super().__init__(None, parents, aux)
        self.value = self.fw(None)


class _Unary(_Op):
    """An op over one node; further arguments are its `aux`."""

    def __init__(self, x: Node, *aux):
        super().__init__(x, aux=aux)


class matmul(_Op):
    def __init__(self, a: Node, b: Node):
        if a.value.shape[1] != b.value.shape[0]:
            raise DimensionError(f"matmul {a.value.shape} x {b.value.shape}")
        super().__init__(a, b)

    def fw(self, out):
        return np.matmul(self.parents[0].value, self.parents[1].value, out=out)

    def bw(self, g):
        a, b = self.parents[:2]
        if a.flows:
            _acc(a, np.matmul(g, b.value.T, out=_buf(a)))
        if b.flows:
            _acc(b, np.matmul(a.value.T, g, out=_buf(b)))


class affine(matmul):
    """x @ w plus the row-broadcast bias b (1, k), as one op."""

    def __init__(self, x: Node, w: Node, b: Node):
        if x.value.shape[1] != w.value.shape[0] or b.value.shape != (1, w.value.shape[1]):
            raise DimensionError(f"affine {x.value.shape} x {w.value.shape} + {b.value.shape}")
        _Op.__init__(self, x, w, b)

    def fw(self, out):
        out = matmul.fw(self, out)
        return np.add(out, self.parents[2].value, out=out)

    def bw(self, g):
        b = self.parents[2]
        if b.flows:
            _acc(b, np.add.reduce(g, axis=0, keepdims=True, out=_buf(b)))
        matmul.bw(self, g)


class _Elementwise(_Op):
    """`ufunc` over two nodes of one shape."""

    def __init__(self, a: Node, b: Node):
        if a.value.shape != b.value.shape:
            raise DimensionError(f"shape mismatch {a.value.shape} vs {b.value.shape}")
        super().__init__(a, b)

    def fw(self, out):
        return self.ufunc(self.parents[0].value, self.parents[1].value, out=out)


class add(_Elementwise):
    ufunc = np.add

    def bw(self, g):
        for p in self.parents:
            if p.flows:
                _acc(p, g)


class sub(_Elementwise):
    ufunc = np.subtract

    def bw(self, g):
        a, b = self.parents
        if a.flows:
            _acc(a, g)
        if b.flows:
            _acc(b, np.negative(g, out=_buf(b)))


class mul(_Elementwise):
    ufunc = np.multiply

    def bw(self, g):
        a, b = self.parents
        if a.flows:
            _acc(a, np.multiply(g, b.value, out=_buf(a)))
        if b.flows:
            _acc(b, np.multiply(g, a.value, out=_buf(b)))


class scale(_Unary):
    """x * s for a float s."""

    def fw(self, out):
        return np.multiply(self.parents[0].value, float(self.aux[0]), out=out)

    def bw(self, g):
        x = self.parents[0]
        _acc(x, np.multiply(g, float(self.aux[0]), out=_buf(x)))


class relu(_Unary):
    def fw(self, out):
        return np.maximum(self.parents[0].value, 0.0, out=out)

    def bw(self, g):
        x = self.parents[0]
        _acc(x, np.multiply(g, x.value > 0.0, out=_buf(x)))


class tanh_(_Unary):
    def fw(self, out):
        return np.tanh(self.parents[0].value, out=out)

    def bw(self, g):
        x, t = self.parents[0], self.value
        _acc(x, np.multiply(g, 1.0 - t * t, out=_buf(x)))


class sigmoid(_Unary):
    def fw(self, out):  # 1 / (1 + exp(-x)), one ufunc at a time in one buffer
        out = np.exp(np.negative(self.parents[0].value, out=out), out=out)
        return np.divide(1.0, np.add(1.0, out, out=out), out=out)

    def bw(self, g):
        x, s = self.parents[0], self.value
        _acc(x, np.multiply(g * s, 1.0 - s, out=_buf(x)))


class concat_cols(_Op):
    def __init__(self, nodes: list[Node]):
        if len({n.value.shape[0] for n in nodes}) != 1:
            raise DimensionError("concat_cols row mismatch")
        super().__init__(*nodes)

    def fw(self, out):
        return np.concatenate([p.value for p in self.parents], axis=1, out=out)

    def bw(self, g):
        off = 0
        for p in self.parents:
            w = p.value.shape[1]
            if p.flows:
                _acc(p, g[:, off : off + w])
            off += w


class slice_cols(_Unary):
    """Columns start:stop of x, as (x, start, stop)."""

    def fw(self, out):
        return self.parents[0].value[:, slice(*self.aux)].copy()

    def bw(self, g):
        x = self.parents[0]
        full = np.zeros_like(x.value)  # owned, so the in-place add is safe
        full[:, slice(*self.aux)] += g
        _acc(x, full)


class reshape(_Unary):
    """x as a (rows, cols) matrix, as (x, rows, cols)."""

    def fw(self, out):
        return self.parents[0].value.reshape(self.aux)

    def bw(self, g):
        x = self.parents[0]
        _acc(x, g.reshape(x.value.shape))


class gather_rows(_Op):
    """Embedding lookup: rows of `table` by the integer indices `idx` holds.
    The backward pass is one flat `np.bincount` over the
    cells `idx*d + col`. A gradient the table already holds goes first, so
    every cell is summed in `np.add.at`'s order: existing value, then the
    gathered rows in index order.
    """

    def __init__(self, table: Node, idx: Node):
        if idx.value.ndim != 1 or (idx.value.size and idx.value.min() < 0):
            raise DimensionError("gather index must be 1-D and non-negative")
        super().__init__(table, idx)

    def fw(self, out):
        return self.parents[0].value[self.parents[1].value]

    def bw(self, g):
        table, idx = self.parents[0], self.parents[1].value
        n, d = table.value.shape
        cells = (idx[:, None] * d + np.arange(d)).ravel()
        weights = g.ravel()
        if table.grad is not None:
            cells = np.concatenate([np.arange(n * d), cells])
            weights = np.concatenate([table.grad.ravel(), weights])
        table.grad = np.bincount(cells, weights, minlength=n * d).reshape(n, d)


class din_features(_Op):
    """DIN's attention input [z; q; z*q; z-q] of entries z (B*L, d) and queries
    q (B, d), as (z, q, L): one (B*L, 4d) value, q broadcast over its L entries.
    Backward adds the contributions of the four ops it fuses (row repeat, mul,
    sub, concat) in their order, so every gradient keeps its bits."""

    def __init__(self, entries: Node, query: Node, seq_len: int):
        if entries.value.shape != (len(query.value) * seq_len, query.value.shape[1]):
            raise DimensionError(f"din_features {entries.value.shape} vs {seq_len} x "
                                 f"{query.value.shape}")
        super().__init__(entries, query, aux=seq_len)

    def _blocks(self, arr):
        """The (B, L, d) views of the four column blocks of a (B*L, 4d) array."""
        b, d = self.parents[1].value.shape
        return np.moveaxis(arr.reshape(b, self.aux, 4, d), 2, 0)

    def fw(self, out):
        z, q = self.parents[0].value, self.parents[1].value[:, None, :]
        out = np.empty((len(z), 4 * q.shape[2])) if out is None else out
        o_z, o_q, o_mul, o_sub = self._blocks(out)
        o_z[...], o_q[...] = z.reshape(o_z.shape), q
        np.multiply(o_z, q, out=o_mul)
        np.subtract(o_z, q, out=o_sub)
        return out

    def bw(self, g):
        z, q = self.parents
        g_z, g_q, g_mul, g_sub = self._blocks(g)
        if z.flows:  # concat's block, then sub's, then mul's
            for part in (g_z, g_sub, np.multiply(g_mul, q.value[:, None, :])):
                _acc(z, part.reshape(z.value.shape))
        if q.flows:  # g_q + (-g_sub) has the bits of g_q - g_sub
            rep = np.subtract(g_q, g_sub)
            rep += np.multiply(g_mul, z.value.reshape(g_mul.shape))
            _acc(q, rep.sum(axis=1, out=_buf(q)))


class masked_softmax(_Op):
    """Row-wise softmax over the entries `mask` holds True; all-invalid rows
    give zeros."""

    def __init__(self, scores: Node, mask: Node):
        if mask.value.shape != scores.value.shape:
            raise DimensionError("mask shape mismatch")
        super().__init__(scores, mask)

    def fw(self, out):
        scores, m = self.parents[0].value, self.parents[1].value
        neg = np.where(m, scores, -np.inf)
        rows_any = m.any(axis=1, keepdims=True)
        shifted = neg - np.where(rows_any, neg.max(axis=1, keepdims=True), 0.0)
        expd = np.where(m, np.exp(shifted), 0.0)
        denom = expd.sum(axis=1, keepdims=True)
        return np.divide(expd, denom, out=np.zeros_like(expd), where=denom > 0)

    def bw(self, g):
        scores, soft = self.parents[0], self.value
        dot = (g * soft).sum(axis=1, keepdims=True)
        _acc(scores, np.multiply(soft, g - dot, out=_buf(scores)))


class attn_pool(_Op):
    """Pool sequence entries with per-entry weights.

    weights: (B, L); entries: (B*L, d) laid out batch-major. Output (B, d).
    """

    def __init__(self, weights: Node, entries: Node, seq_len: int):
        b, l = weights.value.shape
        if l != seq_len or entries.value.shape[0] != b * l:
            raise DimensionError("attn_pool layout mismatch")
        super().__init__(weights, entries)

    def _entries(self):
        weights, entries = self.parents[0].value, self.parents[1].value
        return entries.reshape(*weights.shape, entries.shape[1])

    def fw(self, out):
        return np.einsum("bl,bld->bd", self.parents[0].value, self._entries(), out=out)

    def bw(self, g):
        weights, entries = self.parents
        if weights.flows:
            _acc(weights, np.einsum("bd,bld->bl", g, self._entries(), out=_buf(weights)))
        if entries.flows:
            _acc(entries, (weights.value[:, :, None] * g[:, None, :]).reshape(entries.value.shape))


class sum_all(_Unary):
    def fw(self, out):
        return np.array([[self.parents[0].value.sum()]])

    def bw(self, g):
        _acc(self.parents[0], np.full(self.parents[0].value.shape, g[0, 0]))


def mean_all(x: Node) -> Node:
    n = x.value.size
    return scale(sum_all(x), 1.0 / n)


class bce(_Op):
    """Elementwise cross-entropy against a (possibly soft) target in [0,1].

    p is clamped into [EPS_PROB, 1-EPS_PROB] before the logs; the clamp
    zeroes the gradient outside the band.
    """

    def __init__(self, p: Node, target: Node):
        if target.value.shape != p.value.shape:
            raise DimensionError("bce target shape mismatch")
        super().__init__(p, target)

    def fw(self, out):
        p, t = self.parents[0].value, self.parents[1].value
        pc = np.clip(p, EPS_PROB, 1.0 - EPS_PROB)
        self.aux = pc, (p > EPS_PROB) & (p < 1.0 - EPS_PROB)
        return -(t * np.log(pc) + (1.0 - t) * np.log(1.0 - pc))

    def bw(self, g):
        (pc, inside), t = self.aux, self.parents[1].value
        _acc(self.parents[0], g * inside * (pc - t) / (pc * (1.0 - pc)))


# ---------------------------------------------------------------------------
# parameters, optimizer and replayed training steps
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

    def as_nodes(self, arrays=None) -> dict[str, Node]:
        """A new tape: a node per parameter, then one per batch array of
        `arrays` (name -> array, names distinct from the parameters')."""
        tape: list = []  # weak references, see Node
        nodes = {name: Node(value, guard=(self, self.version), tape=tape)
                 for name, value in self.items()}
        nodes.update((name, Node(value, tape=tape)) for name, value in (arrays or {}).items())
        return nodes

    def copy(self) -> "ParamStore":
        dup = ParamStore()
        dup._flat = self.flat.copy()
        dup._views = self.views(dup._flat)
        return dup


def loss_fn(build, arrays):
    """The eager step of `build` on one batch's arrays, as `grad_check` takes
    it: store -> (loss, nodes)."""
    def fn(store: ParamStore):
        nodes = store.as_nodes(arrays)
        return build(nodes), nodes
    return fn


def glorot_uniform(rows: int, cols: int, seed: int, name: str) -> np.ndarray:
    """Uniform(-sqrt(6/(fan_in+fan_out)), +...) from a per-name stream."""
    limit = math.sqrt(6.0 / (rows + cols))
    u = uniform_array(derive_seed(seed, "init", name), rows * cols)
    return ((u * 2.0 - 1.0) * limit).reshape(rows, cols)


@dataclass
class AdamState:
    """Adam's step count and moments; `m`, `v` and the two `scratch` vectors,
    which each step overwrites, are laid out like `ParamStore.flat`."""

    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    scratch: tuple = field(default_factory=lambda: (np.zeros(0), np.zeros(0)))

    @classmethod
    def for_params(cls, params: ParamStore, lr: float = 0.01) -> "AdamState":
        n = params.flat.size
        return cls(lr=lr, m=np.zeros(n), v=np.zeros(n), scratch=(np.empty(n), np.empty(n)))


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
    # in place and in two scratch vectors; every element gets the bits of m = b1*m +
    # (1-b1)*g, v = b2*v + (1-b2)*g*g and flat -= lr * (m/c1) / (sqrt(v/c2) + eps)
    step, denom = state.scratch
    state.m *= b1
    state.m += np.multiply(grads, 1.0 - b1, out=step)
    state.v *= b2
    state.v += np.multiply(np.multiply(grads, 1.0 - b2, out=step), grads, out=step)
    np.divide(state.m, c1, out=step)
    step *= state.lr
    np.sqrt(np.divide(state.v, c2, out=denom), out=denom)
    denom += state.eps
    step /= denom
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


class Trace:
    """The training steps of one model (see the module docstring).

    `build(nodes)` makes the loss from `ParamStore.as_nodes(arrays)`, where
    `arrays` holds every per-batch array the graph reads. Only these steps
    may change the parameters: a step after any other ParamStore mutation
    raises ContractViolation.
    """

    def __init__(self, build, params: ParamStore, state: AdamState):
        self.build, self.params, self.state = build, params, state
        self.grads = np.zeros_like(params.flat)
        self.tapes: dict[tuple, tuple] = {}
        self.version = params.version

    def step(self, arrays: dict[str, np.ndarray]) -> float:
        """One training step on a batch's arrays; returns its loss."""
        if self.params.version != self.version:
            raise ContractViolation("parameters changed outside the traced training steps")
        key = tuple((name, value.shape) for name, value in arrays.items())
        tape = self.tapes.get(key)
        loss = self.trace(key, arrays) if tape is None else self.replay(tape, arrays)
        adam_step(self.params, self.grads, self.state)
        self.version = self.params.version
        return loss

    def trace(self, key: tuple, arrays: dict[str, np.ndarray]) -> float:
        """One eager step; keeps its tape (batch leaves, op nodes, flowing
        nodes, loss) with a gradient buffer per flowing node whose eager
        gradient was its own, not a view, a parameter's being its view of `grads`."""
        nodes = self.params.as_nodes(arrays)
        loss = self.build(nodes)
        backward(loss)
        tape = _live(loss.tape)
        # backward rejected flowing nodes of other tapes; this rejects constants
        if any(p.tape is not loss.tape for n in tape for p in n.parents):
            raise ContractViolation("the step reads an array outside its batch arrays")
        flowing = [n for n in tape if n.flows]
        for name, view in self.params.views(self.grads).items():
            nodes[name].gbuf = view
        params = [n for n in flowing if n._guard is not None]
        self._collect(params)
        for n in flowing:  # each eager gradient goes before its replay buffer comes
            owned = n.grad is not None and n.grad.base is None  # else a view each replay hands on
            n.grad = None
            if n.gbuf is None and owned:
                n.gbuf = np.empty_like(n.value)
        self.tapes[key] = ([nodes[name] for name in arrays],
                           [(n, n.fw) for n in tape if n.fw is not None],
                           flowing, _backward_steps(flowing), params, loss)
        return float(loss.value[0, 0])

    def replay(self, tape: tuple, arrays: dict[str, np.ndarray]) -> float:
        """Rebinds the batch arrays, then reruns forward and backward."""
        leaves, forward, flowing, backward_steps, params, loss = tape
        for leaf, value in zip(leaves, arrays.values()):
            leaf.value = value
        for n, fw in forward:
            n.value = fw(n.value)
        _backprop(loss, flowing, backward_steps)
        self._collect(params)
        return float(loss.value[0, 0])

    @staticmethod
    def _collect(params: list[Node]) -> None:
        """Writes each parameter's gradient into its view of `grads`."""
        for n in params:
            if n.grad is not n.gbuf:
                n.gbuf[...] = 0.0 if n.grad is None else n.grad


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
