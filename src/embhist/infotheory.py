"""Exact entropy / conditional-MI engine over dense joint tables, plus the
verification operations for the gain-decomposition identity, the pipeline
loss decomposition, the gain sandwich, sequence-length monotonicity, and
the transfer-ratio lower bound.

All information quantities are in bits (log base 2); ratios (tau, eta,
transfer ratio) are base-invariant. MI values are floored at -1e-12 and
clamped to zero; anything more negative indicates a bug and raises.

Memoized (_once) in a dict on its owner and freed with it; nothing is kept
at process level. A JointTable keeps marginals by (sorted axes, names),
entropies by requested axis order, and folds (remap) by content: each kept
variable's axis, each Derived's source axes, codes shape, dtype and bytes,
compared exactly. A hit under other names is a table over the same probs
sharing that memo, with its own named marginals. A world's folds hang off
its cached marginal (_remap_referenced); a world keeps posterior embedding
tables and gap terms, a TablePipeline stage codes and reports per world. No
value can move: a fold depends only on probs and its key, and an entropy's
summation order only on its marginal and the axis order in its key.

A TablePipeline holds arrays, not per-event callbacks: its teacher
embedding is one (V cells, visible-prefix cells, k) table in mixed-radix
order, and its compress and quantize stages are elementwise array maps.
stage_codes codes each stage's rows once per world; _seq_derived combines
one step's codes into a history sequence's.

eta is a ratio of small MIs, so it gets a rounding-error budget instead of
an absolute floor (Higham, Accuracy and Stability of Numerical Algorithms,
ch. 3-4). Let u = 2^-53, gamma_k = k u / (1 - k u), N the world's cells.
- A marginal probability p is a sum of at most N non-negative products of
  k factor entries: k = 3(n_hist+1) for enumerate_world's chain factors
  (JointTable.from_factors), 1 for a dense table. np.einsum contracts the
  factors onto the axes the outputs reference (see _remap_referenced), remap
  scatter-adds that marginal row-major, then numpy sums for each entropy's
  marginal. Relative error is at most gamma_{N+k} in any contraction order.
- -p log2 p then moves by at most |log2 p + log2 e| gamma_{N+k} p, so an
  entropy H moves by at most gamma_{N+k} (H + log2 e). log2, the product, the
  longdouble sum and the float64 result add a few u H: charge
  gamma_{N+k+4} (H + log2 e).
- A conditional MI adds three float64 additions, so with entropy terms H_k
  it is off by at most gamma_{N+k+7} sum_k (H_k + log2 e).
- cross_sum = (i_raw - i_e) + (i_e - i_z) + (i_z - i_s) telescopes exactly
  to i_raw - i_s >= 0 (S is a function of the visible views and history).
  The computed i_e and i_z cancel up to the rounding of those five
  additions, gamma_3 times the sum of the three |cross losses|.
eta = cross_sum / i_raw below 0 by at most that total over i_raw is clamped
to 0; further below it raises (cross_sum_rounding_bound, clamp_eta).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericError, SchemaError, SizeError
from .prng import Stream, derive_seed

MI_FLOOR = -1e-12
_CELL_BUDGET = 50_000_000
_LOG2_E = math.log2(math.e)


def _entropy_bits(p: np.ndarray) -> float:
    flat = p.ravel()
    nz = flat[flat > 0.0]
    if nz.size == 0:
        return 0.0
    return float(-np.sum(nz * np.log2(nz), dtype=np.longdouble))


def cmi_from_terms(terms) -> float:
    """I(X; Y | Z) from JointTable.cmi_terms, clamped at 0."""
    h_xz, h_yz, h_xyz, h_z = terms
    value = h_xz + h_yz - h_xyz - h_z
    if value < MI_FLOOR:
        raise NumericError(f"conditional MI {value} below numerical floor")
    return max(value, 0.0)


def cross_sum_rounding_bound(raw_terms, s_terms, cross_losses, n_cells: int,
                             n_factors: int = 1) -> float:
    """Bound on |computed cross_sum - (i_raw - i_s)| for a world of n_cells
    cells whose marginal cells are sums of products of n_factors entries,
    from the entropy terms of i_raw and i_s (module docstring)."""
    def gamma(k):
        return k * 2.0**-53 / (1.0 - k * 2.0**-53)

    entropies = sum(abs(h) + _LOG2_E for h in (*raw_terms, *s_terms))
    return gamma(n_cells + n_factors + 7) * entropies + gamma(3) * sum(map(abs, cross_losses))


def clamp_eta(cross_sum: float, i_raw: float, cross_err: float) -> float:
    """eta = cross_sum / i_raw, where cross_sum is exactly >= 0 up to its
    rounding error cross_err: clamped to 0 within cross_err / i_raw below 0,
    NumericError further below. It is not clamped from above, so an eta
    above 1 reaches the theory suite's eta_in_unit_interval gate."""
    if i_raw <= 1e-15:
        return 0.0
    eta = cross_sum / i_raw
    if eta < -cross_err / i_raw:
        raise NumericError(f"eta {eta} below its rounding bound {-cross_err / i_raw}")
    return max(eta, 0.0)


@dataclass(frozen=True, eq=False)
class Derived:
    """Variable computed cell-wise from other variables of a table.

    codes is an integer array shaped by the sources' cards: its value at
    (s1, s2, ...) is the variable's value where the sources take those
    values. remap compacts the distinct codes to dense ones in the order
    they first appear in row-major order.
    """

    name: str
    sources: tuple[str, ...]
    codes: np.ndarray


class JointTable:
    """Explicit pmf over a tuple of small discrete variables, held as its
    dense array or as a product of factors (from_factors)."""

    def __init__(self, names, cards, probs: np.ndarray):
        self._init(names, cards)
        probs = np.asarray(probs, dtype=np.float64)
        if probs.shape != self.cards:
            raise SchemaError(f"probs shape {probs.shape} != cards {self.cards}")
        if probs.size > _CELL_BUDGET:
            raise SizeError(f"table of {probs.size} cells exceeds budget")
        if float(probs.min(initial=0.0)) < MI_FLOOR:
            raise NumericError("negative probability mass")
        # a copy this table owns (np.maximum of a 0-d array is a scalar),
        # read-only so that the marginals cached on it always describe it
        probs = np.asarray(np.maximum(probs, 0.0))
        _check_mass(np.sum(probs, dtype=np.longdouble))
        probs.flags.writeable = False
        self.probs = probs

    @classmethod
    def from_factors(cls, names, cards, factors) -> "JointTable":
        """The pmf prod_f f, each factor a (variable names, array) pair over
        some of the table's variables. marginal is one np.einsum over the
        factors onto the kept axes, and probs the same contraction over every
        axis, built on first read."""
        t = cls.__new__(cls)._init(names, cards)
        if math.prod(t.cards) > _CELL_BUDGET:
            raise SizeError(f"table of {math.prod(t.cards)} cells exceeds budget")
        t._factors = []
        for fnames, f in factors:
            axes, f = t._axes(fnames), np.asarray(f, dtype=np.float64)
            if f.shape != tuple(t.cards[a] for a in axes):
                raise SchemaError(f"factor over {fnames} has shape {f.shape}")
            if float(f.min(initial=0.0)) < MI_FLOOR:
                raise NumericError(f"negative factor entry over {fnames}")
            f = np.maximum(f, 0.0)
            f.flags.writeable = False
            t._factors += [f, axes]
        if {a for axes in t._factors[1::2] for a in axes} != set(range(len(t.names))):
            raise SchemaError("every variable needs a factor")
        _check_mass(t._contract(()))
        return t

    def _init(self, names, cards, probs=None, memo=None):
        self.names = tuple(names)
        self.cards = tuple(int(c) for c in cards)
        self._index = {name: axis for axis, name in enumerate(self.names)}
        if len(self._index) != len(self.names):
            raise SchemaError("duplicate variable names")
        if probs is not None:
            self.probs = probs  # in place of the contraction below
        # from_factors' einsum operands (array, axes, array, axes, ...)
        self._factors = None
        # marginals, folds and entropies (_once); a renamed fold shares it
        self._memo = {} if memo is None else memo
        return self

    @functools.cached_property
    def probs(self) -> np.ndarray:
        """A factor table's dense joint, contracted on first read."""
        return self._contract(tuple(range(len(self.names))))

    def _contract(self, kept) -> np.ndarray:
        """This table summed over every axis not in `kept`, read-only: by
        numpy (0-d if nothing is kept), or one np.einsum over the factors."""
        if self._factors is None:
            drop = tuple(i for i in range(len(self.names)) if i not in kept)
            probs = np.asarray(self.probs.sum(axis=drop))
        else:
            probs = np.asarray(np.einsum(*self._factors, kept, optimize=True))
        probs.flags.writeable = False
        return probs

    # -- variable bookkeeping -------------------------------------------

    def _axis(self, name: str) -> int:
        if name not in self._index:
            raise SchemaError(f"unknown variable {name!r}")
        return self._index[name]

    def _axes(self, names) -> tuple[int, ...]:
        names = tuple(names)
        if len(set(names)) != len(names):
            raise SchemaError(f"repeated variable in {names}")
        return tuple(map(self._axis, names))

    # -- marginals and entropies ----------------------------------------

    def marginal(self, names) -> "JointTable":
        """The joint of `names`, in this table's axis order: the other axes
        summed out once per axis set (_contract), and kept on this table."""
        kept = tuple(sorted(self._axes(names)))
        if len(kept) == len(self.names):
            return self
        names = tuple(self.names[i] for i in kept)
        return _once(self, ("marginal", kept, names), lambda: JointTable.__new__(JointTable)._init(
            names, [self.cards[i] for i in kept], self._contract(kept)))

    def marginal_array(self, names) -> np.ndarray:
        axes = self._axes(names)
        m = self.marginal(names).probs  # its axes in this table's order
        ranks = [sorted(axes).index(a) for a in axes]
        return m if ranks == sorted(ranks) else np.transpose(m, ranks)

    def entropy(self, names=None) -> float:
        """H(names) in bits; 0*log 0 := 0."""
        names = self.names if names is None else tuple(names)
        if not names:
            return 0.0
        return _once(self, ("entropy", self._axes(names)),
                     lambda: _entropy_bits(self.marginal_array(names)))

    def cond_entropy(self, ys, zs=()) -> float:
        """H(Y | Z) = H(Y,Z) - H(Z)."""
        ys, zs = tuple(ys), tuple(zs)
        return self.entropy(ys + zs) - self.entropy(zs)

    def cmi_terms(self, xs, ys, zs=()) -> tuple[float, float, float, float]:
        """The entropies (H(X,Z), H(Y,Z), H(X,Y,Z), H(Z)) behind I(X; Y | Z)."""
        xs, ys, zs = tuple(xs), tuple(ys), tuple(zs)
        if set(xs) & set(ys) or set(xs) & set(zs) or set(ys) & set(zs):
            raise SchemaError("X, Y, Z must be disjoint variable sets")
        return (self.entropy(xs + zs), self.entropy(ys + zs),
                self.entropy(xs + ys + zs), self.entropy(zs))

    def cond_mutual_info(self, xs, ys, zs=()) -> float:
        """I(X; Y | Z) = H(X,Z) + H(Y,Z) - H(X,Y,Z) - H(Z), clamped at 0."""
        return cmi_from_terms(self.cmi_terms(xs, ys, zs))

    # -- restructuring ----------------------------------------------------

    def _axis_grid(self, axis: int) -> np.ndarray:
        """Values 0..card-1 of one axis, laid on that axis so the grid
        broadcasts against the table."""
        shape = [1] * len(self.cards)
        shape[axis] = self.cards[axis]
        return np.arange(self.cards[axis], dtype=np.int64).reshape(shape)

    def remap(self, outputs) -> "JointTable":
        """Project onto a new variable list; entries are either existing
        variable names (kept as-is) or Derived specs.

        The fold is looked up by its content (module docstring) before
        anything is ranked or folded; a hit under other names is a table with
        those names over the same probs.
        """
        cols, key = [], []  # (name, axis or source axes, codes or None)
        for spec in outputs:
            if isinstance(spec, str):
                cols.append((spec, self._axis(spec), None))
                key.append(cols[-1][1])
                continue
            axes = tuple(map(self._axis, spec.sources))
            codes, src_cards = np.asarray(spec.codes), tuple(self.cards[a] for a in axes)
            if codes.shape != src_cards:
                raise SchemaError(f"{spec.name} codes shape {codes.shape} != cards {src_cards}")
            cols.append((spec.name, axes, codes))
            key.append((axes, codes.shape, codes.dtype.str, codes.tobytes()))
        names = tuple(name for name, _, _ in cols)
        fold = _once(self, ("fold", tuple(key)), lambda: self._fold(names, cols))
        return fold if fold.names == names else JointTable.__new__(JointTable)._init(
            names, fold.cards, fold.probs, fold._memo)

    def _fold(self, names, cols) -> "JointTable":
        """remap's table. Each output column is a small grid that broadcasts
        against this table: an axis arange for a kept variable, the
        Derived's dense codes looked up by the grids of its source axes
        otherwise. The grids fold into one key sized on the referenced axes
        only, and _fold_cells adds the table up against it, so an axis no
        output references never widens the key."""
        cards, key = [], np.zeros((1,) * len(self.cards), dtype=np.int64)
        for _, axes, codes in cols:
            if codes is None:
                card, grid = self.cards[axes], self._axis_grid(axes)
            else:
                dense, card = _first_seen_ranks(codes)
                grid = dense[tuple(map(self._axis_grid, axes))]
            cards.append(card)
            key = key * card + grid
        total = math.prod(cards)
        if total > _CELL_BUDGET:
            raise SizeError(f"remap would produce {total} cells")
        return JointTable(names, cards, _fold_cells(key, self.probs, total).reshape(cards))


def _first_seen_ranks(codes: np.ndarray) -> tuple[np.ndarray, int]:
    """codes made dense in first-seen order, each distinct code ranked by its
    first row-major index, and the number of distinct codes. Codes already
    so (the first is 0, none is negative, and each is at most one above the
    running maximum) are returned as they are."""
    flat = codes.ravel()
    running = np.maximum.accumulate(flat)
    if flat.size and flat[0] == 0 and flat.min() >= 0 and (flat[1:] <= running[:-1] + 1).all():
        return codes, int(running[-1]) + 1
    _, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse].reshape(codes.shape), first.size


def _once(owner, key, compute):
    """owner._memo[key], computed by compute() on its first request."""
    if key not in owner._memo:
        owner._memo[key] = compute()
    return owner._memo[key]


def _check_mass(total) -> None:
    if abs(float(total) - 1.0) > 1e-12:
        raise NumericError(f"mass {float(total)!r} not within 1e-12 of 1")


def _remap_referenced(table: JointTable, outputs) -> JointTable:
    """table.remap(outputs), folded from table.marginal over the variables
    the outputs reference (kept names and Derived sources), so the fold adds
    up the marginal's cells rather than every cell of the table."""
    used = {n for spec in outputs
            for n in ((spec,) if isinstance(spec, str) else spec.sources)}
    return table.marginal(used).remap(outputs)


def _fold_cells(key: np.ndarray, probs: np.ndarray, total: int) -> np.ndarray:
    """out[k] = sum of probs over the cells whose key is k, where `key`
    broadcasts against `probs`; np.bincount adds in row-major order from
    +0.0."""
    return np.bincount(np.broadcast_to(key, probs.shape).ravel(), probs.ravel(), total)


# ---------------------------------------------------------------------------
# verification worlds and table pipelines
# ---------------------------------------------------------------------------


def hist_var(prefix: str, step: int) -> str:
    return f"{prefix}{step}"


@dataclass(frozen=True)
class VerificationWorld:
    """Enumerated joint over current features, label, and raw history.

    Variable names: "V" (current student-visible features, composite),
    "E" (current extra features, composite), "Y" (label), and per history
    step i in 1..n_hist (step n_hist is the most recent): "Vi", "Ei", "Yi".
    """

    table: JointTable
    n_hist: int
    vm_feature_cards: tuple[int, ...]
    extra_feature_cards: tuple[int, ...]
    # small per-world values computed once (_once): posterior arrays and
    # per-feature gap terms. It holds no table or pipeline, so a world is
    # freed without the cyclic GC.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def hist_vm_vars(self, last: int | None = None) -> tuple[str, ...]:
        last = self.n_hist if last is None else last
        return tuple(hist_var("V", i) for i in range(self.n_hist - last + 1, self.n_hist + 1))

    def hist_extra_vars(self, last: int | None = None) -> tuple[str, ...]:
        last = self.n_hist if last is None else last
        return tuple(hist_var("E", i) for i in range(self.n_hist - last + 1, self.n_hist + 1))


@dataclass(frozen=True, eq=False)
class TablePipeline:
    """Tiny deterministic extract -> compress -> quantize stack used for
    exact verification. The teacher's embedding is one table and the other
    two stages are elementwise array maps:

      emb[v, p]: the k floats of the event with V cell v and visible extras
        prefix cell p, both in mixed-radix order (copied, read-only)
      ae_fn(array) -> array of the same shape
      quant_fn(array) -> integer-valued array of the same shape

    The identities hold for any deterministic choice of these maps.
    """

    n_extras_visible: int
    emb: np.ndarray
    ae_fn: object
    quant_fn: object
    # stage_codes and verify_pipeline's report per world (_once)
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        emb = np.array(self.emb, dtype=np.float64)
        emb.flags.writeable = False
        object.__setattr__(self, "emb", emb)

    def stage_codes(self, world: VerificationWorld) -> np.ndarray:
        """Codes of the (embedding, compressed, quantized) rows of every
        (V, E) cell pair of `world`, indexed [stage, v_idx, e_idx] (_row_codes).
        Computed once per world, kept on this pipeline. emb covers only the
        visible extras prefix, so each code repeats over the hidden suffix of
        E's digits."""
        ecards, n = world.extra_feature_cards, self.n_extras_visible
        cells = (math.prod(world.vm_feature_cards), math.prod(ecards[:n]))
        if self.emb.ndim != 3 or self.emb.shape[:2] != cells:
            raise SchemaError(f"embedding table shape {self.emb.shape} != {cells} + (k,)")

        def run():
            z = self.ae_fn(self.emb)
            codes = np.array([_row_codes(a) for a in (self.emb, z, self.quant_fn(z))])
            return codes.reshape(3, *cells).repeat(math.prod(ecards[n:]), axis=2)

        return _once(self, ("codes", world), run)


def _row_codes(stage: np.ndarray) -> list[int]:
    """A code per (V, prefix) row of a stage array, in first-seen row-major
    order: rows share one exactly when their tuples compare equal (so -0.0
    and 0.0 do)."""
    ids = {}
    return [ids.setdefault(row, len(ids))
            for row in map(tuple, stage.reshape(-1, stage.shape[-1]).tolist())]


def _seq_derived(world: VerificationWorld, pipe: TablePipeline, stage: int,
                 name: str, last: int | None = None) -> Derived:
    """Derived sequence variable over the last `last` history steps: the
    mixed-radix combination of each step's stage code, oldest step first.

    stage: 0 = raw embedding tuple, 1 = compressed, 2 = quantized.
    """
    last = world.n_hist if last is None else last
    sources = tuple(itertools.chain(*zip(world.hist_vm_vars(last), world.hist_extra_vars(last))))
    step = pipe.stage_codes(world)[stage]
    codes = np.zeros((), dtype=np.int64)
    for _ in range(last):
        codes = np.add.outer(codes * step.size, step)
    return Derived(name, sources, codes)


def grid_ae(grid: int):
    """Coarse deterministic compressor: snap each coordinate to a grid."""
    return lambda emb: np.rint(emb * grid) / grid


def uniform_quantizer(bits: int):
    """b-bit scalar quantizer on [-1, 1]: code = clamp(round(z*2^(b-1)))."""
    half = 1 << (bits - 1)
    return lambda z: np.clip(np.rint(z * half), -half, half - 1)


def fixed_point_quantizer():
    """High-resolution fixed-point codes; lossless whenever distinct
    coordinates differ by more than 1e-9 (the b -> inf limit)."""
    return lambda z: np.rint(z * 1e9)


def identity_stage(values):
    return values


def posterior_embedding(world: VerificationWorld, n_visible: int) -> np.ndarray:
    """Exact-table teacher: the (V, visible prefix, 1) table of
    [2*P(y=1 | features) - 1], memoized on the world.

    The posterior is taken from the most recent history step's conditional
    law, restricted to the teacher's visible extras. Values are rounded to
    12 decimals (Python's round, cell by cell) so mathematically equal
    posteriors are bit-equal; without this, summation noise would make the
    embedding spuriously informative about the raw features.
    """
    def posterior():
        step = world.n_hist
        # the view's dense codes are its mixed-radix codes: prefixes first
        # appear in increasing order as E counts up
        view_d = _extras_derived(world, "Eview", hist_var("E", step), slice(n_visible))
        t = _remap_referenced(world.table, [hist_var("V", step), view_d, hist_var("Y", step)])
        joint = t.probs  # (Cv, Cview, 2)
        denom = joint.sum(axis=2)
        post = np.divide(joint[:, :, 1], denom, out=np.full_like(denom, 0.5), where=denom > 0)
        emb = np.array([round(x, 12) for x in (2.0 * post - 1.0).ravel().tolist()])
        emb.flags.writeable = False
        return emb.reshape(*post.shape, 1)

    return _once(world, ("posterior", n_visible), posterior)


def random_table_pipeline(world: VerificationWorld, seed: int) -> TablePipeline:
    """Random small pipeline for the verification battery: a random or
    posterior-table teacher map, an optional coarse grid compressor, and a
    1-3 bit scalar quantizer. Identities must hold for every draw."""
    stream = Stream(derive_seed(seed, "battery-pipeline"))
    n_visible = 1 + stream.randint(len(world.extra_feature_cards))

    kind = stream.randint(3)
    if kind == 0:
        emb = posterior_embedding(world, n_visible)
    else:
        dim = 1 + stream.randint(2)
        shape = (math.prod(world.vm_feature_cards),
                 math.prod(world.extra_feature_cards[:n_visible]), dim)
        emb = (stream.uniforms(math.prod(shape)) * 2.0 - 1.0).reshape(shape)

    ae_fn = identity_stage if stream.uniform() < 0.4 else grid_ae(2 + stream.randint(3))
    quant_fn = uniform_quantizer(1 + stream.randint(3))
    return TablePipeline(n_extras_visible=n_visible, emb=emb, ae_fn=ae_fn, quant_fn=quant_fn)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineReport:
    l_repr: float
    l_ae: float
    l_q: float
    l_repr_cross: float
    l_ae_cross: float
    l_q_cross: float
    tau: float
    eta: float
    i_temporal: float
    i_feature_raw: float
    i_cross: float
    i_residual: float
    i_loopgain: float                # I(Sseq; Y | V): the total sequence-feature gain
    pipeline_bound_slack: float      # sum(temporal losses) - i_residual, >= -1e-9
    cross_identity_residual: float   # |i_feature_raw - i_cross - sum(cross losses)|
    gain_identity_residual: float    # |i_loopgain - (i_temporal + i_cross - i_residual)|

    def __post_init__(self):
        for name in ("l_repr", "l_ae", "l_q", "l_repr_cross", "l_ae_cross", "l_q_cross"):
            if getattr(self, name) < MI_FLOOR:
                raise NumericError(f"{name} below numerical floor")


@dataclass(frozen=True)
class TRBoundParams:
    """Constants of the transfer-ratio lower bound."""

    tau2: float
    eta1: float
    kappa_gap_hist_lo: float
    kappa_gap_hi: float
    i_temporal: float
    delta: float
    kappa_over_hi: float = 0.0
    kappa_over_lo: float = 0.0
    xi1: float = 0.0
    xi2: float = 0.0

    def __post_init__(self):
        # no ordering between the historical lo and the current hi: they
        # bound different chain-rule terms
        if self.kappa_over_lo > self.kappa_over_hi:
            raise DomainError("kappa_over bounds out of order")
        if self.delta < 0:
            raise DomainError("delta must be >= 0")


def eval_tr_lower_bound(params: TRBoundParams) -> float:
    denom = (
        params.kappa_gap_hi * params.delta
        + params.kappa_over_hi * params.xi1
        - params.kappa_over_lo * params.xi2
    )
    if denom <= 0.0:
        raise DomainError(f"transfer-ratio bound denominator {denom} <= 0")
    num = -params.tau2 * params.i_temporal + (1.0 - params.eta1) * params.kappa_gap_hist_lo * params.delta
    return num / denom


@dataclass(frozen=True)
class TRPopulationReport:
    tr_pop: float
    tr_lb: float
    bound_applicable: bool   # numerator of the bound is non-negative
    a3_holds: bool
    eta1: float
    eta2: float


# ---------------------------------------------------------------------------
# verification operations
# ---------------------------------------------------------------------------


def _hist_view_vars(world: VerificationWorld, pipe: TablePipeline) -> list[Derived]:
    """Per-step extras restricted to the pipeline's visible prefix.

    The raw cross channel of teacher k is its own feature view, not the
    world's full extras set.
    """
    return [
        _extras_derived(world, f"Ev{i}", e, slice(pipe.n_extras_visible))
        for i, e in enumerate(world.hist_extra_vars())
    ]


def verify_pipeline(world: VerificationWorld, pipe: TablePipeline) -> PipelineReport:
    """Stage-wise loss decomposition along extract -> compress -> quantize and
    the two-ordering chain-rule identity gain = temporal + cross - residual,
    computed once per world and kept on `pipe`."""
    return _once(pipe, ("report", world), lambda: _pipeline_report(world, pipe))


def _pipeline_report(world: VerificationWorld, pipe: TablePipeline) -> PipelineReport:
    hist = world.hist_vm_vars()
    views = _hist_view_vars(world, pipe)
    view_names = tuple(v.name for v in views)
    e_var = _seq_derived(world, pipe, 0, "Eseq")
    z_var = _seq_derived(world, pipe, 1, "Zseq")
    s_var = _seq_derived(world, pipe, 2, "Sseq")

    base = world.table
    t_e = _remap_referenced(base, ["V", "Y", *hist, e_var])
    t_z = _remap_referenced(base, ["V", "Y", *hist, z_var])
    t_s = _remap_referenced(base, ["V", "Y", *hist, s_var])
    t_raw = _remap_referenced(base, ["V", "Y", *hist, *views])

    l_repr = t_e.cond_mutual_info(hist, ("Y",), ("V", "Eseq"))
    i_h_e = t_e.cond_mutual_info(hist, ("Eseq",), ("V",))
    i_h_z = t_z.cond_mutual_info(hist, ("Zseq",), ("V",))
    h_s = t_s.cmi_terms(hist, ("Sseq",), ("V",))
    l_ae = i_h_e - i_h_z
    l_q = i_h_z - cmi_from_terms(h_s)

    cond = ("V",) + hist
    raw_terms = t_raw.cmi_terms(view_names, ("Y",), cond)
    s_terms = t_s.cmi_terms(("Sseq",), ("Y",), cond)
    i_raw = cmi_from_terms(raw_terms)
    i_e = t_e.cond_mutual_info(("Eseq",), ("Y",), cond)
    i_z = t_z.cond_mutual_info(("Zseq",), ("Y",), cond)
    i_s = cmi_from_terms(s_terms)
    l_repr_cross = i_raw - i_e
    l_ae_cross = i_e - i_z
    l_q_cross = i_z - i_s

    i_temporal = t_e.cond_mutual_info(hist, ("Y",), ("V",))
    residual = t_s.cmi_terms(hist, ("Y",), ("V", "Sseq"))
    i_residual = cmi_from_terms(residual)
    # I(Sseq; Y | V) from H(Sseq,V), H(Y,V), H(Y,V,Sseq), H(V): only H(Y,V) is new
    i_loopgain = cmi_from_terms((h_s[1], t_s.entropy(("Y", "V")), residual[1], h_s[3]))

    loss_sum = l_repr + l_ae + l_q
    cross_sum = l_repr_cross + l_ae_cross + l_q_cross
    tau = loss_sum / i_temporal if i_temporal > 1e-15 else 0.0
    cross_err = cross_sum_rounding_bound(
        raw_terms, s_terms, (l_repr_cross, l_ae_cross, l_q_cross),
        math.prod(base.cards), len(base.cards))  # k: a factor per variable at most
    return PipelineReport(
        l_repr=l_repr, l_ae=l_ae, l_q=l_q,
        l_repr_cross=l_repr_cross, l_ae_cross=l_ae_cross, l_q_cross=l_q_cross,
        tau=tau, eta=clamp_eta(cross_sum, i_raw, cross_err),
        i_temporal=i_temporal, i_feature_raw=i_raw, i_cross=i_s,
        i_residual=i_residual, i_loopgain=i_loopgain,
        pipeline_bound_slack=loss_sum - i_residual,
        cross_identity_residual=abs(i_raw - i_s - cross_sum),
        gain_identity_residual=abs(i_loopgain - (i_temporal + i_s - i_residual)),
    )


def verify_gain_sandwich(rep: PipelineReport) -> tuple[float, float]:
    """The (lower, upper) slacks of the sandwich
    (1-tau)*I_temporal + (1-eta)*I_raw <= gain <= I_temporal + (1-eta)*I_raw."""
    lower = (1.0 - rep.tau) * rep.i_temporal + (1.0 - rep.eta) * rep.i_feature_raw
    upper = rep.i_temporal + (1.0 - rep.eta) * rep.i_feature_raw
    return rep.i_loopgain - lower, upper - rep.i_loopgain


def verify_monotone_L(world: VerificationWorld, pipe: TablePipeline,
                      lengths=None) -> list[float]:
    """I(S over the last L history events; y | x_vm) for each L.

    L = 0 contributes exactly 0. The sequence is non-decreasing because a
    shorter suffix is a deterministic function of a longer one.
    """
    if lengths is None:
        lengths = range(world.n_hist + 1)
    out = []
    for length in lengths:
        if length == 0:
            out.append(0.0)
            continue
        if length > world.n_hist:
            raise SizeError(f"history length {length} exceeds world's {world.n_hist}")
        s_var = _seq_derived(world, pipe, 2, "S", last=length)
        t = _remap_referenced(world.table, ["V", "Y", s_var])
        out.append(t.cond_mutual_info(("S",), ("Y",), ("V",)))
    return out


def _extras_derived(world: VerificationWorld, name: str, var: str, pick) -> Derived:
    """The extras features of `var` picked by `pick`: slice(k) is the
    prefix view of the first k features, coded by its mixed-radix index, and
    an int j is feature j alone."""
    cards = world.extra_feature_cards
    e_idx = np.arange(math.prod(cards))
    if isinstance(pick, slice):
        return Derived(name, (var,), e_idx // math.prod(cards[pick.stop:]))
    return Derived(name, (var,), e_idx // math.prod(cards[pick + 1:]) % cards[pick])


def per_feature_gap_terms(world: VerificationWorld, m1: int, m2: int):
    """Exact chain-rule MI of each extra feature j in [m1, m2) with the label.

    Returns (current_terms, historical_terms), the tightest constants that
    make the bounded-information assumption hold for this world. Each
    feature's pair of terms is computed once per world.
    """
    pairs = [_once(world, ("gap", j), lambda: _gap_terms(world, j)) for j in range(m1, m2)]
    return [cur for cur, _ in pairs], [hist for _, hist in pairs]


def _gap_terms(world: VerificationWorld, j: int) -> tuple[float, float]:
    """(current, historical) chain-rule MI of extra feature j with the label."""
    uj = _extras_derived(world, "Uj", "E", j)
    prefix = _extras_derived(world, "Epre", "E", slice(j))
    t = _remap_referenced(world.table, ["V", "Y", uj, prefix])
    current = t.cond_mutual_info(("Uj",), ("Y",), ("V", "Epre"))

    hist_v = world.hist_vm_vars()
    hist_e = world.hist_extra_vars()
    uj_hist = [_extras_derived(world, f"Uh{i}", e, j) for i, e in enumerate(hist_e)]
    prefix_hist = [_extras_derived(world, f"Eph{i}", e, slice(j)) for i, e in enumerate(hist_e)]
    t2 = _remap_referenced(world.table, ["V", "Y", *hist_v, *uj_hist, *prefix_hist])
    cond = ("V",) + hist_v + tuple(d.name for d in prefix_hist)
    return current, t2.cond_mutual_info(tuple(d.name for d in uj_hist), ("Y",), cond)


def _assemble_tr_report(world, pipe1, pipe2, m1, m2, cur, hist) -> TRPopulationReport:
    """The transfer ratio of upgrading pipe1 (None: initial launch) to pipe2,
    and its bound from the gap terms of features [m1, m2) and verify_pipeline."""
    delta = m2 - m1
    launch = pipe1 is None
    rep2 = verify_pipeline(world, pipe2)

    specs = [_extras_derived(world, "E1v", "E", slice(m1)),
             _extras_derived(world, "E2v", "E", slice(m2)),
             _seq_derived(world, pipe2, 2, "S2")]
    if not launch:
        specs.append(_seq_derived(world, pipe1, 2, "S1"))
    # each risk H(Y | V, X) from the fold of (V, Y, X) alone
    folds = {}
    for spec in specs:
        folds[spec.name] = _remap_referenced(world.table, ["V", "Y", spec])
    risk = {name: t.cond_entropy(("Y",), ("V", name)) for name, t in folds.items()}
    delta_teacher = risk["E1v"] - risk["E2v"]
    if delta_teacher <= 1e-12:
        raise DomainError("teacher improvement is non-positive; bound hypothesis unmet")

    r_loop1 = folds["E1v"].cond_entropy(("Y",), ("V",)) if launch else risk["S1"]
    tr_pop = (r_loop1 - risk["S2"]) / delta_teacher

    if launch:
        # launch bound: ((1 - tau2) I_temporal + (1 - eta2) I_raw2) / delta_teacher
        tr_lb = ((1.0 - rep2.tau) * rep2.i_temporal
                 + (1.0 - rep2.eta) * rep2.i_feature_raw) / delta_teacher
        eta1, applicable, a3_holds = rep2.eta, True, True
    else:
        rep1 = verify_pipeline(world, pipe1)
        a3_holds = (rep2.l_repr_cross + rep2.l_ae_cross + rep2.l_q_cross
                    <= rep1.l_repr_cross + rep1.l_ae_cross + rep1.l_q_cross + 1e-12)
        eta1 = rep1.eta
        tr_lb = eval_tr_lower_bound(TRBoundParams(
            tau2=rep2.tau, eta1=eta1, kappa_gap_hist_lo=min(hist), kappa_gap_hi=max(cur),
            i_temporal=rep2.i_temporal, delta=float(delta),
        ))
        applicable = -rep2.tau * rep2.i_temporal + (1.0 - eta1) * min(hist) * delta >= 0.0
    return TRPopulationReport(tr_pop=tr_pop, tr_lb=tr_lb, bound_applicable=applicable,
                              a3_holds=a3_holds, eta1=eta1, eta2=rep2.eta)


def verify_tr_bound_population(world: VerificationWorld,
                               pipe1: TablePipeline | None,
                               pipe2: TablePipeline,
                               m1_features: int | None = None) -> TRPopulationReport:
    """Population-level transfer ratio vs the closed-form lower bound.

    Teachers are taken at zero excess risk (well-trained students, both
    kappa_over terms zero); constants are instantiated as the exact
    min/max of the per-feature chain-rule terms, the tightest values for
    which the bounded-information assumption holds on this world.

    pipe1=None is the initial-launch case: the student previously consumed
    no sequence feature at all (its old risk is the plain-feature Bayes
    risk); the launch form of the bound is then used and the transfer
    ratio is guaranteed non-negative.
    """
    m1 = m1_features if pipe1 is None else pipe1.n_extras_visible
    if m1 is None:
        raise SchemaError("initial launch needs m1_features for the old teacher view")
    m2 = pipe2.n_extras_visible
    if not 0 <= m1 < m2 <= len(world.extra_feature_cards):
        raise SchemaError("teacher feature views must nest: m1 < m2")
    cur, hist = per_feature_gap_terms(world, m1, m2)
    return _assemble_tr_report(world, pipe1, pipe2, m1, m2, cur, hist)


def tr_delta_sweep(world: VerificationWorld, pipe1: TablePipeline,
                   pipe2_factory, deltas) -> list[TRPopulationReport]:
    """verify_tr_bound_population across a feature-gap sweep.

    The information constants are instantiated once over the full sweep
    range (a valid, if looser, choice for every delta in it), so the bound
    varies with delta exactly as the closed form says it should; the
    per-feature chain terms and the old pipeline's report are shared.
    """
    m1 = pipe1.n_extras_visible
    if m1 + max(deltas) > len(world.extra_feature_cards):
        raise SchemaError("sweep exceeds the world's extra feature count")
    cur, hist = per_feature_gap_terms(world, m1, m1 + max(deltas))
    return [_assemble_tr_report(world, pipe1, pipe2_factory(m1 + delta), m1, m1 + delta,
                                cur, hist) for delta in deltas]
