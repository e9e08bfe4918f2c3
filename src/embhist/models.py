"""Teacher and student models, embedding extraction, sequence encoders,
and the combined task + distillation loss.

The teacher sees every feature plus an attention block over the user's
raw past events; the student sees only the student-visible features and,
when enabled, a pooled sequence of dequantized historical teacher
embeddings (plus a presence flag for cold-start users). Checkpoints go
into a versioned "LFMM" binary container.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from . import nncore as nn
from .errors import ConfigError, DimensionError, FormatError, SchemaError, unpack_from
from .nncore import Node, ParamStore
from .synthworld import EventLog, WorldSpec

VM_OWNER = "vm_visible"
EXTRA_OWNER = "fm_extra"
# layer selector -> the teacher activations its embedding concatenates, in
# order; item_only keeps emb_layer's item-side columns
SELECTORS = {
    "emb_layer": ("emb_layer",), "hidden_0": ("hidden_0",), "hidden_1": ("hidden_1",),
    "deep": ("deep",), "all_joint": ("emb_layer", "hidden_0", "hidden_1", "deep"),
    "softlabel_only": ("softlabel",), "item_only": ("emb_layer",),
}
SEQ_ENCODERS = ("mean_pool", "sum_pool", "din_attention")


@dataclass(frozen=True)
class Feature:
    name: str
    cardinality: int
    owner: str
    item_side: bool = False

    def __post_init__(self):
        if self.cardinality < 2:
            raise SchemaError(f"feature {self.name!r} cardinality must be >= 2")
        if self.owner not in (VM_OWNER, EXTRA_OWNER):
            raise SchemaError(f"unknown owner {self.owner!r}")


@dataclass(frozen=True)
class FeatureSchema:
    """Features in log column order: the student-visible ones, then the extras."""

    features: tuple[Feature, ...]

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(names) != len(set(names)):
            raise SchemaError("feature names must be unique")
        if not 0 < self.m_s < self.m_k:
            raise SchemaError("need a student-visible feature, and a teacher that observes "
                              "a strict feature superset")
        if any(f.owner != VM_OWNER for f in self.vm_features):
            raise SchemaError("every student-visible feature must come before any extra")

    @property
    def vm_features(self) -> tuple[Feature, ...]:
        return self.features[: self.m_s]

    @property
    def m_s(self) -> int:
        return sum(f.owner == VM_OWNER for f in self.features)

    @property
    def m_k(self) -> int:
        return len(self.features)

    def canonical_string(self) -> str:
        return ";".join(
            f"{f.name}:{f.cardinality}:{f.owner}:{int(f.item_side)}"
            for f in self.features
        )

    def hash64(self) -> int:
        digest = hashlib.sha256(self.canonical_string().encode()).digest()
        return int.from_bytes(digest[:8], "little")

    @classmethod
    def from_world(cls, spec: WorldSpec) -> "FeatureSchema":
        """Feature 0 is user context; remaining visible features are
        item-side; extras are cross-domain (not item-side)."""
        feats = [
            Feature(f"vm{j}", c, VM_OWNER, item_side=j > 0)
            for j, c in enumerate(spec.vm_cardinalities)
        ]
        feats += [
            Feature(f"ex{j}", c, EXTRA_OWNER)
            for j, c in enumerate(spec.extra_cardinalities)
        ]
        return cls(tuple(feats))


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------


@dataclass
class FMBatch:
    ids: np.ndarray          # (B, m_k) in schema feature order
    hist_ids: np.ndarray     # (B, Lh, m_k), 0 where masked
    hist_mask: np.ndarray    # (B, Lh) bool
    labels: np.ndarray       # (B, 1)


@dataclass
class VMBatch:
    ids: np.ndarray          # (B, m_s) in schema order of the visible features
    labels: np.ndarray
    soft_labels: np.ndarray | None = None
    seq_entries: np.ndarray | None = None  # (B, L, d)
    seq_mask: np.ndarray | None = None     # (B, L)


def schema_ids(schema: FeatureSchema, log_: EventLog) -> np.ndarray:
    """The view of the log's leading m_k id columns, (N, m_k) int32 in schema
    feature order, whose range the log checked when it was built. A schema
    whose visible count or cardinalities are not the log's is a SchemaError."""
    spec = log_.spec
    got = (schema.m_s, tuple(f.cardinality for f in schema.features))
    want = (log_.n_visible, (spec.vm_cardinalities + spec.extra_cardinalities)[: schema.m_k])
    if got != want:
        raise SchemaError(f"schema's visible count and cardinalities {got} do not match "
                          f"the log's leading columns {want}")
    return log_.ids[:, : schema.m_k]


def history_index(keys: np.ndarray, history_len: int,
                  rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(len(rows), history_len) int32 row indices of the same-key past events
    of each of `rows`, plus their mask: positions 0..k-1 hold the last
    k <= history_len earlier rows of the key, oldest first; masked slots
    point at row 0."""
    order = np.argsort(keys, kind="stable").astype(np.int32)  # grouped by key
    at = np.empty_like(order)  # each row's position in the grouped order
    at[order] = np.arange(len(keys), dtype=np.int32)
    at = at[rows]  # less its key's first position: the row's count of earlier rows
    count = np.minimum(at - np.searchsorted(keys[order], keys[rows]), history_len).astype(np.int32)
    mask = np.arange(history_len) < count[:, None]
    pos = (at - count)[:, None] + np.arange(history_len, dtype=np.int32)
    pos *= mask  # masked slots read grouped position 0 ...
    return np.multiply(order[pos], mask, out=pos), mask  # ... and point at row 0


def make_fm_batch(schema: FeatureSchema, ids: np.ndarray, labels: np.ndarray,
                  rows: np.ndarray, history: tuple[np.ndarray, np.ndarray]) -> FMBatch:
    """Teacher batch of the given log rows, gathered by fancy indexing.

    `ids` is `schema_ids(schema, log_)`, `labels` the log's label column
    and `history` the `history_index` of `rows`; history ids are 0 where masked.
    """
    hist_rows, hist_mask = history
    return FMBatch(
        ids=ids[rows],
        hist_ids=np.where(hist_mask[:, :, None], ids[hist_rows], 0),
        hist_mask=hist_mask,
        labels=labels[rows].astype(np.float64)[:, None],
    )


def make_vm_batch(schema: FeatureSchema, ids: np.ndarray, labels: np.ndarray,
                  rows: np.ndarray, sequences=None, soft_labels=None,
                  seq_len: int = 0, seq_dim: int = 0) -> VMBatch:
    """Student batch of the given log rows (visible features only).

    `ids` and `labels` are as for `make_fm_batch`. `sequences` is any
    iterable, a generator included, whose i-th item is a
    seqstore.SequenceFeature or None for row rows[i]; it is read once, one
    item at a time, and a count other than len(rows) is a DimensionError.
    """
    b = len(rows)
    soft = None
    if soft_labels is not None:
        soft = np.asarray(soft_labels, dtype=np.float64).reshape(b, 1)
    entries = mask = None
    if sequences is not None:
        entries = np.zeros((b, seq_len, seq_dim))
        mask = np.zeros((b, seq_len), dtype=bool)
        n_seqs = 0
        for n_seqs, seq in enumerate(sequences, 1):
            if n_seqs > b:
                raise DimensionError(f"more than {b} sequences for {b} rows")
            if seq is not None:
                entries[n_seqs - 1, : seq.length] = seq.entries[: seq.length]
                mask[n_seqs - 1, : seq.length] = True
        if n_seqs != b:
            raise DimensionError(f"{n_seqs} sequences for {b} rows")
    return VMBatch(
        ids=ids[rows, : schema.m_s],
        labels=labels[rows].astype(np.float64)[:, None],
        soft_labels=soft, seq_entries=entries, seq_mask=mask,
    )


# ---------------------------------------------------------------------------
# layers shared by teacher and student: sequence encoders, one embedding
# table, one MLP tower
# ---------------------------------------------------------------------------


def make_attention_params(dim: int, hidden: int, seed: int, prefix: str,
                          params: ParamStore) -> None:
    params.add(f"{prefix}.s0.w", nn.glorot_uniform(4 * dim, hidden, seed, f"{prefix}.s0.w"))
    params.add(f"{prefix}.s0.b", np.zeros((1, hidden)))
    params.add(f"{prefix}.s1.w", nn.glorot_uniform(hidden, 1, seed, f"{prefix}.s1.w"))
    params.add(f"{prefix}.s1.b", np.zeros((1, 1)))


def pool_input(kind: str, mask: np.ndarray) -> np.ndarray:
    """The (B, L) array `_pool` reads for a sequence mask: the mean or sum
    weights of the valid entries, or the mask itself for attention."""
    if kind == "mean_pool":
        return mask / np.maximum(mask.sum(axis=1, keepdims=True), 1)
    return mask.astype(float) if kind == "sum_pool" else mask


def _pool(kind: str, entries: Node, mask: Node, query: Node | None,
          nodes: dict[str, Node] | None, prefix: str) -> Node:
    """entries (B*L, d); mask holds the `pool_input` of the (B, L) sequence
    mask; returns (B, d).

    mean/sum are masked and permutation-invariant; attention scores each
    entry with an MLP on [z; q; z*q; z-q] then softmax-pools. Empty
    sequences pool to the zero vector.
    """
    b, l = mask.value.shape
    if kind in ("mean_pool", "sum_pool"):
        return nn.attn_pool(mask, entries, l)
    feats = nn.din_features(entries, query, l)  # din_attention
    h = nn.affine_relu(feats, nodes[f"{prefix}.s0.w"], nodes[f"{prefix}.s0.b"])
    scores = nn.affine(h, nodes[f"{prefix}.s1.w"], nodes[f"{prefix}.s1.b"])
    weights = nn.masked_softmax(nn.reshape(scores, b, l), mask)
    return nn.attn_pool(weights, entries, l)


def add_embedding(features: tuple[Feature, ...], dim: int, seed: int, prefix: str,
                  params: ParamStore) -> np.ndarray:
    """One `emb` table: each feature's rows drawn as `<prefix>emb.<name>`,
    stacked in feature order. Returns each feature's first row. A table of
    2^31 cells or more is a SchemaError: `shift_ids` rows are int32, and
    `gather_rows` multiplies them by `dim` in that dtype."""
    if sum(f.cardinality for f in features) * dim >= 2**31:
        raise SchemaError(f"embedding table of {dim}-wide rows over {len(features)} "
                          "features reaches 2^31 cells")
    params.add("emb", np.vstack([
        nn.glorot_uniform(f.cardinality, dim, seed, f"{prefix}emb.{f.name}") for f in features
    ]))
    return np.cumsum([0, *(f.cardinality for f in features[:-1])])


def lookup(table: Node, idx: Node, m: int) -> Node:
    """`idx` holds the `shift_ids` of (n, m) feature ids -> (n, m * d)
    concatenated feature embeddings: one gather and one reshape. Each table
    cell's gradient is summed in batch order, as by one gather per feature."""
    return nn.reshape(nn.gather_rows(table, idx), idx.value.size // m,
                      m * table.value.shape[1])


def shift_ids(ids: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Table rows of (..., m) feature ids, raveled: each id plus its feature's
    offset, as int32 (`add_embedding` keeps every table under 2^31 cells)."""
    return (ids + offsets).astype(np.int32).ravel()


def add_tower(widths, seed: int, prefix: str, params: ParamStore) -> None:
    """ReLU layers `mlp0..` over `widths` and a zero sigmoid head `out`, so
    an untrained model predicts 0.5."""
    for i in range(len(widths) - 1):
        params.add(f"mlp{i}.w", nn.glorot_uniform(widths[i], widths[i + 1], seed,
                                                  f"{prefix}.mlp{i}.w"))
        params.add(f"mlp{i}.b", np.zeros((1, widths[i + 1])))
    params.add("out.w", np.zeros((widths[-1], 1)))
    params.add("out.b", np.zeros((1, 1)))


def tower(nodes: dict[str, Node], x: Node, depth: int) -> tuple[Node, list[Node]]:
    """The prediction and the hidden activations of an `add_tower` stack."""
    hidden = []
    for i in range(depth):
        x = nn.affine_relu(x, nodes[f"mlp{i}.w"], nodes[f"mlp{i}.b"])
        hidden.append(x)
    return nn.sigmoid(nn.affine(x, nodes["out.w"], nodes["out.b"])), hidden


def check_sizes(config, *names):
    """ConfigError unless each named field of `config` (an int or a nonempty
    tuple of ints) is positive, config.epochs, if it has one, is >= 0, and
    config.lr is finite and positive."""
    for name in names:
        value = getattr(config, name)
        if min(value if isinstance(value, tuple) else (value,), default=0) < 1:
            raise ConfigError(f"{type(config).__name__}.{name} must be positive, got {value!r}")
    if getattr(config, "epochs", 0) < 0:
        raise ConfigError(f"{type(config).__name__}.epochs must be >= 0, got {config.epochs!r}")
    if not 0 < config.lr < np.inf:  # false for nan
        raise ConfigError(f"{type(config).__name__}.lr must be finite and positive, "
                          f"got {config.lr!r}")


# ---------------------------------------------------------------------------
# teacher (attention over raw past events + 3-layer MLP)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FMConfig:
    embed_dim: int = 8
    hidden: tuple[int, int, int] = (32, 16, 8)
    attn_hidden: int = 16
    history_len: int = 8
    use_history: bool = True
    lr: float = 0.03
    epochs: int = 4
    batch_size: int = 64

    def __post_init__(self):
        if len(self.hidden) != 3:
            raise ConfigError(f"FMConfig.hidden needs 3 layer widths, got {self.hidden!r}")
        check_sizes(self, "embed_dim", "hidden", "attn_hidden", "history_len", "batch_size")


class FMModel:
    """Wide teacher: one embedding table over every feature, optional
    attention over the raw ids of the user's recent events, then
    hidden_0/hidden_1/deep."""

    def __init__(self, schema: FeatureSchema, config: FMConfig, seed: int):
        self.schema = schema
        self.config = config
        self.seed = seed
        d = config.embed_dim
        self.emb_width = d * schema.m_k
        self.item_cols = np.arange(self.emb_width).reshape(schema.m_k, d)[
            [f.item_side for f in schema.features]].ravel()
        # the width of each activation a selector reads, in forward order
        self.widths = dict(zip(("emb_layer", "hidden_0", "hidden_1", "deep", "softlabel"),
                               (self.emb_width, *config.hidden, 1)))
        p = ParamStore()
        self.offsets = add_embedding(schema.features, d, seed, "", p)
        if config.use_history:
            make_attention_params(self.emb_width, config.attn_hidden, seed, "attn", p)
        add_tower([self.emb_width * (2 if config.use_history else 1), *config.hidden],
                  seed, "fm", p)
        self.params = p

    def arrays(self, batch: FMBatch) -> dict[str, np.ndarray]:
        """Every per-batch array the teacher's graph reads."""
        out = {"ids": shift_ids(batch.ids, self.offsets), "labels": batch.labels}
        if self.config.use_history:
            out["hist_ids"] = shift_ids(batch.hist_ids, self.offsets)
            out["hist_mask"] = batch.hist_mask
        return out

    def _forward(self, nodes: dict[str, Node]):
        emb_layer = lookup(nodes["emb"], nodes["ids"], len(self.offsets))
        x = emb_layer
        if self.config.use_history:
            hist_emb = lookup(nodes["emb"], nodes["hist_ids"], len(self.offsets))
            pooled = _pool("din_attention", hist_emb, nodes["hist_mask"],
                           emb_layer, nodes, "attn")
            x = nn.concat_cols([emb_layer, pooled])
        p, hidden = tower(nodes, x, len(self.config.hidden))
        return p, dict(zip(self.widths, (emb_layer, *hidden, p)))

    def embed(self, batch: FMBatch, layer: str) -> tuple[np.ndarray, np.ndarray]:
        """The (B,) soft labels and the (B, layer_width(layer)) embedding of
        the SELECTORS entry `layer`, from one forward pass."""
        p, acts = self._forward(self.params.as_nodes(self.arrays(batch)))
        emb = np.concatenate([acts[name].value for name in SELECTORS[layer]], axis=1)
        return p.value[:, 0].copy(), emb[:, self.item_cols] if layer == "item_only" else emb

    def loss(self, nodes: dict[str, Node]) -> Node:
        return nn.mean_all(nn.bce(self._forward(nodes)[0], nodes["labels"]))

    def loss_fn(self, batch: FMBatch):
        return nn.loss_fn(self.loss, self.arrays(batch))

    def layer_width(self, layer: str) -> int:
        """The width of `layer`'s embedding; an item_only layer of a schema
        with no item-side feature is a ConfigError."""
        if layer != "item_only":
            return sum(self.widths[name] for name in SELECTORS[layer])
        if not len(self.item_cols):
            raise ConfigError("schema has no item-side features")
        return len(self.item_cols)


# ---------------------------------------------------------------------------
# student (visible features only, optional embedding-history branch)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VMConfig:
    embed_dim: int = 4
    hidden: tuple[int, int] = (16, 8)
    seq_encoder: str = "mean_pool"
    seq_dim: int = 0            # d' of consumed sequence entries; 0 = no branch
    attn_hidden: int = 16
    lr: float = 0.045
    batch_size: int = 32

    def __post_init__(self):
        if self.seq_encoder not in SEQ_ENCODERS:
            raise ConfigError(f"unknown sequence encoder {self.seq_encoder!r}")
        check_sizes(self, "embed_dim", "hidden", "attn_hidden", "batch_size")

    @property
    def use_sequence(self) -> bool:
        return self.seq_dim > 0


class VMModel:
    """Compact student over the visible features; never reads extras."""

    def __init__(self, schema: FeatureSchema, config: VMConfig, seed: int):
        self.schema = schema
        self.config = config
        self.seed = seed
        d = config.embed_dim
        self.emb_width = d * schema.m_s
        p = ParamStore()
        self.offsets = add_embedding(schema.vm_features, d, seed, "vm.", p)
        in_width = self.emb_width
        if config.use_sequence:
            p.add("seqq.w", nn.glorot_uniform(self.emb_width, config.seq_dim, seed, "vm.seqq.w"))
            p.add("seqq.b", np.zeros((1, config.seq_dim)))
            if config.seq_encoder == "din_attention":
                make_attention_params(config.seq_dim, config.attn_hidden, seed, "attn", p)
            in_width += config.seq_dim + 1  # pooled vector + presence flag
        add_tower([in_width, *config.hidden], seed, "vm", p)
        # the pooled-sequence block starts as a no-op: first-step predictions
        # match the branch-less student, and the branch fades in through
        # training instead of injecting cold noise
        p["mlp0.w"][self.emb_width :, :] = 0.0
        self.params = p

    def arrays(self, batch: VMBatch) -> dict[str, np.ndarray]:
        """Every per-batch array the student's graph reads."""
        if (batch.seq_entries is not None) != self.config.use_sequence:
            raise ConfigError("sequence input must match the configured branch")
        out = {"ids": shift_ids(batch.ids, self.offsets), "labels": batch.labels}
        if batch.soft_labels is not None:
            out["soft_labels"] = batch.soft_labels
        if self.config.use_sequence:
            b, l, d = batch.seq_entries.shape
            if d != self.config.seq_dim:
                raise DimensionError(
                    f"sequence dim {d} != configured {self.config.seq_dim}"
                )
            out["entries"] = batch.seq_entries.reshape(b * l, d)
            out["pool"] = pool_input(self.config.seq_encoder, batch.seq_mask)
            out["presence"] = batch.seq_mask.any(axis=1, keepdims=True).astype(float)
        return out

    def _forward(self, nodes: dict[str, Node]) -> Node:
        emb = lookup(nodes["emb"], nodes["ids"], len(self.offsets))
        x = emb
        if self.config.use_sequence:
            query = nn.affine(emb, nodes["seqq.w"], nodes["seqq.b"])
            pooled = _pool(self.config.seq_encoder, nodes["entries"], nodes["pool"],
                           query, nodes, "attn")
            x = nn.concat_cols([emb, pooled, nodes["presence"]])
        return tower(nodes, x, len(self.config.hidden))[0]

    def predict_batch(self, batch: VMBatch) -> np.ndarray:
        return self._forward(self.params.as_nodes(self.arrays(batch))).value[:, 0].copy()

    def loss(self, nodes: dict[str, Node], kd_weight: float = 0.0) -> Node:
        p = self._forward(nodes)
        per = nn.bce(p, nodes["labels"])
        if kd_weight > 0:
            per = nn.add(per, nn.scale(nn.bce(p, nodes["soft_labels"]), kd_weight))
        return nn.mean_all(per)

    def loss_fn(self, batch: VMBatch, kd_weight: float = 0.0):
        if kd_weight < 0:
            raise ConfigError("distillation weight must be >= 0")
        if kd_weight > 0 and batch.soft_labels is None:
            raise ConfigError("distillation needs teacher soft labels")
        return nn.loss_fn(lambda nodes: self.loss(nodes, kd_weight), self.arrays(batch))


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------

_MAGIC = b"LFMM"
_VERSION = 1


def write_checkpoint(path, params: ParamStore, schema_hash: int,
                     extra_dims=()) -> None:
    """magic, version, schema hash, optional dim list, then the named
    parameter blobs in lexicographic order as little-endian float64."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IQ", _VERSION, schema_hash & (2**64 - 1)))
        fh.write(struct.pack("<H", len(extra_dims)))
        for dim in extra_dims:
            fh.write(struct.pack("<I", dim))
        names = params.names()
        fh.write(struct.pack("<I", len(names)))
        for name in names:
            raw = name.encode("utf-8")
            value = params[name]
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<II", value.shape[0], value.shape[1]))
            fh.write(value.astype("<f8").tobytes())


def read_checkpoint(path):
    """Returns (params, schema_hash, extra_dims)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}, expected {_MAGIC!r}")
    (version, schema_hash), off = unpack_from("<IQ", blob, 4)
    if version != _VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    (n_extra,), off = unpack_from("<H", blob, off)
    extra_dims, off = unpack_from(f"<{n_extra}I", blob, off)
    (n_params,), off = unpack_from("<I", blob, off)
    params = ParamStore()
    for _ in range(n_params):
        (name_len,), off = unpack_from("<H", blob, off)
        (raw,), off = unpack_from(f"<{name_len}s", blob, off)
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"parameter name at offset {off - name_len} is not utf-8") from exc
        (rows, cols), off = unpack_from("<II", blob, off)
        size = rows * cols * 8
        if off + size > len(blob):
            raise FormatError(f"truncated parameter blob for {name!r} at offset {off}")
        value = np.frombuffer(blob[off : off + size], dtype="<f8").reshape(rows, cols)
        off += size
        if name in params:
            raise FormatError(f"parameter {name!r} appears twice")
        params.add(name, value)
    if off != len(blob):
        raise FormatError(f"{len(blob) - off} trailing bytes after parameters")
    return params, schema_hash, tuple(extra_dims)
