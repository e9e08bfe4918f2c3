"""Experiment orchestration: the temporal streaming protocol, the
four-arm comparison, ablations and the theory verification battery.

Protocol: the teacher trains on chunks 0-3 and logs soft labels plus
extracted embeddings on chunks 4-7; the compressor trains on chunk-4
embeddings; students train one pass, in time order and without shuffling,
on chunks 4-6; chunk 7 is held out for evaluation. Arms share data order
and (where architectures coincide) parameter initialization, so deltas
isolate the transfer channel.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import __version__
from . import nncore as nn
from .compression import AEConfig, MatryoshkaAE, ae_train
from .errors import ConfigError, DataError, FormatError, MetricError, NumericError, VerificationError
from .infotheory import (
    TablePipeline, TRBoundParams, eval_tr_lower_bound, fixed_point_quantizer,
    grid_ae, identity_stage, posterior_embedding, random_table_pipeline,
    tr_delta_sweep, uniform_quantizer, verify_gain_sandwich, verify_monotone_L,
    verify_pipeline, verify_tr_bound_population,
)
from .metrics import EvalResult, evaluate, transfer_ratio
from .models import (
    SELECTORS, FeatureSchema, FMConfig, FMModel, VMBatch, VMConfig, VMModel,
    history_index, make_fm_batch, make_vm_batch, schema_ids,
)
from .prng import derive_seed
from .quantization import (
    CODEC_IDS, Codec, fit_kmeans_int4, payload_matrix, reconstruction_mse,
)
from .seqstore import SequenceStore, centroid_drift
from .synthworld import (
    EventLog, WorldSpec, enumerate_world, generate, load_event_log, random_enumerable_spec,
)

FM_TRAIN_CHUNKS = (0, 1, 2, 3)
LOG_CHUNKS = (4, 5, 6, 7)
VM_TRAIN_CHUNKS = (4, 5, 6)
TEST_CHUNK = 7
ARMS = ("baseline", "kd", "emb_hist", "kd_emb_hist")
_KD_ARMS = ("kd", "kd_emb_hist")
_SEQ_ARMS = ("emb_hist", "kd_emb_hist")

SEQLEN_VALUES = (10, 25, 50, 75, 100)
DIM_VALUES = (8, 16, 32, 64, 128)
DELTA_VALUES = (1, 2, 4, 8)
# ablation axis -> (the ExperimentConfig field it sets, its default settings,
# None or an extra column and its per-seed value, averaged over the seeds)
_ABLATIONS = {
    "layer": ("layer", SELECTORS, None),
    "seqlen": ("seq_len", SEQLEN_VALUES, None),
    "dim": ("active_dim", DIM_VALUES, None),
    "checkpoint": ("checkpoint_policy", ("fixed", "per_split"),
                   ("mean_drift", lambda res: np.mean(res.drift_per_chunk_pair))),
    "codec": ("codec_kind", tuple(CODEC_IDS), ("codec_mse", lambda res: res.codec_mse)),
}
ABLATION_AXES = (*_ABLATIONS, "deltasweep")
_STORE_BLOCK = 256  # rows encoded at a time for the store


@dataclass(frozen=True)
class ExperimentConfig:
    world: WorldSpec = field(default_factory=WorldSpec)
    event_log_path: str | None = None
    fm: FMConfig = field(default_factory=FMConfig)
    vm: VMConfig = field(default_factory=VMConfig)
    ae: AEConfig = field(default_factory=AEConfig)
    layer: str = "hidden_0"
    active_dim: int = 32
    codec_kind: str = "int4_kmeans"
    seq_len: int = 50
    # 30 synthetic days at the default world's 12-step day; exceeds the
    # horizon, so retention only binds when configured tighter
    window: int = 360
    kd_weight: float = 1.0
    checkpoint_policy: str = "fixed"
    arms: tuple[str, ...] = ARMS
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self):
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"need at least one seed, each listed once, got {self.seeds!r}")
        for arm in self.arms:
            if arm not in ARMS:
                raise ConfigError(f"unknown arm {arm!r}")
        if self.layer not in SELECTORS:
            raise ConfigError(f"unknown layer selector {self.layer!r}")
        if self.checkpoint_policy not in ("fixed", "per_split"):
            raise ConfigError(f"unknown checkpoint policy {self.checkpoint_policy!r}")
        if self.active_dim not in self.ae.dims:
            raise ConfigError(
                f"active dim {self.active_dim} not in trained dims {self.ae.dims}"
            )
        if self.codec_kind not in CODEC_IDS:
            raise ConfigError(f"unknown codec {self.codec_kind!r}")
        if self.seq_len < 1 or self.window < 1:
            raise ConfigError("seq_len and window must be >= 1")
        if not 0 <= self.kd_weight < math.inf:  # false for nan
            raise ConfigError(f"kd_weight must be finite and >= 0, got {self.kd_weight!r}")

    def hash(self) -> str:
        return hashlib.sha256(repr(self).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# training helpers
# ---------------------------------------------------------------------------


def _batches(n: int, size: int):
    """Slices of `size` consecutive positions that cover 0..n-1."""
    return (slice(start, start + size) for start in range(0, n, size))


def _fm_batches(log_: EventLog, schema: FeatureSchema, history_len: int,
                chunks, size: int):
    """A generator of the teacher batches over the log rows in `chunks`, in
    log order, `size` rows each and built one at a time, plus those rows."""
    ids = schema_ids(schema, log_)
    rows = np.flatnonzero(np.isin(log_.chunks, chunks))
    history = history_index(log_.keys, history_len, rows)
    return (make_fm_batch(schema, ids, log_.labels, rows[part], [h[part] for h in history])
            for part in _batches(len(rows), size)), rows


def train_fm(log_: EventLog, schema: FeatureSchema, cfg: FMConfig, seed: int,
             train_chunks=FM_TRAIN_CHUNKS) -> FMModel:
    """The teacher after `cfg.epochs` passes over its batches, built once and
    kept with table rows in the smallest dtype, widened to int32 per step. A
    parameter left not finite (a step that overflowed) is a NumericError."""
    fm = FMModel(schema, cfg, seed)
    steps = nn.Trace(fm.loss, fm.params, nn.AdamState.for_params(fm.params, lr=cfg.lr))
    compact = np.min_scalar_type(len(fm.params["emb"]) - 1)
    inputs = [{name: value.astype(compact) if value.dtype == np.int32 else value
               for name, value in fm.arrays(batch).items()}
              for batch in _fm_batches(log_, schema, cfg.history_len, train_chunks,
                                       cfg.batch_size)[0]]
    for _ in range(cfg.epochs):
        for arrays in inputs:
            steps.step({name: value.astype(np.int32) if value.dtype == compact else value
                        for name, value in arrays.items()})
    if not np.isfinite(fm.params.flat).all():
        raise NumericError("teacher training left a parameter that is not finite")
    return fm


@dataclass
class TeacherLog:
    """Per-event teacher outputs over the logging chunks, in log order."""

    keys: np.ndarray
    timestamps: np.ndarray
    chunks: np.ndarray
    labels: np.ndarray
    soft: np.ndarray
    emb: np.ndarray

    def __post_init__(self):
        lengths = {f.name: np.shape(getattr(self, f.name))[:1] for f in fields(self)}
        if len(set(lengths.values())) != 1 or np.ndim(self.soft) != 1 or np.ndim(self.emb) != 2:
            raise FormatError(f"teacher columns need one length, a 1-D soft and a 2-D emb: "
                              f"{lengths}")
        try:
            bad = ~(np.isfinite(self.emb).all(axis=1) & (self.soft >= 0) & (self.soft <= 1))
        except TypeError as exc:
            raise FormatError(f"teacher emb and soft must be numeric: {exc}") from exc
        if bad.any():
            raise FormatError(f"teacher row {int(np.argmax(bad))}: emb not finite "
                              "or soft label outside [0, 1]")

    def soft_at(self, keys: np.ndarray, timestamps: np.ndarray) -> np.ndarray:
        """Soft labels of the rows at each (key, timestamp); an event with no
        teacher row is a DataError that names it."""
        n = len(self.keys)
        pairs = np.column_stack([np.concatenate([self.keys, keys]),
                                 np.concatenate([self.timestamps, timestamps])])
        _, ids = np.unique(pairs, axis=0, return_inverse=True)
        ids = ids.ravel()
        row = np.full(ids.max(initial=-1) + 1, -1)
        row[ids[:n]] = np.arange(n)
        found = row[ids[n:]]
        if (found < 0).any():
            i = int(np.argmax(found < 0))
            raise DataError(f"no teacher row for the event with key {keys[i]} "
                            f"at timestamp {timestamps[i]}")
        return self.soft[found]

    def rows_in_chunk(self, chunk: int) -> np.ndarray:
        return np.flatnonzero(self.chunks == chunk)


def log_teacher(fm: FMModel, log_: EventLog, layer: str, chunks) -> TeacherLog:
    """The teacher's soft labels and `layer` embeddings on the rows of
    `chunks`. Batches of `fm.config.batch_size` rows are built and scored one
    at a time, each written into soft and emb columns allocated once."""
    size = fm.config.batch_size
    batches, rows = _fm_batches(log_, fm.schema, fm.config.history_len, chunks, size)
    soft, emb = np.empty(len(rows)), np.empty((len(rows), fm.layer_width(layer)))
    for part, batch in zip(_batches(len(rows), size), batches):
        soft[part], emb[part] = fm.embed(batch, layer)
    return TeacherLog(keys=log_.keys[rows], timestamps=log_.timestamps[rows],
                      chunks=log_.chunks[rows], labels=log_.labels[rows], soft=soft, emb=emb)


def fit_codec(kind: str, z_pool: np.ndarray, seed: int) -> Codec:
    if kind == "int4_kmeans":
        codec, _ = fit_kmeans_int4(z_pool.ravel(), iters=40, seed=seed)
        return codec
    return Codec(kind)


def encode(ae: MatryoshkaAE, emb: np.ndarray, d_prime: int) -> np.ndarray:
    """The first `d_prime` code columns of every row of `emb`, encoded
    _STORE_BLOCK rows at a time into one array."""
    z = np.empty((len(emb), d_prime))
    for rows in _batches(len(emb), _STORE_BLOCK):
        z[rows] = ae.encode_batch(emb[rows])[:, :d_prime]
    return z


def append_store(store: SequenceStore, teacher: TeacherLog, z: np.ndarray) -> None:
    """Pack the codes `z` of every teacher row (see encode) into `store`
    with its codec, _STORE_BLOCK rows at a time."""
    if len(teacher.keys):
        payloads = [payload_matrix(store.codec, z[rows])
                    for rows in _batches(len(z), _STORE_BLOCK)]
        store.extend(teacher.keys, teacher.timestamps, teacher.soft,
                     np.concatenate(payloads), z.shape[1])


@dataclass
class TeacherStack:
    """Teacher outputs (`emb` zero-width: the store holds the codes), the
    frozen store built from them, the codec's MSE on the codes it was fit to,
    and the centroid drift between consecutive logged chunks of the store."""

    teacher: TeacherLog
    store: SequenceStore
    codec_mse: float
    drift: tuple[float, ...]


def checkpoint_segments(policy: str, seed: int) -> list[tuple]:
    """`(teacher train chunks, logged chunks, (teacher, ae, codec) seeds)` per
    checkpoint. "fixed": one teacher for every logged chunk. "per_split": a
    fresh teacher per logged chunk, trained on everything before it; the
    compressor is retrained per checkpoint as well."""
    if policy == "fixed":
        return [(FM_TRAIN_CHUNKS, LOG_CHUNKS,
                 (seed, derive_seed(seed, "ae"), derive_seed(seed, "codec")))]
    return [(tuple(range(c)), (c,), (derive_seed(seed, "split", c),
                                     derive_seed(seed, "ae", c), derive_seed(seed, "codec")))
            for c in LOG_CHUNKS]


def teacher_stack(log_: EventLog, schema: FeatureSchema, cfg: ExperimentConfig,
                  segments) -> TeacherStack:
    """teacher -> log_teacher -> ae_train -> fit_codec -> store, once per
    checkpoint segment (see checkpoint_segments). Each compressor trains on
    its segment's first logged chunk. The codec is fit on the first
    segment's first-chunk codes and reused by later segments, so the store
    stays self-describing under one codec. The teacher logs one chunk at a
    time, and each chunk is encoded once; its embeddings are dropped once
    encoded, and its codes once the store holds them."""
    parts, store, edges = [], None, [0]
    for train_chunks, log_chunks, (fm_seed, ae_seed, codec_seed) in segments:
        fm = train_fm(log_, schema, cfg.fm, fm_seed, train_chunks=train_chunks)
        for c in log_chunks:
            teacher = log_teacher(fm, log_, cfg.layer, (c,))
            if c == log_chunks[0]:
                ae, _ = ae_train(teacher.emb, cfg.ae, ae_seed)
            z = encode(ae, teacher.emb, cfg.active_dim)
            teacher = replace(teacher, emb=np.empty((len(z), 0)))
            if store is None:  # the first chunk's codes are the codec pool
                codec = fit_codec(cfg.codec_kind, z, codec_seed)
                codec_mse = reconstruction_mse(codec, z)
                store = SequenceStore(cfg.active_dim, codec)
            append_store(store, teacher, z)
            del z
            edges.append(len(store))
            parts.append(teacher)
    store.freeze()
    drift = tuple(centroid_drift(store.dequantized(a, b), store.dequantized(b, c))
                  for a, b, c in zip(edges, edges[1:], edges[2:]))
    return TeacherStack(_concat_teacher(parts), store, codec_mse, drift)


def _concat_teacher(parts: list[TeacherLog]) -> TeacherLog:
    if len(parts) == 1:
        return parts[0]
    return TeacherLog(**{f.name: np.concatenate([getattr(p, f.name) for p in parts])
                         for f in fields(TeacherLog)})


def _arm_settings(arm: str, cfg: ExperimentConfig, store: SequenceStore | None):
    """(KD weight, sequence width) of `arm`; a sequence arm without a store
    is a ConfigError."""
    lam = cfg.kd_weight if arm in _KD_ARMS else 0.0
    seq_dim = cfg.active_dim if arm in _SEQ_ARMS else 0
    if seq_dim and store is None:
        raise ConfigError(f"arm {arm!r} needs a populated sequence store")
    return lam, seq_dim


def train_vm(log_: EventLog, schema: FeatureSchema, cfg: ExperimentConfig,
             arms, store: SequenceStore | None, teacher: TeacherLog | None,
             seed: int) -> dict[str, VMModel]:
    """A student per arm of `arms`, trained in lockstep over one pass of the
    VM_TRAIN_CHUNKS rows: each batch is built once and steps every arm."""
    settings = {arm: _arm_settings(arm, cfg, store) for arm in arms}
    kd_arms = [arm for arm, (lam, _) in settings.items() if lam > 0]
    if kd_arms and teacher is None:
        raise ConfigError(f"arm {kd_arms[0]!r} needs teacher soft labels")
    vms, steps = {}, {}
    for arm, (lam, seq_dim) in settings.items():
        vm = vms[arm] = VMModel(schema, replace(cfg.vm, seq_dim=seq_dim), seed)
        steps[arm] = nn.Trace(partial(vm.loss, kd_weight=lam), vm.params,
                              nn.AdamState.for_params(vm.params, lr=cfg.vm.lr))
    ids = schema_ids(schema, log_)
    rows = np.flatnonzero(np.isin(log_.chunks, VM_TRAIN_CHUNKS))
    if kd_arms:
        soft = np.asarray(teacher.soft_at(log_.keys[rows], log_.timestamps[rows]),
                          dtype=np.float64)[:, None]
        soft.flags.writeable = False
    seq_dims = {arm: seq_dim for arm, (_, seq_dim) in settings.items()}
    for part in _batches(len(rows), cfg.vm.batch_size):
        for arm, batch in _arm_batches(log_, ids, rows[part], schema, cfg, seq_dims,
                                       store).items():
            if arm in kd_arms:
                batch = replace(batch, soft_labels=soft[part])
            steps[arm].step(vms[arm].arrays(batch))
    return vms


def _arm_batches(log_, ids, rows, schema, cfg, seq_dims, store) -> dict[str, VMBatch]:
    """The batch of `rows` for each arm of `seq_dims` (arm -> sequence width,
    0 for none). Sequences are built once, and the arms of one width share
    one VMBatch of read-only arrays."""
    seqs = None
    if any(seq_dims.values()):  # a generator: one SequenceFeature alive at a time
        seqs = (store.build_sequence(k, t, cfg.seq_len, cfg.window)
                for k, t in zip(log_.keys[rows].tolist(), log_.timestamps[rows].tolist()))
    full = make_vm_batch(schema, ids, log_.labels, rows, seqs,
                         seq_len=cfg.seq_len, seq_dim=cfg.active_dim)
    for column in (full.ids, full.labels, full.seq_entries, full.seq_mask):
        if column is not None:
            column.flags.writeable = False
    plain = replace(full, seq_entries=None, seq_mask=None)
    return {arm: full if seq_dim else plain for arm, seq_dim in seq_dims.items()}


def eval_vm(vms: dict[str, VMModel], log_: EventLog, schema: FeatureSchema,
            cfg: ExperimentConfig, store, chunk: int = TEST_CHUNK) -> dict[str, EvalResult]:
    """Each arm's student (arm -> VMModel) scored on the rows of `chunk`,
    every arm on the same 128-row batches."""
    seq_dims = {arm: _arm_settings(arm, cfg, store)[1] for arm in vms}
    ids = schema_ids(schema, log_)
    rows = np.flatnonzero(log_.chunks == chunk)
    if not rows.size:
        raise DataError(f"chunk {chunk} has no events to evaluate")
    scores = {arm: [] for arm in vms}
    for part in _batches(len(rows), 128):
        # each batch is popped into its arm's call, so one (B, L, d) sequence
        # block of at most 128 rows is alive at a time
        batches = _arm_batches(log_, ids, rows[part], schema, cfg, seq_dims, store)
        for arm in vms:
            scores[arm].append(vms[arm].predict_batch(batches.pop(arm)))
    return {arm: evaluate(np.concatenate(s), log_.labels[rows]) for arm, s in scores.items()}


# ---------------------------------------------------------------------------
# streaming experiment
# ---------------------------------------------------------------------------


@dataclass
class SeedResult:
    arm_results: dict[str, EvalResult]
    fm_result: EvalResult
    drift_per_chunk_pair: tuple[float, ...]
    codec_mse: float


@dataclass
class RunReport:
    config_hash: str
    code_version: str
    seeds: tuple[int, ...]
    results: dict[int, SeedResult]

    def mean_auc(self, arm: str) -> float:
        return float(np.mean([self.results[s].arm_results[arm].auc for s in self.seeds]))

    def to_text(self) -> str:
        lines = [
            f"config_hash\t{self.config_hash}",
            f"code_version\t{self.code_version}",
            "seed\tarm\tauc\tlogloss\tne\tn\tbase_rate",
        ]
        for seed in self.seeds:
            res = self.results[seed]
            for arm in sorted(res.arm_results):
                r = res.arm_results[arm]
                lines.append(
                    f"{seed}\t{arm}\t{r.auc!r}\t{r.logloss!r}\t{r.ne!r}\t"
                    f"{r.n_samples}\t{r.base_rate!r}"
                )
            fr = res.fm_result
            lines.append(
                f"{seed}\tteacher\t{fr.auc!r}\t{fr.logloss!r}\t{fr.ne!r}\t"
                f"{fr.n_samples}\t{fr.base_rate!r}"
            )
            lines.append(
                f"{seed}\tdrift\t" + ",".join(repr(d) for d in res.drift_per_chunk_pair)
            )
            lines.append(f"{seed}\tcodec_mse\t{res.codec_mse!r}")
        return "\n".join(lines) + "\n"


def run_protocol(log_: EventLog, schema: FeatureSchema, cfg: ExperimentConfig,
                 segments, seed: int) -> SeedResult:
    """The teacher stack of `segments` (see checkpoint_segments), then the
    arms of `cfg.arms` trained and scored in lockstep on TEST_CHUNK, then
    the teacher scored on the same chunk."""
    stack = teacher_stack(log_, schema, cfg, segments)
    vms = train_vm(log_, schema, cfg, cfg.arms, stack.store, stack.teacher, seed)
    arm_results = eval_vm(vms, log_, schema, cfg, stack.store)
    test_rows = stack.teacher.rows_in_chunk(TEST_CHUNK)
    fm_result = evaluate(stack.teacher.soft[test_rows], stack.teacher.labels[test_rows])
    return SeedResult(arm_results, fm_result, stack.drift, stack.codec_mse)


def run_seed(cfg: ExperimentConfig, seed: int, log_: EventLog | None = None) -> SeedResult:
    """One seed of the protocol on `log_`, or on the world's log generated with `seed`."""
    return run_protocol(generate(cfg.world, seed) if log_ is None else log_,
                        FeatureSchema.from_world(cfg.world), cfg,
                        checkpoint_segments(cfg.checkpoint_policy, seed), seed)


def run_streaming_experiment(cfg: ExperimentConfig, shared: EventLog | None = None) -> RunReport:
    """Every seed of `cfg` on `shared`, else on its external log read once, else on its own."""
    if shared is None and cfg.event_log_path:
        shared = load_event_log(cfg.event_log_path, cfg.world)
    results = {seed: run_seed(cfg, seed, shared) for seed in cfg.seeds}
    return RunReport(
        config_hash=cfg.hash(), code_version=__version__,
        seeds=tuple(cfg.seeds), results=results,
    )


# ---------------------------------------------------------------------------
# ablations
# ---------------------------------------------------------------------------


def run_ablation(cfg: ExperimentConfig, axis: str, values=None) -> list[dict]:
    """One row per axis setting; each reruns the protocol (an external log is read once)."""
    if axis == "deltasweep":
        return run_delta_sweep(cfg, values or DELTA_VALUES)
    if axis not in _ABLATIONS:
        raise ConfigError(f"unknown ablation axis {axis!r}")
    name, defaults, extra = _ABLATIONS[axis]
    settings = tuple(values or defaults)
    shared = load_event_log(cfg.event_log_path, cfg.world) if cfg.event_log_path else None
    rows = []
    for setting in settings:
        changes = {name: setting}
        if name == "active_dim":  # the compressor must train every active dim
            changes["ae"] = replace(cfg.ae, dims=settings)
        report = run_streaming_experiment(replace(cfg, **changes), shared)
        row = _axis_row(axis, setting, report)
        if extra:
            column, per_seed = extra
            row[column] = float(np.mean([per_seed(report.results[s]) for s in report.seeds]))
        rows.append(row)
    return rows


def _axis_row(axis: str, setting, report: RunReport) -> dict:
    row = {"axis": axis, "setting": setting}
    arms = report.results[report.seeds[0]].arm_results
    for arm in sorted(arms):
        row[f"auc_{arm}"] = report.mean_auc(arm)
        row[f"ne_{arm}"] = float(
            np.mean([report.results[s].arm_results[arm].ne for s in report.seeds])
        )
    return row


def delta_sweep_world() -> WorldSpec:
    """World for teacher-generation comparisons: one always-visible extra
    plus eight sweepable ones, all binary, every weight bounded away from 0."""
    weights = (0.9, -0.75, 0.7, -0.65, 0.6, -0.55, 0.5, -0.5, 0.45)
    return WorldSpec(
        n_users=192,
        events_per_user=64,
        vm_cardinalities=(2,),
        extra_cardinalities=(2,) * 9,
        vm_weights=(0.8,),
        extra_weights=weights,
        base_logit=-0.9,
        temporal_window=8,
        temporal_cap=3,
        beta_temporal=0.6,
    )


def old_generation_pipe(world, n_visible: int) -> TablePipeline:
    """The incumbent teacher's coarse stack: grid compressor plus 2-bit
    codes, so it genuinely loses part of the cross channel. The upgrade
    story assumes the new stack is at least as good (A3)."""
    return TablePipeline(n_extras_visible=n_visible, emb=posterior_embedding(world, n_visible),
                         ae_fn=grid_ae(2), quant_fn=uniform_quantizer(2))


def new_generation_pipe(world, n_visible: int) -> TablePipeline:
    """The upgraded stack: exact posterior embedding kept at full
    resolution. The per-event posterior is a sufficient statistic for the
    event's label under this world, so every stage loss is exactly zero
    and the bound's numerator condition is met by construction."""
    return TablePipeline(n_extras_visible=n_visible, emb=posterior_embedding(world, n_visible),
                         ae_fn=identity_stage, quant_fn=fixed_point_quantizer())


def _subschema(world: WorldSpec, n_extras: int) -> FeatureSchema:
    """The schema of a teacher that sees the world's first `n_extras` extras."""
    return FeatureSchema(FeatureSchema.from_world(world).features[
        : len(world.vm_cardinalities) + n_extras])


def run_delta_sweep(cfg: ExperimentConfig, deltas=DELTA_VALUES) -> list[dict]:
    """Empirical transfer ratio for teacher pairs with growing feature gap,
    next to the population-level lower bound for the same world; the old
    teacher sees one extra, on the first configured seed's log."""
    seed, m1 = cfg.seeds[0], 1
    world = delta_sweep_world()
    log_ = generate(world, seed)
    enum_world = enumerate_world(world, n_hist=1)
    kd_cfg = replace(cfg, arms=("kd_emb_hist",))

    def transfer(n_extras):
        res = run_protocol(log_, _subschema(world, n_extras), kd_cfg,
                           checkpoint_segments("fixed", derive_seed(seed, "teacher", n_extras)),
                           seed)
        return res.arm_results["kd_emb_hist"], res.fm_result

    base_vm, base_fm = transfer(m1)
    pops = tr_delta_sweep(
        enum_world, old_generation_pipe(enum_world, m1),
        lambda m2: new_generation_pipe(enum_world, m2), tuple(deltas),
    )
    rows = []
    for delta, pop in zip(deltas, pops):
        new_vm, new_fm = transfer(m1 + delta)
        try:
            tr_emp = transfer_ratio(base_vm.ne, new_vm.ne, base_fm.ne, new_fm.ne)
        except MetricError:  # the teacher's NE did not move
            tr_emp = float("nan")
        rows.append({
            "axis": "deltasweep", "setting": delta,
            "tr_empirical": tr_emp, "tr_lb": pop.tr_lb, "tr_pop": pop.tr_pop,
            "ne_fm_old": base_fm.ne, "ne_fm_new": new_fm.ne,
            "ne_vm_old": base_vm.ne, "ne_vm_new": new_vm.ne,
        })
    return rows


# ---------------------------------------------------------------------------
# theory suite
# ---------------------------------------------------------------------------


@dataclass
class TheoryCheck:
    name: str
    world: str
    value: float
    threshold: float
    passed: bool


@dataclass
class TheorySuiteResult:
    checks: list[TheoryCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[TheoryCheck]:
        return [c for c in self.checks if not c.passed]

    def to_rows(self) -> list[dict]:
        return [
            {"check": c.name, "world": c.world, "value": c.value,
             "threshold": c.threshold, "passed": c.passed}
            for c in self.checks
        ]


# the gate of every theory check: name -> (threshold, whether the value
# passes strictly below it; otherwise it passes at or above it)
_GATES = {
    # theory_battery, per random world
    "gain_identity_residual": (1e-10, True),
    "dpi_cross_le_raw": (-1e-9, False),
    "cross_identity_residual": (1e-10, True),
    "pipeline_bound_slack": (-1e-9, False),
    "eta_in_unit_interval": (1.0 + 1e-9, True),
    "gain_sandwich": (-1e-9, False),
    "monotone_history_gain": (-1e-10, False),
    "gain_capped_by_label_entropy": (-1e-10, False),
    "conditioning_reduces_entropy": (-1e-10, False),
    "a3_implies_eta_ordering": (-1e-9, False),
    # tr_sweep_suite: flags pass at 1.0
    "a3_holds_on_sweep": (1.0, False),
    "tr_bound_applicable": (1.0, False),
    "tr_pop_ge_lb": (-1e-9, False),
    "tr_lb_nondecreasing_in_delta": (-1e-12, False),
    "tr_lb_grid_monotone": (-1e-12, False),
    "tr_lb_grid_below_limit": (-1e-12, False),
    "initial_launch_tr_nonneg": (-1e-12, False),
    "initial_launch_bound_holds": (-1e-9, False),
    "negative_transfer_a3_violated": (1.0, False),
    "negative_transfer_tr_negative": (0.0, True),
}


def _checks(world: str, values: dict):
    """One TheoryCheck per (name, value) of `values`, in order, each gated
    and reporting its threshold as _GATES gives them."""
    for name, value in values.items():
        threshold, below = _GATES[name]
        value = float(value)
        yield TheoryCheck(name, world, value, threshold,
                          value < threshold if below else value >= threshold)


def theory_battery(n_worlds: int = 20, seed: int = 0) -> TheorySuiteResult:
    """Randomized identity/inequality battery over n_worlds >= 1 enumerable worlds."""
    if n_worlds < 1:
        raise ConfigError(f"the theory battery needs at least one world, got {n_worlds}")
    checks: list[TheoryCheck] = []
    for k in range(n_worlds):
        spec = random_enumerable_spec(derive_seed(seed, "battery", k))
        # two history steps when their joint has at most 300,000 cells
        n_hist = 2 if (spec.vm_card * spec.extra_card * 2) ** 3 <= 300_000 else 1
        world = enumerate_world(spec, n_hist)
        pipe = random_table_pipeline(world, derive_seed(seed, "pipe", k))

        rep = verify_pipeline(world, pipe)
        gains_by_len = verify_monotone_L(world, pipe)
        cap = world.table.cond_entropy(("Y",), ("V",))
        values = {
            "gain_identity_residual": rep.gain_identity_residual,
            "dpi_cross_le_raw": rep.i_feature_raw - rep.i_cross,
            "cross_identity_residual": rep.cross_identity_residual,
            "pipeline_bound_slack": rep.pipeline_bound_slack,
            "eta_in_unit_interval": rep.eta,
            "gain_sandwich": min(verify_gain_sandwich(rep)),
            "monotone_history_gain": np.diff(gains_by_len).min(initial=0.0),
            "gain_capped_by_label_entropy": cap - gains_by_len[-1],
        }

        # conditioning reduces entropy along growing conditioning sets
        h_prev, worst, cond = cap, 0.0, ("V",)
        for v in world.hist_vm_vars() + world.hist_extra_vars():
            cond += (v,)
            h_next = world.table.cond_entropy(("Y",), cond)
            worst = min(worst, h_prev - h_next)
            h_prev = h_next
        values["conditioning_reduces_entropy"] = worst

        # finer quantization cannot worsen the pipeline (A3-style pair)
        fine = TablePipeline(pipe.n_extras_visible, pipe.emb, pipe.ae_fn, uniform_quantizer(4))
        rep_fine = verify_pipeline(world, fine)
        cross_fine = rep_fine.l_repr_cross + rep_fine.l_ae_cross + rep_fine.l_q_cross
        cross_coarse = rep.l_repr_cross + rep.l_ae_cross + rep.l_q_cross
        if cross_fine <= cross_coarse + 1e-12 and rep.i_feature_raw > 1e-12:
            values["a3_implies_eta_ordering"] = rep.eta - rep_fine.eta
        checks += _checks(f"w{k}", values)
    return TheorySuiteResult(checks)


def tr_sweep_suite(seed: int = 0) -> TheorySuiteResult:
    """Population transfer-ratio bound across the feature-gap sweep, plus
    the monotone bound grid, initial launch, and negative transfer. The
    result does not depend on `seed`: exact enumeration of
    delta_sweep_world() draws nothing. Each new-generation pipeline is built
    once and shared by the sweep, the launch check and negative transfer,
    so their stage tables and reports are computed once."""
    world = enumerate_world(delta_sweep_world(), n_hist=1)
    m1 = 1
    new_pipes = {m1 + d: new_generation_pipe(world, m1 + d) for d in DELTA_VALUES}
    pops = tr_delta_sweep(world, old_generation_pipe(world, m1), new_pipes.__getitem__,
                          DELTA_VALUES)
    checks: list[TheoryCheck] = []
    prev_lb = -math.inf
    for delta, pop in zip(DELTA_VALUES, pops):
        checks += _checks(f"delta{delta}", {
            "a3_holds_on_sweep": pop.a3_holds,
            "tr_bound_applicable": pop.bound_applicable,
            "tr_pop_ge_lb": pop.tr_pop - pop.tr_lb,
            "tr_lb_nondecreasing_in_delta": pop.tr_lb - prev_lb,
        })
        prev_lb = pop.tr_lb

    # closed-form bound is monotone on a dense grid under valid constants
    params0 = TRBoundParams(
        tau2=0.05, eta1=0.3, kappa_gap_hist_lo=0.01, kappa_gap_hi=0.05,
        i_temporal=0.2, delta=1.0, kappa_over_hi=0.2, kappa_over_lo=0.1,
        xi1=0.3, xi2=0.2,
    )
    grid = [
        eval_tr_lower_bound(replace(params0, delta=float(d)))
        for d in range(1, 65)
    ]
    limit = (1.0 - params0.eta1) * params0.kappa_gap_hist_lo / params0.kappa_gap_hi
    checks += _checks("grid64", {"tr_lb_grid_monotone": np.diff(grid).min(),
                                 "tr_lb_grid_below_limit": limit - grid[-1]})

    # initial launch: no prior sequence feature, gain can only help
    launch = verify_tr_bound_population(world, None, new_pipes[m1 + 2], m1_features=m1)
    # crafted neg-transfer: new teacher sees more but ships a coarser pipeline
    neg = negative_transfer_example(world, new_pipes[m1 + 1])
    checks += _checks("launch", {"initial_launch_tr_nonneg": launch.tr_pop,
                                 "initial_launch_bound_holds":
                                     launch.tr_pop - max(launch.tr_lb, 0.0)})
    checks += _checks("crafted", {"negative_transfer_a3_violated": not neg.a3_holds,
                                  "negative_transfer_tr_negative": neg.tr_pop})
    return TheorySuiteResult(checks)


def negative_transfer_example(world, pipe1: TablePipeline):
    """Teacher upgrade whose pipeline is strictly coarser: the old stack
    is lossless, the new one crushes the posterior to its sign. `world`:
    `delta_sweep_world()` enumerated with `n_hist=1`; `pipe1`: its
    `new_generation_pipe(world, 2)`."""
    pipe2 = TablePipeline(n_extras_visible=3, emb=posterior_embedding(world, 3),
                          ae_fn=grid_ae(2), quant_fn=uniform_quantizer(1))
    return verify_tr_bound_population(world, pipe1, pipe2)


def run_theory_suite(n_worlds: int = 20, seed: int = 0) -> TheorySuiteResult:
    battery = theory_battery(n_worlds, seed)
    sweep = tr_sweep_suite(seed)
    return TheorySuiteResult(battery.checks + sweep.checks)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def write_tsv(path, rows: list[dict]) -> None:
    if not rows:
        raise DataError("no rows to write")
    cols = list(rows[0].keys())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(cols) + "\n")
        for row in rows:
            fh.write("\t".join(str(row[c]) for c in cols) + "\n")


def render_theory_summary(result: TheorySuiteResult) -> str:
    lines = []
    for c in result.checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"[{status}] {c.name} ({c.world}): value={c.value:.3e} "
                     f"threshold={c.threshold:.3e}")
    verdict = "ALL CHECKS PASSED" if result.all_passed else \
        f"{len(result.failures())} CHECK(S) FAILED"
    lines.append(verdict)
    return "\n".join(lines) + "\n"


def require_all_passed(result: TheorySuiteResult) -> None:
    if not result.all_passed:
        names = ", ".join(c.name for c in result.failures())
        raise VerificationError(f"theory checks failed: {names}")
