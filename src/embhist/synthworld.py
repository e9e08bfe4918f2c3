"""Seeded discrete recommendation worlds with known ground truth.

A world has student-visible categorical features, extra teacher-only
features, and a temporal channel: the label's logit gets a bump from the
count of the user's positive labels within the last `temporal_window`
events, capped at `temporal_cap`. Label noise (if any) mixes the
conditional law toward a fair coin. Worlds support both event-log
sampling (per-user splitmix64 substreams) and exact enumeration of the
joint law of the first few events of one user, which feeds every
information-theoretic verification.
"""

from __future__ import annotations

import functools
import logging
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, SizeError
from .infotheory import JointTable, VerificationWorld, hist_var
from .prng import Stream, derive_seed, uniform_array

log = logging.getLogger(__name__)

N_CHUNKS = 8
_ENUM_BUDGET = 30_000_000


def feature_effect(value: int, cardinality: int) -> float:
    """Map a categorical value onto a centered score in [-1, 1]."""
    return (2.0 * value - (cardinality - 1)) / (cardinality - 1)


@dataclass(frozen=True)
class WorldSpec:
    n_users: int = 256
    events_per_user: int = 96
    vm_cardinalities: tuple[int, ...] = (4, 3, 2, 2)
    extra_cardinalities: tuple[int, ...] = (3, 2, 2, 2)
    vm_weights: tuple[float, ...] = (0.7, -0.55, 0.5, -0.45)
    extra_weights: tuple[float, ...] = (1.1, -0.9, 0.8, -0.65)
    base_logit: float = -1.9
    temporal_window: int = 12
    temporal_cap: int = 6
    beta_temporal: float = 0.3
    label_noise: float = 0.0
    vm_feature_probs: tuple[tuple[float, ...], ...] | None = None
    extra_feature_probs: tuple[tuple[float, ...], ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_users < 1 or self.events_per_user < N_CHUNKS:
            raise ConfigError("need >= 1 user and >= 8 events per user")
        if self.events_per_user % N_CHUNKS:
            raise ConfigError("events_per_user must be divisible by 8 chunks")
        for c in self.vm_cardinalities + self.extra_cardinalities:
            if c < 2:
                raise ConfigError("cardinalities must be >= 2")
        if len(self.vm_weights) != len(self.vm_cardinalities):
            raise ConfigError("vm weight/cardinality length mismatch")
        if len(self.extra_weights) != len(self.extra_cardinalities):
            raise ConfigError("extra weight/cardinality length mismatch")
        if self.temporal_window < 1 or self.temporal_cap < 0:
            raise ConfigError("temporal window must be >= 1 and cap >= 0")
        if not 0.0 <= self.label_noise < 1.0:
            raise ConfigError("label noise must be in [0, 1)")
        for probs, cards in (
            (self.vm_feature_probs, self.vm_cardinalities),
            (self.extra_feature_probs, self.extra_cardinalities),
        ):
            if probs is None:
                continue
            if len(probs) != len(cards):
                raise ConfigError("feature prob/cardinality length mismatch")
            for p, c in zip(probs, cards):
                if len(p) != c or abs(sum(p) - 1.0) > 1e-9 or min(p) < 0:
                    raise ConfigError("invalid feature distribution")
        # full joint over (features, history summary, y) stays enumerable
        cells = (
            math.prod(self.vm_cardinalities)
            * math.prod(self.extra_cardinalities)
            * (self.temporal_cap + 1) * 2
        )
        if cells > 1_000_000:
            raise ConfigError(f"summary joint of {cells} cells is not enumerable")
        if self.n_users * self.events_per_user >= 2**31:  # history rows are int32
            raise ConfigError("n_users x events_per_user reaches 2^31 log rows")

    @property
    def vm_card(self) -> int:
        return math.prod(self.vm_cardinalities)

    @property
    def extra_card(self) -> int:
        return math.prod(self.extra_cardinalities)

    def chunk_of(self, timestamp: int) -> int:
        return timestamp * N_CHUNKS // self.events_per_user


@dataclass(frozen=True)
class EventSample:
    """One labeled interaction; true_p is known only for generated worlds."""

    key: int
    timestamp: int
    chunk: int
    vm_values: tuple[int, ...]
    extra_values: tuple[int, ...]
    label: int
    true_p: float | None = None


_COLUMNS = ("keys", "timestamps", "chunks", "ids", "labels", "true_p")


@dataclass(frozen=True, eq=False)
class EventLog:
    """Columnar event log; row i is one labeled interaction.

    keys, timestamps, chunks and labels are (N,) int64; ids is the one
    feature plane, (N, m_vm + m_extra) int32 with the student-visible
    columns first, range-checked here once (int32 holds every id: each
    cardinality is below 10^6); true_p is (N,) float64, NaN where unknown.
    Every column is read-only; one given C-contiguous in its dtype is kept, not copied.
    """

    spec: WorldSpec
    keys: np.ndarray
    timestamps: np.ndarray
    chunks: np.ndarray
    ids: np.ndarray
    labels: np.ndarray
    true_p: np.ndarray

    def __post_init__(self):
        n, width = len(self.labels), self.n_visible + len(self.spec.extra_cardinalities)
        ids = np.asarray(self.ids)
        if {np.shape(getattr(self, c)) for c in _COLUMNS if c != "ids"} != {(n,)} \
                or ids.shape != (n, width):
            raise ConfigError(f"event log columns do not match {n} rows of width {width}")
        cards = np.array(self.spec.vm_cardinalities + self.spec.extra_cardinalities)
        # on the given values, NaN included: narrowing first would wrap 2^32 + 1
        # to 1 and truncate 0.7 to 0
        bad = ~((ids >= 0) & (ids < cards))
        if ids.dtype.kind == "f":
            bad |= ids != np.floor(ids)
        bad = np.argwhere(bad)
        if len(bad):
            row, j = bad[0]
            raise DataError(f"row {row}: feature {j} id {ids[row, j]} outside the integers "
                            f"in [0, {cards[j]})")
        object.__setattr__(self, "ids", ids)
        for name in _COLUMNS:
            dtype = {"ids": np.int32, "true_p": np.float64}.get(name, np.int64)
            col = np.ascontiguousarray(getattr(self, name), dtype)
            col.setflags(write=False)
            object.__setattr__(self, name, col)
        known = self.true_p[~np.isnan(self.true_p)]
        if np.any((known <= 0.0) | (known >= 1.0)):
            raise ConfigError("true_p outside (0, 1)")

    def __eq__(self, other):
        if not isinstance(other, EventLog):
            return NotImplemented
        return self.spec == other.spec and all(
            np.array_equal(getattr(self, c), getattr(other, c), equal_nan=True)
            for c in _COLUMNS
        )

    @property
    def n_visible(self) -> int:
        return len(self.spec.vm_cardinalities)

    def _rows(self):
        return zip(*(getattr(self, c).tolist() for c in _COLUMNS))

    @functools.cached_property
    def samples(self) -> tuple[EventSample, ...]:
        """Per-event view for tests and counts; no hot path reads it."""
        m = self.n_visible
        return tuple(EventSample(k, t, c, tuple(v[:m]), tuple(v[m:]), y,
                                 None if math.isnan(p) else p)
                     for k, t, c, v, y, p in self._rows())

    def write_text(self, path) -> None:
        """One record per line: key, timestamp, chunk, vm ids, extra ids, label.

        Fields are tab-separated; the id lists are comma-joined.
        """
        m = self.n_visible
        with open(path, "w", encoding="utf-8") as fh:
            for k, t, c, v, y, _ in self._rows():
                fh.write(f"{k}\t{t}\t{c}\t{','.join(map(str, v[:m]))}\t"
                         f"{','.join(map(str, v[m:]))}\t{y}\n")


def load_event_log(path, spec: WorldSpec) -> EventLog:
    """The log of an event file in the format `EventLog.write_text` writes.

    Each line is decoded, split and checked once, and its integers are appended
    to columns (int64, and int32 for ids) that the log keeps without a copy; blank
    lines are skipped. A malformed line is a DataError that names it. A repeated
    (key, timestamp) is found by one sort once every line has passed, and
    names both of its lines. A timestamp below an earlier one of its chunk
    is only logged, once per load with the count and the first such line.
    """
    cards = (*spec.vm_cardinalities, *spec.extra_cardinalities)
    keys, stamps, chunks, labels, lines, backwards = (array("q") for _ in range(6))
    ids = array("i")  # C int: np.intc, int32
    last = [-1] * N_CHUNKS  # the latest timestamp of each chunk so far
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, 1):
            try:
                fields = raw.decode().rstrip("\r\n").split("\t")
                if fields == [""]:
                    continue
                if len(fields) != 6:
                    raise ValueError(f"expected 6 tab-separated fields, got {len(fields)}")
                key, ts, chunk, vm, extra, label = fields
                key, ts, chunk, label = int(key), int(ts), int(chunk), int(label)
                vm, extra = ([int(x) for x in f.split(",")] if f else [] for f in (vm, extra))
                if label not in (0, 1):
                    raise ValueError("label must be 0 or 1")
                if not 0 <= chunk < N_CHUNKS:
                    raise ValueError(f"chunk {chunk} outside 0..{N_CHUNKS - 1}")
                if key < 0 or ts < 0:
                    raise ValueError("key and timestamp must be non-negative")
                if len(vm) != len(spec.vm_cardinalities):
                    raise ValueError("wrong visible feature count")
                if len(extra) != len(spec.extra_cardinalities):
                    raise ValueError("wrong extra feature count")
                row = vm + extra
                for j, (v, card) in enumerate(zip(row, cards)):
                    if not 0 <= v < card:
                        raise ValueError(f"feature {j} id {v} outside [0, {card})")
                keys.append(key)
                stamps.append(ts)
                chunks.append(chunk)
                labels.append(label)
                ids.extend(row)
                lines.append(line_no)
            except ValueError as exc:  # from decode(), int() or a check above
                raise DataError(f"line {line_no}: {exc}") from exc
            except OverflowError as exc:  # from a key or timestamp append
                raise DataError(f"line {line_no}: value outside int64") from exc
            if ts < last[chunk]:
                backwards.append(line_no)
            else:
                last[chunk] = ts
    if not lines:
        raise DataError("event log is empty")
    if backwards:
        log.warning("non-monotone timestamp within its chunk on %d lines, first on line %d",
                    len(backwards), backwards[0])
    k, t = np.frombuffer(keys, np.int64), np.frombuffer(stamps, np.int64)
    order = np.lexsort((t, k))
    repeats = order[1:][(np.diff(k[order]) == 0) & (np.diff(t[order]) == 0)]
    if len(repeats):  # the earliest line that repeats a pair, and its first line
        later = repeats.min()
        first = np.argmax((k == k[later]) & (t == t[later]))
        raise DataError(f"lines {lines[first]} and {lines[later]}: duplicate key "
                        f"{k[later]} at timestamp {t[later]}")
    return EventLog(spec=spec, keys=k, timestamps=t, chunks=np.frombuffer(chunks, np.int64),
                    ids=np.frombuffer(ids, np.intc).reshape(len(k), len(cards)),
                    labels=np.frombuffer(labels, np.int64), true_p=np.full(len(k), np.nan))


def _feature_probs(spec: WorldSpec, extras: bool) -> list[np.ndarray]:
    cards = spec.extra_cardinalities if extras else spec.vm_cardinalities
    given = spec.extra_feature_probs if extras else spec.vm_feature_probs
    if given is None:
        return [np.full(c, 1.0 / c) for c in cards]
    return [np.asarray(p, dtype=np.float64) for p in given]


def _score_table(cards, weights) -> np.ndarray:
    """Weighted feature-effect score for every composite feature index."""
    total = math.prod(cards)
    scores = np.zeros(total)
    idx = np.arange(total)
    for card, weight in zip(reversed(cards), reversed(list(weights))):
        digit = idx % card
        scores += weight * (2.0 * digit - (card - 1)) / (card - 1)
        idx = idx // card
    return scores


def _composite_probs(per_feature: list[np.ndarray]) -> np.ndarray:
    out = np.ones(1)
    for p in per_feature:
        out = np.multiply.outer(out, p).ravel()
    return out / out.sum()  # a feature's law sums to 1 only within 1e-9


def true_probability(spec: WorldSpec, vm_values, extra_values, pos_count: int) -> float:
    """The generative law: sigmoid logit with a capped temporal bump."""
    logit = spec.base_logit
    for v, c, w in zip(vm_values, spec.vm_cardinalities, spec.vm_weights):
        logit += w * feature_effect(v, c)
    for v, c, w in zip(extra_values, spec.extra_cardinalities, spec.extra_weights):
        logit += w * feature_effect(v, c)
    logit += spec.beta_temporal * min(pos_count, spec.temporal_cap)
    p = 1.0 / (1.0 + math.exp(-logit))
    return (1.0 - spec.label_noise) * p + 0.5 * spec.label_noise


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def generate(spec: WorldSpec, seed: int | None = None) -> EventLog:
    """Chronologically ordered event log, 8 temporal chunks, bit-reproducible.

    Users draw from independent substreams keyed by (seed, user id), so
    the log is identical under any generation schedule: all users advance
    together, one time step at a time. P(y=1) comes from a table of
    `true_probability` over (feature values, capped positive count),
    filled on first use.
    """
    seed = spec.seed if seed is None else seed
    cums = [np.cumsum(p) for p in
            _feature_probs(spec, extras=False) + _feature_probs(spec, extras=True)]
    cards = spec.vm_cardinalities + spec.extra_cardinalities
    n_users, t_count, m, m_vm = (spec.n_users, spec.events_per_user, len(cards),
                                 len(spec.vm_cardinalities))
    seeds = np.array([derive_seed(seed, "user", u) for u in range(n_users)],
                     dtype=np.uint64)
    draws = uniform_array(seeds, t_count * (m + 1))  # per user: features, then labels
    u_feat = draws[:, : t_count * m].reshape(n_users, t_count, m)
    u_label = draws[:, t_count * m :]
    ids = np.empty((t_count, n_users, m), dtype=np.int32)
    for j, cum in enumerate(cums):
        # a draw at or above a rounded-down total falls in the last category
        ids[:, :, j] = np.minimum(np.searchsorted(cum, u_feat[:, :, j], side="right").T,
                                  len(cum) - 1)

    cap1 = spec.temporal_cap + 1
    table = np.full(math.prod(cards) * cap1, np.nan)
    labels = np.zeros((t_count, n_users), dtype=np.int64)
    true_p = np.empty((t_count, n_users))
    for t in range(t_count):
        pos = labels[max(t - spec.temporal_window, 0) : t].sum(axis=0)
        cell = np.ravel_multi_index(tuple(ids[t].T), cards) * cap1 \
            + np.minimum(pos, spec.temporal_cap)
        need = np.unique(cell[np.isnan(table[cell])])
        digits = np.stack(np.unravel_index(need, cards + (cap1,)), axis=1).tolist()
        table[need] = [true_probability(spec, d[:m_vm], d[m_vm:m], d[m]) for d in digits]
        true_p[t] = table[cell]
        labels[t] = u_label[:, t] < true_p[t]
    del draws, u_feat, u_label, table  # before the log's columns are made
    steps = np.repeat(np.arange(t_count), n_users)
    return EventLog(
        spec=spec, keys=np.tile(np.arange(n_users), t_count), timestamps=steps,
        chunks=spec.chunk_of(steps), ids=ids.reshape(-1, m),
        labels=labels.ravel(), true_p=true_p.ravel(),
    )


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------


def enumerate_world(spec: WorldSpec, n_hist: int) -> VerificationWorld:
    """Exact joint law of one user's first n_hist+1 events, held as its chain
    factors: per step, P(V), P(E) and P(Y | V, E, the labels in its temporal
    window).

    Variables (most recent history step is index n_hist):
    V1,E1,Y1 ... Vn,En,Yn, V,E,Y -- composite feature indices and labels.
    """
    cv, ce = spec.vm_card, spec.extra_card
    cells = (cv * ce * 2) ** (n_hist + 1)
    if cells > _ENUM_BUDGET:
        raise SizeError(f"enumeration of {cells} cells exceeds budget")

    pv = _composite_probs(_feature_probs(spec, extras=False))
    pe = _composite_probs(_feature_probs(spec, extras=True))
    sv = _score_table(spec.vm_cardinalities, spec.vm_weights)
    se = _score_table(spec.extra_cardinalities, spec.extra_weights)

    names = [hist_var(x, i) for i in range(1, n_hist + 1) for x in "VEY"] + ["V", "E", "Y"]
    factors = []
    for step in range(n_hist + 1):
        v, e, y = names[3 * step : 3 * step + 3]
        window = names[3 * max(step - spec.temporal_window, 0) + 2 : 3 * step : 3]
        count = np.indices((2,) * len(window)).sum(axis=0)  # positive window labels
        logit = (spec.base_logit + sv.reshape((cv,) + (1,) * (len(window) + 1))
                 + se.reshape((ce,) + (1,) * len(window))
                 + spec.beta_temporal * np.minimum(count, spec.temporal_cap))
        p1 = 1.0 / (1.0 + np.exp(-logit))
        p1 = (1.0 - spec.label_noise) * p1 + 0.5 * spec.label_noise
        factors += [((v,), pv), ((e,), pe), ((v, e, *window, y), np.stack([1.0 - p1, p1], -1))]
    return VerificationWorld(
        table=JointTable.from_factors(names, [cv, ce, 2] * (n_hist + 1), factors),
        n_hist=n_hist,
        vm_feature_cards=tuple(spec.vm_cardinalities),
        extra_feature_cards=tuple(spec.extra_cardinalities),
    )


# ---------------------------------------------------------------------------
# randomized worlds for the verification battery
# ---------------------------------------------------------------------------


def default_verification_spec() -> WorldSpec:
    """Canonical small world for exact checks: binary features, live
    temporal window of two events. Enumerable up to five history steps."""
    return WorldSpec(
        n_users=8, events_per_user=8,
        vm_cardinalities=(2,), vm_weights=(0.8,),
        extra_cardinalities=(2,), extra_weights=(0.9,),
        base_logit=-0.4, temporal_window=2, temporal_cap=2, beta_temporal=0.7,
    )


def random_enumerable_spec(seed: int) -> WorldSpec:
    """Small random world for the identity/inequality battery.

    Feature weights stay bounded away from zero so every extra feature
    carries strictly positive conditional information.
    """
    stream = Stream(derive_seed(seed, "battery-world"))
    n_vm = 1 + stream.randint(2)
    n_ex = 1 + stream.randint(2)
    vm_cards = tuple(2 + stream.randint(2) for _ in range(n_vm))
    ex_cards = tuple(2 + stream.randint(2) for _ in range(n_ex))

    def weight():
        sign = 1.0 if stream.uniform() < 0.5 else -1.0
        return sign * (0.3 + 0.9 * stream.uniform())

    def dist(card):
        raw = np.array([0.2 + stream.uniform() for _ in range(card)])
        raw /= raw.sum()
        return tuple(float(x) for x in raw)

    return WorldSpec(
        n_users=8,
        events_per_user=8,
        vm_cardinalities=vm_cards,
        extra_cardinalities=ex_cards,
        vm_weights=tuple(weight() for _ in range(n_vm)),
        extra_weights=tuple(weight() for _ in range(n_ex)),
        base_logit=-0.6 + 1.2 * stream.uniform(),
        temporal_window=1 + stream.randint(2),
        temporal_cap=1 + stream.randint(2),
        beta_temporal=0.3 + 0.9 * stream.uniform(),
        vm_feature_probs=tuple(dist(c) for c in vm_cards),
        extra_feature_probs=tuple(dist(c) for c in ex_cards),
        seed=seed,
    )
