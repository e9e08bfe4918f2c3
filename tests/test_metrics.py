import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embhist.errors import MetricError
from embhist.metrics import (
    auc, evaluate, logloss, midranks, normalized_entropy, transfer_ratio,
)


def pair_count_auc_simple(scores, labels):
    """O(n^2) oracle: fraction of pos/neg pairs ranked correctly, ties half."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = s[y == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return wins / (len(pos) * len(neg))


def midranks_loop(x):
    """Run-by-run reference: each run of equal sorted values gets the mean
    of the 1-based positions it spans."""
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(len(x), dtype=np.float64)
    xs = x[order]
    i = 0
    while i < len(xs):
        j = i
        while j + 1 < len(xs) and xs[j + 1] == xs[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


class TestMidranks:
    def test_matches_loop_and_rankdata(self):
        from scipy.stats import rankdata

        rng = np.random.default_rng(7)
        for trial in range(500):
            n = int(rng.integers(0, 50))
            x = rng.integers(0, 6, n).astype(float) if trial % 2 else rng.normal(0, 1, n)
            ranks = midranks(x)
            assert np.array_equal(ranks, midranks_loop(x))
            assert np.array_equal(ranks, rankdata(x))

    def test_signed_zeros_tie(self):
        assert midranks(np.array([0.0, -0.0, 1.0])).tolist() == [1.5, 1.5, 3.0]


class TestAUC:
    def test_perfect(self):
        assert auc([0.9, 0.1], [1, 0]) == 1.0

    def test_all_ties(self):
        assert auc([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            auc([0.2, 0.4], [1, 1])

    def test_matches_pair_counting(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            n = int(rng.integers(2, 60))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.uniform(0, 1, n), 2)  # force ties
            assert auc(scores, labels) == pytest.approx(
                pair_count_auc_simple(scores, labels), abs=1e-12
            )

    @given(st.lists(st.floats(0.01, 0.99), min_size=4, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_monotone_transform_invariant(self, raw):
        rng = np.random.default_rng(len(raw))
        labels = rng.integers(0, 2, len(raw))
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # coarse grid keeps the strictly monotone map exactly tie-preserving
        # under float rounding
        scores = np.round(np.asarray(raw), 2)
        a1 = auc(scores, labels)
        a2 = auc(np.exp(3.0 * scores) + 7.0, labels)
        assert a1 == pytest.approx(a2, abs=1e-12)


class TestNE:
    def test_base_rate_predictor_is_one(self):
        labels = [1, 0, 0, 1, 0, 0, 0, 1]
        rate = np.mean(labels)
        assert normalized_entropy([rate] * len(labels), labels) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_perfect_predictions_near_zero(self):
        labels = [1, 0, 1, 0]
        scores = [1 - 1e-7, 1e-7, 1 - 1e-7, 1e-7]
        assert normalized_entropy(scores, labels) < 1e-5

    def test_hand_case(self):
        # labels [1,0], scores [0.8,0.4]: mean BCE = (-ln .8 - ln .6)/2
        mean_bce = (-math.log(0.8) - math.log(0.6)) / 2.0
        expect = mean_bce / math.log(2.0)
        got = normalized_entropy([0.8, 0.4], [1, 0])
        assert got == pytest.approx(expect, rel=1e-12)
        assert mean_bce == pytest.approx(0.3669845875401002, rel=1e-12)
        assert got == pytest.approx(0.5294468445267843, rel=1e-12)

    def test_degenerate_base_rate_rejected(self):
        with pytest.raises(MetricError):
            normalized_entropy([0.5, 0.5], [1, 1])


class TestTransferRatio:
    def test_equal_deltas(self):
        assert transfer_ratio(0.9, 0.8, 0.7, 0.6) == pytest.approx(1.0)

    def test_vm_unchanged(self):
        assert transfer_ratio(0.9, 0.9, 0.7, 0.6) == 0.0

    def test_negative_transfer_sign(self):
        assert transfer_ratio(0.85, 0.9, 0.7, 0.6) < 0.0

    def test_zero_denominator(self):
        with pytest.raises(MetricError):
            transfer_ratio(0.9, 0.8, 0.7, 0.7)


class TestEvaluate:
    def test_fields(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 2, 100)
        labels[0], labels[1] = 0, 1
        scores = np.clip(rng.uniform(0, 1, 100), 1e-6, 1 - 1e-6)
        res = evaluate(scores, labels)
        assert res.n_samples == 100
        assert 0.0 <= res.auc <= 1.0
        assert res.base_rate == pytest.approx(labels.mean())
        assert res.logloss == pytest.approx(logloss(scores, labels))
