import numpy as np
import pytest
from scipy import stats

from embhist.errors import ConfigError, SizeError
from embhist.synthworld import (
    WorldSpec, enumerate_world, feature_effect, generate,
    random_enumerable_spec, true_conditional, true_probability,
)

TINY = WorldSpec(
    n_users=32, events_per_user=16,
    vm_cardinalities=(2, 2), vm_weights=(0.8, -0.6),
    extra_cardinalities=(2,), extra_weights=(0.9,),
    base_logit=-0.4, temporal_window=2, temporal_cap=1, beta_temporal=0.7,
)


class TestSpecValidation:
    def test_cardinality_floor(self):
        with pytest.raises(ConfigError):
            WorldSpec(vm_cardinalities=(1, 2), vm_weights=(0.1, 0.2))

    def test_weight_length(self):
        with pytest.raises(ConfigError):
            WorldSpec(vm_weights=(0.1,))

    def test_chunk_divisibility(self):
        with pytest.raises(ConfigError):
            WorldSpec(events_per_user=30)

    def test_summary_joint_budget(self):
        with pytest.raises(ConfigError):
            WorldSpec(
                vm_cardinalities=(40, 40, 40), vm_weights=(0.1, 0.1, 0.1),
                extra_cardinalities=(40, 40), extra_weights=(0.1, 0.1),
            )


class TestGenerate:
    def test_bit_reproducible(self):
        a = generate(TINY, seed=5)
        b = generate(TINY, seed=5)
        assert a == b
        c = generate(TINY, seed=6)
        assert a != c

    def test_chronological_and_chunked(self):
        log = generate(TINY, 1)
        ts = [s.timestamp for s in log.samples]
        assert ts == sorted(ts)
        chunks = {s.chunk for s in log.samples}
        assert chunks == set(range(8))
        for s in log.samples:
            assert s.chunk == s.timestamp * 8 // TINY.events_per_user

    def test_labels_follow_generative_law(self):
        log = generate(TINY, 3)
        hist = {}
        for s in log.samples:
            past = hist.setdefault(s.key, [])
            pos = sum(past[-TINY.temporal_window:])
            expect = true_probability(TINY, s.vm_values, s.extra_values, pos)
            assert s.true_p == pytest.approx(expect, abs=1e-15)
            past.append(s.label)

    def test_text_round_trip(self, tmp_path):
        from embhist.pipeline import load_event_log

        log = generate(TINY, 7)
        path = tmp_path / "events.tsv"
        log.write_text(path)
        loaded = load_event_log(path, TINY)
        assert len(loaded.samples) == len(log.samples)
        for a, b in zip(loaded.samples, log.samples):
            assert (a.key, a.timestamp, a.chunk, a.vm_values,
                    a.extra_values, a.label) == (
                b.key, b.timestamp, b.chunk, b.vm_values, b.extra_values, b.label)


class TestEffects:
    def test_feature_effect_centered(self):
        assert feature_effect(0, 2) == -1.0
        assert feature_effect(1, 2) == 1.0
        assert feature_effect(1, 3) == 0.0


class TestEnumeration:
    def test_mass_sums_to_one(self):
        world = enumerate_world(TINY, n_hist=2)
        assert world.table.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_budget_guard(self):
        spec = WorldSpec(
            vm_cardinalities=(4, 4, 4), vm_weights=(0.1,) * 3,
            extra_cardinalities=(4, 4, 4), extra_weights=(0.1,) * 3,
        )
        with pytest.raises(SizeError):
            enumerate_world(spec, n_hist=3)

    def test_temporal_channel_off_gives_zero_mi(self):
        spec = WorldSpec(
            n_users=8, events_per_user=8,
            vm_cardinalities=(2, 2), vm_weights=(0.8, -0.6),
            extra_cardinalities=(2,), extra_weights=(0.0,),
            beta_temporal=0.0, temporal_window=2, temporal_cap=1,
        )
        world = enumerate_world(spec, n_hist=2)
        hist = world.hist_vm_vars() + world.hist_extra_vars() + ("Y1", "Y2")
        assert world.table.cond_mutual_info(hist, ("Y",), ("V",)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_default_world_has_positive_temporal_mi(self):
        world = enumerate_world(TINY, n_hist=2)
        hist = world.hist_vm_vars() + ("Y1", "Y2")
        assert world.table.cond_mutual_info(hist, ("Y",), ("V", "E")) > 1e-4

    def test_conditioning_on_extras_reduces_entropy(self):
        for k in range(6):
            spec = random_enumerable_spec(k)
            world = enumerate_world(spec, n_hist=1)
            h_vm = world.table.cond_entropy(("Y",), ("V",))
            h_all = world.table.cond_entropy(("Y",), ("V", "E"))
            assert h_all <= h_vm + 1e-12


class TestTrueConditional:
    def test_full_conditioning_matches_generative_law(self):
        p1, support = true_conditional(TINY, ("V", "E", "Y1", "Y2"), n_hist=2)
        from embhist.infotheory import mixed_radix_table

        for v in range(TINY.vm_card):
            for e in range(TINY.extra_card):
                for y1 in range(2):
                    for y2 in range(2):
                        if not support[v, e, y1, y2]:
                            continue
                        # window 2 covers both history labels
                        expect = true_probability(
                            TINY,
                            mixed_radix_table(TINY.vm_cardinalities)[v],
                            mixed_radix_table(TINY.extra_cardinalities)[e],
                            y1 + y2,
                        )
                        assert p1[v, e, y1, y2] == pytest.approx(expect, abs=1e-12)

    def test_empty_conditioning_is_base_rate(self):
        p1, _ = true_conditional(TINY, (), n_hist=2)
        world = enumerate_world(TINY, n_hist=2)
        marg = world.table.marginal_array(("Y",))
        assert float(p1) == pytest.approx(marg[1], abs=1e-12)


class TestJointTable:
    def test_marginalization_consistency(self):
        table = enumerate_world(TINY, n_hist=1).table
        full = table.remap(["V", "E", "Y"])
        vm_only = table.remap(["V", "Y"])
        assert np.allclose(full.probs.sum(axis=1), vm_only.probs, atol=1e-14)

    def test_sampled_frequencies_match_table(self):
        # chi-square agreement between a large sample and the exact law
        spec = WorldSpec(
            n_users=60_000, events_per_user=8,
            vm_cardinalities=(2,), vm_weights=(0.8,),
            extra_cardinalities=(2,), extra_weights=(0.9,),
            base_logit=-0.4, temporal_window=2, temporal_cap=1,
            beta_temporal=0.7,
        )
        world = enumerate_world(spec, n_hist=1)
        expected = world.table.remap(["V1", "E1", "Y1", "V", "E", "Y"]).probs.ravel()
        log = generate(spec, seed=123)
        by_user = {}
        for s in log.samples:
            by_user.setdefault(s.key, []).append(s)
        counts = np.zeros_like(expected)
        for events in by_user.values():
            e1, e2 = events[0], events[1]
            idx = 0
            for val, card in ((e1.vm_values[0], 2), (e1.extra_values[0], 2),
                              (e1.label, 2), (e2.vm_values[0], 2),
                              (e2.extra_values[0], 2), (e2.label, 2)):
                idx = idx * card + val
            counts[idx] += 1
        n = counts.sum()
        chi2 = float(((counts - n * expected) ** 2 / (n * expected)).sum())
        dof = len(expected) - 1
        assert chi2 < stats.chi2.ppf(0.999, dof)

    def test_entropy_matches_monte_carlo(self):
        spec = WorldSpec(
            n_users=125_000, events_per_user=8,
            vm_cardinalities=(2,), vm_weights=(0.8,),
            extra_cardinalities=(2,), extra_weights=(0.9,),
            base_logit=-0.4, temporal_window=2, temporal_cap=1,
            beta_temporal=0.7,
        )
        # exact base rate of the second event vs the sampled rate at 3 sigma
        world = enumerate_world(spec, n_hist=1)
        p_exact = float(world.table.marginal_array(("Y",))[1])
        log = generate(spec, seed=9)
        seconds = [s.label for s in log.samples if s.timestamp == 1]
        p_hat = float(np.mean(seconds))
        sigma = np.sqrt(p_exact * (1 - p_exact) / len(seconds))
        assert abs(p_hat - p_exact) < 3 * sigma
        h_exact = -(p_exact * np.log2(p_exact) + (1 - p_exact) * np.log2(1 - p_exact))
        h_hat = -(p_hat * np.log2(p_hat) + (1 - p_hat) * np.log2(1 - p_hat))
        dh = abs(np.log2(p_exact / (1 - p_exact)))  # |dH/dp| at p_exact
        assert abs(h_hat - h_exact) < 3 * sigma * dh + 1e-6
