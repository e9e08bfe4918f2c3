import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from embhist.errors import ConfigError, DataError, SizeError
from embhist.synthworld import (
    WorldSpec, enumerate_world, feature_effect, generate, load_event_log,
    random_enumerable_spec, true_probability,
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

    def test_log_rows_fit_int32(self):
        # history rows are int32; the spec is only built, never generated
        with pytest.raises(ConfigError, match="2\\^31 log rows"):
            WorldSpec(n_users=2**28, events_per_user=8)
        WorldSpec(n_users=2**28 - 1, events_per_user=8)


class TestEventLog:
    def test_ids_are_int32(self, tmp_path):
        log = generate(TINY, 0)
        log.write_text(tmp_path / "events.tsv")
        assert log.ids.dtype == np.int32
        assert load_event_log(tmp_path / "events.tsv", TINY).ids.dtype == np.int32

    def test_out_of_range_id_rejected(self):
        log = generate(TINY, 2)
        ids = log.ids.copy()
        ids[3, 1] = 99
        with pytest.raises(DataError, match="row 3: feature 1 id 99 outside"):
            replace(log, ids=ids)

    @pytest.mark.parametrize("bad", [2**32 + 1, -2**32, 0.7])
    def test_ids_checked_before_narrowing(self, bad):
        # narrowed to int32 first, these would wrap or truncate to 1 or 0,
        # both in range
        log = generate(TINY, 2)
        ids = log.ids.astype(type(bad))
        ids[5, 2] = bad
        assert ids.astype(np.int32)[5, 2] in (0, 1)
        with pytest.raises(DataError, match=f"row 5: feature 2 id {bad} outside"):
            replace(log, ids=ids)

    def test_integral_float_ids_load(self):
        log = generate(TINY, 2)
        ids = log.ids.astype(float)
        ids[4, 1] = 1.0
        floats = replace(log, ids=ids)
        assert floats.ids.dtype == np.int32 and floats.ids[4, 1] == 1
        assert np.array_equal(floats.ids, ids)


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
    """P(y=1 | ...) read off the exact joint of an enumerated world."""

    def test_full_conditioning_matches_generative_law(self):
        table = enumerate_world(TINY, n_hist=2).table
        joint = table.marginal_array(("V", "E", "Y1", "Y2", "Y"))
        vm, extra = (list(itertools.product(*map(range, TINY.vm_cardinalities))),
                     list(itertools.product(*map(range, TINY.extra_cardinalities))))
        for v in range(TINY.vm_card):
            for e in range(TINY.extra_card):
                for y1 in range(2):
                    for y2 in range(2):
                        cell = joint[v, e, y1, y2]
                        assert cell.sum() > 0.0
                        # window 2 covers both history labels
                        expect = true_probability(TINY, vm[v], extra[e], y1 + y2)
                        assert cell[1] / cell.sum() == pytest.approx(expect, abs=1e-12)

    def test_empty_conditioning_is_base_rate(self):
        p1 = enumerate_world(TINY, n_hist=2).table.marginal_array(("Y",))[1]
        # the same rate summed along the generative law's chain: uniform
        # features, each label drawn given the labels before it
        steps = list(itertools.product(itertools.product(*map(range, TINY.vm_cardinalities)),
                                       itertools.product(*map(range, TINY.extra_cardinalities))))
        w = 1.0 / len(steps)

        def rate(pos: int) -> float:
            return w * sum(true_probability(TINY, v, e, pos) for v, e in steps)

        first = rate(0)
        expect = sum((first if y1 else 1.0 - first)
                     * (rate(y1) if y2 else 1.0 - rate(y1)) * rate(y1 + y2)
                     for y1 in range(2) for y2 in range(2))
        assert p1 == pytest.approx(expect, abs=1e-12)


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


# ---------------------------------------------------------------------------
# event-log text: round trip and fuzzed lines
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(spec_seed=st.integers(0, 2**16), n_users=st.integers(1, 6),
       events=st.sampled_from([8, 16]), seed=st.integers(0, 2**16))
def test_written_log_reads_back_to_its_columns(tmp_path_factory, spec_seed, n_users,
                                               events, seed):
    spec = replace(random_enumerable_spec(spec_seed), n_users=n_users,
                   events_per_user=events)
    log = generate(spec, seed)
    path = tmp_path_factory.mktemp("log") / "events.tsv"
    log.write_text(path)
    back = load_event_log(path, spec)
    for name in ("keys", "timestamps", "chunks", "ids", "labels"):
        assert np.array_equal(getattr(back, name), getattr(log, name)), name
    assert np.isnan(back.true_p).all()


FUZZ_WORLD = replace(TINY, n_users=3, events_per_user=8)
_BYTES = st.sampled_from(b"\xff\t\n\r,-0 ") | st.integers(0, 255)
_TOKENS = st.sampled_from(["", "x", "1.5", "-1", "2", " 1 ", "1_0", "9" * 5000, str(2**63),
                           str(2**64), str(-2**63 - 1)])
_EDITS = ("flip_byte", "drop_byte", "insert_byte", "drop_field", "repeat_field",
          "swap_fields", "token", "blank_line", "repeat_line")


def _edit(data, lines: list[bytes]) -> list[bytes]:
    """`lines` with one edit, drawn from `data`, to one line or between two."""
    i = data.draw(st.integers(0, len(lines) - 1))
    line, edit = lines[i], data.draw(st.sampled_from(_EDITS))
    if edit in ("blank_line", "repeat_line"):
        at = data.draw(st.integers(0, len(lines)))
        return lines[:at] + [b"" if edit == "blank_line" else line] + lines[at:]
    if edit.endswith("_byte"):
        cut = edit != "insert_byte"
        at = data.draw(st.integers(0, len(line) - cut))
        new = b"" if edit == "drop_byte" else bytes([data.draw(_BYTES)])
        line = line[:at] + new + line[at + cut:]
    else:
        fields = line.split(b"\t")
        f, g = data.draw(st.permutations(range(6)))[:2]
        if edit == "token":
            items = fields[f].split(b",")
            items[data.draw(st.integers(0, len(items) - 1))] = data.draw(_TOKENS).encode()
            fields[f] = b",".join(items)
        elif edit == "drop_field":
            del fields[f]
        elif edit == "repeat_field":
            fields.insert(f, fields[f])
        else:
            fields[f], fields[g] = fields[g], fields[f]
        line = b"\t".join(fields)
    return lines[:i] + [line] + lines[i + 1:]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_mutated_log_loads_or_raises_data_error(tmp_path_factory, data):
    """One edit to a valid log: the reader returns a log of every non-blank
    line, or raises DataError; nothing else escapes."""
    path = tmp_path_factory.mktemp("fuzz") / "events.tsv"
    generate(FUZZ_WORLD, 0).write_text(path)
    blob = b"\n".join(_edit(data, path.read_bytes().split(b"\n")[:-1])) + b"\n"
    path.write_bytes(blob)
    try:
        log = load_event_log(path, FUZZ_WORLD)
    except DataError:
        return
    assert len(log.labels) == sum(bool(part.rstrip(b"\r")) for part in blob.split(b"\n"))
