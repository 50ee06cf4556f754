import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import noiselogic as nl
from noiselogic import generators
from noiselogic.generators import (
    _categorical_spikes,
    gen_disjoint_spike_pairs,
    reference_pairs,
    reference_words,
)
from noiselogic.prng import SplitMix64, derive_seed, derive_seeds
from noiselogic.signals import first_set_step

# Golden regression fixtures, recorded once from the pinned PRNG.
GOLDEN_RTW_SEED1_4 = [1, 1, 1, -1]
GOLDEN_RTW_SEED1_12 = [1, 1, 1, -1, -1, 1, 1, 1, -1, 1, -1, 1]
GOLDEN_PAIR_SEED1_8_H = [-1, 1, -1, 1, -1, 1, 1, -1]
GOLDEN_PAIR_SEED1_8_L = [-1, -1, -1, 1, -1, 1, -1, -1]
GOLDEN_SPIKE_SEED7_5_H = [0, 0, 1, 0, 0]
GOLDEN_SPIKE_SEED7_5_L = [0, 0, 0, 1, 1]


class TestGenRtw:
    def test_golden_fixture(self):
        got = nl.gen_rtw(nl.GeneratorConfig(seed=1, steps=4))
        assert got.to_list() == GOLDEN_RTW_SEED1_4
        got12 = nl.gen_rtw(nl.GeneratorConfig(seed=1, steps=12))
        assert got12.to_list() == GOLDEN_RTW_SEED1_12

    def test_prefix_stability(self):
        # Longer windows extend, never rewrite, shorter ones.
        short = nl.gen_rtw(nl.GeneratorConfig(seed=1, steps=4))
        long = nl.gen_rtw(nl.GeneratorConfig(seed=1, steps=12))
        assert long.to_list()[:4] == short.to_list()

    def test_determinism(self):
        cfg = nl.GeneratorConfig(seed=1, steps=4)
        assert nl.gen_rtw(cfg) == nl.gen_rtw(cfg)

    def test_empirical_mean(self):
        x = nl.gen_rtw(nl.GeneratorConfig(seed=0, steps=100_000))
        assert abs(float(x.values.mean())) < 0.02

    def test_zero_steps_rejected_by_config(self):
        with pytest.raises(nl.ConfigError):
            nl.GeneratorConfig(seed=1, steps=0)


class TestGenRtwPair:
    def test_golden_fixture(self):
        pair = nl.gen_rtw_pair(nl.GeneratorConfig(seed=1, steps=8))
        assert pair.h.to_list() == GOLDEN_PAIR_SEED1_8_H
        assert pair.l.to_list() == GOLDEN_PAIR_SEED1_8_L

    def test_uses_child_streams(self):
        pair = nl.gen_rtw_pair(nl.GeneratorConfig(seed=5, steps=16))
        h = nl.gen_rtw(nl.GeneratorConfig(seed=derive_seed(5, 0), steps=16))
        l = nl.gen_rtw(nl.GeneratorConfig(seed=derive_seed(5, 1), steps=16))
        assert pair.h == h and pair.l == l


class TestOrthogonalSpikePair:
    def test_golden_fixture(self):
        pair = nl.gen_orthogonal_spike_pair(
            nl.GeneratorConfig(seed=7, steps=5, spike_rate_h=0.3, spike_rate_l=0.3)
        )
        assert pair.h.to_list() == GOLDEN_SPIKE_SEED7_5_H
        assert pair.l.to_list() == GOLDEN_SPIKE_SEED7_5_L

    @pytest.mark.parametrize("seed", range(25))
    def test_orthogonal_and_non_empty(self, seed):
        pair = nl.gen_orthogonal_spike_pair(
            nl.GeneratorConfig(seed=seed, steps=40, spike_rate_h=0.3, spike_rate_l=0.3)
        )
        assert not np.any(pair.h.values & pair.l.values)
        assert pair.h.spike_count() >= 1 and pair.l.spike_count() >= 1

    def test_empirical_density(self):
        pair = nl.gen_orthogonal_spike_pair(
            nl.GeneratorConfig(seed=0, steps=100_000, spike_rate_h=0.3, spike_rate_l=0.3)
        )
        assert abs(pair.h.values.mean() - 0.3) < 0.01
        assert abs(pair.l.values.mean() - 0.3) < 0.01

    def test_retry_budget_exhaustion(self):
        # One step can never host both an H and an L spike.
        with pytest.raises(nl.GenerationError):
            nl.gen_orthogonal_spike_pair(
                nl.GeneratorConfig(seed=3, steps=1, spike_rate_h=0.4, spike_rate_l=0.4)
            )

    def test_determinism(self):
        cfg = nl.GeneratorConfig(seed=11, steps=64, spike_rate_h=0.2, spike_rate_l=0.2)
        a = nl.gen_orthogonal_spike_pair(cfg)
        b = nl.gen_orthogonal_spike_pair(cfg)
        assert a.h == b.h and a.l == b.l


class TestSpikePairRows:
    def test_rows_match_serial_pair_generation_with_retries(self):
        # Six steps at rate 0.15 leave a train empty in most first attempts.
        config = nl.GeneratorConfig(seed=41, steps=6, spike_rate_h=0.15, spike_rate_l=0.15)
        start, trials = 1000, 60
        h, l = reference_words(nl.SPIKE, derive_seeds(config.seed, trials, start), config)
        assert not (h & l).any() and h.any(axis=0).all() and l.any(axis=0).all()
        retried = 0
        for i in range(trials):
            trial_seed = derive_seed(config.seed, start + i)
            pair = nl.gen_orthogonal_spike_pair(
                nl.GeneratorConfig(seed=trial_seed, steps=6, spike_rate_h=0.15,
                                   spike_rate_l=0.15))
            assert h[:, i].tolist() == pair.h.words.tolist()
            assert l[:, i].tolist() == pair.l.words.tolist()
            first = _categorical_spikes(SplitMix64(derive_seed(trial_seed, 0)).block(6),
                                        [0.15, 0.15])
            retried += not (first[0].any() and first[1].any())
        assert retried > 10

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        steps=st.sampled_from([2, 3, 63, 64, 65, 130]),
        rate=st.sampled_from([0.05, 0.25, 0.45]),
        trials=st.integers(1, 40),
        start=st.integers(0, 2**32),
    )
    def test_first_discriminating_step_is_the_first_universe_spike(
            self, seed, steps, rate, trials, start):
        # Disjoint trains differ exactly where either spikes, so the lowest
        # set bit of H ^ L, where classify_rows decides, is that of H | L.
        # decision_latency relies on it; the three-way draw keeps the trains
        # disjoint, and the retries keep both non-empty.
        config = nl.GeneratorConfig(seed=seed, steps=steps, spike_rate_h=rate, spike_rate_l=rate)
        try:
            h, l = reference_words(nl.SPIKE, derive_seeds(seed, trials, start), config)
        except nl.GenerationError:
            return   # a row never drew two non-empty trains
        assert not np.any(h & l)
        assert h.any(axis=0).all() and l.any(axis=0).all()
        assert first_set_step(h ^ l).tolist() == first_set_step(h | l).tolist()

    def test_one_step_cannot_be_drawn(self):
        # At one step the two disjoint trains can never both be non-empty.
        config = nl.GeneratorConfig(seed=3, steps=1, spike_rate_h=0.4, spike_rate_l=0.4)
        with pytest.raises(nl.GenerationError) as batch:
            reference_words(nl.SPIKE, derive_seeds(config.seed, 4), config)
        with pytest.raises(nl.GenerationError) as single:
            nl.gen_orthogonal_spike_pair(config)
        assert str(batch.value) == str(single.value)

    def test_too_few_steps_fail_before_any_draw(self):
        # Two non-empty disjoint trains need two steps, and N pairs 2N, so
        # no attempt could succeed: no stream word is drawn.
        config = nl.GeneratorConfig(seed=3, steps=1)
        seeds = derive_seeds(config.seed, 4)
        draws = (lambda: reference_words(nl.SPIKE, seeds, config),
                 lambda: nl.gen_orthogonal_spike_pair(config),
                 lambda: gen_disjoint_spike_pairs(4, 9, 5))
        messages = ["2 non-empty disjoint spike trains need at least 2 steps, got steps=1"] * 2 + [
            "10 non-empty disjoint spike trains need at least 10 steps, got steps=9"]
        with mock.patch.object(generators, "mix64_array", side_effect=AssertionError("drew")):
            for draw, message in zip(draws, messages):
                with pytest.raises(nl.GenerationError, match=f"^{re.escape(message)}$"):
                    draw()


class TestDisjointSpikePairs:
    def test_all_trains_pairwise_disjoint(self):
        pairs = gen_disjoint_spike_pairs(seed=3, steps=512, n_pairs=6)
        occupancy = np.zeros(512, dtype=np.int64)
        for pair in pairs:
            for train in (pair.h, pair.l):
                assert not np.any(occupancy & train.values)
                occupancy = occupancy | train.values

    def test_all_trains_non_empty(self):
        pairs = gen_disjoint_spike_pairs(seed=3, steps=512, n_pairs=6)
        assert all(p.h.spike_count() >= 1 and p.l.spike_count() >= 1 for p in pairs)

    @pytest.mark.parametrize("rate", [0.2, "0.1", True, 1j])
    def test_rate_feasibility_checked(self, rate):
        # A string rate used to end in a bare TypeError.
        with pytest.raises(nl.ConfigError):
            gen_disjoint_spike_pairs(seed=1, steps=64, n_pairs=4, rate_per_train=rate)

    @pytest.mark.parametrize("seed, steps, n_pairs",
                             [(2**64, 64, 2), (-1, 64, 2), (1, 64.0, 2), (1, 0, 2), (1, 64, 2.0)])
    def test_arguments_checked_like_the_rtw_pairs(self, seed, steps, n_pairs):
        # 2**64 used to wrap to seed 0's pairs, and 64.0 steps or 2.0 pairs
        # to end in a TypeError.
        with pytest.raises(nl.ConfigError):
            gen_disjoint_spike_pairs(seed, steps, n_pairs)
        with pytest.raises(nl.ConfigError):
            nl.gen_rtw_pairs(seed, steps, n_pairs)

    def test_attempt_r_draws_from_child_stream_r(self):
        # Eight trains in 12 steps: most attempts leave some train empty.
        steps, rates = 12, [0.1] * 8
        retried = 0
        for seed in range(30):
            try:
                pairs = gen_disjoint_spike_pairs(seed, steps, 4, 0.1)
            except nl.GenerationError:
                continue
            for attempt in range(generators.MAX_RETRIES):
                bands = _categorical_spikes(SplitMix64(derive_seed(seed, attempt)).block(steps),
                                            rates)
                if bands.any(axis=1).all():
                    break
            retried += attempt > 0
            assert [t.to_list() for p in pairs for t in (p.h, p.l)] == bands.astype(int).tolist()
        assert retried > 10


class TestVectorizedMatrix:
    def test_rows_match_serial_pair_generation(self):
        seed, trials, steps = 99, 16, 9
        config = nl.GeneratorConfig(seed=seed, steps=steps)
        h, l = reference_words(nl.RTW, derive_seeds(seed, trials), config)
        for i in range(trials):
            pair = nl.gen_rtw_pair(nl.GeneratorConfig(seed=derive_seed(seed, i), steps=steps))
            assert np.array_equal(h[:, i], pair.h.words)
            assert np.array_equal(l[:, i], pair.l.words)

    def test_start_offset_windows_align(self):
        config = nl.GeneratorConfig(seed=4, steps=6)
        full = reference_words(nl.RTW, derive_seeds(4, 10), config)
        tail = reference_words(nl.RTW, derive_seeds(4, 4, start=6), config)
        assert np.array_equal(full[..., 6:], tail)


ONE_PAIR = {nl.RTW: nl.gen_rtw_pair, nl.SPIKE: nl.gen_orthogonal_spike_pair}


class TestReferencePairs:
    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from([nl.RTW, nl.SPIKE]),
        seed=st.integers(0, 2**64 - 1),
        # At 4096 steps a block of raw words holds 64 rows, so a larger
        # count crosses a block; a few steps at low rates make spike rows
        # retry, or run out of attempts.
        steps=st.sampled_from([1, 3, 6, 64, 65, 4096]),
        rate=st.sampled_from([0.05, 0.15, 0.45]),
        count=st.integers(1, 150),
        start=st.integers(0, 2**32),
    )
    @example(family=nl.SPIKE, seed=7, steps=4096, rate=0.05, count=130, start=0)
    @example(family=nl.RTW, seed=7, steps=4096, rate=0.05, count=130, start=0)
    @example(family=nl.SPIKE, seed=41, steps=6, rate=0.15, count=60, start=1000)
    def test_row_i_is_the_one_pair_of_trial_seed_i(self, family, seed, steps, rate, count,
                                                   start):
        config = nl.GeneratorConfig(seed=seed, steps=steps, spike_rate_h=rate, spike_rate_l=rate)
        singles = [nl.GeneratorConfig(seed=derive_seed(seed, start + i), steps=steps,
                                      spike_rate_h=rate, spike_rate_l=rate)
                   for i in range(count)]
        try:
            planes = reference_words(family, derive_seeds(seed, count, start), config)
        except nl.GenerationError as exc:
            # Some row runs out of attempts, and its one-pair draw says so alike.
            with pytest.raises(nl.GenerationError, match=f"^{re.escape(str(exc))}$"):
                for single in singles:
                    ONE_PAIR[family](single)
            return
        assert planes.shape == (2, nl.signals.words_for(steps), count)
        assert planes.dtype == np.uint64 and not planes.flags.writeable
        h, l = planes
        if family == nl.SPIKE:
            assert not (h & l).any() and h.any(axis=0).all() and l.any(axis=0).all()
        for i, single in enumerate(singles):
            one = reference_pairs(family, single.seed, config)
            assert one.family == family and one.h.shape == (steps,)
            assert np.array_equal(h[:, i], one.h.words)
            assert np.array_equal(l[:, i], one.l.words)
            assert one == ONE_PAIR[family](single)

    def test_blocks_do_not_change_the_rows(self):
        # One row per block of raw words, against one block for all rows.
        config = nl.GeneratorConfig(seed=2, steps=70, spike_rate_h=0.02, spike_rate_l=0.02)
        for family in (nl.RTW, nl.SPIKE):
            want = reference_words(family, derive_seeds(2, 9), config)
            with mock.patch.object(generators, "_RAW_BYTES", 8 * config.steps):
                got = reference_words(family, derive_seeds(2, 9), config)
            assert np.array_equal(got, want)

    def test_gen_rtw_pairs_draws_one_pair_per_derived_seed(self):
        pairs = nl.gen_rtw_pairs(12, 33, 5)
        for i, pair in enumerate(pairs):
            assert pair == nl.gen_rtw_pair(nl.GeneratorConfig(seed=derive_seed(12, i), steps=33))

    def test_unknown_family_or_seed_matrix_is_rejected(self):
        config = nl.GeneratorConfig(seed=1, steps=8)
        with pytest.raises(nl.ConfigError, match="unknown logic family"):
            reference_pairs("cmos", 1, config)
        with pytest.raises(nl.ConfigError, match="unknown logic family"):
            reference_words("cmos", derive_seeds(1, 4), config)
        for seeds in (derive_seeds(1, 4).reshape(2, 2), 1):
            with pytest.raises(nl.ConfigError, match="^trial seeds must be a 1-D array, got "):
                reference_words(nl.RTW, seeds, config)

    def test_an_array_of_seeds_draws_no_pair(self):
        config = nl.GeneratorConfig(seed=1, steps=8)
        for seeds in (derive_seeds(1, 4), derive_seeds(1, 1)):
            with pytest.raises(nl.ConfigError, match="draw a batch with reference_words$"):
                reference_pairs(nl.RTW, seeds, config)
