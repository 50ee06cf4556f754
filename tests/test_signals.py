import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import noiselogic as nl
from noiselogic.errors import (
    FamilyMismatchError,
    LengthMismatchError,
    OrthogonalityError,
)
from noiselogic.prng import SplitMix64, derive_seed
from noiselogic.signals import first_set_step, pack_steps, words_for

from conftest import FULL_ADDER, packed
from serial_reference import classify_wave


rtw_values = st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=64)
spike_values = st.lists(st.sampled_from([0, 1]), min_size=1, max_size=64)


class TestWaveformTypes:
    def test_rtw_rejects_out_of_alphabet(self):
        with pytest.raises(ValueError):
            nl.RtwSignal([1, 0, -1])

    def test_spike_rejects_out_of_alphabet(self):
        with pytest.raises(ValueError):
            nl.SpikeTrain([0, 2])

    def test_multilevel_range(self):
        nl.MultiLevelSignal([-2, -1, 0, 1, 2])
        with pytest.raises(ValueError):
            nl.MultiLevelSignal([3])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nl.RtwSignal([])

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            nl.RtwSignal([1.5])

    def test_values_are_read_only(self):
        x = nl.RtwSignal([1, -1])
        with pytest.raises(ValueError):
            x.values[0] = -1

    def test_equality_is_elementwise(self):
        assert nl.RtwSignal([1, -1]) == nl.RtwSignal([1, -1])
        assert nl.RtwSignal([1, -1]) != nl.RtwSignal([-1, 1])

    def test_equal_waves_hash_alike_across_carriers(self):
        assert nl.RtwSignal([1]) == nl.Waveform([1])
        assert len({nl.RtwSignal([1]), nl.Waveform([1])}) == 1
        assert len({nl.SpikeTrain([0, 1]), nl.Waveform([0, 1]), nl.MultiLevelSignal([0, 1])}) == 1

    @pytest.mark.parametrize("cls", [nl.Waveform, nl.MultiLevelSignal, nl.RtwSignal, nl.SpikeTrain])
    @pytest.mark.parametrize("values", [1, [[1]], [[1, 1], [1, 1]], [[[1, 1]]]])
    def test_a_batch_wave_cannot_be_built(self, cls, values):
        # A batch lives only as words-major words; every waveform is one wave.
        with pytest.raises(ValueError, match=r"exactly one axis, got shape \("):
            cls(values)

    @pytest.mark.parametrize("value", [10**30, -(10**30), 2**63])
    def test_values_beyond_64_bits_raise_value_error(self, value):
        with pytest.raises(ValueError, match="64-bit"):
            nl.Waveform([value])
        with pytest.raises(ValueError):
            nl.RtwSignal([value])

    @pytest.mark.filterwarnings("error")
    def test_list_mixing_ints_and_floats_is_converted_exactly(self):
        # Read through float64, 2**62 + 1 would round to 2**62.
        assert nl.Waveform([2**62 + 1, 1.0]).to_list() == [2**62 + 1, 1]
        assert nl.Waveform([-1.0, 2**62 + 1]).to_list() == [-1, 2**62 + 1]
        with pytest.raises(ValueError, match="integers"):
            nl.Waveform([2**62 + 1, 1.5])

    @pytest.mark.filterwarnings("error")
    def test_values_past_int64_raise_without_a_warning(self):
        for values in ([1, 2**63], [1.0, -(2**64)], np.array([1e30])):
            with pytest.raises(ValueError, match="64-bit"):
                nl.Waveform(values)
        with pytest.raises(ValueError, match="integers"):
            nl.Waveform(np.array([1.0, np.nan]))

    def test_spike_train_set_view(self):
        train = nl.SpikeTrain([0, 1, 0, 1])
        assert np.flatnonzero(train.values).tolist() == [1, 3]
        assert train.words.tolist() == [0b1010] and train.words.any()

    @given(rtw_values)
    def test_rtw_square_is_one(self, values):
        x = nl.RtwSignal(values)
        assert np.all(x.values * x.values == 1)


class TestCarrierDtype:
    """Logic carriers store uint64 bit-planes; the family check runs on the values given."""

    @pytest.mark.parametrize("cls, value", [
        (nl.SpikeTrain, 257),        # would pack as a spike
        (nl.SpikeTrain, -255),       # would pack as no spike
        (nl.RtwSignal, 255),         # would pack as +1
        (nl.RtwSignal, 2**63 - 1),   # would pack as +1
        (nl.MultiLevelSignal, 130),
        (nl.MultiLevelSignal, 258),
    ])
    def test_out_of_range_values_are_rejected_not_wrapped(self, cls, value):
        with pytest.raises(ValueError):
            cls([value])
        with pytest.raises(ValueError):
            cls(np.array([value], dtype=np.int64))

    def test_carriers_are_packed_words_and_int_waves_int64(self):
        for wave in (nl.RtwSignal([-1, 1]), nl.SpikeTrain([0, 1])):
            assert wave.words.tolist() == [0b10] and wave.words.dtype == np.uint64
            assert wave.values.dtype == np.int8
        assert nl.MultiLevelSignal([-2, 2]).values.dtype == np.int64
        big = nl.Waveform([10**12, -(10**12)])
        assert big.values.dtype == np.int64
        assert big.to_list() == [10**12, -(10**12)]

    @pytest.mark.parametrize("steps", [1, 63, 64, 65, 127, 128])
    def test_step_t_is_bit_t_mod_64_of_word_t_div_64(self, steps):
        values = [1 if t % 3 == 0 else -1 for t in range(steps)]
        wave = nl.RtwSignal(values)
        assert wave.words.shape == (words_for(steps),) == (-(-steps // 64),)
        assert [(int(wave.words[t // 64]) >> (t % 64)) & 1 for t in range(steps)] == [
            int(v > 0) for v in values]
        # The padding bits past the last step are zero.
        assert int(wave.words[-1]) >> (steps - 64 * (words_for(steps) - 1)) == 0
        assert wave.values.tolist() == values and wave.shape == (steps,) and len(wave) == steps
        # A batch is words-major: column i holds the words of row i.
        batch = packed([values, [-1] * steps])
        assert batch.shape == (words_for(steps), 2)
        assert np.array_equal(batch[:, 0], wave.words) and not batch[:, 1].any()

    def test_first_set_step_is_the_lowest_set_bit_of_each_row(self):
        steps = 130
        for t in range(steps):
            bits = np.zeros((2, steps), dtype=bool)
            bits[0, t:] = True
            bits[1, t] = True
            assert first_set_step(pack_steps(bits)).tolist() == [t, t]

    @pytest.mark.filterwarnings("error")
    def test_first_set_step_of_an_all_zero_wave_does_not_warn(self):
        # The step means nothing for a wave with no set bit, but reading it
        # must not warn of an overflow, on one wave or on a batch.
        first_set_step(np.zeros(2, dtype=np.uint64))
        first_set_step(np.zeros((2, 3), dtype=np.uint64))

    def test_word_paths_need_no_numpy_2_only_function(self, monkeypatch):
        # The package supports NumPy 1.24, which has no np.bitwise_count.
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        train = nl.SpikeTrain([0, 0, 1, 0, 1])
        assert train.values.sum() == 2
        pair = nl.LogicReferencePair(nl.SpikeTrain([0, 1, 0, 0, 0]), train)
        assert nl.classify(train, pair).decided_at == 1
        bits, _, details = nl.classify_rows(nl.SpikeTrain([0, 1, 1, 0, 0]).words[:, None], pair)
        assert bits.tolist() == [-1] and "deviates from that reference at step 2" in details[0]

    def test_construction_copies_its_input(self):
        source = np.array([0, 1, 0], dtype=np.int8)
        train = nl.SpikeTrain(source)
        source[0] = 1
        assert train.to_list() == [0, 1, 0]

    def test_wrapping_without_a_copy_needs_uint64_words_of_the_step_count(self):
        rows = np.array([[0b01, 0b10]], dtype=np.uint64)   # (words, rows)
        with pytest.raises(FamilyMismatchError,
                           match="^RtwSignal must be uint64 words, got int64 words$"):
            nl.RtwSignal._of_words(rows.astype(np.int64), 2)
        with pytest.raises(LengthMismatchError, match=re.escape(
                "RtwSignal has words of shape (1, 2), expected (words,) with 2 words")):
            nl.RtwSignal._of_words(rows, 65)
        for batch in (rows, rows[None], rows[:, :1]):   # batches, a group and a column
            with pytest.raises(LengthMismatchError, match=re.escape(
                    f"RtwSignal has words of shape {batch.shape}, expected (words,) with 1 words")):
                nl.RtwSignal._of_words(batch, 2)
        wave = nl.RtwSignal._of_words(rows[:, 1], 2)
        assert wave == nl.RtwSignal([-1, 1])
        assert wave.words.base is rows and not wave.words.flags.writeable
        assert rows.flags.writeable

    def test_equality_across_carriers_compares_values_not_words(self):
        # Both are the word 0, but -1 is not 0.
        assert nl.RtwSignal([-1]) != nl.SpikeTrain([0])
        assert nl.RtwSignal([1]) == nl.SpikeTrain([1]) == nl.Waveform([1])


class TestReferencePair:
    def test_family_inferred(self):
        rtw = nl.LogicReferencePair(nl.RtwSignal([1, -1]), nl.RtwSignal([-1, 1]))
        assert rtw.family == nl.RTW
        spike = nl.LogicReferencePair(nl.SpikeTrain([1, 0]), nl.SpikeTrain([0, 1]))
        assert spike.family == nl.SPIKE

    def test_mixed_families_rejected(self):
        with pytest.raises(FamilyMismatchError):
            nl.LogicReferencePair(nl.RtwSignal([1, -1]), nl.SpikeTrain([0, 1]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatchError):
            nl.LogicReferencePair(nl.RtwSignal([1]), nl.RtwSignal([1, -1]))

    def test_spike_overlap_rejected(self):
        with pytest.raises(OrthogonalityError):
            nl.LogicReferencePair(nl.SpikeTrain([1, 1]), nl.SpikeTrain([0, 1]))

    def test_spike_empty_train_rejected(self):
        with pytest.raises(ValueError):
            nl.LogicReferencePair(nl.SpikeTrain([1, 0]), nl.SpikeTrain([0, 0]))

    def test_rtw_identical_references_allowed(self):
        w = nl.RtwSignal([1, 1])
        pair = nl.LogicReferencePair(w, w)
        assert pair.family == nl.RTW


class TestBatchReferencePair:
    """A reference pair is one pair: each row of a batch of pairs' values is checked as its
    own one-wave pair, and a batch of gate inputs is words, checked row by row."""

    @staticmethod
    def _rows(h, l):
        return [nl.LogicReferencePair(nl.SpikeTrain(a), nl.SpikeTrain(b)) for a, b in zip(h, l)]

    def test_row_with_empty_low_train_rejected(self):
        # The batch as a whole has Low spikes; row 1 has none.
        h = [[1, 0, 0], [0, 1, 0], [1, 0, 0]]
        l = [[0, 1, 0], [0, 0, 0], [0, 0, 1]]
        with pytest.raises(ValueError, match="non-empty"):
            self._rows(h, l)
        self._rows(h[::2], l[::2])

    def test_coincident_spike_names_the_step(self):
        # Flat index 4 would be "step 4" of a 3-step train.
        with pytest.raises(OrthogonalityError, match=r"^reference trains spike together at step 1$"):
            self._rows([[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 1, 1]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(LengthMismatchError, match=r"^reference pair: shapes differ \(\(3,\) vs \(2,\)\)$"):
            nl.LogicReferencePair(nl.RtwSignal([1, -1, 1]), nl.RtwSignal([1, -1]))

    def test_each_row_reads_against_its_own_pair(self):
        pairs = self._rows([[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, 1]])
        assert [pair.steps for pair in pairs] == [3, 3]
        x = packed([[1, 0, 0], [0, 0, 1]])
        read = [nl.classify_rows(x[:, [r]], pair) for r, pair in enumerate(pairs)]
        assert [(bits.tolist(), steps.tolist(), details) for bits, steps, details in read] == [
            ([1], [0], {}), ([0], [1], {})]

    def test_gate_input_checked_row_by_row(self):
        pair = nl.LogicReferencePair(nl.RtwSignal([1, -1]), nl.RtwSignal([-1, -1]))
        pair.operands(nl.RTW, packed([[1, -1], [-1, -1]]))
        # Row 1 is neither reference.
        with pytest.raises(nl.InvalidLogicValueError):
            pair.operands(nl.RTW, packed([[1, -1], [1, 1]]))

    def test_gate_input_groups_checked_row_by_row(self):
        pair = nl.LogicReferencePair(nl.RtwSignal([1, -1]), nl.RtwSignal([-1, -1]))
        good = packed([[[1, -1], [-1, -1]], [[-1, -1], [1, -1]]])
        pair.operands(nl.RTW, good, good)
        # Row 1 of group 1 is neither reference.
        with pytest.raises(nl.InvalidLogicValueError,
                           match="first input matches neither the High nor the Low reference"):
            pair.operands(nl.RTW, packed([[[1, -1], [-1, -1]], [[-1, -1], [1, 1]]]), good)

    @pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
    def test_operands_combine_with_the_inputs_as_they_are(self, batch):
        # High is +1 at steps 0 and 64 and Low is -1 throughout.
        steps = 70
        h = -np.ones(steps, dtype=np.int64)
        h[[0, 64]] = 1
        pair = nl.LogicReferencePair(nl.RtwSignal(h), nl.RtwSignal(-np.ones_like(h)))
        bits = np.arange(int(np.prod(batch))).reshape(batch + (1,)) % 2 if batch else 1
        v = packed(np.where(bits, h, -1))
        high, low, (mask,) = pair.operands(nl.RTW, v)
        # High and Low are the pair's own words, as (words, 1) columns against a batch.
        for got, wave in ((high, pair.h), (low, pair.l)):
            assert np.shares_memory(got, wave.words)
            assert got.shape == ((len(wave.words), 1) if batch else v.shape)
        # The mask keeps the words axis, so it spreads over High and Low as it is.
        assert mask.shape == (v.shape[:-2] + (1, v.shape[-1]) if batch else (1,))
        assert np.array_equal(np.where(mask, high, low), v)
        _, _, (none,) = pair.operands(nl.RTW, v, exact=False)
        assert none is None


class TestUniverses:
    def test_universe_rtw_hand_example(self):
        pair = nl.LogicReferencePair(nl.RtwSignal([1, -1, 1, 1]), nl.RtwSignal([-1, 1, 1, -1]))
        assert nl.universe_rtw(pair).to_list() == [0, 0, 2, 0]

    def test_universe_rtw_degenerate_equals_double(self):
        w = nl.RtwSignal([1, -1, 1])
        pair = nl.LogicReferencePair(w, w)
        assert nl.universe_rtw(pair).to_list() == [2, -2, 2]

    def test_universe_rtw_opposite_is_zero(self):
        h = nl.RtwSignal([1, -1, 1])
        pair = nl.LogicReferencePair(h, nl.RtwSignal([-1, 1, -1]))
        assert nl.universe_rtw(pair).to_list() == [0, 0, 0]

    def test_universe_rtw_rejects_spike_pair(self):
        pair = nl.LogicReferencePair(nl.SpikeTrain([1, 0]), nl.SpikeTrain([0, 1]))
        with pytest.raises(FamilyMismatchError):
            nl.universe_rtw(pair)

    def test_universe_spike_hand_example(self):
        pair = nl.LogicReferencePair(
            nl.SpikeTrain([0, 1, 0, 0, 1]), nl.SpikeTrain([0, 0, 1, 0, 0])
        )
        assert nl.universe_spike(pair).to_list() == [0, 1, 1, 0, 1]

    def test_universe_spike_rejects_rtw_pair(self):
        pair = nl.LogicReferencePair(nl.RtwSignal([1, -1]), nl.RtwSignal([-1, 1]))
        with pytest.raises(FamilyMismatchError):
            nl.universe_spike(pair)


class TestClassify:
    def _rtw_pair(self):
        return nl.LogicReferencePair(
            nl.RtwSignal([1, -1, 1, 1]), nl.RtwSignal([-1, 1, 1, -1])
        )

    def test_high_reference_classifies_high(self):
        pair = self._rtw_pair()
        outcome = nl.classify(pair.h, pair)
        assert outcome.verdict is nl.Verdict.HIGH
        assert outcome.decided_at == 0

    def test_low_reference_classifies_low(self):
        pair = self._rtw_pair()
        assert nl.classify(pair.l, pair).verdict is nl.Verdict.LOW

    def test_decided_at_first_discriminating_step(self):
        pair = nl.LogicReferencePair(nl.RtwSignal([1, 1, -1]), nl.RtwSignal([1, 1, 1]))
        assert nl.classify(pair.h, pair).decided_at == 2

    def test_identical_references_are_ambiguous(self):
        w = nl.RtwSignal([1, -1, 1])
        pair = nl.LogicReferencePair(w, w)
        outcome = nl.classify(w, pair)
        assert outcome.is_ambiguous
        assert outcome.decided_at is None
        assert outcome.detail.startswith("references are identical")

    def test_spike_classification(self):
        pair = nl.LogicReferencePair(
            nl.SpikeTrain([0, 1, 0, 0, 1]), nl.SpikeTrain([0, 0, 1, 0, 0])
        )
        high = nl.classify(pair.h, pair)
        low = nl.classify(pair.l, pair)
        assert high.verdict is nl.Verdict.HIGH and high.decided_at == 1
        assert low.verdict is nl.Verdict.LOW and low.decided_at == 1

    def test_spike_consistency_check_flags_hybrid(self):
        pair = nl.LogicReferencePair(
            nl.SpikeTrain([0, 1, 0, 0, 1]), nl.SpikeTrain([0, 0, 1, 0, 0])
        )
        # Votes High at step 1 but then stops matching the High reference.
        hybrid = nl.SpikeTrain([0, 1, 0, 0, 0])
        outcome = nl.classify(hybrid, pair)
        assert outcome.is_ambiguous
        assert "deviates" in outcome.detail

    def test_family_mismatch_rejected(self):
        pair = self._rtw_pair()
        with pytest.raises(FamilyMismatchError):
            nl.classify(nl.SpikeTrain([0, 1, 0, 1]), pair)

    def test_length_mismatch_rejected(self):
        pair = self._rtw_pair()
        with pytest.raises(LengthMismatchError):
            nl.classify(nl.RtwSignal([1]), pair)

    def test_rtw_non_copy_is_ambiguous(self):
        # Step 0 votes High, but the wave is not the High reference.
        pair = nl.LogicReferencePair(nl.RtwSignal([1, 1, -1, 1]), nl.RtwSignal([-1, 1, 1, -1]))
        outcome = nl.classify(nl.RtwSignal([1, -1, -1, -1]), pair)
        assert outcome.is_ambiguous and outcome.decided_at is None
        assert outcome.detail == (
            "step 0 votes High but the wave deviates from that reference at step 1")

    def test_classify_rows_reads_only_words(self):
        # Checked as operands checks a kernel's input: a NoiseLogicError for another
        # dtype or shape.  Only classify reads a wave, with its family and step count.
        pair = self._rtw_pair()
        words = pair.h.words[:, None]
        for bad in (words.astype(np.int64), pair.h, [[1]]):
            with pytest.raises(FamilyMismatchError, match="^classified rows must be uint64 words, got "):
                nl.classify_rows(bad, pair)
        for bad in (pair.h.words, words[None], np.zeros((2, 1), dtype=np.uint64)):
            with pytest.raises(LengthMismatchError, match="^" + re.escape(
                    f"classified rows has words of shape {bad.shape}, expected (words, rows) "
                    f"with {len(words)} words") + "$"):
                nl.classify_rows(bad, pair)
        assert [a.tolist() for a in nl.classify_rows(words, pair)[:2]] == [[1], [0]]

    def test_rows_and_pairs_must_pair_up(self):
        # A wave must span the pair's steps, and words its word count.
        pair = nl.LogicReferencePair(nl.RtwSignal([1, -1]), nl.RtwSignal([-1, 1]))
        with pytest.raises(LengthMismatchError, match="classified wave has 3 steps, pair has 2"):
            nl.classify(nl.RtwSignal([1, -1, 1]), pair)
        with pytest.raises(LengthMismatchError,
                           match=r"shape \(2, 2\), expected \(words, rows\) with 1 words$"):
            nl.classify_rows(packed([[1] * 65] * 2), pair)

    @given(rtw_values)
    def test_references_classify_as_themselves(self, values):
        h = nl.RtwSignal(values)
        l = nl.RtwSignal([-v for v in values])
        pair = nl.LogicReferencePair(h, l)
        assert nl.classify(h, pair).verdict is nl.Verdict.HIGH
        assert nl.classify(l, pair).verdict is nl.Verdict.LOW


@st.composite
def classify_cases(draw):
    """The values of a batch of copies and non-copies, and each row's pair: one pair for
    all rows, or a pair per row, which reads its row as a one-row batch."""
    family = draw(st.sampled_from([nl.RTW, nl.SPIKE]))
    rows = draw(st.integers(1, 4))
    n_pairs = rows if draw(st.booleans()) else 1
    # A few steps often draw identical references; the others cross a word boundary.
    steps = draw(st.integers(1, 8) | st.sampled_from([64, 65, 130]))
    if family == nl.RTW:
        wave = nl.RtwSignal
        values = st.lists(st.sampled_from([-1, 1]), min_size=steps, max_size=steps)
        h = [draw(values) for _ in range(n_pairs)]
        l = [draw(values) for _ in range(n_pairs)]
    else:
        steps = max(steps, 2)
        wave = nl.SpikeTrain
        values = st.lists(st.sampled_from([0, 1]), min_size=steps, max_size=steps)
        # Each step goes to High (0), Low (1) or neither (2); both trains spike.
        owners = st.lists(st.sampled_from([0, 1, 2]), min_size=steps, max_size=steps).filter(
            lambda o: 0 in o and 1 in o)
        drawn = [draw(owners) for _ in range(n_pairs)]
        h = [[int(o == 0) for o in row] for row in drawn]
        l = [[int(o == 1) for o in row] for row in drawn]
    x = []
    for r in range(rows):
        p = r if n_pairs > 1 else 0
        x.append(draw(st.sampled_from([h[p], l[p]]) | values))
    pairs = [nl.LogicReferencePair(wave(a), wave(b)) for a, b in zip(h, l)]
    return np.array(x), pairs * rows if n_pairs == 1 else pairs


class TestClassifyRows:
    @given(classify_cases())
    def test_classify_is_the_one_row_case(self, case):
        # classify_rows on the (words, rows) words of any rows, ambiguous ones included,
        # reads each row as classify reads it as a wave.
        x, pairs = case
        wave = type(pairs[0].h)
        words = packed(x)
        if len(set(map(id, pairs))) == 1:
            bits, steps, details = nl.classify_rows(words, pairs[0])
        else:   # each row as a one-row batch against its own pair
            read = [nl.classify_rows(words[:, [r]], pair) for r, pair in enumerate(pairs)]
            bits, steps = (np.concatenate([one[k] for one in read]) for k in (0, 1))
            details = {r: one[2][0] for r, one in enumerate(read) if one[2]}
        for r, (row, row_pair) in enumerate(zip(x, pairs)):
            outcome = nl.classify(wave(row), row_pair)
            assert outcome == classify_wave(wave(row), row_pair)
            if outcome.is_ambiguous:
                assert (bits[r], steps[r], details[r]) == (-1, -1, outcome.detail)
            else:
                assert r not in details
                assert (bits[r], steps[r]) == (outcome.verdict.to_bit(), outcome.decided_at)


class TestGeneratorConfig:
    def test_zero_steps_rejected(self):
        with pytest.raises(nl.ConfigError):
            nl.GeneratorConfig(seed=1, steps=0)

    def test_seed_range(self):
        with pytest.raises(nl.ConfigError):
            nl.GeneratorConfig(seed=-1, steps=4)
        with pytest.raises(nl.ConfigError):
            nl.GeneratorConfig(seed=2**64, steps=4)

    def test_rates_validated(self):
        with pytest.raises(nl.ConfigError):
            nl.GeneratorConfig(seed=1, steps=4, spike_rate_h=0.0)
        with pytest.raises(nl.ConfigError):
            nl.GeneratorConfig(seed=1, steps=4, spike_rate_h=0.7, spike_rate_l=0.7)

    @pytest.mark.parametrize("fields", [
        {"seed": True}, {"steps": True}, {"spike_rate_h": "0.2"}, {"spike_rate_l": True},
        {"spike_rate_h": None}, {"spike_rate_l": 1j}])
    def test_bools_and_non_real_values_rejected(self, fields):
        # A bool seed or step count used to construct, and a string rate to
        # end in a bare TypeError from the range check.
        with pytest.raises(nl.ConfigError, match=next(iter(fields))):
            nl.GeneratorConfig(**{"seed": 1, "steps": 4, **fields})

    @pytest.mark.parametrize("seed, steps", [
        (np.uint64(1), 4), (1, np.int64(4)), (np.uint64(2**64 - 1), np.uint8(64)),
        (np.int32(7), np.uint64(130))])
    def test_numpy_integers_are_stored_as_plain_ints(self, seed, steps):
        config = nl.GeneratorConfig(seed=seed, steps=steps)
        assert (type(config.seed), type(config.steps)) == (int, int)
        assert config == nl.GeneratorConfig(seed=int(seed), steps=int(steps))
        pair = nl.reference_pairs(nl.RTW, config.seed, config)
        assert pair == nl.reference_pairs(nl.RTW, int(seed), nl.GeneratorConfig(seed=int(seed),
                                                                                steps=int(steps)))
        high = SplitMix64(derive_seed(int(seed), 0)).block(int(steps)) >> np.uint64(63)
        assert pair.h.values.tolist() == (2 * high.astype(int) - 1).tolist()

    def test_a_numpy_seed_serializes_in_a_report(self):
        ast = nl.parse(FULL_ADDER)
        reports = [nl.verify_equivalence(ast, "spike", nl.GeneratorConfig(seed=seed, steps=steps))
                   for seed, steps in ((np.uint64(9), np.int64(64)), (9, 64))]
        assert json.dumps(reports[0].to_doc()) == json.dumps(reports[1].to_doc())

    @pytest.mark.parametrize("fields, message", [
        ({"seed": True}, "seed must be a 64-bit unsigned integer, got True"),
        ({"seed": np.bool_(True)}, f"seed must be a 64-bit unsigned integer, got {np.bool_(True)!r}"),
        ({"seed": -1}, "seed must be a 64-bit unsigned integer, got -1"),
        ({"seed": 2**64}, f"seed must be a 64-bit unsigned integer, got {2**64}"),
        ({"seed": np.int64(-1)}, f"seed must be a 64-bit unsigned integer, got {np.int64(-1)!r}"),
        ({"seed": 1.0}, "seed must be a 64-bit unsigned integer, got 1.0"),
        ({"steps": 0}, "steps must be a positive integer, got 0"),
        ({"steps": True}, "steps must be a positive integer, got True"),
        ({"steps": np.int64(0)}, f"steps must be a positive integer, got {np.int64(0)!r}"),
        ({"steps": 4.0}, "steps must be a positive integer, got 4.0"),
        ({"steps": "4"}, "steps must be a positive integer, got '4'")])
    def test_rejections_name_the_field_and_the_value(self, fields, message):
        with pytest.raises(nl.ConfigError) as info:
            nl.GeneratorConfig(**{"seed": 1, "steps": 4, **fields})
        assert str(info.value) == message
