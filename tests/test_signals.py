import json

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
from noiselogic.signals import first_set_step, pack_steps, words_for

from conftest import FULL_ADDER
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
        assert nl.Waveform([[1]]) != nl.Waveform([1])

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
        assert nl.Waveform([[2**62 + 1], [-1.0]]).values.tolist() == [[2**62 + 1], [-1]]
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
        assert list(train.spike_times()) == [1, 3]
        assert train.spike_count() == 2
        assert not train.is_empty()

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
            cls(np.array([[value]], dtype=np.int64))

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
        wave = nl.RtwSignal([values, [-1] * steps])
        # A batch is words-major: column i holds the words of row i.
        assert wave.words.shape == (words_for(steps), 2) == (-(-steps // 64), 2)
        assert [(int(wave.words[t // 64, 0]) >> (t % 64)) & 1 for t in range(steps)] == [
            int(v > 0) for v in values]
        # The padding bits past the last step are zero.
        assert int(wave.words[-1, 0]) >> (steps - 64 * (words_for(steps) - 1)) == 0
        assert not wave.words[:, 1].any()
        assert wave.values.tolist() == [values, [-1] * steps] and wave.shape == (2, steps)
        assert np.array_equal(pack_steps(np.array(values) > 0), wave.words[:, 0])

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
        assert train.spike_count() == 2
        pair = nl.LogicReferencePair(nl.SpikeTrain([0, 1, 0, 0, 0]), train)
        assert nl.classify(train, pair).decided_at == 1
        bits, _, details = nl.classify_rows(nl.SpikeTrain([[0, 1, 1, 0, 0]]), pair)
        assert bits.tolist() == [-1] and "deviates from that reference at step 2" in details[0]

    def test_construction_copies_its_input(self):
        source = np.array([0, 1, 0], dtype=np.int8)
        train = nl.SpikeTrain(source)
        source[0] = 1
        assert train.to_list() == [0, 1, 0]

    def test_wrapping_without_a_copy_needs_uint64_words_of_the_step_count(self):
        rows = np.array([[0b01, 0b10]], dtype=np.uint64)   # (words, rows)
        with pytest.raises(ValueError):
            nl.RtwSignal._of_words(rows.astype(np.int64), 2)
        with pytest.raises(ValueError):
            nl.RtwSignal._of_words(rows, 65)
        wave = nl.RtwSignal._of_words(rows[:, 1], 2)
        assert wave == nl.RtwSignal([-1, 1])
        assert wave.words.base is rows and not wave.words.flags.writeable
        assert rows.flags.writeable

    def test_equality_across_carriers_compares_values_not_words(self):
        # Both are the word 0, but -1 is not 0.
        assert nl.RtwSignal([-1]) != nl.SpikeTrain([0])
        assert nl.RtwSignal([1]) == nl.SpikeTrain([1]) == nl.Waveform([1])
        assert nl.RtwSignal([-1, 1]) != nl.RtwSignal([[-1, 1]])


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
    """A reference pair is one pair: a batch of waves is rejected at construction, and
    each row of a batch of pairs' waves is checked as its own one-wave pair."""

    @staticmethod
    def _rows(h, l):
        return [nl.LogicReferencePair(type(h)(a), type(l)(b))
                for a, b in zip(h.values.tolist(), l.values.tolist())]

    def test_row_with_empty_low_train_rejected(self):
        # The batch as a whole has Low spikes; row 1 has none.
        h = nl.SpikeTrain([[1, 0, 0], [0, 1, 0], [1, 0, 0]])
        l = nl.SpikeTrain([[0, 1, 0], [0, 0, 0], [0, 0, 1]])
        with pytest.raises(LengthMismatchError, match="one wave each"):
            nl.LogicReferencePair(h, l)
        with pytest.raises(ValueError, match="non-empty"):
            self._rows(h, l)
        self._rows(nl.SpikeTrain(h.values[::2]), nl.SpikeTrain(l.values[::2]))

    def test_coincident_spike_names_the_step(self):
        # Flat index 4 would be "step 4" of a 3-step train.
        h = nl.SpikeTrain([[1, 0, 0], [0, 1, 0]])
        l = nl.SpikeTrain([[0, 1, 0], [0, 1, 1]])
        with pytest.raises(OrthogonalityError, match=r"^reference trains spike together at step 1$"):
            self._rows(h, l)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(LengthMismatchError, match="shapes differ"):
            nl.LogicReferencePair(nl.RtwSignal([[1, -1], [1, 1]]), nl.RtwSignal([1, -1]))
        with pytest.raises(LengthMismatchError, match=r"one wave each, got shape \(2, 2\)$"):
            nl.LogicReferencePair(nl.RtwSignal([[1, -1], [1, 1]]), nl.RtwSignal([[-1, 1]] * 2))

    def test_each_row_reads_against_its_own_pair(self):
        pairs = self._rows(nl.SpikeTrain([[1, 0, 0], [0, 1, 0]]),
                           nl.SpikeTrain([[0, 1, 0], [0, 0, 1]]))
        assert [pair.steps for pair in pairs] == [3, 3]
        x = nl.SpikeTrain([[1, 0, 0], [0, 0, 1]])
        read = [nl.classify_rows(nl.SpikeTrain(x.values[[r]]), pair)
                for r, pair in enumerate(pairs)]
        assert [(bits.tolist(), steps.tolist(), details) for bits, steps, details in read] == [
            ([1], [0], {}), ([0], [1], {})]

    def test_gate_input_checked_row_by_row(self):
        pair = nl.LogicReferencePair(nl.RtwSignal([1, -1]), nl.RtwSignal([-1, -1]))
        pair.operands(nl.RTW, nl.RtwSignal([[1, -1], [-1, -1]]).words)
        # Row 1 is neither reference.
        with pytest.raises(nl.InvalidLogicValueError):
            pair.operands(nl.RTW, nl.RtwSignal([[1, -1], [1, 1]]).words)

    def test_gate_input_groups_checked_row_by_row(self):
        pair = nl.LogicReferencePair(nl.RtwSignal([1, -1]), nl.RtwSignal([-1, -1]))
        good = nl.RtwSignal([[[1, -1], [-1, -1]], [[-1, -1], [1, -1]]])
        pair.operands(nl.RTW, good.words, good.words)
        # Row 1 of group 1 is neither reference.
        with pytest.raises(nl.InvalidLogicValueError,
                           match="first input matches neither the High nor the Low reference"):
            pair.operands(nl.RTW, nl.RtwSignal([[[1, -1], [-1, -1]], [[-1, -1], [1, 1]]]).words,
                          good.words)

    @pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("pairs", [(), (3,)])
    def test_operands_combine_with_the_inputs_as_they_are(self, batch, pairs):
        # Per row, High is +1 at steps 0 and 64 and Low is -1 throughout.
        steps = 70
        h = -np.ones(pairs + (steps,), dtype=np.int64)
        h[..., [0, 64]] = 1
        if pairs:
            with pytest.raises(LengthMismatchError, match="one wave each"):
                nl.LogicReferencePair(nl.RtwSignal(h), nl.RtwSignal(-np.ones_like(h)))
            return
        pair = nl.LogicReferencePair(nl.RtwSignal(h), nl.RtwSignal(-np.ones_like(h)))
        bits = np.arange(int(np.prod(batch))).reshape(batch + (1,)) % 2 if batch else 1
        x = nl.RtwSignal(np.where(bits, h, -1))
        v = x.words
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

    def test_batch_needs_classify_rows(self):
        pair = self._rtw_pair()
        with pytest.raises(ValueError, match="classify_rows"):
            nl.classify(nl.RtwSignal([pair.h.to_list()] * 2), pair)

    def test_rows_and_pairs_must_pair_up(self):
        # A pair per row cannot be built; each row must span the one pair's steps.
        with pytest.raises(LengthMismatchError):
            nl.LogicReferencePair(nl.RtwSignal([[1, -1]] * 3), nl.RtwSignal([[-1, 1]] * 3))
        pair = nl.LogicReferencePair(nl.RtwSignal([1, -1]), nl.RtwSignal([-1, 1]))
        with pytest.raises(LengthMismatchError, match="classified wave has 3 steps, pair has 2"):
            nl.classify_rows(nl.RtwSignal([[1, -1, 1]] * 2), pair)

    @given(rtw_values)
    def test_references_classify_as_themselves(self, values):
        h = nl.RtwSignal(values)
        l = nl.RtwSignal([-v for v in values])
        pair = nl.LogicReferencePair(h, l)
        assert nl.classify(h, pair).verdict is nl.Verdict.HIGH
        assert nl.classify(l, pair).verdict is nl.Verdict.LOW


@st.composite
def classify_cases(draw):
    """A wave or a batch of copies and non-copies, and each row's pair: one pair for all
    rows, or a pair per row, which reads the row as a one-row batch."""
    family = draw(st.sampled_from([nl.RTW, nl.SPIKE]))
    batch = draw(st.booleans())
    rows = draw(st.integers(1, 4)) if batch else 1
    n_pairs = rows if batch and draw(st.booleans()) else 1
    if family == nl.RTW:
        # A few steps often draw identical references.
        steps = draw(st.integers(1, 6))
        wave = nl.RtwSignal
        values = st.lists(st.sampled_from([-1, 1]), min_size=steps, max_size=steps)
        h = [draw(values) for _ in range(n_pairs)]
        l = [draw(values) for _ in range(n_pairs)]
    else:
        steps = draw(st.integers(2, 8))
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
    if not batch:
        return wave(x[0]), pairs
    return wave(x), pairs * rows if n_pairs == 1 else pairs


class TestClassifyRows:
    @given(classify_cases())
    def test_classify_is_the_one_row_case(self, case):
        x, pairs = case
        wave = type(x)
        rows = np.atleast_2d(x.values)
        if len(set(map(id, pairs))) == 1:
            bits, steps, details = nl.classify_rows(x, pairs[0])
        else:   # each row as a one-row batch against its own pair
            read = [nl.classify_rows(wave(rows[[r]]), pair) for r, pair in enumerate(pairs)]
            bits, steps = (np.concatenate([one[k] for one in read]) for k in (0, 1))
            details = {r: one[2][0] for r, one in enumerate(read) if one[2]}
        for r, (row, row_pair) in enumerate(zip(rows, pairs)):
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
        assert nl.gen_rtw(config) == nl.gen_rtw(nl.GeneratorConfig(seed=int(seed), steps=int(steps)))

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
