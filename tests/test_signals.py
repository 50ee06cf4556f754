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
from noiselogic.signals import CARRIER_DTYPE

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
    """Logic carriers store int8; the family check runs before narrowing."""

    @pytest.mark.parametrize("cls, value", [
        (nl.SpikeTrain, 257),        # would wrap to 1
        (nl.SpikeTrain, -255),       # would wrap to 1
        (nl.RtwSignal, 255),         # would wrap to -1
        (nl.RtwSignal, 2**63 - 1),   # would wrap to -1
        (nl.MultiLevelSignal, 130),  # would wrap to -126, then fail anyway
        (nl.MultiLevelSignal, 258),  # would wrap to 2
    ])
    def test_out_of_range_values_are_rejected_not_wrapped(self, cls, value):
        with pytest.raises(ValueError):
            cls([value])
        with pytest.raises(ValueError):
            cls(np.array([[value]], dtype=np.int64))

    def test_carriers_are_int8_and_int_waves_int64(self):
        for wave in (nl.RtwSignal([1, -1]), nl.SpikeTrain([0, 1]), nl.MultiLevelSignal([-2, 2])):
            assert wave.values.dtype == CARRIER_DTYPE == np.int8
        big = nl.IntWave([10**12, -(10**12)])
        assert big.values.dtype == np.int64
        assert big.to_list() == [10**12, -(10**12)]

    def test_construction_copies_its_input(self):
        source = np.array([0, 1, 0], dtype=np.int8)
        train = nl.SpikeTrain(source)
        source[0] = 1
        assert train.to_list() == [0, 1, 0]

    def test_wrapping_without_a_copy_needs_a_read_only_array_of_the_dtype(self):
        rows = np.array([[1, -1], [-1, 1]], dtype=np.int8)
        with pytest.raises(ValueError):
            nl.RtwSignal._of_checked(rows)
        rows.setflags(write=False)
        wide = rows.astype(np.int64)
        wide.setflags(write=False)
        with pytest.raises(ValueError):
            nl.RtwSignal._of_checked(wide)
        wave = nl.RtwSignal._of_checked(rows[1])
        assert wave == nl.RtwSignal([-1, 1])
        assert wave.values.base is rows


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
    def test_row_with_empty_low_train_rejected(self):
        # The batch as a whole has Low spikes; row 1 has none.
        h = nl.SpikeTrain([[1, 0, 0], [0, 1, 0], [1, 0, 0]])
        l = nl.SpikeTrain([[0, 1, 0], [0, 0, 0], [0, 0, 1]])
        with pytest.raises(ValueError, match="non-empty"):
            nl.LogicReferencePair(h, l)

    def test_coincident_spike_names_row_and_step(self):
        # Flat index 4 would be "step 4" of a 3-step train.
        h = nl.SpikeTrain([[1, 0, 0], [0, 1, 0]])
        l = nl.SpikeTrain([[0, 1, 0], [0, 1, 1]])
        with pytest.raises(OrthogonalityError, match=r"at step 1 in row 1$"):
            nl.LogicReferencePair(h, l)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(LengthMismatchError):
            nl.LogicReferencePair(nl.RtwSignal([[1, -1], [1, 1]]), nl.RtwSignal([1, -1]))

    def test_row_is_the_pair_of_that_row(self):
        h = nl.SpikeTrain([[1, 0, 0], [0, 1, 0]])
        l = nl.SpikeTrain([[0, 1, 0], [0, 0, 1]])
        pair = nl.LogicReferencePair(h, l)
        assert pair.steps == 3
        assert pair.row(1) == nl.LogicReferencePair(nl.SpikeTrain([0, 1, 0]),
                                                    nl.SpikeTrain([0, 0, 1]))

    def test_gate_input_checked_against_its_own_row(self):
        pair = nl.LogicReferencePair(nl.RtwSignal([[1, -1], [1, 1]]),
                                     nl.RtwSignal([[-1, -1], [-1, 1]]))
        pair.check_gate_input(nl.RtwSignal([[1, -1], [-1, 1]]), nl.RTW)
        # Row 1 is row 0's High, which is neither reference of row 1.
        with pytest.raises(nl.InvalidLogicValueError):
            pair.check_gate_input(nl.RtwSignal([[1, -1], [1, -1]]), nl.RTW)


class TestElementwiseOps:
    def test_add_sub(self):
        a = nl.RtwSignal([1, -1]), nl.RtwSignal([-1, -1])
        assert nl.add(*a).to_list() == [0, -2]
        assert nl.sub(*a).to_list() == [2, 0]

    def test_mul(self):
        assert nl.mul(nl.RtwSignal([1, -1]), nl.RtwSignal([-1, -1])).to_list() == [-1, 1]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            nl.add(nl.RtwSignal([1]), nl.RtwSignal([1, 1]))

    def test_scale_quarter(self):
        assert nl.scale_quarter([8, -8, 0]).to_list() == [2, -2, 0]

    def test_scale_quarter_rejects_non_divisible(self):
        with pytest.raises(ValueError):
            nl.scale_quarter([2])

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=32))
    def test_scale_quarter_inverts_times_four(self, values):
        scaled = nl.scale_quarter([4 * v for v in values])
        assert scaled.to_list() == values


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

    @given(rtw_values)
    def test_references_classify_as_themselves(self, values):
        h = nl.RtwSignal(values)
        l = nl.RtwSignal([-v for v in values])
        pair = nl.LogicReferencePair(h, l)
        assert nl.classify(h, pair).verdict is nl.Verdict.HIGH
        assert nl.classify(l, pair).verdict is nl.Verdict.LOW


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
