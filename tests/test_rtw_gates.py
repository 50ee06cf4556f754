from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import noiselogic as nl
from noiselogic import rtw_gates
from noiselogic.errors import InvalidLogicValueError, LengthMismatchError

from conftest import eval_lowered_gate

# The word kernels, called on waves.
not_additive, not_multiplicative, and_gate = (
    partial(nl.on_waves, kernel) for kernel in
    (rtw_gates.not_additive, rtw_gates.not_multiplicative, rtw_gates.and_gate))


def _pair(h_values, l_values):
    return nl.LogicReferencePair(nl.RtwSignal(h_values), nl.RtwSignal(l_values))


def _drawn(seed, steps):
    return nl.reference_pairs(nl.RTW, seed, nl.GeneratorConfig(seed=seed, steps=steps))


@pytest.fixture
def pair():
    return _pair([1, -1, 1, 1], [-1, 1, 1, -1])


class TestPairChecks:
    def test_rejects_spike_pair(self):
        pair = nl.LogicReferencePair(nl.SpikeTrain([1, 0]), nl.SpikeTrain([0, 1]))
        x = nl.RtwSignal([1, -1])
        for call in (lambda: not_additive(pair, x), lambda: not_multiplicative(pair, x),
                     lambda: and_gate(pair, x, x)):
            with pytest.raises(nl.FamilyMismatchError):
                call()

    def test_additive_not_is_universe_minus_input(self, pair):
        for x in (pair.h, pair.l):
            assert not_additive(pair, x).values.tolist() == (
                nl.universe_rtw(pair).values - x.values).tolist()


class TestNotAdditive:
    def test_hand_example(self, pair):
        assert not_additive(pair, pair.h).to_list() == [-1, 1, 1, -1]

    def test_involution_on_references(self, pair):
        assert not_additive(pair, pair.h) == pair.l
        assert not_additive(pair, pair.l) == pair.h

    def test_rejects_non_logic_value(self, pair):
        stray = nl.RtwSignal([1, 1, 1, 1])
        with pytest.raises(InvalidLogicValueError):
            not_additive(pair, stray)

    def test_rejects_length_mismatch(self, pair):
        with pytest.raises(LengthMismatchError):
            not_additive(pair, nl.RtwSignal([1, -1]))


class TestNotMultiplicative:
    def test_involution_on_references(self, pair):
        assert not_multiplicative(pair, pair.h) == pair.l
        assert not_multiplicative(pair, pair.l) == pair.h

    def test_hand_example_non_logic_input(self):
        # Closed over arbitrary +1/-1 waves, unlike the additive form.
        pair = _pair([1, -1], [-1, -1])
        out = not_multiplicative(pair, nl.RtwSignal([1, 1]))
        assert out.to_list() == [-1, 1]

    @given(st.lists(st.sampled_from([-1, 1]), min_size=6, max_size=6))
    def test_double_negation_identity(self, values):
        pair = _pair([1, -1, 1, 1, -1, -1], [-1, 1, 1, -1, -1, 1])
        x = nl.RtwSignal(values)
        assert not_multiplicative(pair, not_multiplicative(pair, x)) == x

    def test_agrees_with_additive_on_logic_values(self):
        for seed in range(20):
            pair = _drawn(seed, 64)
            for x in (pair.h, pair.l):
                assert not_additive(pair, x) == not_multiplicative(pair, x)


class TestAndGate:
    def test_hand_example_trace(self, pair):
        # (H-L) = [2,-2,0,2]; cube = [8,-8,0,8]; quarter = [2,-2,0,2]; +L = h.
        assert and_gate(pair, pair.h, pair.h) == pair.h

    def test_low_absorbs(self, pair):
        assert and_gate(pair, pair.h, pair.l) == pair.l
        assert and_gate(pair, pair.l, pair.h) == pair.l
        assert and_gate(pair, pair.l, pair.l) == pair.l

    def test_rejects_non_logic_value(self, pair):
        with pytest.raises(InvalidLogicValueError):
            and_gate(pair, nl.RtwSignal([1, 1, 1, 1]), pair.h)

    def test_truth_table_across_seeds(self):
        for seed in range(50):
            pair = _drawn(seed, 128)
            refs = {1: pair.h, 0: pair.l}
            for a in (0, 1):
                for b in (0, 1):
                    assert and_gate(pair, refs[a], refs[b]) == refs[a & b]


class TestOutputCheck:
    def test_a_wrong_word_form_is_caught(self, monkeypatch, pair):
        # A word form that passes its first input through reads High AND Low as High.
        monkeypatch.setattr(rtw_gates, "_and_words", lambda h, l, x1, x2: x1)
        with pytest.raises(nl.InvariantError,
                           match="^AND output is not H exactly where both inputs are High$"):
            rtw_gates.and_gate(pair, pair.h.words, pair.l.words)


class TestCubeIdentity:
    def test_difference_cubed_is_four_times_difference(self):
        for seed in range(100):
            pair = _drawn(seed, 256)
            d = pair.h.values - pair.l.values
            assert np.array_equal(d * d * d, 4 * d)


class TestDerivedGates:
    # Derived gates exist only as lowered {NOT, AND} networks; the oracle
    # check over drawn pairs is in test_simulator.TestLoweredDerivedGates.
    def test_spot_checks(self, pair):
        for not_gate in (not_additive, not_multiplicative):
            kernels = (lambda x: not_gate(pair, x), lambda a, b: and_gate(pair, a, b))
            assert eval_lowered_gate("OR", *kernels, pair.l, pair.l) == pair.l
            assert eval_lowered_gate("XOR", *kernels, pair.h, pair.l) == pair.h
            assert eval_lowered_gate("NAND", *kernels, pair.h, pair.h) == pair.l


class TestClosureAndLocality:
    def test_gate_outputs_always_classify(self):
        for seed in range(20):
            pair = _drawn(seed, 64)
            kernels = (lambda x: not_multiplicative(pair, x), lambda a, b: and_gate(pair, a, b))
            for out in (
                and_gate(pair, pair.h, pair.h),
                eval_lowered_gate("OR", *kernels, pair.h, pair.l),
                not_additive(pair, pair.h),
            ):
                assert out == pair.h or out == pair.l

    def test_per_step_locality(self):
        # Changing inputs strictly after step t must not move the output
        # prefix [0..t]; gates are pure per-step maps.
        base = _pair([1, -1, 1, 1, -1, 1], [-1, 1, 1, -1, -1, -1])
        cut = 3
        da = and_gate(base, base.h, base.l).values[:cut]
        mutated_h = base.h.to_list()
        mutated_l = base.l.to_list()
        mutated_h[cut:], mutated_l[cut:] = mutated_l[cut:], mutated_h[cut:]
        swapped = _pair(mutated_h, mutated_l)
        db = and_gate(swapped, swapped.h, swapped.l).values[:cut]
        assert np.array_equal(da, db)
