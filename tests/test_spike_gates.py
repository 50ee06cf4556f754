from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import noiselogic as nl
from noiselogic import spike_gates
from noiselogic.errors import InvalidLogicValueError, LengthMismatchError

from conftest import eval_lowered_gate

# The word kernels and circuits, called on trains.
adder_union, neuron_eval, orthon_eval, spike_and, spike_not = (
    partial(nl.on_waves, getattr(spike_gates, name)) for name in
    ("adder_union", "neuron_eval", "orthon_eval", "spike_and", "spike_not"))

spike_lists = st.lists(st.sampled_from([0, 1]), min_size=8, max_size=8)


def _pair(h_values, l_values):
    return nl.LogicReferencePair(nl.SpikeTrain(h_values), nl.SpikeTrain(l_values))


@pytest.fixture
def pair():
    return _pair([0, 1, 0, 0, 1], [0, 0, 1, 0, 0])


def _random_pair(seed, steps=48):
    config = nl.GeneratorConfig(seed=seed, steps=steps, spike_rate_h=0.25, spike_rate_l=0.25)
    return nl.reference_pairs(nl.SPIKE, seed, config)


class TestNeuron:
    def test_inhibition_wins_on_coincidence(self):
        out = neuron_eval(nl.SpikeTrain([1, 1, 0]), nl.SpikeTrain([0, 1, 0]))
        assert out.to_list() == [1, 0, 0]

    def test_silent_inhibitor_passes_excitation(self):
        e = nl.SpikeTrain([1, 0, 1])
        assert neuron_eval(e, nl.SpikeTrain([0, 0, 0])) == e

    def test_silent_excitation_stays_silent(self):
        out = neuron_eval(nl.SpikeTrain([0, 0, 0]), nl.SpikeTrain([1, 0, 1]))
        assert out.to_list() == [0, 0, 0]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError, match=r"^neuron: lengths differ \(1 vs 2\)$"):
            neuron_eval(nl.SpikeTrain([1]), nl.SpikeTrain([1, 0]))
        trains = [nl.SpikeTrain([1, 0])] * 2 + [nl.SpikeTrain([1, 0, 0])]
        with pytest.raises(LengthMismatchError, match=r"^adder: lengths differ \(2 vs 3\)$"):
            adder_union(*trains)


class TestOrthon:
    def test_hand_example(self):
        intersection, difference = orthon_eval(nl.SpikeTrain([1, 0, 1, 1]),
                                               nl.SpikeTrain([0, 0, 1, 0]))
        assert intersection.to_list() == [0, 0, 1, 0]
        assert difference.to_list() == [1, 0, 0, 1]

    def test_equal_inputs(self):
        a = nl.SpikeTrain([1, 0, 1])
        intersection, difference = orthon_eval(a, a)
        assert intersection == a
        assert difference.to_list() == [0, 0, 0]

    def test_disjoint_inputs(self):
        a = nl.SpikeTrain([1, 0, 1, 0])
        b = nl.SpikeTrain([0, 1, 0, 0])
        intersection, difference = orthon_eval(a, b)
        assert intersection.to_list() == [0, 0, 0, 0]
        assert difference == a

    @given(spike_lists, spike_lists)
    def test_outputs_partition_a(self, a_values, b_values):
        a = nl.SpikeTrain(a_values)
        intersection, difference = orthon_eval(a, nl.SpikeTrain(b_values))
        # The two outputs are disjoint and union back to A.
        assert not np.any(intersection.values & difference.values)
        assert np.array_equal(intersection.values | difference.values, a.values)


class TestAdder:
    def test_union_saturates(self):
        out = adder_union(
            nl.SpikeTrain([1, 0, 0]), nl.SpikeTrain([1, 1, 0]), nl.SpikeTrain([0, 1, 0])
        )
        assert out.to_list() == [1, 1, 0]

    def test_needs_inputs(self):
        with pytest.raises(ValueError):
            adder_union()


class TestSpikeNot:
    def test_hand_example(self, pair):
        assert spike_not(pair, pair.h) == pair.l

    def test_symmetry(self, pair):
        assert spike_not(pair, pair.l) == pair.h

    def test_rejects_spike_outside_universe(self, pair):
        with pytest.raises(InvalidLogicValueError):
            spike_not(pair, nl.SpikeTrain([1, 1, 0, 0, 1]))

    def test_involution_across_seeds(self):
        for seed in range(20):
            p = _random_pair(seed)
            assert spike_not(p, spike_not(p, p.h)) == p.h

    def test_rejects_rtw_pair(self):
        rtw = nl.LogicReferencePair(nl.RtwSignal([1, -1]), nl.RtwSignal([-1, 1]))
        with pytest.raises(nl.FamilyMismatchError):
            spike_not(rtw, rtw.h)


class TestSpikeAnd:
    def test_hand_example(self, pair):
        assert spike_and(pair, pair.h, pair.h) == pair.h

    def test_low_absorbs(self, pair):
        assert spike_and(pair, pair.h, pair.l) == pair.l
        assert spike_and(pair, pair.l, pair.l) == pair.l

    def test_truth_table_across_seeds(self):
        for seed in range(30):
            p = _random_pair(seed)
            refs = {1: p.h, 0: p.l}
            for a in (0, 1):
                for b in (0, 1):
                    assert spike_and(p, refs[a], refs[b]) == refs[a & b]

    def test_rejects_non_logic_value(self, pair):
        with pytest.raises(InvalidLogicValueError):
            spike_and(pair, nl.SpikeTrain([0, 0, 0, 1, 0]), pair.h)


def _lowered(gate, p, x1, x2):
    return eval_lowered_gate(
        gate, lambda x: spike_not(p, x), lambda a, b: spike_and(p, a, b), x1, x2
    )


class TestDerivedSpikeGates:
    # Derived gates exist only as lowered {NOT, AND} networks; the oracle
    # check over drawn pairs is in test_simulator.TestLoweredDerivedGates.
    def test_spot_checks(self, pair):
        assert _lowered("OR", pair, pair.h, pair.h) == pair.h
        assert _lowered("NAND", pair, pair.h, pair.h) == pair.l

    def test_de_morgan_waveform_exact(self):
        for seed in range(10):
            p = _random_pair(seed)
            refs = {1: p.h, 0: p.l}
            for a in (0, 1):
                for b in (0, 1):
                    lhs = spike_not(p, spike_and(p, refs[a], refs[b]))
                    rhs = _lowered("OR", p, spike_not(p, refs[a]), spike_not(p, refs[b]))
                    assert lhs == rhs


class TestInvariants:
    def test_circuit_equals_set_algebra_for_1000_pairs(self):
        # The gates assert this internally on every call; evaluating all four
        # assignments over 1000 pairs exercises that check at scale.
        for seed in range(1000):
            p = _random_pair(seed, steps=24)
            refs = {1: p.h, 0: p.l}
            for a in (0, 1):
                spike_not(p, refs[a])
                for b in (0, 1):
                    spike_and(p, refs[a], refs[b])

    def test_outputs_never_spike_outside_universe(self):
        for seed in range(20):
            p = _random_pair(seed)
            u = nl.universe_spike(p).values
            for a in (p.h, p.l):
                for b in (p.h, p.l):
                    out = spike_and(p, a, b)
                    assert not np.any(out.values & (1 - u))

    def test_per_step_locality(self):
        # Truncating the trains to a prefix reproduces the output prefix.
        p = _random_pair(3, steps=40)
        full = spike_and(p, p.h, p.l).values
        cut = 17
        # Guard: both prefixes must stay non-empty for the pair invariant.
        assert p.h.values[:cut].any() and p.l.values[:cut].any()
        prefix_pair = _pair(p.h.to_list()[:cut], p.l.to_list()[:cut])
        prefix_out = spike_and(prefix_pair, prefix_pair.h, prefix_pair.l).values
        assert np.array_equal(full[:cut], prefix_out)


class TestDecidedAt:
    # classify decides a copy of either reference at the first universe spike.
    def test_hand_examples(self, pair):
        assert nl.classify(pair.h, pair).decided_at == 1
        assert nl.classify(pair.l, pair).decided_at == 1

    def test_equals_first_universe_spike(self):
        for seed in range(20):
            p = _random_pair(seed)
            first_u = int(np.argmax(nl.universe_spike(p).values))
            assert nl.classify(p.h, p).decided_at == first_u
            assert nl.classify(p.l, p).decided_at == first_u

    def test_non_copy_is_ambiguous(self, pair):
        outcome = nl.classify(nl.SpikeTrain([1, 0, 0, 0, 0]), pair)
        assert outcome.is_ambiguous and outcome.decided_at is None
        assert outcome.detail == (
            "step 1 votes Low but the wave deviates from that reference at step 0")
