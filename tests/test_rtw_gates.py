import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import noiselogic as nl
from noiselogic.errors import InvalidLogicValueError, LengthMismatchError
from noiselogic.rtw_gates import (
    RtwGateContext,
    and_gate,
    not_additive,
    not_multiplicative,
)

from conftest import eval_lowered_gate


def _ctx(h_values, l_values):
    return RtwGateContext(
        nl.LogicReferencePair(nl.RtwSignal(h_values), nl.RtwSignal(l_values))
    )


@pytest.fixture
def ctx():
    return _ctx([1, -1, 1, 1], [-1, 1, 1, -1])


class TestContext:
    def test_caches_match_definitions(self, ctx):
        assert ctx.universe == nl.universe_rtw(ctx.pair)
        assert ctx.difference.to_list() == [2, -2, 0, 2]

    def test_rejects_spike_pair(self):
        pair = nl.LogicReferencePair(nl.SpikeTrain([1, 0]), nl.SpikeTrain([0, 1]))
        with pytest.raises(nl.FamilyMismatchError):
            RtwGateContext(pair)


class TestNotAdditive:
    def test_hand_example(self, ctx):
        assert not_additive(ctx, ctx.h).to_list() == [-1, 1, 1, -1]

    def test_involution_on_references(self, ctx):
        assert not_additive(ctx, ctx.h) == ctx.l
        assert not_additive(ctx, ctx.l) == ctx.h

    def test_rejects_non_logic_value(self, ctx):
        stray = nl.RtwSignal([1, 1, 1, 1])
        with pytest.raises(InvalidLogicValueError):
            not_additive(ctx, stray)

    def test_rejects_length_mismatch(self, ctx):
        with pytest.raises(LengthMismatchError):
            not_additive(ctx, nl.RtwSignal([1, -1]))


class TestNotMultiplicative:
    def test_involution_on_references(self, ctx):
        assert not_multiplicative(ctx, ctx.h) == ctx.l
        assert not_multiplicative(ctx, ctx.l) == ctx.h

    def test_hand_example_non_logic_input(self):
        # Closed over arbitrary +1/-1 waves, unlike the additive form.
        ctx = _ctx([1, -1], [-1, -1])
        out = not_multiplicative(ctx, nl.RtwSignal([1, 1]))
        assert out.to_list() == [-1, 1]

    @given(st.lists(st.sampled_from([-1, 1]), min_size=6, max_size=6))
    def test_double_negation_identity(self, values):
        ctx = _ctx([1, -1, 1, 1, -1, -1], [-1, 1, 1, -1, -1, 1])
        x = nl.RtwSignal(values)
        assert not_multiplicative(ctx, not_multiplicative(ctx, x)) == x

    def test_agrees_with_additive_on_logic_values(self):
        for seed in range(20):
            ctx = RtwGateContext.from_config(nl.GeneratorConfig(seed=seed, steps=64))
            for x in (ctx.h, ctx.l):
                assert not_additive(ctx, x) == not_multiplicative(ctx, x)


class TestAndGate:
    def test_hand_example_trace(self, ctx):
        # (H-L) = [2,-2,0,2]; cube = [8,-8,0,8]; quarter = [2,-2,0,2]; +L = h.
        assert and_gate(ctx, ctx.h, ctx.h) == ctx.h

    def test_low_absorbs(self, ctx):
        assert and_gate(ctx, ctx.h, ctx.l) == ctx.l
        assert and_gate(ctx, ctx.l, ctx.h) == ctx.l
        assert and_gate(ctx, ctx.l, ctx.l) == ctx.l

    def test_rejects_non_logic_value(self, ctx):
        with pytest.raises(InvalidLogicValueError):
            and_gate(ctx, nl.RtwSignal([1, 1, 1, 1]), ctx.h)

    def test_truth_table_across_seeds(self):
        for seed in range(50):
            ctx = RtwGateContext.from_config(nl.GeneratorConfig(seed=seed, steps=128))
            refs = {1: ctx.h, 0: ctx.l}
            for a in (0, 1):
                for b in (0, 1):
                    assert and_gate(ctx, refs[a], refs[b]) == refs[a & b]


class TestCubeIdentity:
    def test_difference_cubed_is_four_times_difference(self):
        for seed in range(100):
            ctx = RtwGateContext.from_config(nl.GeneratorConfig(seed=seed, steps=256))
            d = ctx.difference.values
            assert np.array_equal(d * d * d, 4 * d)


class TestDerivedGates:
    # Derived gates exist only as lowered {NOT, AND} networks; the oracle
    # check over drawn pairs is in test_simulator.TestLoweredDerivedGates.
    def test_spot_checks(self, ctx):
        for not_gate in (not_additive, not_multiplicative):
            kernels = (lambda x: not_gate(ctx, x), lambda a, b: and_gate(ctx, a, b))
            assert eval_lowered_gate("OR", *kernels, ctx.l, ctx.l) == ctx.l
            assert eval_lowered_gate("XOR", *kernels, ctx.h, ctx.l) == ctx.h
            assert eval_lowered_gate("NAND", *kernels, ctx.h, ctx.h) == ctx.l


class TestClosureAndLocality:
    def test_gate_outputs_always_classify(self):
        for seed in range(20):
            ctx = RtwGateContext.from_config(nl.GeneratorConfig(seed=seed, steps=64))
            kernels = (lambda x: not_multiplicative(ctx, x), lambda a, b: and_gate(ctx, a, b))
            for out in (
                and_gate(ctx, ctx.h, ctx.h),
                eval_lowered_gate("OR", *kernels, ctx.h, ctx.l),
                not_additive(ctx, ctx.h),
            ):
                assert out == ctx.h or out == ctx.l

    def test_per_step_locality(self):
        # Changing inputs strictly after step t must not move the output
        # prefix [0..t]; gates are pure per-step maps.
        base = _ctx([1, -1, 1, 1, -1, 1], [-1, 1, 1, -1, -1, -1])
        cut = 3
        da = and_gate(base, base.h, base.l).values[:cut]
        mutated_h = base.h.to_list()
        mutated_l = base.l.to_list()
        mutated_h[cut:], mutated_l[cut:] = mutated_l[cut:], mutated_h[cut:]
        swapped = _ctx(mutated_h, mutated_l)
        db = and_gate(swapped, swapped.h, swapped.l).values[:cut]
        assert np.array_equal(da, db)
