import numpy as np
import pytest

import noiselogic as nl
from noiselogic.errors import ConfigError, FamilyMismatchError, OrthogonalityError
from noiselogic.generators import gen_disjoint_spike_pairs
from noiselogic.prng import SplitMix64


def _rtw_pairs(seed, steps, n):
    return nl.gen_rtw_pairs(seed, steps, n)


class TestRtwProduct:
    def test_single_high_bit_is_identity(self):
        (pair,) = _rtw_pairs(1, 32, 1)
        vec = nl.rtw_product_vector((pair,), (1,))
        assert vec.combined == pair.h

    def test_two_bit_hand_example(self):
        p1 = nl.LogicReferencePair(nl.RtwSignal([1, -1]), nl.RtwSignal([1, 1]))
        p2 = nl.LogicReferencePair(nl.RtwSignal([1, 1]), nl.RtwSignal([-1, -1]))
        vec = nl.rtw_product_vector((p1, p2), (1, 0))
        assert vec.combined.to_list() == [-1, 1]

    def test_no_zero_elements_for_random_patterns(self):
        pairs = _rtw_pairs(3, 64, 20)
        stream = SplitMix64(11)
        for _ in range(25):
            bits = tuple((stream.next_u64() >> k) & 1 for k in range(20))
            vec = nl.rtw_product_vector(pairs, bits)
            assert vec.zero_count == 0
            assert not vec.collapsed

    def test_argument_validation(self):
        pairs = _rtw_pairs(1, 16, 2)
        with pytest.raises(ConfigError):
            nl.rtw_product_vector(pairs, ())
        with pytest.raises(ConfigError):
            nl.rtw_product_vector(pairs, (1,))
        with pytest.raises(ConfigError):
            nl.rtw_product_vector(pairs, (1, 2))

    def test_bit_cap(self):
        # The cap bounds the CLI's demo size; the construction has none.
        nl.hyperspace.check_bit_count(2, 2)
        with pytest.raises(ConfigError, match="^3 bits exceed the configured cap of 2$"):
            nl.hyperspace.check_bit_count(3, 2)
        n = nl.hyperspace.DEFAULT_MAX_BITS + 1
        assert nl.rtw_product_vector(_rtw_pairs(1, 8, n), (1,) * n).zero_count == 0

    def test_non_collapse_up_to_cap(self):
        stream = SplitMix64(88)
        for n in range(1, 25):
            pairs = _rtw_pairs(stream.next_u64(), 48, n)
            bits = tuple((stream.next_u64() >> k) & 1 for k in range(n))
            vec = nl.rtw_product_vector(pairs, bits)
            assert vec.zero_count == 0
            squeezed = nl.squeezed_collapse_demo(pairs, bits)
            assert squeezed.collapsed == (0 in bits)


class TestSqueezedCollapse:
    def test_all_high_matches_non_squeezed(self):
        pairs = _rtw_pairs(5, 32, 4)
        bits = (1, 1, 1, 1)
        assert (
            nl.squeezed_collapse_demo(pairs, bits).combined.to_list()
            == nl.rtw_product_vector(pairs, bits).combined.to_list()
        )

    def test_single_low_bit_collapses_everything(self):
        pairs = _rtw_pairs(6, 64, 20)
        bits = tuple(1 if i != 13 else 0 for i in range(20))
        vec = nl.squeezed_collapse_demo(pairs, bits)
        assert vec.collapsed
        assert vec.zero_count == 64

    def test_all_low_single_bit(self):
        (pair,) = _rtw_pairs(7, 16, 1)
        assert nl.squeezed_collapse_demo((pair,), (0,)).collapsed


class TestSpikeSuperposition:
    def test_single_low_bit_is_that_train(self):
        pairs = gen_disjoint_spike_pairs(seed=2, steps=128, n_pairs=1)
        vec = nl.spike_superposition(pairs, (0,))
        assert vec.combined == pairs[0].l

    def test_membership_recovery_three_bits(self):
        pairs = gen_disjoint_spike_pairs(seed=9, steps=256, n_pairs=3)
        for bits in ((1, 0, 1), (0, 0, 0), (1, 1, 1), (0, 1, 0)):
            vec = nl.spike_superposition(pairs, bits)
            assert nl.recover_bits(vec) == bits

    def test_squeezed_low_bits_unrecoverable(self):
        pairs = gen_disjoint_spike_pairs(seed=4, steps=256, n_pairs=3)
        bits = (1, 0, 1)
        vec = nl.spike_superposition(pairs, bits, squeezed=True)
        assert nl.recover_bits(vec) == (1, None, 1)

    def test_cross_pair_overlap_rejected(self):
        # Independently generated pairs collide; the joint generator is required.
        config = nl.GeneratorConfig(seed=0, steps=64)
        a, b = (nl.reference_pairs(nl.SPIKE, seed, config) for seed in (1, 2))
        overlap = np.any(
            (a.h.values | a.l.values) & (b.h.values | b.l.values)
        )
        assert overlap  # premise of the test
        with pytest.raises(OrthogonalityError):
            nl.spike_superposition((a, b), (1, 1))

    def test_recover_requires_spike_family(self):
        pairs = _rtw_pairs(1, 16, 1)
        vec = nl.rtw_product_vector(pairs, (1,))
        with pytest.raises(FamilyMismatchError):
            nl.recover_bits(vec)


class TestPatternMatch:
    def test_matches_own_pattern_only(self):
        pairs = _rtw_pairs(12, 64, 6)
        bits = (1, 0, 1, 1, 0, 0)
        vec = nl.rtw_product_vector(pairs, bits)
        assert nl.matches_pattern(vec, bits)
        for flip in range(6):
            other = tuple(b ^ (1 if i == flip else 0) for i, b in enumerate(bits))
            assert not nl.matches_pattern(vec, other)

    def test_rejects_squeezed_vector(self):
        pairs = _rtw_pairs(1, 16, 2)
        vec = nl.squeezed_collapse_demo(pairs, (1, 1))
        with pytest.raises(FamilyMismatchError):
            nl.matches_pattern(vec, (1, 1))

    @pytest.mark.parametrize("pattern", [(2, 0), ("1", 0)])
    def test_rejects_a_bit_that_is_not_0_or_1(self, pattern):
        # Both used to match the vector of bits (1, 0).
        vec = nl.rtw_product_vector(_rtw_pairs(3, 16, 2), (1, 0))
        with pytest.raises(ConfigError, match=r"^bits must be 0 \(Low\) or 1 \(High\)$"):
            nl.matches_pattern(vec, pattern)
