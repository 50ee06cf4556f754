"""The packed word kernels against the paper's formulas and the int8 kernels.

The carriers store one bit per step, so each gate kernel is a few word
operations.  The fixed tests run every per-step combination of reference
and input values through the word forms and the kernels and compare them
with the paper's polynomials (RTW) and set formulas (spike).  The property
compares the kernels with the literal ``int8`` kernels of
``serial_reference`` on random batches, at step counts on both sides of a
word boundary, where the padding bits must stay zero.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noiselogic as nl
from noiselogic import rtw_gates, spike_gates

import serial_reference

SIGNS = (-1, 1)


def _bit(value: int) -> np.ndarray:
    """One step as a one-word wave: a set bit is +1 (RTW) or a spike."""
    return np.array([value > 0], dtype=np.uint64)


def _sign(word: np.ndarray) -> int:
    return 1 if int(word[0]) & 1 else -1


class TestRtwWordForms:
    def test_and_equals_the_cubic_on_all_16_sign_combinations(self):
        for h, l, x1, x2 in itertools.product(SIGNS, repeat=4):
            cube = (h - l) * (x1 - l) * (x2 - l)
            assert cube % 4 == 0
            got = rtw_gates._and_words(_bit(h), _bit(l), _bit(x1), _bit(x2))
            assert _sign(got) == cube // 4 + l, (h, l, x1, x2)

    def test_nots_equal_the_product_and_the_universe_minus_input(self):
        # One one-step pair for every (h, l, x).
        for h, l, x in itertools.product(SIGNS, repeat=3):
            pair = nl.LogicReferencePair(nl.RtwSignal([h]), nl.RtwSignal([l]))
            assert rtw_gates.not_multiplicative(pair, nl.RtwSignal([x])).to_list() == [x * h * l]
            # The additive NOT takes exact copies only: an x that is H or L.
            if x in (h, l):
                assert rtw_gates.not_additive(pair, nl.RtwSignal([x])).to_list() == [h + l - x]
                assert x * h * l == h + l - x

    def test_kernels_equal_the_polynomials_on_every_valid_combination(self):
        # One one-step pair for every (h, l); each input is its High or Low.
        for h, l, high1, high2 in itertools.product(SIGNS, SIGNS, (0, 1), (0, 1)):
            pair = nl.LogicReferencePair(nl.RtwSignal([h]), nl.RtwSignal([l]))
            x1, x2 = (h if high else l for high in (high1, high2))
            a, b = nl.RtwSignal([x1]), nl.RtwSignal([x2])
            assert rtw_gates.and_gate(pair, a, b).to_list() == [
                (h - l) * (x1 - l) * (x2 - l) // 4 + l]
            assert rtw_gates.not_additive(pair, a).to_list() == [h + l - x1]
            assert rtw_gates.not_multiplicative(pair, a).to_list() == [x1 * h * l]
            # The product NOT takes any sign, also where H == L and x differs.
            assert rtw_gates.not_multiplicative(pair, nl.RtwSignal([-h])).to_list() == [-l]


class TestSpikeWordForms:
    def test_neuron_orthon_and_adder_on_every_combination(self):
        for e, i in itertools.product((0, 1), repeat=2):
            a, b = nl.SpikeTrain([e]), nl.SpikeTrain([i])
            assert spike_gates.neuron_eval(a, b).to_list() == [e * (1 - i)]
            upper, lower = spike_gates.orthon_eval(a, b)
            assert (upper.to_list(), lower.to_list()) == ([e & i], [e & (1 - i)])
            assert spike_gates.adder_union(a, b).to_list() == [e | i]

    def test_kernels_equal_the_set_formulas_on_every_valid_combination(self):
        # The steps are High only, Low only and neither; an input copies H or
        # L, so the four choices cover every valid (h, l, x1, x2) of a step.
        pair = nl.LogicReferencePair(nl.SpikeTrain([1, 0, 0]), nl.SpikeTrain([0, 1, 0]))
        h, l = pair.h.values, pair.l.values
        u = h | l
        for a, b in itertools.product((pair.h, pair.l), repeat=2):
            x1, x2 = a.values, b.values
            assert np.array_equal(spike_gates.spike_not(pair, a).values, (1 - x1) * u)
            assert np.array_equal(spike_gates.spike_and(pair, a, b).values,
                                  x1 * x2 * h | x1 * l | x2 * l)


# RTW at every count; a spike pair needs at least two steps for two
# non-empty disjoint trains, so 1 becomes 2 there.
STEP_COUNTS = (1, 63, 64, 65, 127)

_KERNELS = {
    "rtw-additive-not": (rtw_gates.not_additive, rtw_gates.and_gate),
    "rtw-multiplicative-not": (rtw_gates.not_multiplicative, rtw_gates.and_gate),
    "spike": (spike_gates.spike_not, spike_gates.spike_and),
}


@st.composite
def kernel_cases(draw):
    """(backend, pair, x1, x2): batches of copies of the pair, maybe one flipped step."""
    backend = draw(st.sampled_from(sorted(_KERNELS)))
    spike = backend == "spike"
    steps = max(draw(st.sampled_from(STEP_COUNTS)), 2 if spike else 1)
    rows = draw(st.integers(1, 4))
    groups = draw(st.sampled_from([(), (2,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if spike:
        owner = rng.integers(0, 3, steps)   # High, Low or neither
        first, second = rng.permutation(steps)[:2]
        owner[first], owner[second] = 0, 1
        h, l = (owner == 0).astype(np.int64), (owner == 1).astype(np.int64)
    else:
        h, l = rng.choice(SIGNS, (2, steps))
    x1, x2 = (np.where(rng.integers(0, 2, groups + (rows, 1)) == 1, h, l) for _ in range(2))
    if draw(st.booleans()):
        flat = x1.reshape(-1, steps)
        flat[rng.integers(len(flat)), rng.integers(steps)] ^= 1 if spike else -2
    carrier = nl.SpikeTrain if spike else nl.RtwSignal
    pair = nl.LogicReferencePair(carrier(h), carrier(l))
    return backend, pair, carrier(x1), carrier(x2)


def _outcome(kernel, *args):
    """The output wave, or the type of the error raised."""
    try:
        return kernel(*args)
    except nl.NoiseLogicError as exc:
        return type(exc)


class TestPackedEqualsInt8:
    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    def test_packed_kernels_equal_the_int8_kernels(self, case):
        backend, pair, x1, x2 = case
        for packed, literal, args in zip(_KERNELS[backend], serial_reference.INT8_KERNELS[backend],
                                         ((pair, x1), (pair, x1, x2))):
            got, want = _outcome(packed, *args), _outcome(literal, *args)
            if isinstance(want, type):
                assert got is want
                continue
            assert got.values.tolist() == want.values.tolist()
            assert got.words.shape == want.words.shape
            # The padding bits past the last step stay zero.
            tail = len(x1) % 64
            last = got.words[-1] if got.words.ndim == 1 else got.words[..., -1, :]
            assert tail == 0 or not (last >> np.uint64(tail)).any()

    @pytest.mark.parametrize("backend", sorted(_KERNELS))
    def test_a_non_copy_row_raises_the_same_error_from_both(self, backend):
        spike = backend == "spike"
        config = nl.GeneratorConfig(seed=4, steps=65)
        pair = (nl.gen_orthogonal_spike_pair if spike else nl.gen_rtw_pair)(config)
        carrier = type(pair.h)
        values = np.stack([pair.h.values, pair.l.values, pair.h.values]).astype(np.int64)
        values[1, 64] = 1 - values[1, 64] if spike else -values[1, 64]
        bad = carrier(values)
        kernels = (_KERNELS[backend][1], serial_reference.INT8_KERNELS[backend][1])
        assert [_outcome(k, pair, bad, bad) for k in kernels] == [nl.InvalidLogicValueError] * 2
