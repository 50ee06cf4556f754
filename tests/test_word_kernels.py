"""The packed word kernels against the paper's formulas and the int8 kernels.

The carriers store one bit per step, so each gate kernel is a few word
operations on words-major ``uint64`` words.  The fixed tests run every
per-step combination of reference and input values through the word forms
and the kernels and compare them with the paper's polynomials (RTW) and set
formulas (spike).  The properties compare the kernels with the literal
``int8`` kernels of ``serial_reference``: on waves through ``on_waves``,
on random batches at step counts on both sides of a word boundary, where
the padding bits must stay zero; and on words, one wave, a batch and a
group, with the words checks of ``LogicReferencePair.operands``.
"""

import itertools
import re
from functools import partial

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
            assert nl.on_waves(rtw_gates.not_multiplicative, pair,
                               nl.RtwSignal([x])).to_list() == [x * h * l]
            # The additive NOT takes exact copies only: an x that is H or L.
            if x in (h, l):
                assert nl.on_waves(rtw_gates.not_additive, pair,
                                   nl.RtwSignal([x])).to_list() == [h + l - x]
                assert x * h * l == h + l - x

    def test_kernels_equal_the_polynomials_on_every_valid_combination(self):
        # One one-step pair for every (h, l); each input is its High or Low.
        for h, l, high1, high2 in itertools.product(SIGNS, SIGNS, (0, 1), (0, 1)):
            pair = nl.LogicReferencePair(nl.RtwSignal([h]), nl.RtwSignal([l]))
            x1, x2 = (h if high else l for high in (high1, high2))
            a, b = nl.RtwSignal([x1]), nl.RtwSignal([x2])
            assert nl.on_waves(rtw_gates.and_gate, pair, a, b).to_list() == [
                (h - l) * (x1 - l) * (x2 - l) // 4 + l]
            assert nl.on_waves(rtw_gates.not_additive, pair, a).to_list() == [h + l - x1]
            assert nl.on_waves(rtw_gates.not_multiplicative, pair, a).to_list() == [x1 * h * l]
            # The product NOT takes any sign, also where H == L and x differs.
            assert nl.on_waves(rtw_gates.not_multiplicative, pair,
                               nl.RtwSignal([-h])).to_list() == [-l]


class TestSpikeWordForms:
    def test_neuron_orthon_and_adder_on_every_combination(self):
        for e, i in itertools.product((0, 1), repeat=2):
            a, b = nl.SpikeTrain([e]), nl.SpikeTrain([i])
            assert nl.on_waves(spike_gates.neuron_eval, a, b).to_list() == [e * (1 - i)]
            upper, lower = nl.on_waves(spike_gates.orthon_eval, a, b)
            assert (upper.to_list(), lower.to_list()) == ([e & i], [e & (1 - i)])
            assert nl.on_waves(spike_gates.adder_union, a, b).to_list() == [e | i]
            # On words, the outputs are the words of those trains.
            assert np.array_equal(spike_gates.neuron_eval(a.words, b.words), [e & (1 - i)])

    def test_kernels_equal_the_set_formulas_on_every_valid_combination(self):
        # The steps are High only, Low only and neither; an input copies H or
        # L, so the four choices cover every valid (h, l, x1, x2) of a step.
        pair = nl.LogicReferencePair(nl.SpikeTrain([1, 0, 0]), nl.SpikeTrain([0, 1, 0]))
        h, l = pair.h.values, pair.l.values
        u = h | l
        for a, b in itertools.product((pair.h, pair.l), repeat=2):
            x1, x2 = a.values, b.values
            assert np.array_equal(nl.on_waves(spike_gates.spike_not, pair, a).values, (1 - x1) * u)
            assert np.array_equal(nl.on_waves(spike_gates.spike_and, pair, a, b).values,
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
    pair = _references(spike, steps, rng)
    h, l = pair.h.values, pair.l.values
    x1, x2 = (np.where(rng.integers(0, 2, groups + (rows, 1)) == 1, h, l) for _ in range(2))
    if draw(st.booleans()):
        _flip(x1, spike, rng)
    carrier = type(pair.h)
    return backend, pair, carrier(x1), carrier(x2)


def _references(spike: bool, steps: int, rng) -> nl.LogicReferencePair:
    """A random pair: disjoint non-empty trains (``steps >= 2``), or any two sign waves."""
    if spike:
        owner = rng.integers(0, 3, steps)   # High, Low or neither
        first, second = rng.permutation(steps)[:2]
        owner[first], owner[second] = 0, 1
        return nl.LogicReferencePair(nl.SpikeTrain(owner == 0), nl.SpikeTrain(owner == 1))
    return nl.LogicReferencePair(*map(nl.RtwSignal, rng.choice(SIGNS, (2, steps))))


def _flip(values: np.ndarray, spike: bool, rng) -> None:
    """Flip one random step of one random row of the int ``values`` in place."""
    flat = values.reshape(-1, values.shape[-1])
    flat[rng.integers(len(flat)), rng.integers(values.shape[-1])] ^= 1 if spike else -2


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
            got, want = _outcome(partial(nl.on_waves, packed), *args), _outcome(literal, *args)
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
        kernels = (partial(nl.on_waves, _KERNELS[backend][1]),
                   serial_reference.INT8_KERNELS[backend][1])
        assert [_outcome(k, pair, bad, bad) for k in kernels] == [nl.InvalidLogicValueError] * 2


# Each word kernel with its family, its int8 kernel and whether it takes copies only.
WORD_KERNELS = (
    (nl.RTW, rtw_gates.not_additive, serial_reference.not_additive, True),
    (nl.RTW, rtw_gates.not_multiplicative, serial_reference.not_multiplicative, False),
    (nl.RTW, rtw_gates.and_gate, serial_reference.and_gate, True),
    (nl.SPIKE, spike_gates.spike_not, serial_reference.spike_not, True),
    (nl.SPIKE, spike_gates.spike_and, serial_reference.spike_and, True),
)
# The logical batch shapes of the three layouts: one wave ``(words,)``, a
# batch ``(words, rows)`` and a group ``(groups, words, rows)``.
LAYOUTS = ((), (3,), (2, 3))


def _words_or_error(fn, *args):
    """The output words of ``fn``, or the type and message of the error it raised."""
    try:
        out = fn(*args)
    except nl.NoiseLogicError as exc:
        return type(exc), str(exc)
    return out if isinstance(out, np.ndarray) else out.words


class TestWordKernelsOnEveryShape:
    @settings(max_examples=200, deadline=None)
    @given(case=st.sampled_from(WORD_KERNELS), layout=st.sampled_from(LAYOUTS),
           steps=st.sampled_from(STEP_COUNTS), seed=st.integers(0, 2**32 - 1))
    def test_words_equal_the_int8_kernel_and_are_checked(self, case, layout, steps, seed):
        family, kernel, literal, exact = case
        spike = family == nl.SPIKE
        arity = 2 if kernel in (rtw_gates.and_gate, spike_gates.spike_and) else 1
        rng = np.random.default_rng(seed)
        pair = _references(spike, max(steps, 2 if spike else 1), rng)
        carrier, steps = type(pair.h), pair.steps
        values = [np.where(rng.integers(0, 2, layout + (1,)) == 1, pair.h.values, pair.l.values)
                  for _ in range(arity)]
        waves = [carrier(v) for v in values]
        words = [w.words for w in waves]
        # Copies: the words of the int8 kernel's output, in the inputs' layout.
        got = kernel(pair, *words)
        assert got.dtype == np.uint64 and got.shape == words[0].shape
        assert np.array_equal(got, literal(pair, *waves).words)
        # A row that copies neither reference: every exact kernel raises, with
        # the int8 kernel's message, and the product NOT passes it through.
        roles = ("input",) if arity == 1 else ("first input", "second input")
        for k, role in enumerate(roles):
            bad = values[k].copy()
            _flip(bad, spike, rng)
            rows = bad.reshape(-1, steps)
            non_copy = not all(np.array_equal(r, pair.h.values) or np.array_equal(r, pair.l.values)
                               for r in rows)
            args = waves[:k] + [carrier(bad)] + waves[k + 1:]
            want = _words_or_error(literal, pair, *args)
            got = _words_or_error(kernel, pair, *(w.words for w in args))
            if isinstance(want, tuple):
                assert got == want
            else:
                assert np.array_equal(got, want)
            if exact and non_copy:
                assert want == (nl.InvalidLogicValueError,
                                f"{role} matches neither the High nor the Low reference")
            elif non_copy:
                assert not isinstance(want, tuple)
        # One word too many or too few on the words axis, and three axes too many.
        axis = -2 if layout else -1
        for wrong in (np.concatenate([words[0], np.take(words[0], [0], axis=axis)], axis=axis),
                      np.delete(words[0], 0, axis=axis), words[0][(None,) * 3]):
            with pytest.raises(nl.LengthMismatchError, match=f"^{roles[0]} has words of shape "):
                kernel(pair, wrong, *words[1:])
        # Two inputs of two shapes.
        if arity == 2:
            for other in LAYOUTS + ((4,),):
                if other == layout:
                    continue
                second = carrier(np.broadcast_to(pair.h.values, other + (steps,))).words
                with pytest.raises(nl.LengthMismatchError, match=(
                        rf"^AND: shapes differ \({re.escape(str(layout + (steps,)))} vs "
                        rf"{re.escape(str(other + (steps,)))}\)$")):
                    kernel(pair, words[0], second)
