"""The padding rule: words from outside set no bit past the last step.

Words of ``steps`` steps fill ``words_for(steps)`` words; the bits of the
last word past step ``steps - 1`` are padding and must be zero.  Every
check of outside words, the gate kernels' ``operands``, ``classify_rows``
and ``BitWave._of_words``, and so ``on_waves``, refuses a set padding bit
and accepts the same input with its padding clear.  The oracle here reads
the padding from the unpacked bits.
"""

import re

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import noiselogic as nl
from noiselogic import rtw_gates, spike_gates
from noiselogic.signals import WORD_BITS, words_for

# (kernel, arity, whether it takes any wave of the carrier, not only copies)
KERNELS = {
    nl.RTW: ((rtw_gates.not_additive, 1, False), (rtw_gates.not_multiplicative, 1, True),
             (rtw_gates.and_gate, 2, False)),
    nl.SPIKE: ((spike_gates.spike_not, 1, False), (spike_gates.spike_and, 2, False)),
}
# Step counts on a word boundary have no padding, so nothing may raise there.
STEP_COUNTS = (2, 5, 63, 64, 65, 100, 128, 130)
LAYOUTS = ((), (3,), (2, 3))   # a wave, a batch of rows, a group of batches


def _last(words):
    """A view of the last word of every wave in words-major ``words``."""
    return words[..., -1, :] if words.ndim > 1 else words[-1:]


def _as_rows(words):
    """Words-major ``words`` of any layout as ``(words, rows)`` words."""
    if words.ndim == 1:
        return words[:, None]
    return words if words.ndim == 2 else np.hstack(list(words))


def _first_stray(rows, steps):
    """The first step past the window that a row of ``(words, rows)`` words sets, or None."""
    bits = np.unpackbits(np.ascontiguousarray(rows.T).astype("<u8").view(np.uint8),
                         axis=-1, bitorder="little")
    past = np.flatnonzero(bits[:, steps:].any(axis=0))
    return steps + int(past[0]) if past.size else None


def _raw_wave(cls, words, steps):
    """A wave of ``cls`` over ``words`` as they are, which no constructor builds when dirty."""
    wave = object.__new__(cls)
    wave._words, wave._steps = words, steps
    return wave


def _past(what, step, steps):
    return f"^{re.escape(what)} sets step {step}, past the last step {steps - 1}$"


@st.composite
def gate_inputs(draw):
    """``(pair, kernel, arity, any_wave, inputs)``: otherwise valid input words of a
    kernel, in one layout, of which one may set some padding bits."""
    family = draw(st.sampled_from(sorted(KERNELS)))
    kernel, arity, any_wave = draw(st.sampled_from(KERNELS[family]))
    steps = draw(st.sampled_from(STEP_COUNTS))
    layout = draw(st.sampled_from(LAYOUTS))
    seed = draw(st.integers(0, 2**64 - 1))
    try:
        pair = nl.reference_pairs(family, seed, nl.GeneratorConfig(seed=seed, steps=steps))
    except nl.GenerationError:
        # At two steps a spike pair can exhaust its attempts (seed 5433 does).
        reject()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, pad = words_for(steps), -steps % WORD_BITS
    h, l = pair._columns if layout else (pair.h.words, pair.l.words)
    inputs = []
    for _ in range(arity):
        if any_wave:   # random words, their padding cleared as a wave's is
            x = rng.integers(0, 2**64, layout[:-1] + (n,) + layout[-1:], dtype=np.uint64)
            _last(x)[...] &= ~np.uint64(0) >> np.uint64(pad)
        else:   # every row copies High or Low
            pick = rng.integers(0, 2, layout[:-1] + (1,) + layout[-1:] if layout else ())
            x = np.where(pick == 1, h, l)
        inputs.append(x)
    if pad and draw(st.booleans()):
        last = _last(inputs[draw(st.integers(0, arity - 1))])
        for _ in range(draw(st.integers(1, 3))):
            at = tuple(draw(st.integers(0, size - 1)) for size in last.shape)
            bit = draw(st.integers(WORD_BITS - pad, WORD_BITS - 1))
            last[at] |= np.uint64(1) << np.uint64(bit)
    return pair, kernel, arity, any_wave, inputs


class TestPaddingRule:
    @settings(max_examples=150, deadline=None)
    @given(gate_inputs())
    def test_each_check_raises_if_and_only_if_a_padding_bit_is_set(self, case):
        pair, kernel, arity, any_wave, inputs = case
        steps, carrier = pair.steps, type(pair.h)
        strays = [s for s in (_first_stray(_as_rows(x), steps) for x in inputs) if s is not None]
        # An exact kernel's copy check finds a row with padding to copy
        # neither reference; the multiplicative NOT checks the padding.
        error = nl.LengthMismatchError if any_wave else nl.InvalidLogicValueError
        if not strays:
            assert kernel(pair, *inputs).shape == inputs[0].shape
        elif any_wave:
            with pytest.raises(nl.LengthMismatchError, match=_past("input", min(strays), steps)):
                kernel(pair, *inputs)
        else:
            with pytest.raises(nl.InvalidLogicValueError):
                kernel(pair, *inputs)
        for x in inputs:
            rows = _as_rows(x)
            stray = _first_stray(rows, steps)
            if stray is None:
                nl.classify_rows(rows, pair)
            else:
                with pytest.raises(nl.LengthMismatchError,
                                   match=_past("classified rows", stray, steps)):
                    nl.classify_rows(rows, pair)
            for r in range(rows.shape[1]):
                words = rows[:, r].copy()
                stray = _first_stray(words[:, None], steps)
                wave = _raw_wave(carrier, words, steps)
                if stray is None:
                    assert carrier._of_words(words.copy(), steps) == wave
                    nl.on_waves(kernel, pair, *[wave] * arity)
                    continue
                with pytest.raises(nl.LengthMismatchError,
                                   match=_past(carrier.__name__, stray, steps)):
                    carrier._of_words(words.copy(), steps)
                with pytest.raises(error):
                    nl.on_waves(kernel, pair, *[wave] * arity)

    def test_a_word_past_a_two_step_window_is_refused(self):
        # The word 0b101 sets step 2 against a two-step pair.
        pair = nl.LogicReferencePair(nl.RtwSignal([1, -1]), nl.RtwSignal([-1, 1]))
        word = np.array([0b101], dtype=np.uint64)
        for call, what in ((lambda: nl.classify_rows(word[:, None], pair), "classified rows"),
                           (lambda: rtw_gates.not_multiplicative(pair, word), "input"),
                           (lambda: nl.RtwSignal._of_words(word.copy(), 2), "RtwSignal")):
            with pytest.raises(nl.LengthMismatchError, match=_past(what, 2, 2)):
                call()
        # With the padding clear, the same word passes every check.
        clean = np.array([0b01], dtype=np.uint64)
        assert nl.classify_rows(clean[:, None], pair)[0].tolist() == [1]
        assert rtw_gates.not_multiplicative(pair, clean).tolist() == [0b10]
        assert nl.RtwSignal._of_words(clean, 2) == pair.h
