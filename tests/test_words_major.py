"""Words-major batches: a batch's words, kernels and readings are those of its rows.

A batch of waves stores ``(words, rows)`` words and a gathered group
``(groups, words, rows)``; one wave stores ``(words,)``.  These properties
check, over both carriers, that column ``i`` of a batch is row ``i`` in
every respect the engine relies on, against one pair (broadcast as a
``(words, 1)`` column) and against one pair per row, and that the spike
circuits combine single waves, batches and columns row by row or reject
the mix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noiselogic as nl
from noiselogic import rtw_gates, spike_gates
from noiselogic.generators import reference_pairs
from noiselogic.prng import derive_seeds
from noiselogic.signals import words_for

CARRIER = {nl.RTW: nl.RtwSignal, nl.SPIKE: nl.SpikeTrain}
KERNELS = {
    nl.RTW: ((rtw_gates.not_additive, 1), (rtw_gates.not_multiplicative, 1),
             (rtw_gates.and_gate, 2)),
    nl.SPIKE: ((spike_gates.spike_not, 1), (spike_gates.spike_and, 2)),
}
# Within one word, on a word boundary and past it; a spike pair needs a
# few steps for two non-empty disjoint trains, so 1 becomes 5 there.
STEP_COUNTS = (1, 5, 63, 64, 65, 127, 128, 129, 200)


def _outcome(kernel, pair, *inputs):
    """The output words, or the type of the error raised."""
    try:
        return kernel(pair, *inputs).words
    except nl.NoiseLogicError as exc:
        return type(exc)


@st.composite
def batches(draw, families=(nl.RTW, nl.SPIKE)):
    """(family, pair, row pairs, x1, x2): input values of copies, maybe one flipped step."""
    family = draw(st.sampled_from(families))
    steps = draw(st.sampled_from(STEP_COUNTS))
    if family == nl.SPIKE:
        steps = max(steps, 5)
    rows = draw(st.integers(1, 300))
    groups = draw(st.sampled_from([(), (2,), (3,)]))
    seed = draw(st.integers(0, 2**64 - 1))
    config = nl.GeneratorConfig(seed=seed, steps=steps)
    seeds = derive_seeds(seed, rows)
    if draw(st.booleans()):   # one pair per row
        pair = reference_pairs(family, seeds, config)
        row_pairs = [reference_pairs(family, s, config) for s in seeds]
    else:
        pair = reference_pairs(family, seed, config)
        row_pairs = [pair] * rows
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h, l = pair.h.values, pair.l.values
    x1, x2 = (np.where(rng.integers(0, 2, groups + (rows, 1)) == 1, h, l).astype(np.int64)
              for _ in range(2))
    if draw(st.booleans()):
        flat = x1.reshape(-1, steps)
        flat[rng.integers(len(flat)), rng.integers(steps)] ^= -2 if family == nl.RTW else 1
    return family, pair, row_pairs, x1, x2


def _rows(values):
    """The index of every wave of a (rows, steps) or (groups, rows, steps) array."""
    return list(np.ndindex(values.shape[:-1]))


CASES = settings(max_examples=40, deadline=None)


class TestWordsMajorBatches:
    @CASES
    @given(batches())
    def test_column_i_is_row_i_and_values_round_trip(self, case):
        family, _, _, x1, _ = case
        carrier = CARRIER[family]
        steps, rows = x1.shape[-1], x1.shape[-2]
        batch = carrier(x1)
        assert batch.words.shape == x1.shape[:-2] + (words_for(steps), rows)
        assert batch.shape == x1.shape and len(batch) == steps
        assert np.array_equal(batch.values, x1) and batch.values.dtype == np.int8
        assert carrier._of_words(batch.words, steps) == batch
        for index in _rows(x1):
            *group, i = index
            assert np.array_equal(batch.words[tuple(group)][:, i], carrier(x1[index]).words)

    @CASES
    @given(batches())
    def test_kernels_on_a_batch_equal_their_rows(self, case):
        family, pair, row_pairs, x1, x2 = case
        carrier = CARRIER[family]
        a, b = carrier(x1), carrier(x2)
        for kernel, arity in KERNELS[family]:
            got = _outcome(kernel, pair, *(a, b)[:arity])
            per_row = {index: _outcome(kernel, row_pairs[index[-1]],
                                       *(carrier(x1[index]), carrier(x2[index]))[:arity])
                       for index in _rows(x1)}
            errors = [out for out in per_row.values() if isinstance(out, type)]
            if errors:
                assert got is errors[0]
                continue
            assert not isinstance(got, type)
            for (*group, i), want in per_row.items():
                assert np.array_equal(got[tuple(group)][:, i], want)

    @CASES
    @given(batches())
    def test_classify_rows_on_a_batch_equals_its_rows(self, case):
        family, pair, row_pairs, x1, _ = case
        carrier = CARRIER[family]
        batch = carrier(x1)
        # A gathered group reads group by group, each a (words, rows) batch.
        for group in np.ndindex(x1.shape[:-2]):
            words = batch.words[group]
            bits, steps, details = nl.classify_rows(carrier._of_words(words, len(batch)), pair)
            for i, row_pair in enumerate(row_pairs):
                (bit,), (step,), detail = nl.classify_rows(carrier(x1[group + (i,)]), row_pair)
                assert (bits[i], steps[i], details.get(i)) == (bit, step, detail.get(0))

    @CASES
    @given(batches())
    def test_reference_pairs_column_i_is_the_pair_of_seed_i(self, case):
        _, pair, row_pairs, _, _ = case
        if pair.h.words.ndim == 1:
            return   # one pair serves every row
        for i, row_pair in enumerate(row_pairs):
            assert np.array_equal(pair.h.words[:, i], row_pair.h.words)
            assert np.array_equal(pair.l.words[:, i], row_pair.l.words)
            assert row_pair.h.values.tolist() == pair.h.values[i].tolist()


CIRCUITS = ((spike_gates.neuron_eval, 2), (spike_gates.orthon_eval, 2),
            (spike_gates.adder_union, 1), (spike_gates.adder_union, 2),
            (spike_gates.adder_union, 3))


def _circuit_outputs(circuit, values):
    """The values of every output of ``circuit`` on trains of ``values``, or LengthMismatchError."""
    try:
        out = circuit(*(nl.SpikeTrain(v) for v in values))
    except nl.LengthMismatchError:
        return nl.LengthMismatchError
    return [w.values for w in (out if isinstance(out, tuple) else (out,))]


def _circuit_per_row(circuit, values):
    """What ``circuit`` must give on ``values``: each output row from the rows of its operands.

    Operands combine as their logical ``(..., rows, steps)`` values
    broadcast, except that one wave does not combine with a batch.
    """
    if len({v.ndim == 1 for v in values}) > 1:
        return nl.LengthMismatchError
    try:
        shape = np.broadcast_shapes(*(v.shape[:-1] for v in values))
    except ValueError:
        return nl.LengthMismatchError
    steps = values[0].shape[-1:]
    spread = [np.broadcast_to(v, shape + steps) for v in values]
    per_row = [_circuit_outputs(circuit, [v[index] for v in spread])
               for index in np.ndindex(shape)]
    return [np.stack([outputs[k] for outputs in per_row]).reshape(shape + steps)
            for k in range(len(per_row[0]))]


class TestSpikeCircuitsOnBatches:
    """The neuron, orthon and adder equal their rows on operands that combine, else reject them."""

    @CASES
    @given(batches(families=(nl.SPIKE,)), st.data())
    def test_circuits_equal_their_rows_or_reject_the_mix(self, case, data):
        _, pair, _, x1, x2 = case
        steps, rows = x1.shape[-1], x1.shape[-2]
        first = x1.reshape(-1, steps)[0]
        pool = {"batch": x1, "other batch": x2, "High": pair.h.values, "Low": pair.l.values,
                "column": first[None], "wave": first}
        if rows >= 3:
            pool["fewer rows"] = x1[..., 1:, :]
        for circuit, arity in CIRCUITS:
            names = data.draw(st.lists(st.sampled_from(sorted(pool)), min_size=arity,
                                       max_size=arity))
            values = [pool[name] for name in names]
            got, want = _circuit_outputs(circuit, values), _circuit_per_row(circuit, values)
            if want is nl.LengthMismatchError:
                assert got is nl.LengthMismatchError, (circuit.__name__, names)
                continue
            assert got is not nl.LengthMismatchError, (circuit.__name__, names)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), (circuit.__name__, names)


class TestShapesThatCannotBroadcast:
    """Words-major, one wave's (words,) meets a batch's (words, rows) on the wrong axis.

    With as many rows as words the arrays would broadcast silently, so the
    kernels reject such a mix instead of reading rows as words.
    """

    @pytest.mark.parametrize("family", [nl.RTW, nl.SPIKE])
    def test_and_of_one_wave_and_a_batch_is_rejected(self, family):
        config = nl.GeneratorConfig(seed=3, steps=128)   # two words
        pair = reference_pairs(family, config.seed, config)
        carrier = CARRIER[family]
        batch = carrier(np.stack([pair.h.values, pair.l.values]))   # two rows
        kernel = KERNELS[family][-1][0]
        with pytest.raises(nl.LengthMismatchError, match="AND: shapes differ"):
            kernel(pair, pair.h, batch)

    @pytest.mark.parametrize("family", [nl.RTW, nl.SPIKE])
    def test_one_wave_against_a_batch_of_pairs_is_rejected(self, family):
        config = nl.GeneratorConfig(seed=3, steps=128)
        pairs = reference_pairs(family, derive_seeds(config.seed, 2), config)
        one = CARRIER[family](pairs.h.values[0])
        for kernel, _ in KERNELS[family][:-1]:
            with pytest.raises(nl.LengthMismatchError, match="a row per pair"):
                kernel(pairs, one)

    def test_circuits_reject_one_wave_against_a_batch(self):
        config = nl.GeneratorConfig(seed=3, steps=256)   # four words
        pair = reference_pairs(nl.SPIKE, config.seed, config)
        for rows in (3, 4):   # four rows would broadcast silently
            batch = nl.SpikeTrain(np.stack([pair.h.values] * rows))
            for circuit in (spike_gates.neuron_eval, spike_gates.orthon_eval,
                            spike_gates.adder_union):
                with pytest.raises(nl.LengthMismatchError, match="do not combine row by row"):
                    circuit(pair.l, batch)
                with pytest.raises(nl.LengthMismatchError, match="do not combine row by row"):
                    circuit(batch, pair.l)
