"""Words-major batches: a batch's words, kernels and readings are those of its rows.

A batch of waves stores ``(words, rows)`` words and a gathered group
``(groups, words, rows)``; one wave stores ``(words,)``, and so does each
wave of a reference pair.  These properties check, over both carriers,
that column ``i`` of a batch is row ``i`` in every respect the engine
relies on, against one pair broadcast as a ``(words, 1)`` column (drawn as
one pair, or built from a column of ``reference_words`` planes, as
``decision_latency`` builds its pairs), that column ``i`` of those planes
is the pair of seed ``i``, and that the spike circuits combine single
waves, batches and columns row by row or reject the mix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noiselogic as nl
from noiselogic import rtw_gates, spike_gates
from noiselogic.generators import reference_pairs, reference_words
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
    """The output words of ``kernel`` on waves, or the type of the error raised."""
    try:
        return nl.on_waves(kernel, pair, *inputs).words
    except nl.NoiseLogicError as exc:
        return type(exc)


@st.composite
def batches(draw, families=(nl.RTW, nl.SPIKE)):
    """(family, pair, x1, x2): input values of copies, maybe one flipped step."""
    family = draw(st.sampled_from(families))
    steps = draw(st.sampled_from(STEP_COUNTS))
    if family == nl.SPIKE:
        steps = max(steps, 5)
    rows = draw(st.integers(1, 300))
    groups = draw(st.sampled_from([(), (2,), (3,)]))
    seed = draw(st.integers(0, 2**64 - 1))
    config = nl.GeneratorConfig(seed=seed, steps=steps)
    if draw(st.booleans()):   # column j of a batch of planes, strided in memory
        planes = reference_words(family, derive_seeds(seed, rows), config)
        j = draw(st.integers(0, rows - 1))
        pair = nl.LogicReferencePair(*(CARRIER[family]._of_words(p[:, j], steps) for p in planes))
    else:
        pair = reference_pairs(family, seed, config)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h, l = pair.h.values, pair.l.values
    x1, x2 = (np.where(rng.integers(0, 2, groups + (rows, 1)) == 1, h, l).astype(np.int64)
              for _ in range(2))
    if draw(st.booleans()):
        flat = x1.reshape(-1, steps)
        flat[rng.integers(len(flat)), rng.integers(steps)] ^= -2 if family == nl.RTW else 1
    return family, pair, x1, x2


def _rows(values):
    """The index of every wave of a (rows, steps) or (groups, rows, steps) array."""
    return list(np.ndindex(values.shape[:-1]))


CASES = settings(max_examples=40, deadline=None)


class TestWordsMajorBatches:
    @CASES
    @given(batches())
    def test_column_i_is_row_i_and_values_round_trip(self, case):
        family, _, x1, _ = case
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
        family, pair, x1, x2 = case
        carrier = CARRIER[family]
        a, b = carrier(x1), carrier(x2)
        for kernel, arity in KERNELS[family]:
            got = _outcome(kernel, pair, *(a, b)[:arity])
            per_row = {index: _outcome(kernel, pair,
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
        family, pair, x1, _ = case
        carrier = CARRIER[family]
        batch = carrier(x1)
        # A gathered group reads group by group, each a (words, rows) batch.
        for group in np.ndindex(x1.shape[:-2]):
            words = batch.words[group]
            bits, steps, details = nl.classify_rows(carrier._of_words(words, len(batch)), pair)
            for i in range(x1.shape[-2]):
                (bit,), (step,), detail = nl.classify_rows(carrier(x1[group + (i,)]), pair)
                assert (bits[i], steps[i], details.get(i)) == (bit, step, detail.get(0))

    @CASES
    @given(family=st.sampled_from([nl.RTW, nl.SPIKE]), steps=st.sampled_from(STEP_COUNTS[1:]),
           rows=st.integers(1, 300), seed=st.integers(0, 2**64 - 1))
    def test_reference_words_column_i_is_the_pair_of_seed_i(self, family, steps, rows, seed):
        config = nl.GeneratorConfig(seed=seed, steps=steps)
        seeds = derive_seeds(seed, rows)
        planes = reference_words(family, seeds, config)
        batch = CARRIER[family]._of_words(planes[0], steps)
        for i, s in enumerate(seeds):
            row_pair = reference_pairs(family, s, config)
            assert np.array_equal(planes[0, :, i], row_pair.h.words)
            assert np.array_equal(planes[1, :, i], row_pair.l.words)
            assert row_pair.h.values.tolist() == batch.values[i].tolist()


CIRCUITS = ((spike_gates.neuron_eval, 2), (spike_gates.orthon_eval, 2),
            (spike_gates.adder_union, 1), (spike_gates.adder_union, 2),
            (spike_gates.adder_union, 3))


def _circuit_outputs(circuit, values):
    """The values of every output of ``circuit`` on trains of ``values``, or LengthMismatchError."""
    try:
        out = nl.on_waves(circuit, *(nl.SpikeTrain(v) for v in values))
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
        _, pair, x1, x2 = case
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
        with pytest.raises(nl.LengthMismatchError,
                           match=r"^AND: shapes differ \(\(128,\) vs \(2, 128\)\)$"):
            nl.on_waves(kernel, pair, pair.h, batch)

    @pytest.mark.parametrize("family", [nl.RTW, nl.SPIKE])
    def test_a_batch_pair_is_rejected_at_construction(self, family):
        # Two rows of two words would meet one wave's two words silently.
        config = nl.GeneratorConfig(seed=3, steps=128)
        carrier = CARRIER[family]
        h, l = (carrier._of_words(p, config.steps)
                for p in reference_words(family, derive_seeds(config.seed, 2), config))
        with pytest.raises(nl.LengthMismatchError, match=r"one wave each, got shape \(2, 128\)$"):
            nl.LogicReferencePair(h, l)

    def test_circuits_reject_one_wave_against_a_batch(self):
        config = nl.GeneratorConfig(seed=3, steps=256)   # four words
        pair = reference_pairs(nl.SPIKE, config.seed, config)
        for rows in (3, 4):   # four rows would broadcast silently
            batch = nl.SpikeTrain(np.stack([pair.h.values] * rows))
            for circuit in (spike_gates.neuron_eval, spike_gates.orthon_eval,
                            spike_gates.adder_union):
                with pytest.raises(nl.LengthMismatchError, match="do not combine row by row"):
                    nl.on_waves(circuit, pair.l, batch)
                with pytest.raises(nl.LengthMismatchError, match="do not combine row by row"):
                    nl.on_waves(circuit, batch, pair.l)
