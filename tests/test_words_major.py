"""Words-major batches: a batch's words, kernels and readings are those of its rows.

A batch lives only as words: ``(words, rows)``, and a gathered group
``(groups, words, rows)``; one wave stores ``(words,)``, and so does each
wave of a reference pair.  These properties check, over both carriers,
that column ``i`` of a batch is row ``i`` in every respect the engine
relies on, against one pair broadcast as a ``(words, 1)`` column (drawn as
one pair, or built from a column of ``reference_words`` planes, as
``decision_latency`` builds its pairs), that column ``i`` of those planes
is the pair of seed ``i``, and that the spike circuits combine batches and
columns row by row or reject the mix.
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

from conftest import packed

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
    """The output words of ``kernel`` on waves or words, or the type of the error raised."""
    try:
        if isinstance(inputs[0], np.ndarray):
            return kernel(pair, *inputs)
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
        batch = packed(x1)
        assert batch.shape == x1.shape[:-2] + (words_for(steps), rows)
        for index in _rows(x1):
            *group, i = index
            row = carrier._of_words(batch[tuple(group)][:, i].copy(), steps)
            assert row == carrier(x1[index]) and len(row) == steps
            assert np.array_equal(row.values, x1[index]) and row.values.dtype == np.int8

    @CASES
    @given(batches())
    def test_kernels_on_a_batch_equal_their_rows(self, case):
        family, pair, x1, x2 = case
        carrier = CARRIER[family]
        a, b = packed(x1), packed(x2)
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
        batch = packed(x1)
        # A gathered group reads group by group, each a (words, rows) batch.
        for group in np.ndindex(x1.shape[:-2]):
            bits, steps, details = nl.classify_rows(batch[group], pair)
            for i in range(x1.shape[-2]):
                row = nl.classify(carrier(x1[group + (i,)]), pair)
                bit, step = (-1, -1) if row.is_ambiguous else (row.verdict.to_bit(), row.decided_at)
                assert (bits[i], steps[i], details.get(i)) == (bit, step, row.detail or None)

    @CASES
    @given(family=st.sampled_from([nl.RTW, nl.SPIKE]), steps=st.sampled_from(STEP_COUNTS[1:]),
           rows=st.integers(1, 300), seed=st.integers(0, 2**64 - 1))
    def test_reference_words_column_i_is_the_pair_of_seed_i(self, family, steps, rows, seed):
        config = nl.GeneratorConfig(seed=seed, steps=steps)
        seeds = derive_seeds(seed, rows)
        planes = reference_words(family, seeds, config)
        for i, s in enumerate(seeds):
            row_pair = reference_pairs(family, s, config)
            assert np.array_equal(planes[0, :, i], row_pair.h.words)
            assert np.array_equal(planes[1, :, i], row_pair.l.words)


CIRCUITS = ((spike_gates.neuron_eval, 2), (spike_gates.orthon_eval, 2),
            (spike_gates.adder_union, 1), (spike_gates.adder_union, 2),
            (spike_gates.adder_union, 3))


def _circuit_outputs(circuit, values):
    """The values of every output of ``circuit`` on one train per row of ``values``."""
    out = nl.on_waves(circuit, *(nl.SpikeTrain(v) for v in values))
    return [w.values for w in (out if isinstance(out, tuple) else (out,))]


def _circuit_per_row(circuit, values):
    """What ``circuit`` must give on ``values``: each output row from the rows of its operands.

    Operands combine as their logical ``(..., rows, steps)`` values
    broadcast; ValueError if they do not.
    """
    try:
        shape = np.broadcast_shapes(*(v.shape[:-1] for v in values))
    except ValueError:
        return ValueError
    steps = values[0].shape[-1:]
    spread = [np.broadcast_to(v, shape + steps) for v in values]
    per_row = [_circuit_outputs(circuit, [v[index] for v in spread])
               for index in np.ndindex(shape)]
    return [np.stack([outputs[k] for outputs in per_row]).reshape(shape + steps)
            for k in range(len(per_row[0]))]


class TestSpikeCircuitsOnBatches:
    """The neuron, orthon and adder on words equal their rows where the operands combine.

    Batches and ``(words, 1)`` columns combine as NumPy broadcasts them;
    batches of other row counts do not, and NumPy rejects the mix.
    """

    @CASES
    @given(batches(families=(nl.SPIKE,)), st.data())
    def test_circuits_equal_their_rows_or_reject_the_mix(self, case, data):
        _, pair, x1, x2 = case
        steps, rows = x1.shape[-1], x1.shape[-2]
        first = x1.reshape(-1, steps)[0]
        pool = {"batch": x1, "other batch": x2, "High": pair.h.values[None],
                "Low": pair.l.values[None], "column": first[None]}
        if rows >= 3:
            pool["fewer rows"] = x1[..., 1:, :]
        for circuit, arity in CIRCUITS:
            names = data.draw(st.lists(st.sampled_from(sorted(pool)), min_size=arity,
                                       max_size=arity))
            values = [pool[name] for name in names]
            want = _circuit_per_row(circuit, values)
            if want is ValueError:
                with pytest.raises(ValueError):
                    circuit(*(packed(v) for v in values))
                continue
            got = circuit(*(packed(v) for v in values))
            got = got if isinstance(got, tuple) else (got,)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(g, packed(w)), (circuit.__name__, names)


class TestShapesThatCannotBroadcast:
    """Words-major, one wave's (words,) meets a batch's (words, rows) on the wrong axis.

    With as many rows as words the arrays would broadcast silently, so the
    kernels reject such a mix instead of reading rows as words, and no wave,
    so no pair, holds a batch.
    """

    @pytest.mark.parametrize("family", [nl.RTW, nl.SPIKE])
    def test_and_of_one_wave_and_a_batch_is_rejected(self, family):
        config = nl.GeneratorConfig(seed=3, steps=128)   # two words
        pair = reference_pairs(family, config.seed, config)
        batch = packed(np.stack([pair.h.values, pair.l.values]))   # two rows
        kernel = KERNELS[family][-1][0]
        with pytest.raises(nl.LengthMismatchError,
                           match=r"^AND: shapes differ \(\(128,\) vs \(2, 128\)\)$"):
            kernel(pair, pair.h.words, batch)

    @pytest.mark.parametrize("family", [nl.RTW, nl.SPIKE])
    def test_a_batch_pair_is_rejected_at_construction(self, family):
        # Two rows of two words would meet one wave's two words silently; no
        # wave of a pair can hold them.
        config = nl.GeneratorConfig(seed=3, steps=128)
        for plane in reference_words(family, derive_seeds(config.seed, 2), config):
            with pytest.raises(nl.LengthMismatchError, match=r"has words of shape \(2, 2\), "
                                                             r"expected \(words,\) with 2 words$"):
                CARRIER[family]._of_words(plane, config.steps)

    def test_a_batch_train_cannot_be_built(self):
        # So on_waves never meets one train against a batch of trains.
        config = nl.GeneratorConfig(seed=3, steps=256)   # four words
        pair = reference_pairs(nl.SPIKE, config.seed, config)
        for rows in (3, 4):   # four rows would broadcast silently
            with pytest.raises(ValueError, match="exactly one axis"):
                nl.SpikeTrain(np.stack([pair.h.values] * rows))
