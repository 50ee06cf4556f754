"""Step classes: a one-wave pair cut to one step per distinct ``(H_t, L_t)`` column.

``run`` and ``verify_equivalence`` walk the cut pair, which is exact only
because every gate kernel and spike circuit is a per-step function of its
inputs' bits and the pair's bits, and every check a per-step predicate or
an all-steps equality.  The properties here pin that lemma on each kernel,
result and exception alike, so a kernel that stops being per-step breaks a
test rather than the checker; pin ``StepClasses.read`` against ``classify``
of each word's full wave; and compare the cut walk end to end with the
full-wave references, ``serial_run`` and ``serial_report``.
"""

import random
from contextlib import nullcontext
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st

import noiselogic as nl
from noiselogic import rtw_gates, spike_gates
from noiselogic.signals import BitWave, LogicReferencePair, words_for
from noiselogic.waveio import format_waveform_csv

from conftest import gate_rows, random_netlist_source
from serial_reference import serial_run
from test_batched_verify import serial_report
from test_level_parallel_run import _non_copy_not
from test_simulator import corrupt_and_to_or

# A wave that is a function of the column (H_t, L_t) is a 4-bit truth
# table: bit 2 * H_t + L_t is its bit at step t.
COPY_H, COPY_L = 0b1100, 0b1010

STEPS = st.one_of(st.integers(1, 4), st.integers(1, 300))


def _pair(family: str, seed: int, steps: int) -> LogicReferencePair:
    if family == nl.SPIKE:
        # Room for two non-empty orthogonal trains.
        return nl.gen_orthogonal_spike_pair(nl.GeneratorConfig(seed=seed, steps=max(steps, 16)))
    return nl.gen_rtw_pair(nl.GeneratorConfig(seed=seed, steps=steps))


def _columns(pair: LogicReferencePair) -> np.ndarray:
    """``2 * H_t + L_t`` of every step of a one-wave pair."""
    return 2 * (pair.h.values > 0) + (pair.l.values > 0)


def _wave(pair: LogicReferencePair, table: int) -> BitWave:
    """The wave of ``pair``'s family whose step ``t`` is bit ``2 * H_t + L_t`` of ``table``."""
    bits = (table >> _columns(pair)) & 1
    return type(pair.h)(2 * bits - 1 if pair.family == nl.RTW else bits)


def _outcome(fn, *args):
    """The words of every wave ``fn`` returns, or the type and message of its error."""
    try:
        out = fn(*args)
    except (nl.NoiseLogicError, ValueError) as exc:
        return type(exc), str(exc)
    return [w.words for w in (out if isinstance(out, tuple) else (out,))]


class TestStepClasses:
    @settings(max_examples=100, deadline=None)
    @given(family=st.sampled_from([nl.RTW, nl.SPIKE]), seed=st.integers(0, 2**64 - 1),
           steps=STEPS)
    @example(family=nl.RTW, seed=1, steps=64)   # all four columns
    def test_one_step_per_column_in_column_order(self, family, seed, steps):
        pair = _pair(family, seed, steps)
        classes = pair.step_classes
        assert classes is pair.step_classes   # computed once
        assert classes.full is pair
        columns = _columns(pair)
        present = np.unique(columns)
        assert _columns(classes.pair).tolist() == present.tolist()
        if family == nl.SPIKE:
            assert present.max() < 3   # disjoint trains have no (1, 1) column
        elif len(present) == 4:
            assert [int(w.words[0]) for w in (classes.pair.h, classes.pair.l)] == [COPY_H, COPY_L]
        assert classes.expand.shape == (2 ** classes.pair.steps, words_for(pair.steps))
        # Row v is set at the full steps whose cut step v sets.
        cut_step = np.zeros(4, dtype=int)
        cut_step[present] = np.arange(len(present))
        for v in range(2 ** classes.pair.steps):
            bits = (v >> cut_step[columns]) & 1
            assert np.array_equal(classes.expand[v], nl.SpikeTrain(bits).words)
        for cut, full in ((classes.pair.h, pair.h), (classes.pair.l, pair.l)):
            assert np.array_equal(classes.expand[int(cut.words[0])], full.words)
        assert not classes.expand.flags.writeable

    def test_computed_on_the_packed_words(self):
        pair = _pair(nl.RTW, 5, 300)
        with mock.patch.object(BitWave, "values", property(lambda self: 1 / 0)):
            classes = pair.step_classes
        assert classes.pair.steps == 4

    def test_a_batch_of_pairs_is_rejected_at_construction(self):
        # So every pair has step classes: no batch of pairs can be built.
        h, l = nl.generators.reference_words(nl.RTW, np.arange(3, dtype=np.uint64),
                                             nl.GeneratorConfig(seed=1, steps=8))
        with pytest.raises(nl.LengthMismatchError, match=r"one wave each, got shape \(3, 8\)$"):
            nl.LogicReferencePair(nl.RtwSignal._of_words(h, 8), nl.RtwSignal._of_words(l, 8))


class TestRead:
    @settings(max_examples=200, deadline=None)
    @given(family=st.sampled_from([nl.RTW, nl.SPIKE]), seed=st.integers(0, 2**64 - 1),
           steps=st.integers(1, 300), data=st.data())
    def test_each_present_word_reads_as_its_full_wave(self, family, seed, steps, data):
        if family == nl.SPIKE:
            steps = max(steps, 2)   # room for two non-empty disjoint trains
        try:
            pair = nl.generators.reference_pairs(family, seed,
                                                 nl.GeneratorConfig(seed=seed, steps=steps))
        except nl.GenerationError:
            assume(False)
        classes = pair.step_classes
        size = 2 ** classes.pair.steps
        words = data.draw(hnp.arrays(
            st.sampled_from([np.uint64, np.int64, np.uint8]),
            hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
            elements=st.integers(0, size - 1)))
        table = classes.read(words)
        assert len(table) == size
        present = set(np.ravel(words).tolist())
        wrap = type(pair.h)._of_words
        for v, reading in enumerate(table):
            if v in present:
                assert reading == nl.classify(wrap(classes.expand[v], steps), pair)
            else:
                assert reading is None


# Each kernel and circuit, with whether it takes a pair and its input counts; each is
# called on waves.
KERNELS = {
    "not_additive": (rtw_gates, True, (1,)),
    "not_multiplicative": (rtw_gates, True, (1,)),
    "and_gate": (rtw_gates, True, (2,)),
    "spike_not": (spike_gates, True, (1,)),
    "spike_and": (spike_gates, True, (2,)),
    "neuron_eval": (spike_gates, False, (2,)),
    "orthon_eval": (spike_gates, False, (2,)),
    "adder_union": (spike_gates, False, (0, 1, 2, 3)),
}


TABLES = st.lists(st.one_of(st.sampled_from([COPY_H, COPY_L]), st.integers(0, 15)),
                  min_size=3, max_size=3)


class TestKernelsCommuteWithTheCut:
    @settings(max_examples=300, deadline=None)
    @given(kernel=st.sampled_from(sorted(KERNELS)), family=st.sampled_from([nl.RTW, nl.SPIKE]),
           seed=st.integers(0, 2**64 - 1), steps=STEPS, arity=st.integers(0, 3), tables=TABLES)
    # A non-copy into the multiplicative NOT.
    @example(kernel="not_multiplicative", family=nl.RTW, seed=3, steps=40, arity=0,
             tables=[0b0110] * 3)
    def test_result_and_error_commute(self, kernel, family, seed, steps, arity, tables):
        """Each input is mostly a copy of H or L, else any function of the column."""
        module, takes_pair, arities = KERNELS[kernel]
        if not takes_pair:
            family = nl.SPIKE   # the circuits combine spike trains
        pair = _pair(family, seed, steps)
        classes = pair.step_classes
        tables = tables[:arities[arity % len(arities)]]
        fn = partial(nl.on_waves, getattr(module, kernel))
        full = [pair] * takes_pair + [_wave(pair, t) for t in tables]
        cut = [classes.pair] * takes_pair + [_wave(classes.pair, t) for t in tables]
        want, got = _outcome(fn, *full), _outcome(fn, *cut)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert len(got) == len(want)
            assert all(np.array_equal(classes.expand[int(g[0])], w) for g, w in zip(got, want))


def _verify(verify, *args, **kwargs):
    """The report document of ``verify(*args, **kwargs)``, or the type of its error."""
    try:
        return verify(*args, **kwargs).to_doc()
    except nl.NoiseLogicError as exc:
        return type(exc)


def _run(run, network, backend, assignment, config):
    """Readings, ambiguous wires, waves and ``--waves`` CSV text of ``run``, or the type of its error.

    ``serial_run`` keeps no list of ambiguous wires: they are the wires that read Ambiguous.
    """
    try:
        result = run(network, backend, assignment, config)
    except nl.NoiseLogicError as exc:
        return type(exc)
    waves = dict(result.waveforms)
    ambiguous = (result.ambiguous_wires if run is nl.run else
                 [name for name, c in result.classifications.items() if c.is_ambiguous])
    return (dict(result.classifications), ambiguous,
            {name: w.words.tolist() for name, w in waves.items()},
            format_waveform_csv(waves))


def _both(ast, network, backend, assignment, config):
    """``(verify, run)`` outcomes of the cut walk and of the full-wave references."""
    cut = (_verify(nl.verify_equivalence, ast, backend, config, network=network),
           _run(nl.run, network, backend, assignment, config))
    full = (_verify(serial_report, ast, backend, config, network=network),
            _run(serial_run, network, backend, assignment, config))
    return cut, full


class TestCutWalkEqualsFullWalk:
    @settings(max_examples=60, deadline=None)
    @given(netlist_seed=st.integers(0, 2**32 - 1), backend=st.sampled_from(nl.BACKENDS),
           steps=STEPS, seed=st.integers(0, 2**64 - 1), bits=st.integers(0, 255),
           corrupt=st.booleans(), non_copy_not=st.booleans())
    def test_reports_readings_and_waves(self, netlist_seed, backend, steps, seed, bits, corrupt,
                                        non_copy_not):
        if backend == "spike":
            steps = max(steps, 16)   # room for two non-empty orthogonal trains
        ast = nl.parse(random_netlist_source(random.Random(netlist_seed)))
        network = nl.lower(ast)
        if corrupt and any(g.op == "AND" for g in gate_rows(network)):
            network = corrupt_and_to_or(network)
        assignment = {name: bits >> k & 1 for k, name in enumerate(network.inputs)}
        config = nl.GeneratorConfig(seed=seed, steps=steps)
        # A NOT that emits x * H: its wires vote but deviate, or fail an AND's check.
        patch = (mock.patch.object(rtw_gates, "not_multiplicative", _non_copy_not)
                 if non_copy_not else nullcontext())
        with patch:
            cut, full = _both(ast, network, backend, assignment, config)
        assert cut == full

    @pytest.mark.parametrize("backend", ["rtw-additive-not", "rtw-multiplicative-not"])
    @pytest.mark.parametrize("steps", [1, 3])
    def test_references_that_never_differ(self, full_adder_ast, backend, steps):
        seed = next(s for s in range(1000)
                    if _pair(nl.RTW, s, steps).h == _pair(nl.RTW, s, steps).l)
        config = nl.GeneratorConfig(seed=seed, steps=steps)
        network = nl.lower(full_adder_ast)
        cut, full = _both(full_adder_ast, network, backend, {"a": 1, "b": 0, "cin": 1}, config)
        assert cut == full
        report, (readings, ambiguous, _, _) = cut
        assert len(report["ambiguous"]) == 8 * len(network.outputs)
        assert ambiguous == list(network.wires)

    @pytest.mark.parametrize("backend", nl.BACKENDS)
    def test_steps_map_back_to_the_full_pair(self, backend):
        # A pair whose references first differ past the cut's last step, at
        # step 4 or later, and a NOT whose output votes but deviates.
        family = nl.simulator.backend_family(backend)
        seed = next(s for s in range(1000)
                    if nl.classify(_pair(family, s, 300).h, _pair(family, s, 300)).decided_at >= 4)
        ast = nl.parse("input a b\noutput y = NOT a\noutput z = AND a b\n")
        config = nl.GeneratorConfig(seed=seed, steps=300)
        with mock.patch.object(rtw_gates, "not_multiplicative", _non_copy_not):
            cut, full = _both(ast, nl.lower(ast), backend, {"a": 1, "b": 1}, config)
        assert cut == full
        readings = cut[1][0]
        assert readings["z"].decided_at >= 4
        if backend == "rtw-multiplicative-not":
            assert "deviates" in readings["y"].detail
            assert all("deviates" in entry["detail"] for entry in cut[0]["ambiguous"])
