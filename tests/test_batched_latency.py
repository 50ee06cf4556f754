"""Trial-parallel Monte-Carlo: ``decision_latency`` and the ambiguity sweep.

``decision_latency`` draws a chunk of trials as one batch of reference
planes and walks each distinct set of ``(H_t, L_t)`` columns among them
once, on the step classes of one pair that has it.  The reference here is
a per-trial loop on full waves: one ``make_backend`` per derived seed, the
one-wave ``serial_wires`` and ``classify_wire``.  The two must give equal
reports, ambiguous windows and generation failures included.
"""

import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noiselogic as nl
from noiselogic import generators, rtw_gates, simulator, spike_gates
from noiselogic.generators import count_identical_rtw_pairs, reference_words
from noiselogic.prng import derive_seed, derive_seeds

from conftest import FULL_ADDER, level_groups, random_netlist_source
from serial_reference import classify_wire, serial_wires


def serial_latency(network, config, trials, backend, assignment=None):
    """One trial at a time, as decision_latency did before chunking."""
    if assignment is None:
        assignment = {name: 1 for name in network.inputs}
    histogram, ambiguous, total = {}, 0, 0
    for trial in range(trials):
        bk = simulator.make_backend(backend, replace(config, seed=derive_seed(config.seed, trial)))
        waves = serial_wires(network, bk, assignment)
        decided = None
        for name in network.outputs:
            outcome = classify_wire(bk, waves[network.wire_index(name)])
            if outcome.is_ambiguous:
                decided = None
                break
            if decided is None:
                decided = outcome.decided_at
            assert decided == outcome.decided_at
        if decided is None:
            ambiguous += 1
            continue
        histogram[decided] = histogram.get(decided, 0) + 1
        total += decided
    spike = simulator.backend_family(backend) == nl.SPIKE
    return nl.LatencyReport(
        backend=backend, trials=trials, steps=config.steps, histogram=histogram,
        ambiguous_windows=ambiguous,
        mean_decided_at=total / (trials - ambiguous) if trials > ambiguous else float("nan"),
        decision_rate=config.spike_rate_h + config.spike_rate_l if spike else 0.5,
    )


def identical_rtw_pairs(seed, trials, steps, start=0):
    """Trials whose drawn RTW High and Low are equal, over the whole planes of their pairs."""
    h, l = reference_words(nl.RTW, derive_seeds(seed, trials, start),
                           nl.GeneratorConfig(seed=seed, steps=steps))
    return int((h == l).all(axis=0).sum())


def chunked_latency(network, config, trials, backend, assignment, rows):
    """decision_latency with chunks of exactly ``rows`` trials."""
    with mock.patch.object(simulator, "_chunk_rows", lambda steps, waves: rows):
        return nl.decision_latency(network, config, trials, backend, assignment)


def outcome(fn, *args):
    """The report document as text (NaN means equal NaN), or the error raised."""
    try:
        return repr(fn(*args).to_doc())
    except nl.GenerationError as exc:
        return ("GenerationError", str(exc))


class TestLatencyBatchedEqualsSerial:
    @settings(max_examples=60, deadline=None)
    @given(
        netlist_seed=st.integers(0, 2**32 - 1),
        backend=st.sampled_from(nl.BACKENDS),
        # RTW windows of a few steps are often ambiguous; spike trains of a
        # few steps at low rates often need retries, or run out of them.
        steps=st.integers(1, 8),
        rate=st.sampled_from([0.05, 0.1, 0.25, 0.45]),
        rows=st.one_of(st.none(), st.sampled_from([1, 3, 7])),
        trials=st.integers(1, 25),
        assignment_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_random_netlists(self, netlist_seed, backend, steps, rate, rows, trials,
                             assignment_seed, seed):
        network = nl.lower(nl.parse(random_netlist_source(random.Random(netlist_seed),
                                                          max_inputs=5, max_gates=8)))
        assignment = None if assignment_seed is None else {
            name: random.Random(assignment_seed).randint(0, 1) for name in network.inputs}
        config = nl.GeneratorConfig(seed=seed, steps=steps, spike_rate_h=rate, spike_rate_l=rate)
        if rows is None:
            got = outcome(nl.decision_latency, network, config, trials, backend, assignment)
        else:
            got = outcome(chunked_latency, network, config, trials, backend, assignment, rows)
        assert got == outcome(serial_latency, network, config, trials, backend, assignment)

    @pytest.mark.parametrize("backend", nl.BACKENDS)
    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_full_adder_with_ambiguous_windows_and_retries(self, full_adder_network,
                                                           backend, rows):
        config = nl.GeneratorConfig(seed=21, steps=3, spike_rate_h=0.2, spike_rate_l=0.2)
        got = chunked_latency(full_adder_network, config, 40, backend, None, rows)
        want = serial_latency(full_adder_network, config, 40, backend)
        if backend != "spike":
            assert want.ambiguous_windows
        assert repr(got.to_doc()) == repr(want.to_doc())

    @pytest.mark.parametrize("backend", nl.BACKENDS)
    def test_outputs_that_are_no_reference_copy(self, backend):
        # With this NOT, y2 is a copy of neither reference.  Both families
        # read it as ambiguous, which makes the window ambiguous although
        # y1 decided first.
        def off_reference_not(pair, x):
            if pair.family == nl.SPIKE:
                return pair.h.words | pair.l.words
            return nl.RtwSignal(-pair.h.values).words

        network = nl.lower(nl.parse("input a b\noutput y1 = AND a b\noutput y2 = NOT a\n"))
        config = nl.GeneratorConfig(seed=8, steps=16)
        module = spike_gates if backend == "spike" else rtw_gates
        with mock.patch.object(module, simulator._BACKEND_TABLE[backend][1], off_reference_not):
            got = chunked_latency(network, config, 10, backend, None, 3)
            want = serial_latency(network, config, 10, backend)
        assert want.ambiguous_windows == 10
        assert repr(got.to_doc()) == repr(want.to_doc())

    def test_one_step_spike_trains_cannot_be_drawn(self, full_adder_network):
        # At one step the two disjoint trains can never both be non-empty.
        config = nl.GeneratorConfig(seed=3, steps=1)
        with pytest.raises(nl.GenerationError):
            nl.decision_latency(full_adder_network, config, 5, "spike")

    @pytest.mark.parametrize("backend, steps", [("spike", 16), ("rtw-additive-not", 3)])
    def test_one_kernel_call_per_level_group_per_column_set_per_chunk(self, backend, steps):
        network = nl.lower(nl.parse(FULL_ADDER))
        and_groups = sum(gates[0].op == "AND" for gates in level_groups(network))
        assert and_groups < network.gate_counts()["AND"]
        config = nl.GeneratorConfig(seed=2, steps=steps)
        family = simulator.backend_family(backend)
        # The distinct sets of (H_t, L_t) columns of each chunk of 4 trials, from the values.
        carrier = nl.SpikeTrain if family == nl.SPIKE else nl.RtwSignal
        sets = 0
        for lo in range(0, 10, 4):
            h, l = (carrier._of_words(p, steps).values.tolist() for p in reference_words(
                family, derive_seeds(config.seed, min(4, 10 - lo), lo), config))
            sets += len({frozenset(zip(hr, lr)) for hr, lr in zip(h, l)})
        module = spike_gates if family == nl.SPIKE else rtw_gates
        name = simulator._BACKEND_TABLE[backend][2]
        with mock.patch.object(module, name, wraps=getattr(module, name)) as and_kernel:
            chunked_latency(network, config, 10, backend, None, 4)
        assert and_kernel.call_count == sets * and_groups
        if family == nl.RTW:
            assert sets > 3   # some chunk holds more than one set


def _latency_of_one_drawn_row(h, l):
    """Spike decision_latency of the full adder over one trial, whose drawn pair is (h, l)."""
    planes = np.stack([nl.SpikeTrain(h).words, nl.SpikeTrain(l).words])[..., None]
    with mock.patch.object(generators, "reference_words", lambda family, seeds, config: planes):
        return nl.decision_latency(nl.lower(nl.parse(FULL_ADDER)),
                                   nl.GeneratorConfig(seed=1, steps=len(h)), 1, "spike")


class TestSafetyChecksPerColumnSet:
    """Each column set's pair is built from a drawn row's full waves, so its checks run."""

    def test_coincident_trains_raise(self):
        with pytest.raises(nl.OrthogonalityError,
                           match="^reference trains spike together at step 2$"):
            _latency_of_one_drawn_row([1, 0, 1, 0], [0, 1, 1, 0])

    def test_an_empty_train_raises(self):
        with pytest.raises(ValueError, match="^spike reference trains must both be non-empty$"):
            _latency_of_one_drawn_row([0, 0, 0, 0], [0, 1, 0, 1])

    def test_a_valid_row_decides(self):
        report = _latency_of_one_drawn_row([0, 0, 1, 0], [0, 1, 0, 1])
        assert report.histogram == {1: 1} and report.ambiguous_windows == 0

    @pytest.mark.parametrize("backend", nl.BACKENDS)
    def test_every_walk_is_on_a_pair_of_at_most_four_steps(self, full_adder_ast, backend):
        network = nl.lower(full_adder_ast)
        config = nl.GeneratorConfig(seed=6, steps=200)
        real, seen = simulator._evaluate, []

        def evaluate(groups, slots, bk, bits, rows):
            seen.append(bk.pair.steps)
            return real(groups, slots, bk, bits, rows)

        with mock.patch.object(simulator, "_evaluate", evaluate):
            nl.run(network, backend, {"a": 1, "b": 0, "cin": 1}, config)
            nl.verify_equivalence(full_adder_ast, backend, config)
            nl.decision_latency(network, config, 300, backend)
        assert len(seen) >= 3 and max(seen) <= 4


class TestEarlyExitAmbiguitySweep:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_count_equals_full_matrices(self, n):
        for seed in (0, 7, 2**64 - 1):
            for start, trials in ((0, 2000), (12345, 997)):
                want = identical_rtw_pairs(seed, trials, n, start)
                assert count_identical_rtw_pairs(seed, trials, n, start=start) == want

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), start=st.integers(0, 2**64 - 1),
           trials=st.integers(0, 3000), n=st.integers(1, 20))
    def test_count_equals_the_full_planes_oracle(self, seed, start, trials, n):
        assert count_identical_rtw_pairs(seed, trials, n, start=start) == identical_rtw_pairs(
            seed, trials, n, start)

    def test_a_huge_step_count_walks_only_the_steps_with_live_trials(self):
        assert count_identical_rtw_pairs(3, 100, 10**12) == 0

    @pytest.mark.parametrize("args", [
        (-1, 1000, 3), (2**64, 1000, 3), (1, 1000, 3, -1), (1, 1000, 3, 2**64),
        (1, 10, 0), (1, 10, -2), (1, -3, 3), (1.0, 10, 3), (1, True, 3), (1, 10, 3.5)])
    def test_bad_arguments_raise_config_error(self, args):
        with pytest.raises(nl.ConfigError):
            count_identical_rtw_pairs(*args)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_chunking_does_not_change_the_estimate(self, n):
        trials = 3000
        want = identical_rtw_pairs(11, trials, n) / trials
        for chunk in (1, 999, 1024, trials, 1 << 14):
            with mock.patch.object(simulator, "_MC_CHUNK", chunk):
                assert nl.ambiguity_monte_carlo(n, trials, 11).mc_estimate == want
