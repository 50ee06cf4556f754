"""Trial-parallel Monte-Carlo: ``decision_latency`` and the ambiguity sweep.

``decision_latency`` evaluates a chunk of trials as one walk over a
``(slots, rows, steps)`` matrix, row ``i`` against trial ``i``'s own
reference pair.  The reference here is the per-trial loop it replaced: one
``make_backend`` per derived seed, the one-wave ``serial_wires`` and
``classify_wire``.  The two must give equal reports, ambiguous windows and
generation failures included.
"""

import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noiselogic as nl
from noiselogic import rtw_gates, simulator, spike_gates
from noiselogic.generators import count_identical_rtw_pairs, rtw_sign_matrix
from noiselogic.prng import derive_seed
from noiselogic.signals import CARRIER_DTYPE

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


def chunked_latency(network, config, trials, backend, assignment, rows):
    """decision_latency with its chunk budget set to exactly ``rows`` trials."""
    slots = simulator._plan(network, network.outputs).slots
    per_row = CARRIER_DTYPE.itemsize * config.steps * (slots + simulator._PAIR_WAVES)
    with mock.patch.object(simulator, "_CHUNK_BYTES", rows * per_row):
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
            if isinstance(x, nl.SpikeTrain):
                return nl.SpikeTrain(pair.h.values | pair.l.values)
            return nl.RtwSignal(-pair.h.values)

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

    def test_one_kernel_call_per_level_group_per_chunk(self):
        network = nl.lower(nl.parse(FULL_ADDER))
        and_groups = sum(gates[0].op == "AND" for gates in level_groups(network))
        assert and_groups < network.gate_counts()["AND"]
        config = nl.GeneratorConfig(seed=2, steps=16)
        with mock.patch.object(spike_gates, "spike_and",
                               wraps=spike_gates.spike_and) as spike_and:
            chunked_latency(network, config, 10, "spike", None, 4)
        assert spike_and.call_count == 3 * and_groups


class TestEarlyExitAmbiguitySweep:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_count_equals_full_matrices(self, n):
        for seed in (0, 7, 2**64 - 1):
            for start, trials in ((0, 2000), (12345, 997)):
                h = rtw_sign_matrix(seed, trials, n, child=0, start=start)
                l = rtw_sign_matrix(seed, trials, n, child=1, start=start)
                want = int(np.all(h == l, axis=1).sum())
                assert count_identical_rtw_pairs(seed, trials, n, start=start) == want

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_chunking_does_not_change_the_estimate(self, n):
        trials = 3000
        h = rtw_sign_matrix(11, trials, n, child=0)
        l = rtw_sign_matrix(11, trials, n, child=1)
        want = int(np.all(h == l, axis=1).sum()) / trials
        for chunk in (1, 999, 1024, trials, 1 << 14):
            assert nl.ambiguity_monte_carlo(n, trials, 11, chunk=chunk).mc_estimate == want
