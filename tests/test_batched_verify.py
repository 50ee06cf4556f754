"""Chunked evaluation: ``verify_equivalence`` and the gate kernels on batches.

``verify_equivalence`` evaluates a chunk of assignments as one walk over
a ``(wires, columns, lanes)`` matrix, 64 assignments to a lane word, on
the pair's step classes, within ``simulator._CHUNK_BYTES``.  The reference
here is the per-assignment loop it replaced, built from the one-wave
``serial_wires``, the scalar ``eval_boolean`` and ``classify_wire``; the
two must give equal reports, failures and ambiguous incidents included, in
the same order.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noiselogic as nl
from noiselogic import rtw_gates, simulator, spike_gates
from noiselogic.errors import InvalidLogicValueError
from noiselogic.prng import SplitMix64, derive_seed

from conftest import gate_rows, network_from_rows, packed, random_netlist_source
from serial_reference import classify_wire, serial_draw_indices, serial_wires
from test_acceptance import PIN20
from test_simulator import corrupt_and_to_or


def serial_report(source, backend, config, *, network=None, sample=None):
    """One assignment at a time, as verify_equivalence did before chunking."""
    if network is None:
        net = nl.lower(source) if isinstance(source, nl.NetlistAst) else source
    else:
        net = network
    space = 2 ** len(net.inputs)
    if sample is None:
        indices, mode = range(space), "exhaustive"
    else:
        stream = SplitMix64(derive_seed(config.seed, simulator._SAMPLE_STREAM))
        indices, mode = serial_draw_indices(stream, len(net.inputs), sample), "sample"
    bk = simulator.make_backend(backend, config)
    report = nl.EquivalenceReport(
        backend=backend, steps=config.steps, seed=config.seed, inputs=net.inputs,
        mode=mode, assignment_space=space, checked=0, passed=0,
    )
    for index in indices:
        assignment = {name: (index >> (len(net.inputs) - 1 - j)) & 1
                      for j, name in enumerate(net.inputs)}
        expected = nl.eval_boolean(source, assignment)
        waves = serial_wires(net, bk, assignment)
        report.checked += 1
        ok = True
        for name in net.outputs:
            outcome = classify_wire(bk, waves[net.wires.index(name)])
            if outcome.is_ambiguous:
                ok = False
                report.ambiguous.append(
                    {"assignment": assignment, "wire": name, "detail": outcome.detail}
                )
            elif outcome.verdict.to_bit() != expected[name]:
                ok = False
                report.failures.append({
                    "assignment": assignment, "output": name,
                    "expected": expected[name], "got": outcome.verdict.value,
                })
        report.passed += ok
    return report


def rewire_and(network: nl.CompiledNetwork) -> nl.CompiledNetwork:
    """Feed the first AND its first argument twice, so it passes that argument through."""
    gates = gate_rows(network)
    idx = next(i for i, g in enumerate(gates) if g.op == "AND")
    gates[idx] = gates[idx]._replace(args=(gates[idx].args[0],) * 2)
    return network_from_rows(network.wires, network.inputs, network.outputs, gates)


def chunked_report(source, backend, config, rows, **kwargs):
    """verify_equivalence with its chunk budget set to exactly ``rows`` lane words, each
    64 assignments."""
    net = kwargs.get("network") or (
        nl.lower(source) if isinstance(source, nl.NetlistAst) else source)
    # A lane word of a slot is one uint64 word per column of the pair's step classes.
    columns = simulator.make_backend(backend, config).pair.step_classes.pair.steps
    budget = rows * 8 * columns * len(net.wires)
    with mock.patch.object(simulator, "_CHUNK_BYTES", budget):
        return nl.verify_equivalence(source, backend, config, **kwargs)


class TestBatchedEqualsSerial:
    @settings(max_examples=60, deadline=None)
    @given(
        netlist_seed=st.integers(0, 2**32 - 1),
        backend=st.sampled_from(nl.BACKENDS),
        # Windows of one or two steps make RTW references identical often,
        # so ambiguous incidents are covered too.
        steps=st.sampled_from([1, 2, 3, 16, 40]),
        # Lane words: one, the 64-assignment lane word, is the smallest budget.
        rows=st.one_of(st.none(), st.sampled_from([1, 2, 3])),
        # 5 to 7 inputs fill part of a lane word, one, or two; the samples end
        # short of, at and just past a lane word, and repeat indices.
        inputs=st.integers(2, 7),
        sample=st.one_of(st.none(), st.integers(1, 40), st.sampled_from([1, 63, 64, 65, 129])),
        corrupt=st.sampled_from([None, rewire_and, corrupt_and_to_or]),
        oracle_from_ast=st.booleans(),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_random_netlists(self, netlist_seed, backend, steps, rows, inputs, sample, corrupt,
                             oracle_from_ast, seed):
        if backend == "spike":
            steps = max(steps, 16)   # room for two non-empty orthogonal trains
        ast = nl.parse(random_netlist_source(random.Random(netlist_seed), max_inputs=inputs,
                                             max_gates=8, min_inputs=inputs))
        source = ast if oracle_from_ast else nl.lower(ast)
        network = corrupt(nl.lower(ast)) if corrupt and any(
            g.op == "AND" for g in gate_rows(nl.lower(ast))) else None
        config = nl.GeneratorConfig(seed=seed, steps=steps)
        kwargs = {"network": network, "sample": sample}
        if rows is None:
            got = nl.verify_equivalence(source, backend, config, **kwargs)
        else:
            got = chunked_report(source, backend, config, rows, **kwargs)
        assert got.to_doc() == serial_report(source, backend, config, **kwargs).to_doc()

    @pytest.mark.parametrize("backend", nl.BACKENDS)
    @pytest.mark.parametrize("rows", [1, 3, 8])
    @pytest.mark.parametrize("corrupt", [corrupt_and_to_or, rewire_and])
    def test_corrupted_full_adder_failures_in_order(self, full_adder_ast, backend, rows,
                                                    corrupt):
        config = nl.GeneratorConfig(seed=11, steps=32)
        network = corrupt(nl.lower(full_adder_ast))
        # Eight assignments fill one lane word; 200 samples fill four, in 4, 2 or 1 chunks.
        for sample in (None, 200):
            got = chunked_report(full_adder_ast, backend, config, rows, network=network,
                                 sample=sample)
            want = serial_report(full_adder_ast, backend, config, network=network, sample=sample)
            assert want.failures
            assert got.to_doc() == want.to_doc()

    def test_sample_with_repeats_and_wide_indices(self):
        # 70 inputs: each assignment index is drawn from two words.
        names = [f"i{k}" for k in range(70)]
        lines = ["input " + " ".join(names), "wire x0 = XOR i68 i69"]
        for k in range(1, 69):
            lines.append(f"wire x{k} = XOR x{k - 1} i{k - 1}")
        lines.append("output y = NOT x68")
        ast = nl.parse("\n".join(lines) + "\n")
        config = nl.GeneratorConfig(seed=5, steps=16)
        network = rewire_and(nl.lower(ast))
        got = chunked_report(ast, "rtw-additive-not", config, 3, network=network, sample=25)
        want = serial_report(ast, "rtw-additive-not", config, network=network, sample=25)
        assert want.failures
        assert got.to_doc() == want.to_doc()

    def test_sample_draws_inputs_beyond_the_64th(self):
        # The output AND is rewired to pass i0 through, so it fails only
        # when i0 is High and the XOR chain is Low.  i0 is bit 69 of a
        # 70-bit assignment index, above any single 64-bit word.
        names = [f"i{k}" for k in range(70)]
        lines = ["input " + " ".join(names), "wire x1 = XOR i1 i2"]
        for k in range(3, 70):
            lines.append(f"wire x{k - 1} = XOR x{k - 2} i{k}")
        lines.append("output y = AND i0 x68")
        ast = nl.parse("\n".join(lines) + "\n")
        net = nl.lower(ast)
        y, i0 = net.wires.index("y"), net.wires.index("i0")
        gates = gate_rows(net)
        assert next(g for g in gates if g.out == y).args[0] == i0
        network = network_from_rows(net.wires, net.inputs, net.outputs, [
            g._replace(args=(i0, i0)) if g.out == y else g for g in gates])
        config = nl.GeneratorConfig(seed=5, steps=16)
        report = nl.verify_equivalence(ast, "rtw-additive-not", config,
                                       network=network, sample=40)
        assert report.failures
        assert all(f["assignment"]["i0"] == 1 and f["got"] == "High" for f in report.failures)
        assert report.to_doc() == serial_report(ast, "rtw-additive-not", config,
                                                network=network, sample=40).to_doc()

    def test_sample_repeats_every_drawn_index(self, full_adder_ast):
        config = nl.GeneratorConfig(seed=2, steps=32)
        network = corrupt_and_to_or(nl.lower(full_adder_ast))
        got = chunked_report(full_adder_ast, "spike", config, 3, network=network, sample=50)
        want = serial_report(full_adder_ast, "spike", config, network=network, sample=50)
        assert got.checked == 50
        assert len({str(f["assignment"]) for f in want.failures}) < len(want.failures)
        assert got.to_doc() == want.to_doc()

    @settings(max_examples=40, deadline=None)
    @given(n_inputs=st.sampled_from([0, 1, 20, 63, 64, 70, 130]),
           sample=st.integers(1, 300), seed=st.integers(0, 2**64 - 1))
    def test_block_draw_equals_the_word_by_word_draw(self, n_inputs, sample, seed):
        got = simulator._draw_indices(SplitMix64(seed), n_inputs, sample)
        want = serial_draw_indices(SplitMix64(seed), n_inputs, sample)
        assert got.dtype == (np.uint64 if n_inputs <= 64 else object)
        assert got.tolist() == want


class TestChunkMemoryBound:
    @pytest.mark.parametrize("case", ["pin20-sample", "three-lane-words", "under-one-lane-word"])
    def test_every_walk_matrix_fits_the_budget_or_is_one_lane_word(self, case):
        config = nl.GeneratorConfig(seed=0, steps=256)
        if case == "pin20-sample":
            # The real budget: 150001 samples of the 20-input pin make three chunks.
            ast, sample, budget = nl.parse(PIN20), 150001, simulator._CHUNK_BYTES
        else:
            ast, sample = nl.parse(random_netlist_source(random.Random(4), 12, 60, 12)), None
            columns = simulator.make_backend("spike", config).pair.step_classes.pair.steps
            lane_word = 8 * columns * len(nl.lower(ast).wires)
            budget = 3 * lane_word + 5 if case == "three-lane-words" else lane_word - 1
        count = sample or 2 ** len(ast.inputs)
        shapes, evaluate = [], simulator._evaluate

        def recording(*args):
            matrix = evaluate(*args)
            shapes.append((matrix.shape, matrix.nbytes))
            return matrix

        with mock.patch.object(simulator, "_evaluate", recording), \
                mock.patch.object(simulator, "_CHUNK_BYTES", budget):
            report = nl.verify_equivalence(ast, "spike", config, sample=sample)
        assert report.checked == report.passed == count
        assert len(shapes) > 1
        wires = len(nl.lower(ast).wires)
        for (slots, _, lane_words), nbytes in shapes:
            assert slots == wires
            assert nbytes <= budget or lane_words == 1
        assert sum(shape[2] for shape, _ in shapes) == -(-count // 64)
        if case == "under-one-lane-word":
            assert {shape[2] for shape, _ in shapes} == {1}


def _bad_row(pair) -> np.ndarray:
    """A valid value of the pair's family that is neither reference."""
    h, l = pair.h.values, pair.l.values
    row = h | l if pair.family == nl.SPIKE else np.where(np.arange(len(h)) % 2, h, -h)
    assert not np.array_equal(row, h) and not np.array_equal(row, l)
    return row


class TestBatchedKernels:
    BITS = ((1, 1, 0, 0, 1), (1, 0, 1, 0, 0))

    @staticmethod
    def _family(family):
        """(pair, NOT kernels, AND kernel) of one family, the kernels on words."""
        config = nl.GeneratorConfig(seed=9, steps=48)
        pair = nl.reference_pairs(family, config.seed, config)
        if family == nl.RTW:
            nots, and_ = (rtw_gates.not_additive, rtw_gates.not_multiplicative), rtw_gates.and_gate
        else:
            nots, and_ = (spike_gates.spike_not,), spike_gates.spike_and
        return pair, nots, and_

    @staticmethod
    def _rows(pair, bits):
        return [pair.h if b else pair.l for b in bits]

    @staticmethod
    def _batch(rows):
        """The ``(words, rows)`` words of the waves ``rows``: column ``i`` holds row ``i``."""
        return np.stack([w.words for w in rows], axis=-1)

    @pytest.mark.parametrize("family", [nl.RTW, nl.SPIKE])
    def test_batch_equals_row_by_row(self, family):
        pair, nots, and_ = self._family(family)
        rows1, rows2 = (self._rows(pair, bits) for bits in self.BITS)
        x1, x2 = (self._batch(rows) for rows in (rows1, rows2))
        batch_and = and_(pair, x1, x2)
        for r, (a, b) in enumerate(zip(rows1, rows2)):
            assert np.array_equal(batch_and[:, r], nl.on_waves(and_, pair, a, b).words)
        for not_ in nots:
            batch_not = not_(pair, x1)
            for r, a in enumerate(rows1):
                assert np.array_equal(batch_not[:, r], nl.on_waves(not_, pair, a).words)

    @pytest.mark.parametrize("family", [nl.RTW, nl.SPIKE])
    def test_one_bad_row_is_rejected(self, family):
        pair, nots, and_ = self._family(family)
        values = np.stack([w.values for w in self._rows(pair, self.BITS[0])])
        good = packed(values)
        values[2] = _bad_row(pair)
        bad = packed(values)
        with pytest.raises(InvalidLogicValueError):
            nots[0](pair, bad)   # additive RTW NOT or spike NOT; the product NOT takes any wave
        with pytest.raises(InvalidLogicValueError, match="first input"):
            and_(pair, bad, good)
        with pytest.raises(InvalidLogicValueError, match="second input"):
            and_(pair, good, bad)

    def test_a_batch_wave_cannot_be_built(self):
        # A batch lives only as words, whose step count the caller keeps.
        for shape in ((3, 7), (2, 3, 7), (2, 2, 2, 2)):
            with pytest.raises(ValueError, match="exactly one axis"):
                nl.RtwSignal(np.ones(shape, dtype=np.int64))
