"""Level-parallel ``run``: one kernel call per (topological level, op) group.

``run`` is the one-row walk of ``simulator._evaluate`` on the step classes
of its pair: it evaluates the gates of one group as one batch, keeps each
wire's cut word, and hands out each wire's full wave as a row of the step
classes' expansion table.  The reference here is the gate-by-gate,
wire-by-wire run it replaced (``serial_reference``); both must give the
same waveforms, exactly, and the same classifications, diagnostics
included.  ``run`` walks wire ``i`` in slot ``i``; ``simulator._plan``,
which keeps only the outputs and reuses the slots of dead wires for
``verify_equivalence`` and ``decision_latency``, gives every wire a slot.
A plain-Python replay checks the slots of both.
"""

import gc
import json
import random
import weakref
from collections import Counter
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import noiselogic as nl
from noiselogic import cli, rtw_gates, signals, simulator
from noiselogic.signals import BitWave, words_for

from conftest import FULL_ADDER, level_groups, random_netlist_source
from serial_reference import serial_run


def _non_copy_not(pair, x):
    """A NOT on words that emits x * H: valid RTW words that are, in general, no reference copy."""
    pair.operands(nl.RTW, x, exact=False)
    values = nl.RtwSignal._of_words(x.copy(), pair.steps).values
    return nl.RtwSignal(values * pair.h.values).words


def outcome(fn, *args):
    """The run's waveforms and classifications, or the type of the error raised."""
    try:
        result = fn(*args)
    except nl.NoiseLogicError as exc:
        return type(exc)
    return (
        {name: (type(w), w.values.tolist()) for name, w in result.waveforms.items()},
        result.classifications,
    )


class TestLevelRunEqualsSerial:
    @settings(max_examples=80, deadline=None)
    @given(
        netlist_seed=st.integers(0, 2**32 - 1),
        backend=st.sampled_from(nl.BACKENDS),
        # One- to three-step RTW windows often draw identical references,
        # so every wire is ambiguous and goes through the full classifier.
        steps=st.sampled_from([1, 2, 3, 16, 64]),
        non_copy_not=st.booleans(),
        bits=st.integers(0, 2**8 - 1),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_random_netlists(self, netlist_seed, backend, steps, non_copy_not, bits, seed):
        if backend == "spike":
            steps = max(steps, 16)   # room for two non-empty orthogonal trains
        network = nl.lower(nl.parse(random_netlist_source(random.Random(netlist_seed))))
        assignment = {name: (bits >> k) & 1 for k, name in enumerate(network.inputs)}
        config = nl.GeneratorConfig(seed=seed, steps=steps)
        # A product NOT that emits non-copies: later ANDs must reject them
        # in both runs, and wires no AND reads must classify alike.
        with (mock.patch.object(rtw_gates, "not_multiplicative", _non_copy_not)
              if non_copy_not else nullcontext()):
            got = outcome(nl.run, network, backend, assignment, config)
            want = outcome(serial_run, network, backend, assignment, config)
        assert got == want

    @pytest.mark.parametrize("backend", nl.BACKENDS)
    def test_a_netlist_of_benchmark_scale(self, backend):
        # 3,817 primitives, the size of the simulate benchmark's netlists.
        network = nl.lower(nl.parse(random_netlist_source(random.Random(26), 32, 1000)))
        assert len(network.out) == 3817
        assignment = {name: k % 3 % 2 for k, name in enumerate(network.inputs)}
        config = nl.GeneratorConfig(seed=11, steps=200)
        got = outcome(nl.run, network, backend, assignment, config)
        assert got == outcome(serial_run, network, backend, assignment, config)
        assert list(got[0]) == list(network.wires)

    @pytest.mark.parametrize("backend", nl.BACKENDS)
    def test_full_adder_ambiguous_window(self, full_adder_network, backend):
        # A seed whose one-step RTW references are identical; spike windows
        # need more steps, and are decided.
        pairs = ((s, nl.gen_rtw_pair(nl.GeneratorConfig(seed=s, steps=1))) for s in range(100))
        seed = next(s for s, pair in pairs if pair.h == pair.l)
        steps = 16 if backend == "spike" else 1
        config = nl.GeneratorConfig(seed=seed, steps=steps)
        assignment = {"a": 1, "b": 0, "cin": 1}
        got = outcome(nl.run, full_adder_network, backend, assignment, config)
        assert got == outcome(serial_run, full_adder_network, backend, assignment, config)
        ambiguous = [c for c in got[1].values() if c.is_ambiguous]
        assert bool(ambiguous) == (backend != "spike")


def _replay(network: nl.CompiledNetwork, groups, slots: int) -> tuple[dict[int, int], list[int]]:
    """Walk ``groups`` on ``slots`` slots in plain Python, tracking the wire each slot holds.

    Every gather must read the wire its gate names.  Returns the wire each
    slot holds at the end and every slot written, inputs first.
    """
    held = {i: i for i in range(len(network.inputs))}
    written = list(held)
    assert len(groups) == len(level_groups(network))
    for (op, args, outs), gates in zip(groups, level_groups(network)):
        assert {gate.op for gate in gates} == {op}
        assert len(args) == len(gates[0].args)
        for k, column in enumerate(args):
            assert [held[slot] for slot in column.tolist()] == [g.args[k] for g in gates]
        outs = outs.tolist()
        assert len(set(outs)) == len(outs) == len(gates)
        assert all(0 <= slot < slots for slot in outs)
        held.update(zip(outs, (gate.out for gate in gates)))
        written += outs
    return held, written


class TestLevelPlan:
    @settings(max_examples=200, deadline=None)
    @given(netlist_seed=st.integers(0, 2**32 - 1))
    def test_slots_hold_the_wires_the_gates_read(self, netlist_seed):
        network = nl.lower(nl.parse(random_netlist_source(random.Random(netlist_seed))))
        plan = simulator._plan(network)
        held, _ = _replay(network, plan.groups, plan.slots)
        assert [network.wires[held[slot]] for slot in plan.outputs] == list(network.outputs)
        assert plan.slots <= len(network.wires)
        # ``run``'s groups give every wire its own slot: no slot is written twice.
        n = len(network.wires)
        held, written = _replay(network, simulator._slot_groups(network.level_groups), n)
        assert sorted(written) == list(range(n)) and all(held[i] == i for i in range(n))

    @settings(max_examples=60, deadline=None)
    @given(netlist_seed=st.integers(0, 2**32 - 1))
    def test_replanning_a_network_gives_the_plan_of_a_fresh_one(self, netlist_seed):
        # The (level, op) groups and slot lifetimes are computed once per
        # network and kept; every later plan of it must be the fresh plan.
        source = random_netlist_source(random.Random(netlist_seed))
        network = nl.lower(nl.parse(source))

        def doc(plan):
            groups = [(op, [a.tolist() for a in args], outs.tolist())
                      for op, args, outs in plan.groups]
            return groups, plan.slots, plan.outputs

        want = doc(simulator._plan(network))
        assert "level_groups" in vars(network) and "free_before" in vars(network)
        for _ in range(2):
            assert doc(simulator._plan(network)) == want
            assert doc(simulator._plan(nl.lower(nl.parse(source)))) == want

    @pytest.mark.parametrize("netlist_seed", range(5))
    def test_one_group_per_level_and_op_in_level_order(self, netlist_seed):
        source = random_netlist_source(random.Random(netlist_seed), 8, 60)
        network = nl.lower(nl.parse(source))
        groups = simulator._slot_groups(network.level_groups)
        _replay(network, groups, len(network.wires))
        assert [op for op, _, _ in groups] == [g[0].op for g in level_groups(network)]
        assert sum(len(outs) for _, _, outs in groups) == len(network.out)
        # One kernel call per group instead of one per primitive.
        assert len(groups) < len(network.out)

    def test_full_adder_keeps_only_the_outputs(self, full_adder_network):
        net = full_adder_network
        plan = simulator._plan(net)
        held, _ = _replay(net, plan.groups, plan.slots)
        assert [net.wires[held[slot]] for slot in plan.outputs] == list(net.outputs)
        # The 25 wires share 7 slots: the 16 groups reuse the slots of dead wires.
        assert (len(net.wires), len(plan.groups), plan.slots) == (25, 16, 7)


class TestRunMatrix:
    @pytest.mark.parametrize("backend", nl.BACKENDS)
    def test_waveforms_are_read_only_rows_of_one_matrix(self, full_adder_network, backend):
        config = nl.GeneratorConfig(seed=5, steps=64)
        result = nl.run(full_adder_network, backend, {"a": 1, "b": 1, "cin": 0}, config)
        waves = list(result.waveforms.values())
        # A wave is the row of the step classes' expansion table that its cut wave selects.
        base = result.classes.expand
        assert base.shape == (2 ** result.classes.pair.steps, words_for(64))
        for w in waves:
            assert w.words.base is base
            assert w.words.dtype == np.uint64 and w.values.dtype == np.int8
            for array in (w.words, w.values):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0
        assert result.output_bits() == {"sum": 0, "cout": 1}

    def test_a_non_copy_input_to_a_level_batch_is_rejected(self):
        network = nl.lower(nl.parse("input a b\nwire n = NOT a\noutput y = AND n b\n"))
        config = nl.GeneratorConfig(seed=2, steps=64)
        with mock.patch.object(rtw_gates, "not_multiplicative", _non_copy_not):
            with pytest.raises(nl.InvalidLogicValueError, match="first input"):
                nl.run(network, "rtw-multiplicative-not", {"a": 1, "b": 1}, config)

    def test_full_adder_every_assignment_matches_serial(self):
        network = nl.lower(nl.parse(FULL_ADDER))
        config = nl.GeneratorConfig(seed=8, steps=40)
        for backend in nl.BACKENDS:
            for bits in range(8):
                assignment = {n: (bits >> k) & 1 for k, n in enumerate(network.inputs)}
                assert outcome(nl.run, network, backend, assignment, config) == outcome(
                    serial_run, network, backend, assignment, config)


@contextmanager
def counted_objects(made: Counter, wrapped: list):
    """Count the ``Classification``s ``signals`` builds and the waves ``BitWave._of_words`` wraps.

    Every wrapped words array is also kept in ``wrapped``.
    """
    classification, of_words = signals.Classification, BitWave._of_words.__func__

    def reading(*args):
        made["Classification"] += 1
        return classification(*args)

    def wrap(cls, words, steps):
        made["_of_words"] += 1
        wrapped.append(words)
        return of_words(cls, words, steps)

    with mock.patch.object(signals, "Classification", reading), \
            mock.patch.object(BitWave, "_of_words", classmethod(wrap)):
        yield


def _chain(gates: int) -> nl.CompiledNetwork:
    """``gates`` gates in one chain, NOT and AND in turn: one (level, op) group per gate."""
    lines = ["input a b", "wire w0 = AND a b"]
    lines += [f"wire w{k} = NOT w{k - 1}" if k % 2 else f"wire w{k} = AND w{k - 1} a"
              for k in range(1, gates - 1)]
    lines.append(f"output y = AND w{gates - 2} b")
    return nl.lower(nl.parse("\n".join(lines) + "\n"))


class TestTheWalkWrapsNoWave:
    @pytest.mark.parametrize("backend", nl.BACKENDS)
    def test_wraps_do_not_grow_with_the_groups(self, backend):
        config = nl.GeneratorConfig(seed=4, steps=130)
        wraps = {}
        for gates in (20, 100):
            network = _chain(gates)
            groups = len(network.level_groups.ops)
            made = Counter()
            with counted_objects(made, []):
                result = nl.run(network, backend, {"a": 1, "b": 1}, config)
                report = nl.verify_equivalence(network, backend, config)
            assert report.ok and result.output_bits() == {"y": 0}
            wraps[groups] = made["_of_words"]
        # The pair's draw, its step classes and the readings wrap, once per run or chunk.
        assert sorted(wraps) == [20, 100]
        assert wraps[20] == wraps[100] > 0


class TestRunIsLazy:
    """``run`` builds wave and reading objects per cut word, not per wire, and only when read."""

    @pytest.mark.parametrize("backend, steps", [
        ("rtw-additive-not", 64), ("rtw-multiplicative-not", 1), ("spike", 64)])
    def test_simulate_builds_at_most_one_object_per_cut_word(self, tmp_path, backend, steps):
        source = random_netlist_source(random.Random(26), 32, 1000)
        network = nl.lower(nl.parse(source))
        assert len(network.out) > 3500
        path = tmp_path / "big.nl"
        path.write_text(source)
        # A one-step RTW window whose references are identical: every wire
        # is ambiguous.
        pairs = ((s, nl.gen_rtw_pair(nl.GeneratorConfig(seed=s, steps=1))) for s in range(100))
        seed = 2 if steps > 1 else next(s for s, pair in pairs if pair.h == pair.l)
        runs, made, wrapped = [], Counter(), []

        def keep(*args):
            runs.append(nl.run(*args))
            return runs[-1]

        assign = ",".join(f"{name}={k % 2}" for k, name in enumerate(network.inputs))
        with mock.patch.object(cli, "run", keep), counted_objects(made, wrapped):
            out = CliRunner().invoke(cli.main, ["simulate", str(path), "--assign", assign,
                                                "--backend", backend, "--seed", str(seed),
                                                "--steps", str(steps)])
        assert out.exit_code == 0, out.output
        doc = json.loads(out.output)
        (result,) = runs
        words = 2 ** result.classes.pair.steps
        ambiguous = [entry["wire"] for entry in doc["ambiguous_wires"]]
        assert ambiguous == result.ambiguous_wires
        assert bool(ambiguous) == (steps == 1)
        # One reading per cut word present, at most 16 for thousands of wires.
        assert 0 < made["Classification"] <= words
        # The walk wraps batches, per (level, op) group; no full wave is wrapped.
        assert made["_of_words"] < len(network.wires) / 2
        assert not any(w.ndim == 1 and w.base is result.classes.expand for w in wrapped)
        # Reading every waveform wraps at most one full wave per cut word.
        with counted_objects(made, wrapped):
            waves = [result.waveforms[name] for name in network.wires]
            assert list(result.waveforms.values()) == waves
        rows = [w for w in wrapped if w.ndim == 1 and w.base is result.classes.expand]
        assert 0 < len(rows) <= words
        assert made["Classification"] <= words

    def test_no_ambiguous_row_answers_without_walking_the_wires(self, full_adder_network):
        config = nl.GeneratorConfig(seed=5, steps=64)
        result = nl.run(full_adder_network, "spike", {"a": 1, "b": 0, "cin": 1}, config)
        assert not any(r is not None and r.is_ambiguous for r in result.readings)
        assert result.ambiguous_wires == []
        # No per-wire mapping was built to answer.
        assert "classifications" not in vars(result)

    @pytest.mark.parametrize("outputs", [1, 40])
    def test_output_classifications_are_the_outputs_readings(self, outputs):
        network = nl.lower(nl.parse(random_netlist_source(random.Random(3), 8, 60)))
        named = [name for name in network.wires if "$" not in name][-outputs:]
        network = nl.CompiledNetwork(network.wires, network.inputs, tuple(reversed(named)),
                                     network.is_not, network.args, network.out, network.src)
        config = nl.GeneratorConfig(seed=5, steps=64)
        assignment = {name: 1 for name in network.inputs}
        result = nl.run(network, "rtw-additive-not", assignment, config)
        got = result.output_classifications
        assert list(got) == list(network.outputs) and len(got) == outputs
        assert got == {name: result.classifications[name] for name in network.outputs}

    def test_views_are_read_only_mappings_in_wire_order(self, full_adder_network):
        config = nl.GeneratorConfig(seed=5, steps=64)
        result = nl.run(full_adder_network, "spike", {"a": 1, "b": 0, "cin": 1}, config)
        for view in (result.waveforms, result.classifications):
            assert list(view) == list(full_adder_network.wires)
            assert len(view) == len(full_adder_network.wires) and "sum" in view
            assert "nowhere" not in view
            with pytest.raises(KeyError):
                view["nowhere"]
            with pytest.raises(TypeError):
                view["sum"] = None

    def test_a_read_run_is_freed_without_the_cycle_collector(self, full_adder_network):
        # A reference cycle would keep every run's matrix alive until the
        # cycle collector ran, and so raise the peak memory of a process
        # that simulates one netlist after another.
        config = nl.GeneratorConfig(seed=5, steps=64)
        result = nl.run(full_adder_network, "rtw-additive-not", {"a": 1, "b": 0, "cin": 1}, config)
        result.output_bits(), list(result.waveforms.values()), result.ambiguous_wires
        gone = weakref.ref(result)
        gc.disable()
        try:
            del result
            assert gone() is None
        finally:
            gc.enable()
