"""Level-parallel ``run``: one kernel call per (topological level, op) group.

``run`` is the one-row walk of ``simulator._evaluate``: it keeps every wire
in one read-only ``(wires, 1, steps)`` slot matrix and evaluates the gates
of one group as one batch.  The reference here is the gate-by-gate,
wire-by-wire run it replaced (``serial_reference``); both must give the
same waveforms, exactly, and the same classifications, diagnostics
included.  ``simulator._plan`` groups the gates and gives every wire a
slot; a plain-Python replay checks its slots.
"""

import random
from contextlib import nullcontext
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noiselogic as nl
from noiselogic import rtw_gates, simulator
from noiselogic.signals import CARRIER_DTYPE

from conftest import FULL_ADDER, level_groups, random_netlist_source
from serial_reference import serial_run


def _non_copy_not(pair, x):
    """A NOT that emits x * H: a valid RTW wave that is, in general, no reference copy."""
    pair.check_gate_input(x, nl.RTW, exact=False)
    return nl.RtwSignal(x.values * pair.h.values)


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


def _replay(network: nl.CompiledNetwork, plan) -> tuple[dict[int, int], list[int]]:
    """Walk ``plan`` in plain Python, tracking the wire each slot holds.

    Every gather must read the wire its gate names.  Returns the wire each
    slot holds at the end and every slot written, inputs first.
    """
    held = {i: i for i in range(len(network.inputs))}
    written = list(held)
    assert len(plan.groups) == len(level_groups(network))
    for (op, args, outs), gates in zip(plan.groups, level_groups(network)):
        assert {gate.op for gate in gates} == {op}
        assert len(args) == len(gates[0].args)
        for k, column in enumerate(args):
            assert [held[slot] for slot in column.tolist()] == [g.args[k] for g in gates]
        outs = outs.tolist()
        assert len(set(outs)) == len(outs) == len(gates)
        assert all(0 <= slot < plan.slots for slot in outs)
        held.update(zip(outs, (gate.out for gate in gates)))
        written += outs
    return held, written


class TestLevelPlan:
    @settings(max_examples=200, deadline=None)
    @given(
        netlist_seed=st.integers(0, 2**32 - 1),
        keep=st.sampled_from(["all", "outputs", "some"]),
        keep_seed=st.integers(0, 2**32 - 1),
    )
    def test_slots_hold_the_wires_the_gates_read(self, netlist_seed, keep, keep_seed):
        network = nl.lower(nl.parse(random_netlist_source(random.Random(netlist_seed))))
        if keep == "all":
            kept = network.wires
        elif keep == "outputs":
            kept = network.outputs
        else:
            rng = random.Random(keep_seed)
            kept = [name for name in network.wires if rng.random() < 0.3]
        plan = simulator._plan(network, kept)
        held, written = _replay(network, plan)
        assert plan.slot.keys() == set(kept)
        assert all(network.wires[held[slot]] == name for name, slot in plan.slot.items())
        assert plan.slots <= len(network.wires)
        if keep == "all":
            # No slot is written twice: every wire has its own.
            assert sorted(written) == list(range(plan.slots)) == list(range(len(network.wires)))

    @pytest.mark.parametrize("netlist_seed", range(5))
    def test_one_group_per_level_and_op_in_level_order(self, netlist_seed):
        source = random_netlist_source(random.Random(netlist_seed), 8, 60)
        network = nl.lower(nl.parse(source))
        plan = simulator._plan(network, network.wires)
        _replay(network, plan)
        assert [op for op, _, _ in plan.groups] == [g[0].op for g in level_groups(network)]
        assert sum(len(outs) for _, _, outs in plan.groups) == len(network.gates)
        # One kernel call per group instead of one per primitive.
        assert len(plan.groups) < len(network.gates)

    def test_full_adder_keeps_only_the_outputs(self, full_adder_network):
        net = full_adder_network
        plan = simulator._plan(net, net.outputs)
        held, _ = _replay(net, plan)
        assert all(net.wires[held[plan.slot[name]]] == name for name in net.outputs)
        # The 25 wires share 7 slots: the 16 groups reuse the slots of dead wires.
        assert (len(net.wires), len(plan.groups), plan.slots) == (25, 16, 7)


class TestRunMatrix:
    @pytest.mark.parametrize("backend", nl.BACKENDS)
    def test_waveforms_are_read_only_rows_of_one_matrix(self, full_adder_network, backend):
        config = nl.GeneratorConfig(seed=5, steps=64)
        result = nl.run(full_adder_network, backend, {"a": 1, "b": 1, "cin": 0}, config)
        waves = list(result.waveforms.values())
        base = waves[0].values.base
        assert base is not None and base.shape == (len(waves), 1, 64)
        for w in waves:
            assert w.values.base is base
            assert w.values.dtype == CARRIER_DTYPE
            assert not w.values.flags.writeable
            with pytest.raises(ValueError):
                w.values[0] = 0
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
