import json
import random
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import noiselogic as nl
from noiselogic import cli, simulator
from noiselogic.errors import NetlistError
from noiselogic.netlist import format_netlist

from conftest import FULL_ADDER, gate_rows, network_from_rows, random_netlist_source
from serial_reference import serial_lower


class TestParse:
    def test_grammar_example(self):
        ast = nl.parse("input a b\nwire n = AND a b\noutput y = NOT n\n")
        assert ast.inputs == ("a", "b")
        assert ast.outputs == ("y",)
        assert len(ast.assignments) == 2
        assert ast.assignments[0].gate == "AND"
        assert ast.assignments[1].args == ("n",)

    def test_buf_passthrough(self):
        ast = nl.parse("input a\noutput y = BUF a\n")
        assert ast.assignments[0].gate == "BUF"

    def test_comments_and_blank_lines(self):
        ast = nl.parse("# top\ninput a b\n\nwire n = AND a b  # inner\noutput y = NOT n\n")
        assert len(ast.assignments) == 2

    def test_undefined_name_with_line_number(self):
        with pytest.raises(NetlistError) as err:
            nl.parse("wire x = AND a a\noutput y = NOT x\n")
        assert err.value.lineno == 1
        assert "undefined" in str(err.value)

    def test_redefinition_rejected(self):
        with pytest.raises(NetlistError) as err:
            nl.parse("input a a\noutput y = NOT a\n")
        assert err.value.lineno == 1

    def test_arity_mismatch(self):
        with pytest.raises(NetlistError) as err:
            nl.parse("input a\noutput y = AND a\n")
        assert err.value.lineno == 2
        assert "argument" in str(err.value)

    def test_unknown_gate(self):
        with pytest.raises(NetlistError):
            nl.parse("input a b\noutput y = MAJ a b\n")

    def test_bad_name_token(self):
        with pytest.raises(NetlistError):
            nl.parse("input 9lives\noutput y = NOT 9lives\n")

    def test_reserved_word_as_name(self):
        with pytest.raises(NetlistError):
            nl.parse("input wire\noutput y = NOT wire\n")

    def test_no_outputs(self):
        with pytest.raises(NetlistError) as err:
            nl.parse("input a\nwire n = NOT a\n")
        assert "no outputs" in str(err.value)

    def test_use_before_definition_rejected(self):
        with pytest.raises(NetlistError):
            nl.parse("input a\nwire u = AND a v\nwire v = NOT a\noutput y = NOT u\n")

    def test_output_usable_as_argument(self):
        ast = nl.parse("input a\noutput y = NOT a\noutput z = NOT y\n")
        assert ast.outputs == ("y", "z")


class TestPrinter:
    def test_parse_print_parse_fixed_point(self):
        ast = nl.parse(FULL_ADDER)
        printed = format_netlist(ast)
        assert nl.parse(printed) == ast
        assert format_netlist(nl.parse(printed)) == printed

    def test_fixed_point_on_random_corpus(self):
        rng = random.Random(7)
        for _ in range(25):
            ast = nl.parse(random_netlist_source(rng))
            assert nl.parse(format_netlist(ast)) == ast


class TestLowering:
    COUNTS = {"NOT": 1, "AND": 1, "BUF": 2, "NAND": 2, "OR": 4, "NOR": 5, "XOR": 8, "XNOR": 9}

    @pytest.mark.parametrize("gate,count", sorted(COUNTS.items()))
    def test_canonical_expansion_sizes(self, gate, count):
        arity = 1 if gate in ("NOT", "BUF") else 2
        args = "a" if arity == 1 else "a b"
        ast = nl.parse(f"input a b\noutput y = {gate} {args}\n")
        assert len(nl.lower(ast).out) == count

    def test_or_expansion_shape(self):
        net = nl.lower(nl.parse("input a b\noutput y = OR a b\n"))
        assert net.gate_counts() == {"NOT": 3, "AND": 1}

    def test_only_primitives_emitted(self, full_adder_network):
        assert all(g.op in ("NOT", "AND") for g in gate_rows(full_adder_network))

    def test_topological_validity(self, full_adder_network):
        for gate in gate_rows(full_adder_network):
            assert all(arg < gate.out for arg in gate.args)

    def test_lowering_trace_names_source_gate(self, full_adder_network):
        sources = {g.src for g in gate_rows(full_adder_network)}
        assert sources == {"s1", "c1", "c2", "sum", "cout"}

    def test_byte_stable(self, full_adder_ast):
        assert nl.lower(full_adder_ast).to_json() == nl.lower(full_adder_ast).to_json()

    # Each gate kind's primitives, in emission order, as "op args -> out".
    PINNED = {
        "NOT": ["NOT a -> y"],
        "BUF": ["NOT a -> y$0", "NOT y$0 -> y"],
        "AND": ["AND a b -> y"],
        "NAND": ["AND a b -> y$0", "NOT y$0 -> y"],
        "OR": ["NOT a -> y$0", "NOT b -> y$1", "AND y$0 y$1 -> y$2", "NOT y$2 -> y"],
        "NOR": ["NOT a -> y$0", "NOT b -> y$1", "AND y$0 y$1 -> y$2", "NOT y$2 -> y$3",
                "NOT y$3 -> y"],
        "XOR": ["NOT b -> y$0", "AND a y$0 -> y$1", "NOT a -> y$2", "AND y$2 b -> y$3",
                "NOT y$1 -> y$4", "NOT y$3 -> y$5", "AND y$4 y$5 -> y$6", "NOT y$6 -> y"],
        "XNOR": ["NOT b -> y$0", "AND a y$0 -> y$1", "NOT a -> y$2", "AND y$2 b -> y$3",
                 "NOT y$1 -> y$4", "NOT y$3 -> y$5", "AND y$4 y$5 -> y$6", "NOT y$6 -> y$7",
                 "NOT y$7 -> y"],
    }

    @pytest.mark.parametrize("gate", sorted(PINNED))
    def test_network_json_is_pinned(self, gate):
        args = "a" if nl.netlist.GATE_ARITY[gate] == 1 else "a b"
        network = nl.lower(nl.parse(f"input a b\noutput y = {gate} {args}\n"))
        rows = [row.replace(" ->", "").split() for row in self.PINNED[gate]]
        doc = {"inputs": ["a", "b"], "outputs": ["y"],
               "gates": [{"op": op, "args": names[:-1], "out": names[-1], "src": "y"}
                         for op, *names in rows]}
        assert network.to_json() == json.dumps(doc, indent=2) + "\n"
        assert len(network.out) == len(nl.netlist.EXPANSION[gate]) == self.COUNTS[gate]

    @settings(max_examples=150, deadline=None)
    @given(netlist_seed=st.integers(0, 2**32 - 1), max_inputs=st.integers(2, 12),
           max_gates=st.sampled_from([1, 2, 5, 40, 120]))
    def test_lowering_equals_the_serial_lowerer(self, netlist_seed, max_inputs, max_gates):
        ast = nl.parse(random_netlist_source(random.Random(netlist_seed), max_inputs, max_gates))
        got, want = nl.lower(ast), serial_lower(ast)
        assert got == want
        assert hash(got) == hash(want)
        assert gate_rows(got) == gate_rows(want)
        assert got.to_json() == want.to_json()


class TestBooleanEval:
    def test_and_gate(self):
        ast = nl.parse("input a b\noutput y = AND a b\n")
        assert nl.eval_boolean(ast, {"a": 1, "b": 1}) == {"y": 1}
        assert nl.eval_boolean(ast, {"a": 1, "b": 0}) == {"y": 0}

    def test_xor_truth_table(self):
        ast = nl.parse("input a b\noutput y = XOR a b\n")
        got = [nl.eval_boolean(ast, {"a": a, "b": b})["y"] for a in (0, 1) for b in (0, 1)]
        assert got == [0, 1, 1, 0]

    def test_missing_input_rejected(self):
        ast = nl.parse("input a b\noutput y = AND a b\n")
        with pytest.raises(NetlistError):
            nl.eval_boolean(ast, {"a": 1})

    def test_stray_binding_rejected(self):
        ast = nl.parse("input a b\noutput y = AND a b\n")
        with pytest.raises(NetlistError, match="not inputs: zz"):
            nl.eval_boolean(ast, {"a": 1, "b": 1, "zz": 1})

    def test_bit_arrays_evaluate_every_row(self, full_adder_ast, full_adder_network):
        index = np.arange(8)
        bits = {"a": index >> 2 & 1, "b": index >> 1 & 1, "cin": index & 1}
        for source in (full_adder_ast, full_adder_network):
            got = nl.eval_boolean(source, bits)
            for i in range(8):
                row = {name: int(column[i]) for name, column in bits.items()}
                assert {name: int(v[i]) for name, v in got.items()} == \
                    nl.eval_boolean(source, row)
        with pytest.raises(NetlistError, match="must be 0 or 1"):
            nl.eval_boolean(full_adder_ast, {**bits, "cin": index})

    def test_full_adder_semantics(self, full_adder_ast):
        for i in range(8):
            a, b, cin = (i >> 2) & 1, (i >> 1) & 1, i & 1
            got = nl.eval_boolean(full_adder_ast, {"a": a, "b": b, "cin": cin})
            assert got == {"sum": a ^ b ^ cin, "cout": int(a + b + cin >= 2)}


class TestLoweringSoundness:
    def test_exhaustive_on_random_corpus(self):
        rng = random.Random(2)
        for _ in range(30):
            ast = nl.parse(random_netlist_source(rng, max_inputs=6, max_gates=25))
            net = nl.lower(ast)
            for index in range(2 ** len(ast.inputs)):
                assignment = {
                    name: (index >> (len(ast.inputs) - 1 - j)) & 1
                    for j, name in enumerate(ast.inputs)
                }
                assert nl.eval_boolean(ast, assignment) == nl.eval_boolean(net, assignment)

    def test_eight_input_exhaustive(self):
        rng = random.Random(3)
        source = random_netlist_source(rng, max_inputs=8, max_gates=40)
        ast = nl.parse(source)
        net = nl.lower(ast)
        for index in range(2 ** len(ast.inputs)):
            assignment = {
                name: (index >> (len(ast.inputs) - 1 - j)) & 1
                for j, name in enumerate(ast.inputs)
            }
            assert nl.eval_boolean(ast, assignment) == nl.eval_boolean(net, assignment)


class TestNetworkJson:
    def test_round_trip(self, full_adder_network):
        text = full_adder_network.to_json()
        again = nl.CompiledNetwork.from_json(text)
        assert again == full_adder_network
        assert again.to_json() == text

    def test_rejects_non_primitive_op(self):
        with pytest.raises(NetlistError):
            nl.CompiledNetwork.from_json(
                '{"inputs": ["a", "b"], "outputs": ["y"],'
                ' "gates": [{"op": "OR", "args": ["a", "b"], "out": "y", "src": "y"}]}'
            )

    def test_rejects_forward_reference(self):
        with pytest.raises(NetlistError):
            nl.CompiledNetwork.from_json(
                '{"inputs": ["a"], "outputs": ["y"],'
                ' "gates": [{"op": "NOT", "args": ["ghost"], "out": "y", "src": "y"}]}'
            )


class TestGateColumns:
    """A network's gates are its four read-only columns."""

    def test_networks_compare_and_hash_by_names_and_columns(self, full_adder_network):
        net = full_adder_network
        rows = gate_rows(net)
        assert len(rows) == 22 and rows == gate_rows(serial_lower(nl.parse(FULL_ADDER)))
        built = network_from_rows(net.wires, net.inputs, net.outputs, rows)
        assert built == net and hash(built) == hash(net)
        assert len({built, net}) == 1
        # Two neighbouring gates where the second does not read the first.
        i = next(i for i in range(len(rows) - 1) if rows[i].out not in rows[i + 1].args)
        order = rows[:i] + [rows[i + 1], rows[i]] + rows[i + 2:]
        swapped = network_from_rows(net.wires, net.inputs, net.outputs, order)
        assert swapped != net and gate_rows(swapped) == order
        renamed = [g._replace(src="x") if i == 4 else g for i, g in enumerate(rows)]
        assert network_from_rows(net.wires, net.inputs, net.outputs, renamed) != net
        assert replace(net, outputs=net.outputs[::-1]) != net
        assert net != rows

    def test_columns_are_read_only(self, full_adder_network):
        net = full_adder_network
        for column in (net.is_not, net.args, net.out, net.src):
            with pytest.raises(ValueError):
                column[0] = column[1]
        assert net.args.shape == (len(net.out), 2)
        nots = net.is_not
        assert (net.args[nots, 0] == net.args[nots, 1]).all()

    def test_columns_of_different_lengths_are_rejected(self):
        with pytest.raises(NetlistError, match="differ in length"):
            nl.CompiledNetwork(("a", "y"), ("a",), ("y",), [True], [(0, 0)], [1], [])

    @pytest.mark.parametrize("wires, outputs, args, out, message", [
        (("a", "t", "y"), ("y",), [(2, 2), (0, 0)], [1, 2],
         "gate 0 reads wire 2, which is neither an input nor written by an earlier gate"),
        (("a", "d", "y"), ("y",), [(0, 0)], [2],
         "every wire after the inputs must be written by exactly one gate"),
        (("a", "y"), ("y",), [(-1, -1)], [1],
         "gate 0 reads wire -1, which is neither an input nor written by an earlier gate"),
        (("a", "y"), ("y",), [(5, 5)], [1],
         "gate 0 reads wire 5, which is neither an input nor written by an earlier gate"),
        (("a", "y"), ("z",), [(0, 0)], [1], "output 'z' is never defined"),
        (("a", "y"), ("y",), [(0, 0)], [0],
         "every wire after the inputs must be written by exactly one gate"),
        (("a", "a"), ("a",), [(0, 0)], [1], "compiled network names a wire twice"),
        (("y", "a"), ("y",), [(1, 1)], [0], "compiled network's wires must start with its inputs"),
        (("a", "y"), ("y", "y"), [(0, 0)], [1], "compiled network declares an output twice"),
    ], ids=["reads-a-later-gate", "unwritten-wire", "negative-argument", "argument-past-wires",
            "output-names-no-wire", "gate-writes-an-input", "duplicate-wire", "inputs-not-first",
            "duplicate-output"])
    def test_malformed_networks_are_rejected(self, wires, outputs, args, out, message):
        with pytest.raises(NetlistError) as info:
            nl.CompiledNetwork(wires, ("a",), outputs, [True] * len(out), args, out,
                               [wires[-1]] * len(out))
        assert str(info.value) == message

    def test_zero_gate_network_from_json(self):
        net = nl.CompiledNetwork.from_json('{"inputs": ["a"], "outputs": ["a"], "gates": []}')
        assert len(net.out) == 0 and gate_rows(net) == [] and net.args.shape == (0, 2)
        assert net.gate_counts() == {"NOT": 0, "AND": 0}
        assert net == network_from_rows(("a",), ("a",), ("a",), [])
        assert nl.CompiledNetwork.from_json(net.to_json()) == net
        assert nl.eval_boolean(net, {"a": 1}) == {"a": 1}
        config = nl.GeneratorConfig(seed=1, steps=32)
        assert nl.run(net, "spike", {"a": 0}, config).output_bits() == {"a": 0}
        assert simulator._plan(net).slots == 1

    @pytest.mark.parametrize("backend", nl.BACKENDS)
    def test_network_with_no_wires(self, backend):
        # Its one empty assignment verifies on a chunk of at least one slot;
        # dividing the chunk by its zero slots raised ZeroDivisionError.
        net = nl.CompiledNetwork((), (), (), [], [], [], [])
        assert simulator._plan(net).slots == 0
        config = nl.GeneratorConfig(seed=1, steps=32)
        doc = nl.verify_equivalence(net, backend, config).to_doc()
        assert (doc["checked"], doc["passed"], doc["pass"]) == (1, 1, True)
        doc = nl.verify_equivalence(net, backend, config, sample=5).to_doc()
        assert (doc["checked"], doc["passed"], doc["pass"]) == (5, 5, True)
        assert nl.run(net, backend, {}, config).output_bits() == {}
        assert nl.decision_latency(net, config, 3, backend).ambiguous_windows == 3


class TestLargeNetworks:
    """Simulating, verifying, JSON and counts on networks lowered to arrays."""

    def test_simulate_json_and_counts_of_a_large_network(self, tmp_path):
        source = random_netlist_source(random.Random(26), 32, 1000)
        path = tmp_path / "big.nl"
        path.write_text(source)
        network = nl.lower(nl.parse(source))
        assert len(network.out) > 3500
        assign = ",".join(f"{name}={k % 2}" for k, name in enumerate(network.inputs))
        out = CliRunner().invoke(cli.main, ["simulate", str(path), "--assign", assign,
                                            "--steps", "64"])
        assert out.exit_code == 0, out.output
        assert json.loads(out.stdout)["primitive_count"] == len(network.out)
        assert sum(network.gate_counts().values()) == len(network.out)
        assert nl.CompiledNetwork.from_json(network.to_json()) == network

    @pytest.mark.parametrize("nots", [127, 128, 32_767, 32_800])
    def test_level_groups_equal_a_stable_int64_sort(self, nots):
        # A chain of NOTs from ``a`` and, at every hundredth chain wire, two
        # ANDs of it with ``b``.  The sort key ``2 * level + is_not`` reaches
        # 2 * nots + 1: past 2**8 from 128 NOTs and past 2**16 from 32,768.
        ands = [k for k in range(0, nots, 100) for _ in range(2)]
        wires = ("a", "b", *(f"n{k}" for k in range(nots)),
                 *(f"g{j}" for j in range(len(ands))))
        args = [(0, 0)] + [(k + 2, k + 2) for k in range(nots - 1)] + [(k + 2, 1) for k in ands]
        network = nl.CompiledNetwork(wires, ("a", "b"), (wires[-1],),
                                     [True] * nots + [False] * len(ands), args,
                                     np.arange(2, len(wires)), list(wires[2:]))
        level = [0] * len(wires)
        for gate in gate_rows(network):
            level[gate.out] = 1 + max(level[arg] for arg in gate.args)
        key = 2 * np.array(level, dtype=np.int64)[network.out] + network.is_not
        assert key.max() == 2 * nots + 1
        order = np.argsort(key, kind="stable")
        key = key[order]
        bounds = [0, *(np.flatnonzero(np.diff(key)) + 1).tolist(), len(key)]
        groups = network.level_groups
        assert groups.bounds == bounds
        assert groups.ops == ["NOT" if k & 1 else "AND" for k in key[bounds[:-1]].tolist()]
        assert groups.out.tolist() == network.out[order].tolist()
        assert groups.reads.tolist() == network.args[order].T.tolist()

    def test_verify_with_and_without_a_network_file(self, tmp_path, full_adder_network):
        netlist_path, network_path = tmp_path / "adder.nl", tmp_path / "adder.json"
        netlist_path.write_text(FULL_ADDER)
        network_path.write_text(full_adder_network.to_json())
        for extra in ([], ["--network", str(network_path)]):
            out = CliRunner().invoke(cli.main, ["verify", str(netlist_path), "--steps", "32",
                                                *extra])
            assert out.exit_code == 0, out.output
        report = nl.verify_equivalence(full_adder_network, "spike",
                                       nl.GeneratorConfig(seed=3, steps=32))
        assert report.ok
        nl.decision_latency(full_adder_network, nl.GeneratorConfig(seed=3, steps=32), 20)
