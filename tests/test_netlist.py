import json
import random
import re
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
        assert ast.assignments == (("n", "AND", ("a", "b")), ("y", "NOT", ("n",)))

    def test_buf_passthrough(self):
        ast = nl.parse("input a\noutput y = BUF a\n")
        assert ast.assignments == (("y", "BUF", ("a",)),)

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
        assert len(nl.lower(ast).is_not) == count

    def test_or_expansion_shape(self):
        net = nl.lower(nl.parse("input a b\noutput y = OR a b\n"))
        assert (net.is_not.sum(), (~net.is_not).sum()) == (3, 1)

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
        assert len(network.is_not) == len(nl.netlist.EXPANSION[gate]) == self.COUNTS[gate]

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

    @pytest.mark.parametrize("key", [3, None])
    @pytest.mark.parametrize("entry", ["run", "eval_boolean", "decision_latency"])
    def test_a_stray_key_of_any_type_is_a_netlist_error(self, entry, key):
        # Joining the stray names raised a bare TypeError for a key that is not a str.
        ast = nl.parse("input a b\noutput y = AND a b\n")
        net = nl.lower(ast)
        assignment = {"a": 1, "b": 1, key: 1}
        config = nl.GeneratorConfig(seed=1, steps=16)
        call = {"run": lambda: nl.run(net, "spike", assignment, config),
                "eval_boolean": lambda: nl.eval_boolean(ast, assignment),
                "decision_latency": lambda: nl.decision_latency(net, config, 3,
                                                                assignment=assignment)}[entry]
        with pytest.raises(NetlistError, match=f"not inputs: {re.escape(str(key))}$"):
            call()

    @pytest.mark.parametrize("a, b", [
        # Rows of bits used to end in a NumPy broadcast ValueError, and ragged
        # lanes in an "inhomogeneous shape" one.
        (np.array([0, 1]), np.array([1, 1])),
        (np.array([1], dtype=np.uint64), np.array([1, 3], dtype=np.uint64)),
        # Lane 0 of the word 2 is 0, but run read it as High, y = 1.
        (np.array([2], dtype=np.uint64), np.array([2], dtype=np.uint64)),
        (np.array(1), 1),
    ])
    @pytest.mark.parametrize("entry", ["run", "decision_latency"])
    def test_run_and_decision_latency_take_bits_only(self, entry, a, b):
        net = nl.lower(nl.parse("input a b\noutput y = AND a b\n"))
        config = nl.GeneratorConfig(seed=1, steps=16)
        call = {"run": lambda bits: nl.run(net, "spike", bits, config),
                "decision_latency": lambda bits: nl.decision_latency(net, config, 3,
                                                                     assignment=bits)}[entry]
        with pytest.raises(NetlistError, match="^input 'a' must be 0 or 1, got "):
            call({"a": a, "b": b})

    def test_run_stores_the_bits_as_ints(self):
        net = nl.lower(nl.parse("input a b\noutput y = AND a b\n"))
        result = nl.run(net, "spike", {"b": np.int64(1), "a": True},
                        nl.GeneratorConfig(seed=1, steps=16))
        assert result.assignment == {"a": 1, "b": 1}
        assert [type(v) for v in result.assignment.values()] == [int, int]
        assert result.output_bits() == {"y": 1}

    def test_outputs_are_looked_up_once_per_network(self):
        net = nl.lower(nl.parse(FULL_ADDER))
        assert net._output_wires == tuple(map(net.wires.index, net.outputs))
        assert "_output_wires" in vars(net)
        assert nl.eval_boolean(net, {"a": 1, "b": 1, "cin": 0}) == {"sum": 0, "cout": 1}

    def test_lane_words_evaluate_every_lane(self, full_adder_ast, full_adder_network):
        # Two lane words: lane j holds assignment j % 8.
        index = np.arange(128) % 8
        shifts = {"a": 2, "b": 1, "cin": 0}
        lanes = {name: np.packbits((index >> k & 1).astype(bool), bitorder="little")
                 .view("<u8").astype(np.uint64) for name, k in shifts.items()}
        for source in (full_adder_ast, full_adder_network):
            got = nl.eval_boolean(source, lanes)
            assert all(v.dtype == np.uint64 and v.shape == (2,) for v in got.values())
            for j in range(128):
                row = {name: int(index[j]) >> k & 1 for name, k in shifts.items()}
                assert {name: int(v[j // 64]) >> j % 64 & 1 for name, v in got.items()} == \
                    nl.eval_boolean(source, row)

    @pytest.mark.parametrize("change, message", [
        # A 0/1 integer array used to be read as one assignment per row.
        ({"cin": np.array([0, 1])}, "input 'cin' must be 0 or 1, or 1-D uint64 lane words, got "),
        ({"cin": np.array([[1]], dtype=np.uint64)}, "input 'cin' must be 0 or 1, or 1-D uint64"),
        ({"cin": 1}, "lane words must bind every input or none, in one length"),
        ({"cin": np.zeros(2, dtype=np.uint64)}, "lane words must bind every input or none"),
        ({"cin": [1]}, "input 'cin' must be 0 or 1, or 1-D uint64 lane words, got \\[1\\]"),
    ])
    def test_a_binding_is_a_bit_or_lane_words_for_every_input(self, full_adder_ast, change,
                                                              message):
        lanes = {name: np.array([5], dtype=np.uint64) for name in ("a", "b", "cin")}
        for source in (full_adder_ast, nl.lower(full_adder_ast)):
            with pytest.raises(NetlistError, match=f"^{message}"):
                nl.eval_boolean(source, {**lanes, **change})

    def test_full_adder_semantics(self, full_adder_ast):
        for i in range(8):
            a, b, cin = (i >> 2) & 1, (i >> 1) & 1, i & 1
            got = nl.eval_boolean(full_adder_ast, {"a": a, "b": b, "cin": cin})
            assert got == {"sum": a ^ b ^ cin, "cout": int(a + b + cin >= 2)}


_NOT_TUPLES = "NetlistAst inputs, outputs and assignments must be tuples"


class TestHandBuiltAst:
    """``lower`` and the AST oracle apply parse's per-gate rules to a hand-built AST."""

    @pytest.mark.parametrize("gates, outputs, message", [
        ([("y", "AND", ("a",))], ("y",), "AND takes 2 argument(s), got 1"),
        ([("y", "NOT", ("a", "a"))], ("y",), "NOT takes 1 argument(s), got 2"),
        ([("y", "NOT", ())], ("y",), "NOT takes 1 argument(s), got 0"),
        ([("y", "AND", ("a", "z"))], ("y",), "undefined name 'z'"),
        ([("y", "AND", ("a", "z$0"))], ("y",), "invalid name 'z$0'"),
        ([("y", "NOT", (3,))], ("y",), "invalid name 3"),
        ([("y", "MUX", ("a", "b"))], ("y",), "unknown gate 'MUX'"),
        ([("y", "NOT", ("a",)), ("y", "NOT", ("b",))], ("y",), "name 'y' already defined"),
        ([("a", "NOT", ("b",))], ("a",), "name 'a' already defined"),
        ([("y$1", "NOT", ("a",))], ("y$1",), "invalid name 'y$1'"),
        ([("wire", "NOT", ("a",))], ("wire",), "'wire' is a reserved word"),
        ([("y", "NOT", ("a",))], ("z",), "output 'z' is never defined"),
    ])
    def test_lower_and_the_oracle_raise_parses_message_without_a_line(self, gates, outputs,
                                                                      message):
        ast = nl.NetlistAst(("a", "b"), outputs, tuple(gates))
        for call in (lambda: nl.lower(ast), lambda: nl.eval_boolean(ast, {"a": 1, "b": 0})):
            with pytest.raises(NetlistError, match=f"^{re.escape(message)}$") as info:
                call()
            assert info.value.lineno is None

    @pytest.mark.parametrize("inputs, outputs, gates, message", [
        (("1a",), ("y",), (("y", "NOT", ("1a",)),), "invalid name '1a'"),
        (("input",), ("y",), (("y", "NOT", ("input",)),), "'input' is a reserved word"),
        ((3,), ("y",), (("y", "NOT", (3,)),), "invalid name 3"),
        (("a", "a"), ("y",), (("y", "NOT", ("a",)),), "name 'a' already defined"),
        (("a",), (), (("y", "NOT", ("a",)),), "netlist declares no outputs"),
        (["a"], ("y",), (("y", "NOT", ("a",)),), _NOT_TUPLES),
        (("a",), ["y"], (("y", "NOT", ("a",)),), _NOT_TUPLES),
        (("a",), ("y",), [("y", "NOT", ("a",))], _NOT_TUPLES),
        (("a",), ("y",), (("y", "NOT"),), "assignment ('y', 'NOT') is not a (target, gate, args) tuple"),
        (("a",), ("y",), (("y", "NOT", ["a"]),),
         "assignment ('y', 'NOT', ['a']) is not a (target, gate, args) tuple"),
    ])
    def test_inputs_outputs_and_rows_are_checked_too(self, inputs, outputs, gates, message):
        ast = nl.NetlistAst(inputs, outputs, gates)
        assignment = dict.fromkeys(inputs, 0)
        for call in (lambda: nl.lower(ast), lambda: nl.eval_boolean(ast, assignment)):
            with pytest.raises(NetlistError, match=f"^{re.escape(message)}$") as info:
                call()
            assert info.value.lineno is None

    def test_each_gate_is_checked_once(self, monkeypatch):
        calls = []
        check = nl.netlist._check_gate

        def counted(*args):
            calls.append(args[0])
            return check(*args)

        monkeypatch.setattr(nl.netlist, "_check_gate", counted)
        parsed = nl.parse(FULL_ADDER)
        targets = [target for target, _, _ in parsed.assignments]
        assert calls == targets
        network = nl.lower(parsed)
        nl.eval_boolean(parsed, {"a": 1, "b": 0, "cin": 1})
        assert calls == targets
        hand_built = nl.NetlistAst(parsed.inputs, parsed.outputs, parsed.assignments)
        assert nl.lower(hand_built) == network
        assert calls == targets * 2

    def test_parse_raises_the_same_message_with_its_line(self):
        for source, message in [("input a\noutput y = NOT a a\n", "NOT takes 1 argument(s), got 2"),
                                ("input a b\nwire a = NOT b\n", "name 'a' already defined"),
                                ("input a\noutput y = AND a z\n", "undefined name 'z'")]:
            with pytest.raises(NetlistError, match=f"^line 2: {re.escape(message)}$"):
                nl.parse(source)

    def test_a_well_formed_hand_built_ast_lowers_as_parsed(self):
        ast = nl.NetlistAst(("a", "b"), ("y",), (("w", "XOR", ("a", "b")), ("y", "NOT", ("w",))))
        assert ast == nl.parse("input a b\nwire w = XOR a b\noutput y = NOT w\n")
        assert nl.lower(ast) == nl.lower(nl.parse(format_netlist(ast)))
        assert nl.eval_boolean(ast, {"a": 1, "b": 0}) == {"y": 0}


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
    """A network's gates are its three read-only columns; gate ``i`` writes wire
    ``len(inputs) + i``."""

    def test_networks_compare_and_hash_by_names_and_columns(self, full_adder_network):
        net = full_adder_network
        rows = gate_rows(net)
        assert len(rows) == 22 and rows == gate_rows(serial_lower(nl.parse(FULL_ADDER)))
        built = network_from_rows(net.wires, net.inputs, net.outputs, rows)
        assert built == net and hash(built) == hash(net)
        assert len({built, net}) == 1
        # Two neighbouring gates where the second does not read the first,
        # each now writing the wire of its new position.
        i = next(i for i in range(len(rows) - 1) if rows[i].out not in rows[i + 1].args)
        order = rows[:i] + [rows[i + 1]._replace(out=rows[i].out),
                            rows[i]._replace(out=rows[i + 1].out)] + rows[i + 2:]
        swapped = network_from_rows(net.wires, net.inputs, net.outputs, order)
        assert swapped != net and gate_rows(swapped) == order
        renamed = [g._replace(src="x") if i == 4 else g for i, g in enumerate(rows)]
        assert network_from_rows(net.wires, net.inputs, net.outputs, renamed) != net
        assert replace(net, outputs=net.outputs[::-1]) != net
        assert net != rows

    def test_columns_are_read_only(self, full_adder_network):
        net = full_adder_network
        for column in (net.is_not, net.args, net.src):
            with pytest.raises(ValueError):
                column[0] = column[1]
        assert net.args.shape == (len(net.wires) - len(net.inputs), 2)
        nots = net.is_not
        assert (net.args[nots, 0] == net.args[nots, 1]).all()

    def test_columns_of_different_lengths_are_rejected(self):
        with pytest.raises(NetlistError, match="differ in length"):
            nl.CompiledNetwork(("a", "y"), ("a",), ("y",), [True], [(0, 0)], [])

    @pytest.mark.parametrize("wires, outputs, args, message", [
        (("a", "t", "y"), ("y",), [(2, 2), (0, 0)],
         "gate 0 reads wire 2, which is neither an input nor written by an earlier gate"),
        (("a", "d", "y"), ("y",), [(0, 0)],
         "every wire after the inputs must be written by exactly one gate"),
        (("a", "y"), ("y",), [(-1, -1)],
         "gate 0 reads wire -1, which is neither an input nor written by an earlier gate"),
        (("a", "y"), ("y",), [(5, 5)],
         "gate 0 reads wire 5, which is neither an input nor written by an earlier gate"),
        (("a", "y"), ("z",), [(0, 0)], "output 'z' is never defined"),
        (("a", "y"), ("y",), [(0, 0), (0, 0)],
         "every wire after the inputs must be written by exactly one gate"),
        (("a", "y"), ("y",), [(1, 1)],
         "gate 0 reads wire 1, which is neither an input nor written by an earlier gate"),
        (("a", "a"), ("a",), [(0, 0)], "compiled network names a wire twice"),
        (("y", "a"), ("y",), [(1, 1)], "compiled network's wires must start with its inputs"),
        (("a", "y"), ("y", "y"), [(0, 0)], "compiled network declares an output twice"),
    ], ids=["reads-a-later-gate", "unwritten-wire", "negative-argument", "argument-past-wires",
            "output-names-no-wire", "more-gates-than-wires", "reads-its-own-wire",
            "duplicate-wire", "inputs-not-first", "duplicate-output"])
    def test_malformed_networks_are_rejected(self, wires, outputs, args, message):
        with pytest.raises(NetlistError) as info:
            nl.CompiledNetwork(wires, ("a",), outputs, [True] * len(args), args,
                               [wires[-1]] * len(args))
        assert str(info.value) == message

    @pytest.mark.parametrize("is_not, args, column, what", [
        ([True], [0], "args", "(gates, 2) integer wire indices"),
        ([True], [(0, 0, 0)], "args", "(gates, 2) integer wire indices"),
        ([True], [("x", "y")], "args", "(gates, 2) integer wire indices"),
        ([True], [(0.5, 0)], "args", "(gates, 2) integer wire indices"),
        ([True, True], [(0,), (0, 1)], "args", "(gates, 2) integer wire indices"),
        (["x"], [(0, 0)], "is_not", "bools"),
        ([2], [(0, 0)], "is_not", "bools"),
    ], ids=["one-index", "three-indices", "names", "fraction", "ragged", "name-op", "two-op"])
    def test_malformed_columns_are_rejected(self, is_not, args, column, what):
        # Checked before any cast, which would fail, truncate 0.5 to 0 or read "x" as a NOT.
        with pytest.raises(NetlistError) as info:
            nl.CompiledNetwork(("a", "y"), ("a",), ("y",), is_not, args, ["y"] * len(is_not))
        assert str(info.value).startswith(f"gate column {column} must hold {what}, got ")

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n_in=st.integers(0, 4), gates=st.integers(0, 7))
    def test_constructor_accepts_exactly_the_reads_of_earlier_wires(self, data, n_in, gates):
        # Each operand is an earlier wire, then a few are overwritten with any
        # value from -3 to three past the last wire: negative, self, later and
        # past-the-end reads.
        n = n_in + gates
        is_not = data.draw(st.lists(st.booleans(), min_size=gates, max_size=gates))
        args = [[data.draw(st.integers(0, n_in + i - 1) if n_in + i else st.integers(-3, n + 2))
                 for _ in range(2)] for i in range(gates)]
        if gates:
            for i, k, wire in data.draw(st.lists(st.tuples(
                    st.integers(0, gates - 1), st.integers(0, 1), st.integers(-3, n + 2)),
                    max_size=3)):
                args[i][k] = wire
        for i in range(gates):
            if is_not[i]:
                args[i][1] = args[i][0]   # a NOT holds its one operand twice
        first_bad = next(((i, k) for i in range(gates) for k in range(2)
                          if not 0 <= args[i][k] < n_in + i), None)
        wires = tuple(f"w{k}" for k in range(n))
        columns = (wires, wires[:n_in], wires[-1:], is_not, args, wires[n_in:])
        if first_bad is None:
            net = nl.CompiledNetwork(*columns)
            assert nl.CompiledNetwork.from_json(net.to_json()) == net
        else:
            i, k = first_bad
            with pytest.raises(NetlistError) as info:
                nl.CompiledNetwork(*columns)
            assert str(info.value) == (f"gate {i} reads wire {args[i][k]}, which is neither "
                                       f"an input nor written by an earlier gate")

    def test_zero_gate_network_from_json(self):
        net = nl.CompiledNetwork.from_json('{"inputs": ["a"], "outputs": ["a"], "gates": []}')
        assert len(net.is_not) == 0 and gate_rows(net) == [] and net.args.shape == (0, 2)
        assert (net.is_not.sum(), (~net.is_not).sum()) == (0, 0)
        assert net == network_from_rows(("a",), ("a",), ("a",), [])
        assert nl.CompiledNetwork.from_json(net.to_json()) == net
        assert nl.eval_boolean(net, {"a": 1}) == {"a": 1}
        config = nl.GeneratorConfig(seed=1, steps=32)
        assert nl.run(net, "spike", {"a": 0}, config).output_bits() == {"a": 0}
        assert simulator._slot_groups(net.level_groups) == [] and len(net.wires) == 1

    @pytest.mark.parametrize("backend", nl.BACKENDS)
    def test_network_with_no_wires(self, backend):
        # Its one empty assignment verifies on a chunk of at least one slot;
        # dividing the chunk by its zero slots, one per wire, raised ZeroDivisionError.
        net = nl.CompiledNetwork((), (), (), [], [], [])
        assert len(net.wires) == 0
        config = nl.GeneratorConfig(seed=1, steps=32)
        doc = nl.verify_equivalence(net, backend, config).to_doc()
        assert (doc["checked"], doc["passed"], doc["pass"]) == (1, 1, True)
        doc = nl.verify_equivalence(net, backend, config, sample=5).to_doc()
        assert (doc["checked"], doc["passed"], doc["pass"]) == (5, 5, True)
        assert nl.run(net, backend, {}, config).output_bits() == {}
        assert nl.decision_latency(net, config, 3, backend).ambiguous_windows == 3


def _check_phases(network: nl.CompiledNetwork) -> None:
    """``network.level_groups`` is one group per phase, each gate in its earliest phase.

    A phase holds ANDs if even and NOTs if odd; inputs are at phase -1.
    Each group's phase is recomputed from the phases of its gates'
    operands, which must lie in earlier groups.
    """
    groups, n_in = network.level_groups, len(network.inputs)
    assert sorted(groups.out.tolist()) == list(range(n_in, len(network.wires)))
    phase, group, last = [-1] * len(network.wires), [-1] * len(network.wires), -1
    for k, (op, lo, hi) in enumerate(zip(groups.ops, groups.bounds, groups.bounds[1:])):
        outs, reads = groups.out[lo:hi], groups.reads[:, lo:hi]
        assert len(outs) > 0
        assert network.is_not[outs - n_in].tolist() == [op == "NOT"] * len(outs)
        assert reads.tolist() == network.args[outs - n_in].T.tolist()
        earliest = set()
        for a, b in reads.T.tolist():
            assert group[a] < k and group[b] < k
            p = max(phase[a], phase[b]) + 1
            earliest.add(p + (p % 2 != (op == "NOT")))
        (p,) = earliest
        assert p > last and p % 2 == (op == "NOT")
        for out in outs.tolist():
            phase[out], group[out] = p, k
        last = p


class TestPhases:
    @settings(max_examples=150, deadline=None)
    @given(netlist_seed=st.integers(0, 2**32 - 1))
    def test_random_netlists_group_by_phase(self, netlist_seed):
        _check_phases(nl.lower(nl.parse(random_netlist_source(random.Random(netlist_seed)))))

    @settings(max_examples=150, deadline=None)
    @given(gates=st.lists(st.tuples(st.booleans(), st.integers(0, 2**16)), max_size=60))
    def test_not_and_chains_group_by_phase(self, gates):
        # Gate k reads the wire before it and, if an AND, any earlier wire.
        wires = ("a", "b", *(f"g{k}" for k in range(len(gates))))
        args = [(k + 1, (k + 1) if is_not else pick % (k + 2))
                for k, (is_not, pick) in enumerate(gates)]
        _check_phases(nl.CompiledNetwork(wires, ("a", "b"), (wires[-1],),
                                         [is_not for is_not, _ in gates], args, wires[2:]))

    @settings(max_examples=150, deadline=None)
    @given(netlist_seed=st.integers(0, 2**32 - 1), max_gates=st.sampled_from([1, 5, 40, 200]))
    def test_source_gate_phases_equal_primitive_phases(self, netlist_seed, max_gates):
        # lower takes the phases from the source gates, from_json from each
        # primitive as its own NOT or AND gate.
        network = nl.lower(nl.parse(random_netlist_source(random.Random(netlist_seed),
                                                          max_gates=max_gates)))
        got = network.level_groups
        want = nl.CompiledNetwork.from_json(network.to_json()).level_groups
        assert got.bounds == want.bounds
        assert got.ops == want.ops
        for field in ("out", "reads"):
            assert getattr(got, field).dtype == getattr(want, field).dtype
            assert getattr(got, field).tolist() == getattr(want, field).tolist()

    def test_inputs_declared_after_gates(self):
        # Inputs come first in the network whatever the lines that declare them.
        ast = nl.parse("input b\nwire w = XOR b b\ninput a c\noutput y = NAND w a\n"
                       "wire v = OR y c\ninput d\noutput z = AND v d\n")
        assert ast.inputs == ("b", "a", "c", "d")
        network = nl.lower(ast)
        assert network == nl.lower(nl.parse(format_netlist(ast))) == serial_lower(ast)
        want = nl.CompiledNetwork.from_json(network.to_json()).level_groups
        assert network.level_groups.bounds == want.bounds
        assert network.level_groups.out.tolist() == want.out.tolist()

    def test_xor_and_full_adder_phases(self, full_adder_network):
        # XOR lowers to NOT, AND, NOT, AND, NOT along its deepest path.  The
        # full adder takes 12 phases, where its (level, op) groups were 16.
        xor = nl.lower(nl.parse("input a b\noutput y = XOR a b\n"))
        assert xor.level_groups.ops == ["NOT", "AND", "NOT", "AND", "NOT"]
        assert len(full_adder_network.level_groups.ops) == 12


class TestLargeNetworks:
    """Simulating, verifying, JSON and counts on networks lowered to arrays."""

    def test_simulate_json_and_counts_of_a_large_network(self, tmp_path):
        source = random_netlist_source(random.Random(26), 32, 1000)
        path = tmp_path / "big.nl"
        path.write_text(source)
        network = nl.lower(nl.parse(source))
        assert len(network.is_not) > 3500
        assign = ",".join(f"{name}={k % 2}" for k, name in enumerate(network.inputs))
        out = CliRunner().invoke(cli.main, ["simulate", str(path), "--assign", assign,
                                            "--steps", "64"])
        assert out.exit_code == 0, out.output
        assert json.loads(out.stdout)["primitive_count"] == len(network.is_not)
        assert network.is_not.sum() + (~network.is_not).sum() == len(network.is_not)
        assert nl.CompiledNetwork.from_json(network.to_json()) == network

    @pytest.mark.parametrize("nots", [128, 129, 32_768, 32_800])
    def test_level_groups_equal_a_stable_int64_sort(self, nots):
        # A chain of NOTs from ``a`` and, at every hundredth chain wire, two
        # ANDs of it with ``b``.  NOT ``k`` of the chain is in phase
        # ``2 * k + 1``, so the sort key, the phase, reaches 2 * nots - 1:
        # past 2**8 from 129 NOTs and past 2**16 from 32,769.
        ands = [k for k in range(0, nots, 100) for _ in range(2)]
        wires = ("a", "b", *(f"n{k}" for k in range(nots)),
                 *(f"g{j}" for j in range(len(ands))))
        args = [(0, 0)] + [(k + 2, k + 2) for k in range(nots - 1)] + [(k + 2, 1) for k in ands]
        network = nl.CompiledNetwork(wires, ("a", "b"), (wires[-1],),
                                     [True] * nots + [False] * len(ands), args, list(wires[2:]))
        phase = [-1] * len(wires)
        for gate in gate_rows(network):
            p = max(phase[arg] for arg in gate.args) + 1
            phase[gate.out] = p + (p % 2 != (gate.op == "NOT"))
        out = np.arange(2, len(wires))
        key = np.array(phase, dtype=np.int64)[out]
        assert key.max() == 2 * nots - 1
        order = np.argsort(key, kind="stable")
        key = key[order]
        bounds = [0, *(np.flatnonzero(np.diff(key)) + 1).tolist(), len(key)]
        groups = network.level_groups
        assert groups.bounds == bounds
        assert groups.ops == ["NOT" if k & 1 else "AND" for k in key[bounds[:-1]].tolist()]
        assert groups.out.tolist() == out[order].tolist()
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
