import random

import numpy as np
import pytest

import noiselogic as nl
from noiselogic.errors import NetlistError
from noiselogic.netlist import format_netlist

from conftest import FULL_ADDER, random_netlist_source


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
        assert len(nl.lower(ast).gates) == count

    def test_or_expansion_shape(self):
        net = nl.lower(nl.parse("input a b\noutput y = OR a b\n"))
        assert net.gate_counts() == {"NOT": 3, "AND": 1}

    def test_only_primitives_emitted(self, full_adder_network):
        assert all(g.op in ("NOT", "AND") for g in full_adder_network.gates)

    def test_topological_validity(self, full_adder_network):
        for gate in full_adder_network.gates:
            assert all(arg < gate.out for arg in gate.args)

    def test_lowering_trace_names_source_gate(self, full_adder_network):
        sources = {g.src for g in full_adder_network.gates}
        assert sources == {"s1", "c1", "c2", "sum", "cout"}

    def test_byte_stable(self, full_adder_ast):
        assert nl.lower(full_adder_ast).to_json() == nl.lower(full_adder_ast).to_json()


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
