import random
from typing import NamedTuple

import pytest

import noiselogic as nl

FULL_ADDER = """\
# one-bit full adder
input a b cin
wire s1 = XOR a b
wire c1 = AND a b
wire c2 = AND s1 cin
output sum = XOR s1 cin
output cout = OR c1 c2
"""

_UNARY = ("NOT", "BUF")
_BINARY = ("AND", "OR", "NAND", "NOR", "XOR", "XNOR")


def random_netlist_source(rng: random.Random, max_inputs: int = 8, max_gates: int = 40) -> str:
    """One random acyclic netlist using every gate kind with positive probability."""
    n_inputs = rng.randint(2, max_inputs)
    inputs = [f"i{k}" for k in range(n_inputs)]
    lines = ["input " + " ".join(inputs)]
    wires = list(inputs)
    for g in range(rng.randint(1, max_gates) - 1):
        gate = rng.choice(_UNARY + _BINARY)
        arity = 1 if gate in _UNARY else 2
        args = " ".join(rng.choice(wires) for _ in range(arity))
        lines.append(f"wire w{g} = {gate} {args}")
        wires.append(f"w{g}")
    gate = rng.choice(_BINARY)
    lines.append(f"output y = {gate} {rng.choice(wires)} {rng.choice(wires)}")
    return "\n".join(lines) + "\n"


class GateRow(NamedTuple):
    """One primitive of a network: ``args`` holds a NOT's one operand or an AND's two."""

    op: str
    args: tuple[int, ...]
    out: int
    src: str


def gate_rows(network: nl.CompiledNetwork) -> list[GateRow]:
    """The network's gates, in evaluation order, as ``(op, args, out, src)`` rows."""
    return [GateRow("NOT", (a,), out, src) if is_not else GateRow("AND", (a, b), out, src)
            for is_not, (a, b), out, src in zip(network.is_not.tolist(), network.args.tolist(),
                                                network.out.tolist(), network.src.tolist())]


def network_from_rows(wires, inputs, outputs, rows) -> nl.CompiledNetwork:
    """The network whose gates are ``rows``, the inverse of :func:`gate_rows`."""
    for op, args, _, _ in rows:
        assert len(args) == nl.netlist.PRIMITIVE_ARITY[op], (op, args)
    return nl.CompiledNetwork(tuple(wires), tuple(inputs), tuple(outputs),
                              [row.op == "NOT" for row in rows],
                              [(row.args[0], row.args[-1]) for row in rows],
                              [row.out for row in rows], [row.src for row in rows])


def level_groups(network: nl.CompiledNetwork) -> list[list[GateRow]]:
    """The gates grouped by (topological level, op), in level order.

    Inputs are at level 0 and a gate is one level above its deepest
    argument; recomputed here, apart from the simulator's planner.
    """
    level = [0] * len(network.wires)
    groups: dict[tuple[int, str], list] = {}
    for gate in gate_rows(network):
        level[gate.out] = 1 + max(level[arg] for arg in gate.args)
        groups.setdefault((level[gate.out], gate.op), []).append(gate)
    return [groups[key] for key in sorted(groups)]


def eval_lowered_gate(gate: str, not_, and_, x1, x2):
    """Evaluate ``output y = gate a b``, lowered to {NOT, AND}, with the given kernels."""
    network = nl.lower(nl.parse(f"input a b\noutput y = {gate} a b\n"))
    waves = [x1, x2]
    for g in gate_rows(network):
        args = [waves[i] for i in g.args]
        waves.append(not_(*args) if g.op == "NOT" else and_(*args))
    return waves[network.wire_index("y")]


@pytest.fixture
def full_adder_ast() -> nl.NetlistAst:
    return nl.parse(FULL_ADDER)


@pytest.fixture
def full_adder_network(full_adder_ast) -> nl.CompiledNetwork:
    return nl.lower(full_adder_ast)
