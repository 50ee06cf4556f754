import random

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


def level_groups(network: nl.CompiledNetwork) -> list[list[nl.CompiledGate]]:
    """The gates grouped by (topological level, op), in level order.

    Inputs are at level 0 and a gate is one level above its deepest
    argument; recomputed here, apart from the simulator's planner.
    """
    level = [0] * len(network.wires)
    groups: dict[tuple[int, str], list] = {}
    for gate in network.gates:
        level[gate.out] = 1 + max(level[arg] for arg in gate.args)
        groups.setdefault((level[gate.out], gate.op), []).append(gate)
    return [groups[key] for key in sorted(groups)]


def eval_lowered_gate(gate: str, not_, and_, x1, x2):
    """Evaluate ``output y = gate a b``, lowered to {NOT, AND}, with the given kernels."""
    network = nl.lower(nl.parse(f"input a b\noutput y = {gate} a b\n"))
    waves = [x1, x2]
    for g in network.gates:
        args = [waves[i] for i in g.args]
        waves.append(not_(*args) if g.op == "NOT" else and_(*args))
    return waves[network.wire_index("y")]


@pytest.fixture
def full_adder_ast() -> nl.NetlistAst:
    return nl.parse(FULL_ADDER)


@pytest.fixture
def full_adder_network(full_adder_ast) -> nl.CompiledNetwork:
    return nl.lower(full_adder_ast)
