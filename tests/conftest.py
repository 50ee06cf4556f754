import random
from typing import NamedTuple

import numpy as np
import pytest

import noiselogic as nl
from noiselogic.signals import pack_steps

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


def random_netlist_source(rng: random.Random, max_inputs: int = 8, max_gates: int = 40,
                          min_inputs: int = 2) -> str:
    """One random acyclic netlist using every gate kind with positive probability."""
    n_inputs = rng.randint(min_inputs, max_inputs)
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
    """The network's gates, in evaluation order, as ``(op, args, out, src)`` rows.

    ``out`` is the wire gate ``i`` writes, ``len(network.inputs) + i``.
    """
    return [GateRow("NOT", (a,), out, src) if is_not else GateRow("AND", (a, b), out, src)
            for out, (is_not, (a, b), src) in enumerate(
                zip(network.is_not.tolist(), network.args.tolist(), network.src.tolist()),
                start=len(network.inputs))]


def network_from_rows(wires, inputs, outputs, rows) -> nl.CompiledNetwork:
    """The network whose gates are ``rows``, the inverse of :func:`gate_rows`."""
    for i, (op, args, out, _) in enumerate(rows):
        assert len(args) == nl.netlist.PRIMITIVE_ARITY[op], (op, args)
        assert out == len(inputs) + i, (i, out)
    return nl.CompiledNetwork(tuple(wires), tuple(inputs), tuple(outputs),
                              [row.op == "NOT" for row in rows],
                              [(row.args[0], row.args[-1]) for row in rows],
                              [row.src for row in rows])


def level_groups(network: nl.CompiledNetwork) -> list[list[GateRow]]:
    """The gates grouped by phase, in phase order.

    ANDs sit in even phases and NOTs in odd ones.  Inputs are at phase -1,
    and a gate steps up from its latest argument's phase, once or twice, to
    the first phase of its op's parity; recomputed here, apart from
    ``CompiledNetwork.level_groups``.
    """
    phase = [-1] * len(network.wires)
    groups: dict[int, list] = {}
    for gate in gate_rows(network):
        p = max(phase[arg] for arg in gate.args) + 1
        if p % 2 != (gate.op == "NOT"):
            p += 1
        phase[gate.out] = p
        groups.setdefault(p, []).append(gate)
    return [groups[p] for p in sorted(groups)]


def packed(values) -> np.ndarray:
    """The words-major ``uint64`` words of -1/+1 or 0/1 ``values`` of shape ``(steps,)`` or
    ``(..., rows, steps)``: a set bit is +1 or a spike, as a carrier packs one wave."""
    return pack_steps(np.asarray(values) > 0)


def eval_lowered_gate(gate: str, not_, and_, x1, x2):
    """Evaluate ``output y = gate a b``, lowered to {NOT, AND}, with the given kernels."""
    network = nl.lower(nl.parse(f"input a b\noutput y = {gate} a b\n"))
    waves = [x1, x2]
    for g in gate_rows(network):
        args = [waves[i] for i in g.args]
        waves.append(not_(*args) if g.op == "NOT" else and_(*args))
    return waves[network.wires.index("y")]


@pytest.fixture
def full_adder_ast() -> nl.NetlistAst:
    return nl.parse(FULL_ADDER)


@pytest.fixture
def full_adder_network(full_adder_ast) -> nl.CompiledNetwork:
    return nl.lower(full_adder_ast)
