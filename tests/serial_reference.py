"""One-at-a-time references for the netlist compiler, the simulator's walker and its kernels.

The package parses with few checks per token, lowers every source gate
through one expansion table with array operations into a network's gate
arrays, draws sampled assignment indices as one block, classifies whole
batches of words with ``classify_rows`` and evaluates every network one
phase group at a time over one slot matrix of packed words: ANDs in even
phases and NOTs in odd ones, each gate in the first phase of its op's
parity after its operands'.  The functions here are a token-by-token parser and a recursive
lowerer that emits one ``GateRow`` per primitive, a draw of one word at a
time, a per-wire, step-by-step reading of the classification rule, a
per-gate walk that keeps one wave per wire, and the gate kernels as
literal integer arithmetic on the unpacked values of a wave or a batch
(the paper's polynomials and neuron circuits, with their checks), all
written apart from the package; tests require equal results from both.
"""

import re
from typing import NamedTuple

import numpy as np

import noiselogic as nl
from noiselogic import simulator
from noiselogic.errors import NetlistError
from noiselogic.netlist import GATE_ARITY, NetlistAst
from noiselogic.prng import SplitMix64

from conftest import GateRow, gate_rows, network_from_rows

# ---------------------------------------------------------------------------
# The netlist compiler, one token and one primitive at a time

_RESERVED = {"input", "wire", "output"}
NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def serial_parse(text: str) -> NetlistAst:
    """Parse netlist source, checking every token as a name before any lookup."""
    inputs: list[str] = []
    outputs: list[str] = []
    assignments: list[tuple[str, str, tuple[str, ...]]] = []
    defined: set[str] = set()

    def _name(token: str, lineno: int) -> str:
        if not NAME_RE.match(token):
            raise NetlistError(f"invalid name {token!r}", lineno)
        if token in _RESERVED:
            raise NetlistError(f"{token!r} is a reserved word", lineno)
        return token

    def _define(token: str, lineno: int) -> str:
        name = _name(token, lineno)
        if name in defined:
            raise NetlistError(f"name {name!r} already defined", lineno)
        defined.add(name)
        return name

    def _use(token: str, lineno: int) -> str:
        name = _name(token, lineno)
        if name not in defined:
            raise NetlistError(f"undefined name {name!r}", lineno)
        return name

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "input":
            if len(tokens) < 2:
                raise NetlistError("input line declares no names", lineno)
            for token in tokens[1:]:
                inputs.append(_define(token, lineno))
            continue
        if keyword in ("wire", "output"):
            if len(tokens) < 3 or tokens[2] != "=":
                raise NetlistError(f"expected '{keyword} <name> = <GATE> <args>'", lineno)
            if len(tokens) < 4:
                raise NetlistError("missing gate after '='", lineno)
            gate = tokens[3]
            if gate not in GATE_ARITY:
                raise NetlistError(f"unknown gate {gate!r}", lineno)
            args = tokens[4:]
            if len(args) != GATE_ARITY[gate]:
                raise NetlistError(
                    f"{gate} takes {GATE_ARITY[gate]} argument(s), got {len(args)}", lineno
                )
            arg_names = tuple(_use(token, lineno) for token in args)
            target = _define(tokens[1], lineno)
            assignments.append((target, gate, arg_names))
            if keyword == "output":
                outputs.append(target)
            continue
        raise NetlistError(f"expected 'input', 'wire' or 'output', got {keyword!r}", lineno)

    if not outputs:
        raise NetlistError("netlist declares no outputs")
    return NetlistAst(tuple(inputs), tuple(outputs), tuple(assignments))


class _Lowerer:
    """Emits one ``GateRow`` per primitive, composing the derived gates by hand."""

    def __init__(self, inputs: tuple[str, ...]):
        self.wires: list[str] = list(inputs)
        self.index: dict[str, int] = {name: i for i, name in enumerate(inputs)}
        self.gates: list[GateRow] = []
        self._src = ""
        self._tmp = 0

    def emit(self, op: str, args: tuple[int, ...], out_name: str) -> int:
        out = len(self.wires)
        self.index[out_name] = out
        self.wires.append(out_name)
        self.gates.append(GateRow(op, args, out, self._src))
        return out

    def fresh(self) -> str:
        name = f"{self._src}${self._tmp}"
        self._tmp += 1
        return name

    def not_(self, a: int, out: str | None = None) -> int:
        return self.emit("NOT", (a,), out or self.fresh())

    def and_(self, a: int, b: int, out: str | None = None) -> int:
        return self.emit("AND", (a, b), out or self.fresh())

    def or_(self, a: int, b: int, out: str | None = None) -> int:
        return self.not_(self.and_(self.not_(a), self.not_(b)), out)

    def expand(self, target: str, gate: str, arg_names: tuple[str, ...]) -> None:
        self._src = target
        self._tmp = 0
        args = [self.index[name] for name in arg_names]
        if gate == "NOT":
            self.not_(args[0], target)
        elif gate == "AND":
            self.and_(args[0], args[1], target)
        elif gate == "BUF":
            self.not_(self.not_(args[0]), target)
        elif gate == "NAND":
            self.not_(self.and_(args[0], args[1]), target)
        elif gate == "OR":
            self.or_(args[0], args[1], target)
        elif gate == "NOR":
            self.not_(self.or_(args[0], args[1]), target)
        elif gate == "XOR":
            left = self.and_(args[0], self.not_(args[1]))
            right = self.and_(self.not_(args[0]), args[1])
            self.or_(left, right, target)
        elif gate == "XNOR":
            left = self.and_(args[0], self.not_(args[1]))
            right = self.and_(self.not_(args[0]), args[1])
            self.not_(self.or_(left, right), target)
        else:
            raise NetlistError(f"cannot lower gate {gate!r}")


def serial_lower(ast: NetlistAst) -> nl.CompiledNetwork:
    """Lower gate by gate, building the network from its list of ``GateRow``s."""
    lowerer = _Lowerer(ast.inputs)
    for assignment in ast.assignments:
        lowerer.expand(*assignment)
    return network_from_rows(lowerer.wires, ast.inputs, ast.outputs, lowerer.gates)


# ---------------------------------------------------------------------------
# Sampled assignment indices, one word at a time


def serial_draw_indices(stream: SplitMix64, n_inputs: int, sample: int) -> list[int]:
    """Each index is ``ceil(n_inputs / 64)`` words, big-endian, modulo ``2 ** n_inputs``."""
    space = 2 ** n_inputs
    words = -(-n_inputs // 64)
    drawn = []
    for _ in range(sample):
        index = 0
        for _ in range(words):
            index = (index << 64) | stream.next_u64()
        drawn.append(index % space)
    return drawn


# ---------------------------------------------------------------------------
# The simulator's walk and classification


def classify_wave(x: nl.Waveform, pair: nl.LogicReferencePair) -> nl.Classification:
    """The classification rule, one step at a time in plain Python.

    The first step where High and Low differ votes; the vote stands only
    if the whole wave equals the voted reference.
    """
    h, l, v = pair.h.to_list(), pair.l.to_list(), x.to_list()
    t = next((t for t in range(len(h)) if h[t] != l[t]), None)
    if t is None:
        return nl.Classification(nl.Verdict.AMBIGUOUS, None,
                                 "references are identical across the whole window")
    vote, reference = (nl.Verdict.HIGH, h) if v[t] == h[t] else (nl.Verdict.LOW, l)
    if v == reference:
        return nl.Classification(vote, t)
    mismatch = next(m for m in range(len(v)) if v[m] != reference[m])
    return nl.Classification(
        nl.Verdict.AMBIGUOUS, None,
        f"step {t} votes {vote.value} but the wave deviates from that reference at step {mismatch}")


def classify_wire(backend, x: nl.Waveform) -> nl.Classification:
    """:func:`classify_wave` against the backend's pair."""
    return classify_wave(x, backend.pair)


def serial_wires(network: nl.CompiledNetwork, backend, assignment) -> list[nl.Waveform]:
    """Every wire's wave, gate by gate in netlist order, one wave per wire.

    Each input is bound to the backend's High or Low wave for its 0/1 bit,
    and each gate is the backend's word kernel called on waves.
    """
    waves = [None] * len(network.wires)
    for i, name in enumerate(network.inputs):
        waves[i] = backend.pair.h if assignment[name] else backend.pair.l
    for gate in gate_rows(network):
        waves[gate.out] = nl.on_waves(backend.kernel[gate.op], backend.pair,
                                      *(waves[arg] for arg in gate.args))
    return waves


class SerialRun(NamedTuple):
    """The waveforms and classifications of one run, each a plain dict in wire order."""

    waveforms: dict[str, nl.Waveform]
    classifications: dict[str, nl.Classification]


def serial_run(network, backend, assignment, config) -> SerialRun:
    """``run`` gate by gate in netlist order, classifying wire by wire."""
    bk = simulator.make_backend(backend, config)
    waves = serial_wires(network, bk, assignment)
    return SerialRun(
        waveforms={name: waves[i] for i, name in enumerate(network.wires)},
        classifications={name: classify_wire(bk, waves[i])
                         for i, name in enumerate(network.wires)},
    )


# ---------------------------------------------------------------------------
# The gate kernels on the unpacked int8 values


def _check_input(pair, v, family, role="input", exact=True):
    """Check the values ``v`` of one wave ``(steps,)`` or of a batch ``(..., rows, steps)``."""
    if pair.family != family:
        raise nl.FamilyMismatchError(f"{family} gates need a {family} pair, got {pair.family}")
    if v.shape[-1] != pair.steps:
        raise nl.LengthMismatchError(f"{role} has {v.shape[-1]} steps, pair has {pair.steps}")
    h, l = pair.h.values, pair.l.values
    if exact and not ((v == h).all(axis=-1) | (v == l).all(axis=-1)).all():
        raise nl.InvalidLogicValueError(f"{role} matches neither the High nor the Low reference")


def not_additive(pair, x):
    """Universe minus input."""
    _check_input(pair, x, nl.RTW)
    return pair.h.values + pair.l.values - x


def not_multiplicative(pair, x):
    """x * H * L, over any -1/+1 wave."""
    _check_input(pair, x, nl.RTW, exact=False)
    return x * (pair.h.values * pair.l.values)


def and_gate(pair, x1, x2):
    """The cubic (H - L)(x1 - L)(x2 - L) / 4 + L, with the quarter checked exact."""
    _check_input(pair, x1, nl.RTW, "first input")
    _check_input(pair, x2, nl.RTW, "second input")
    h, l = pair.h.values, pair.l.values
    cube = (h - l) * (x1 - l) * (x2 - l)
    if np.any(cube & 3):
        raise nl.InvariantError("gate polynomial produced a non-divisible value")
    return cube // 4 + l


def _orthon(a, b):
    """Two neurons e * (1 - i): (A & B, A & ~B), checked against the set formulas."""
    lower = a * (1 - b)
    upper = a * (1 - lower)
    if not (np.array_equal(upper, a * b) and np.array_equal(lower, a * (1 - b))):
        raise nl.InvariantError("orthon output deviates")
    return upper, lower


def spike_not(pair, x):
    """One orthon on (universe, x), checked against (1 - x) * U."""
    _check_input(pair, x, nl.SPIKE)
    u = pair.h.values | pair.l.values
    out = _orthon(u, x)[1]
    if not np.array_equal(out, (1 - x) * u):
        raise nl.InvariantError("NOT circuit deviates")
    return out


def spike_and(pair, x1, x2):
    """Four orthons into an adder, checked against x1 x2 H | x1 L | x2 L."""
    _check_input(pair, x1, nl.SPIKE, "first input")
    _check_input(pair, x2, nl.SPIKE, "second input")
    h, l = pair.h.values, pair.l.values
    out = _orthon(_orthon(x1, x2)[0], h)[0] | _orthon(x1, l)[0] | _orthon(x2, l)[0]
    if not np.array_equal(out, x1 * x2 * h | x1 * l | x2 * l):
        raise nl.InvariantError("AND circuit deviates")
    return out


# Backend name -> (NOT, AND) on the unpacked values: each takes the pair and
# int values of one wave or a batch, and returns the output's values.
INT8_KERNELS = {
    "rtw-additive-not": (not_additive, and_gate),
    "rtw-multiplicative-not": (not_multiplicative, and_gate),
    "spike": (spike_not, spike_and),
}
