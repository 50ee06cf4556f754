"""Textual gate-level netlists, lowering to the {NOT, AND} basis, and a
plain Boolean evaluator used as the oracle for equivalence checks.

Grammar (line oriented, ``#`` starts a comment, blank lines ignored)::

    file  := line*
    line  := "input" name+
           | "wire" name "=" gate name{1,2}
           | "output" name "=" gate name{1,2}
    gate  := NOT | AND | OR | NAND | NOR | XOR | XNOR | BUF
    name  := [A-Za-z_][A-Za-z0-9_]*

Every argument must be a declared input or a previously assigned wire, so
well-formed netlists are acyclic by construction.  Lowering expands each
derived gate through a frozen table of canonical compositions:

    ==========  ==========================================  ==========
    gate        expansion                                   primitives
    ==========  ==========================================  ==========
    NOT a       NOT(a)                                      1
    AND a b     AND(a, b)                                   1
    BUF a       NOT(NOT(a))                                 2
    NAND a b    NOT(AND(a, b))                              2
    OR a b      NOT(AND(NOT(a), NOT(b)))                    4
    NOR a b     NOT(OR(a, b))                               5
    XOR a b     OR(AND(a, NOT(b)), AND(NOT(a), b))          8
    XNOR a b    NOT(XOR(a, b))                              9
    ==========  ==========================================  ==========

The table is part of the artifact's contract; compiled networks are
byte-stable given equal input, and every intermediate wire records which
source gate produced it.
"""

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import NetlistError

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

GATE_ARITY = {
    "NOT": 1,
    "BUF": 1,
    "AND": 2,
    "OR": 2,
    "NAND": 2,
    "NOR": 2,
    "XOR": 2,
    "XNOR": 2,
}

# The universal basis every network lowers to.
PRIMITIVE_ARITY = {"NOT": 1, "AND": 2}

_RESERVED = {"input", "wire", "output"}

_BOOL_FN = {
    "NOT": lambda a: 1 - a,
    "BUF": lambda a: a,
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "NAND": lambda a, b: 1 - (a & b),
    "NOR": lambda a, b: 1 - (a | b),
    "XOR": lambda a, b: a ^ b,
    "XNOR": lambda a, b: 1 - (a ^ b),
}


@dataclass(frozen=True)
class Assignment:
    target: str
    gate: str
    args: tuple[str, ...]
    lineno: int = field(compare=False)   # diagnostic only, not semantics
    is_output: bool = False


@dataclass(frozen=True)
class NetlistAst:
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    assignments: tuple[Assignment, ...]


@dataclass(frozen=True)
class CompiledGate:
    """One primitive gate; ``args`` and ``out`` are wire indices."""

    op: str
    args: tuple[int, ...]
    out: int
    src: str


@dataclass(frozen=True)
class CompiledNetwork:
    """Topologically ordered {NOT, AND} network.

    ``wires`` assigns indices: inputs first, then one wire per primitive in
    emission order.  Lowering-introduced wires carry a ``$`` in their name,
    which user wires cannot, so the namespaces never collide.
    """

    wires: tuple[str, ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    gates: tuple[CompiledGate, ...]

    def wire_index(self, name: str) -> int:
        return self.wires.index(name)

    def gate_counts(self) -> dict[str, int]:
        counts = dict.fromkeys(PRIMITIVE_ARITY, 0)
        for gate in self.gates:
            counts[gate.op] += 1
        return counts

    def to_json(self) -> str:
        doc = {
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "gates": [
                {
                    "op": g.op,
                    "args": [self.wires[i] for i in g.args],
                    "out": self.wires[g.out],
                    "src": g.src,
                }
                for g in self.gates
            ],
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CompiledNetwork":
        """Load a network written by :meth:`to_json`, rejecting malformed documents."""
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise NetlistError(f"compiled network is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise NetlistError("compiled network must be a JSON object")
        inputs = _json_names(doc, "inputs")
        if len(set(inputs)) != len(inputs):
            raise NetlistError("compiled network declares an input twice")
        wires = list(inputs)
        index = {name: i for i, name in enumerate(wires)}
        gates = []
        gate_docs = doc.get("gates")
        if not isinstance(gate_docs, list):
            raise NetlistError("compiled network needs a 'gates' list")
        for g in gate_docs:
            if not isinstance(g, dict):
                raise NetlistError("every compiled gate must be a JSON object")
            op = g.get("op")
            if not isinstance(op, str) or op not in PRIMITIVE_ARITY:
                raise NetlistError(f"compiled network contains non-primitive op {op!r}")
            arg_names = _json_names(g, "args")
            if len(arg_names) != PRIMITIVE_ARITY[op]:
                raise NetlistError(
                    f"{op} takes {PRIMITIVE_ARITY[op]} argument(s), got {len(arg_names)}"
                )
            try:
                args = tuple(index[a] for a in arg_names)
            except KeyError as exc:
                raise NetlistError(f"gate argument {exc.args[0]!r} precedes its definition")
            out_name = g.get("out")
            src = g.get("src", out_name)
            if not isinstance(out_name, str) or not isinstance(src, str):
                raise NetlistError("gate 'out' and 'src' must be strings")
            if out_name in index:
                raise NetlistError(f"wire {out_name!r} defined twice")
            index[out_name] = len(wires)
            wires.append(out_name)
            gates.append(CompiledGate(op, args, index[out_name], src))
        outputs = _json_names(doc, "outputs")
        for name in outputs:
            if name not in index:
                raise NetlistError(f"output {name!r} is never defined")
        return cls(tuple(wires), inputs, outputs, tuple(gates))


def _json_names(doc: dict, key: str) -> tuple[str, ...]:
    names = doc.get(key)
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise NetlistError(f"compiled network field {key!r} must be a list of names")
    return tuple(names)


def parse(text: str) -> NetlistAst:
    """Parse netlist source into an AST, rejecting malformed programs.

    Raises :class:`NetlistError` with the offending line number for bad
    tokens, unknown gates, undefined or redefined names, arity mismatches
    and netlists without outputs.
    """
    inputs: list[str] = []
    outputs: list[str] = []
    assignments: list[Assignment] = []
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
            assignments.append(Assignment(target, gate, arg_names, lineno, keyword == "output"))
            if keyword == "output":
                outputs.append(target)
            continue
        raise NetlistError(f"expected 'input', 'wire' or 'output', got {keyword!r}", lineno)

    if not outputs:
        raise NetlistError("netlist declares no outputs")
    return NetlistAst(tuple(inputs), tuple(outputs), tuple(assignments))


def format_netlist(ast: NetlistAst) -> str:
    """Canonical printer; parse(format_netlist(parse(text))) == parse(text)."""
    lines = []
    if ast.inputs:
        lines.append("input " + " ".join(ast.inputs))
    for a in ast.assignments:
        keyword = "output" if a.is_output else "wire"
        lines.append(f"{keyword} {a.target} = {a.gate} " + " ".join(a.args))
    return "\n".join(lines) + "\n"


class _Lowerer:
    def __init__(self, inputs: tuple[str, ...]):
        self.wires: list[str] = list(inputs)
        self.index: dict[str, int] = {name: i for i, name in enumerate(inputs)}
        self.gates: list[CompiledGate] = []
        self._src = ""
        self._tmp = 0

    def emit(self, op: str, args: tuple[int, ...], out_name: str) -> int:
        out = len(self.wires)
        self.index[out_name] = out
        self.wires.append(out_name)
        self.gates.append(CompiledGate(op, args, out, self._src))
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

    def expand(self, assignment: Assignment) -> None:
        self._src = assignment.target
        self._tmp = 0
        args = [self.index[name] for name in assignment.args]
        target = assignment.target
        gate = assignment.gate
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
        else:  # pragma: no cover - parser rejects unknown gates
            raise NetlistError(f"cannot lower gate {gate!r}")


def lower(ast: NetlistAst) -> CompiledNetwork:
    """Expand every derived gate through the canonical table."""
    lowerer = _Lowerer(ast.inputs)
    for assignment in ast.assignments:
        lowerer.expand(assignment)
    return CompiledNetwork(
        tuple(lowerer.wires), ast.inputs, ast.outputs, tuple(lowerer.gates)
    )


def _check_assignment(inputs: tuple[str, ...], assignment: dict) -> None:
    missing = [name for name in inputs if name not in assignment]
    if missing:
        raise NetlistError(f"assignment missing input(s): {', '.join(missing)}")
    stray = [name for name in assignment if name not in inputs]
    if stray:
        raise NetlistError(f"assignment binds name(s) that are not inputs: {', '.join(stray)}")
    for name, value in assignment.items():
        if isinstance(value, np.ndarray):
            valid = (value.ndim == 1 and np.issubdtype(value.dtype, np.integer)
                     and bool(np.all((value == 0) | (value == 1))))
        else:
            valid = value in (0, 1)
        if not valid:
            raise NetlistError(f"input {name!r} must be 0 or 1, got {value!r}")


def _bit(value):
    return value if isinstance(value, np.ndarray) else int(value)


def eval_boolean(
    source: NetlistAst | CompiledNetwork, assignment: dict
) -> dict[str, int | np.ndarray]:
    """Evaluate outputs under a plain Boolean semantics.

    Accepts either an AST (evaluating the declared gates directly) or a
    compiled network (evaluating the primitives); for any well-lowered
    network the two agree on every assignment.  Each input is bound to a
    0/1 int, or to a 1-D 0/1 integer array holding one assignment per row;
    with arrays every output is an array of the same length, so a chunk of
    assignments is evaluated bit-parallel in one call.
    """
    _check_assignment(source.inputs, assignment)
    if isinstance(source, NetlistAst):
        values = {name: _bit(assignment[name]) for name in source.inputs}
        for a in source.assignments:
            values[a.target] = _BOOL_FN[a.gate](*(values[arg] for arg in a.args))
        return {name: values[name] for name in source.outputs}

    values = [0] * len(source.wires)
    for i, name in enumerate(source.inputs):
        values[i] = _bit(assignment[name])
    for gate in source.gates:
        if gate.op == "NOT":
            values[gate.out] = 1 - values[gate.args[0]]
        else:
            values[gate.out] = values[gate.args[0]] & values[gate.args[1]]
    index = {name: i for i, name in enumerate(source.wires)}
    return {name: values[index[name]] for name in source.outputs}
