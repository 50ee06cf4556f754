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
derived gate through a frozen table of canonical compositions,
:data:`EXPANSION`:

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
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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

# Source gate -> its primitives in emission order.  A primitive is its op
# and its operands; an operand is "a" or "b", the gate's arguments, or the
# index of an earlier primitive of the same expansion.  The last primitive
# writes the gate's target wire, and primitive k before it writes the
# intermediate wire "<target>$k".
EXPANSION = {
    "NOT": (("NOT", "a"),),
    "AND": (("AND", "a", "b"),),
    "BUF": (("NOT", "a"), ("NOT", 0)),
    "NAND": (("AND", "a", "b"), ("NOT", 0)),
    "OR": (("NOT", "a"), ("NOT", "b"), ("AND", 0, 1), ("NOT", 2)),
    "NOR": (("NOT", "a"), ("NOT", "b"), ("AND", 0, 1), ("NOT", 2), ("NOT", 3)),
    "XOR": (("NOT", "b"), ("AND", "a", 0), ("NOT", "a"), ("AND", 2, "b"),
            ("NOT", 1), ("NOT", 3), ("AND", 4, 5), ("NOT", 6)),
    "XNOR": (("NOT", "b"), ("AND", "a", 0), ("NOT", "a"), ("AND", 2, "b"),
             ("NOT", 1), ("NOT", 3), ("AND", 4, 5), ("NOT", 6), ("NOT", 7)),
}

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


class Assignment(NamedTuple):
    target: str
    gate: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class NetlistAst:
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    assignments: tuple[Assignment, ...]


class LevelGroups(NamedTuple):
    """A network's gates grouped by (topological level, op), AND before NOT.

    Group ``k`` holds the gates ``bounds[k]:bounds[k + 1]`` of the sorted
    order, all of op ``ops[k]``; ``out`` and ``reads`` are the sorted
    gates' outputs and ``(2, gates)`` operands.
    """

    bounds: list[int]
    ops: list[str]
    out: np.ndarray
    reads: np.ndarray


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class CompiledNetwork:
    """Topologically ordered {NOT, AND} network, kept as arrays.

    ``wires`` assigns indices: inputs first, then one wire per primitive in
    emission order.  Lowering-introduced wires carry a ``$`` in their name,
    which user wires cannot, so the namespaces never collide.

    Gate ``i`` is a NOT where ``is_not[i]`` and an AND elsewhere, reads
    the wires ``args[i]`` (a ``(gates, 2)`` array that holds a NOT's one
    operand twice), writes wire ``out[i]`` and lowers source gate
    ``src[i]``.  The four columns are kept as read-only arrays, and
    networks compare and hash by their names and arrays.

    Construction raises :class:`NetlistError` unless the wire names are
    unique and start with the inputs, every output names a wire once, each wire
    after the inputs is written by exactly one gate, and every gate reads
    only inputs and wires that earlier gates write.
    """

    wires: tuple[str, ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    is_not: np.ndarray
    args: np.ndarray
    out: np.ndarray
    src: np.ndarray

    def __post_init__(self):
        for name, dtype in (("is_not", bool), ("args", np.intp), ("out", np.intp), ("src", object)):
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name), dtype=dtype)))
        object.__setattr__(self, "args", self.args.reshape(-1, 2))
        if not len(self.is_not) == len(self.args) == len(self.out) == len(self.src):
            raise NetlistError("gate columns differ in length")
        n_in, n, gates = len(self.inputs), len(self.wires), len(self.out)
        names = set(self.wires)
        if len(names) != n:
            raise NetlistError("compiled network names a wire twice")
        if self.wires[:n_in] != self.inputs:
            raise NetlistError("compiled network's wires must start with its inputs")
        if len(set(self.outputs)) != len(self.outputs):
            raise NetlistError("compiled network declares an output twice")
        for name in self.outputs:
            if name not in names:
                raise NetlistError(f"output {name!r} is never defined")
        # The gate that writes each wire, -1 for an input; the last entry,
        # also read at index -1, stands for a wire out of range.
        writer = np.full(n + 1, gates)
        writer[:n_in] = -1
        in_range = gates == n - n_in and (not gates or n_in <= self.out.min() <= self.out.max() < n)
        if in_range:
            writer[self.out] = np.arange(gates)
        if not in_range or (writer[n_in:n] == gates).any():   # a wire left unwritten
            raise NetlistError("every wire after the inputs must be written by exactly one gate")
        bad = writer[np.clip(self.args, -1, n)] >= np.arange(gates)[:, None]
        if bad.any():
            i, k = np.argwhere(bad)[0].tolist()
            raise NetlistError(f"gate {i} reads wire {self.args[i, k]}, which is neither an "
                               f"input nor written by an earlier gate")

    def _key(self) -> tuple:
        return (self.wires, self.inputs, self.outputs, self.is_not.tobytes(),
                self.args.tobytes(), self.out.tobytes(), tuple(self.src.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CompiledNetwork):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def wire_index(self, name: str) -> int:
        return self.wires.index(name)

    @cached_property
    def level_groups(self) -> LevelGroups:
        """The gates' (level, op) grouping, computed on first use and kept.

        Inputs are at level 0, and a gate is one level above its deepest
        operand, so a group reads only lower levels.  The sort key
        ``2 * level + is_not`` is sorted in the narrowest unsigned type that
        holds it, which NumPy radix-sorts at 8 and 16 bits.
        """
        n = len(self.out)
        level = [0] * len(self.wires)
        for out, a, b in zip(self.out.tolist(), *self.args.T.tolist()):
            la, lb = level[a], level[b]
            level[out] = 1 + (la if la > lb else lb)
        key = 2 * np.array(level, dtype=np.intp)[self.out] + self.is_not
        if n:
            key = key.astype(np.min_scalar_type(key.max()))
        order = np.argsort(key, kind="stable")
        key = key[order]
        cuts = (key[1:] != key[:-1]).nonzero()[0] + 1
        bounds = [0, *cuts.tolist(), n] if n else [0]
        out, reads = self.out[order], self.args[order].T
        ops = ["NOT" if k & 1 else "AND" for k in key[bounds[:-1]].tolist()]
        return LevelGroups(bounds, ops, _read_only(out), _read_only(reads))

    @cached_property
    def free_before(self) -> np.ndarray:
        """Per wire, the first level group that may reuse its slot; computed on first use and kept.

        That is the last group that reads the wire, the group after the one
        that writes it if none does, or 0 if no gate touches it.  A reader
        is above its operand's writer, so the last reader's group is past
        the writer's.
        """
        groups = self.level_groups
        group = np.repeat(np.arange(len(groups.ops)), np.diff(groups.bounds))
        free_before = np.zeros(len(self.wires), dtype=np.intp)
        free_before[groups.out] = group + 1
        # As many values as indices: ufunc.at misreads broadcast values in NumPy 2.4.
        np.maximum.at(free_before, groups.reads.ravel(), np.concatenate([group, group]))
        return _read_only(free_before)

    def gate_counts(self) -> dict[str, int]:
        nots = int(self.is_not.sum())
        return {"NOT": nots, "AND": len(self.out) - nots}

    def to_json(self) -> str:
        wires = self.wires
        doc = {
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "gates": [
                {
                    "op": "NOT" if is_not else "AND",
                    "args": [wires[a]] if is_not else [wires[a], wires[b]],
                    "out": wires[out],
                    "src": src,
                }
                for is_not, (a, b), out, src in zip(self.is_not.tolist(), self.args.tolist(),
                                                    self.out.tolist(), self.src.tolist())
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
        wires = list(inputs)
        index = {name: i for i, name in enumerate(wires)}
        nots, args, srcs = [], [], []
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
                arg_pair = (index[arg_names[0]], index[arg_names[-1]])
            except KeyError as exc:
                raise NetlistError(f"gate argument {exc.args[0]!r} precedes its definition")
            out_name = g.get("out")
            src = g.get("src", out_name)
            if not isinstance(out_name, str) or not isinstance(src, str):
                raise NetlistError("gate 'out' and 'src' must be strings")
            index[out_name] = len(wires)
            wires.append(out_name)
            nots.append(op == "NOT")
            args.append(arg_pair)
            srcs.append(src)
        return cls(tuple(wires), inputs, _json_names(doc, "outputs"), nots, args,
                   np.arange(len(inputs), len(wires)), srcs)


def _json_names(doc: dict, key: str) -> tuple[str, ...]:
    names = doc.get(key)
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise NetlistError(f"compiled network field {key!r} must be a list of names")
    return tuple(names)


def parse(text: str) -> NetlistAst:
    """Parse netlist source into an AST, rejecting malformed programs.

    Raises :class:`NetlistError` with the offending line number for bad
    tokens, unknown gates, undefined or redefined names, arity mismatches
    and netlists without outputs.  A defined name is a valid one, so an
    argument is checked as a name only when it is not defined.  A name is
    an ASCII identifier, which is exactly a :data:`NAME_RE` match.
    """
    inputs: list[str] = []
    outputs: list[str] = []
    assignments: list[Assignment] = []
    defined: set[str] = set()

    def _name(token: str, lineno: int) -> str:
        if not (token.isascii() and token.isidentifier()):
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

    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.partition("#")[0]
        tokens = line.split()
        if not tokens:
            continue
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
            arity = GATE_ARITY.get(gate)
            if arity is None:
                raise NetlistError(f"unknown gate {gate!r}", lineno)
            args = tokens[4:]
            if len(args) != arity:
                raise NetlistError(f"{gate} takes {arity} argument(s), got {len(args)}", lineno)
            for token in args:
                if token not in defined:
                    _name(token, lineno)
                    raise NetlistError(f"undefined name {token!r}", lineno)
            target = _define(tokens[1], lineno)
            assignments.append(Assignment(target, gate, tuple(args)))
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
    outputs = set(ast.outputs)
    for a in ast.assignments:
        keyword = "output" if a.target in outputs else "wire"
        lines.append(f"{keyword} {a.target} = {a.gate} " + " ".join(a.args))
    return "\n".join(lines) + "\n"


def _flat_expansions():
    """:data:`EXPANSION` as arrays over all its primitives, gate after gate.

    Returns each gate's first primitive in that list and its primitive
    count, and per primitive: whether it is a NOT, its two operands (a
    NOT's one twice; -2 for "a", -1 for "b", else the earlier primitive's
    position in the list) and the suffix of the wire it writes.
    """
    spans, prims = {}, []
    for gate, expansion in EXPANSION.items():
        start = len(prims)
        spans[gate] = start, len(expansion)
        for k, (op, *operands) in enumerate(expansion):
            refs = [-2 if x == "a" else -1 if x == "b" else start + x for x in operands]
            prims.append((op == "NOT", refs[0], refs[-1],
                          f"${k}" if k < len(expansion) - 1 else ""))
    is_not, ref_a, ref_b, suffix = zip(*prims)
    return (spans, np.array(is_not), np.array([ref_a, ref_b]).T,
            np.array(suffix, dtype=object))


_SPANS, _IS_NOT, _REFS, _SUFFIX = _flat_expansions()


def lower(ast: NetlistAst) -> CompiledNetwork:
    """Expand every derived gate through :data:`EXPANSION`, with array operations.

    One walk over the source gates resolves their argument wires; the
    primitives are then the gates' expansions laid end to end
    (``np.repeat`` over the per-gate primitive counts), each operand
    resolved by ``np.where`` to an argument wire or to the wire of an
    earlier primitive of its gate.  No per-primitive object is built.
    """
    n_in = len(ast.inputs)
    index = {name: i for i, name in enumerate(ast.inputs)}
    # Per source gate: its primitive count, its arguments, its target and
    # the offset from a primitive's position in the flat template list to
    # the wire it writes.
    counts, a, b, shift, targets = [], [], [], [], []
    end = n_in
    for assignment in ast.assignments:
        if assignment.gate not in _SPANS:
            raise NetlistError(f"cannot lower gate {assignment.gate!r}")
        start, count = _SPANS[assignment.gate]
        args = assignment.args
        counts.append(count)
        a.append(index[args[0]])
        b.append(index[args[-1]])
        shift.append(end - start)
        targets.append(assignment.target)
        end += count
        index[assignment.target] = end - 1
    a, b, shift = np.array([a, b, shift], dtype=np.intp).reshape(3, -1).repeat(counts, axis=1)
    wire = np.arange(n_in, end)
    flat = wire - shift
    refs = _REFS[flat]
    operands = np.where(refs == -2, a[:, None], np.where(refs == -1, b[:, None], refs + shift[:, None]))
    src = np.array(targets, dtype=object).repeat(counts)
    wires = ast.inputs + tuple((src + _SUFFIX[flat]).tolist())
    return CompiledNetwork(wires, ast.inputs, ast.outputs, _IS_NOT[flat], operands, wire, src)


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
    for is_not, (a, b), out in zip(source.is_not.tolist(), source.args.tolist(),
                                   source.out.tolist()):
        values[out] = 1 - values[a] if is_not else values[a] & values[b]
    index = {name: i for i, name in enumerate(source.wires)}
    return {name: values[index[name]] for name in source.outputs}
