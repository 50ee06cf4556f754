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

A compiled network's gates are walked in phases
(:attr:`CompiledNetwork.level_groups`), one kernel call each: ANDs run in
even phases and NOTs in odd ones, and a gate runs in the first phase
after its operands' whose parity is its op.  The expansions above
alternate NOT and AND along their paths, so a network needs far fewer
phases than (level, op) groups.
"""

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import NetlistError

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

# A source gate is binary exactly when its expansion reads "b".
GATE_ARITY = {gate: 2 if any("b" in prim for prim in expansion) else 1
              for gate, expansion in EXPANSION.items()}

_RESERVED = {"input", "wire", "output"}

# Gate -> its Boolean function of ``one``, the value of true (1 for bits,
# all ones for lane words), and its arguments.
_BOOL_FN = {
    "NOT": lambda one, a: a ^ one,
    "BUF": lambda one, a: a,
    "AND": lambda one, a, b: a & b,
    "OR": lambda one, a, b: a | b,
    "NAND": lambda one, a, b: a & b ^ one,
    "NOR": lambda one, a, b: (a | b) ^ one,
    "XOR": lambda one, a, b: a ^ b,
    "XNOR": lambda one, a, b: a ^ b ^ one,
}


@dataclass(frozen=True)
class NetlistAst:
    """A parsed netlist; each assignment is a ``(target, gate, args)`` tuple."""

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    assignments: tuple[tuple[str, str, tuple[str, ...]], ...]


class LevelGroups(NamedTuple):
    """A network's gates grouped by phase (see :attr:`CompiledNetwork.level_groups`).

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
    operand twice), writes wire ``len(inputs) + i`` and lowers source gate
    ``src[i]``.  The three columns are kept as read-only arrays, and
    networks compare and hash by their names and arrays.

    Construction raises :class:`NetlistError` unless the wire names are
    unique and start with the inputs, every output names a wire once, there
    is one gate per wire after the inputs, and gate ``i`` reads only wires
    below ``len(inputs) + i``: inputs and wires that earlier gates write.
    """

    wires: tuple[str, ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    is_not: np.ndarray
    args: np.ndarray
    src: np.ndarray

    def __post_init__(self):
        # Each gate column's kind and shape, checked before the cast, which would
        # truncate 0.5 to 0 or read any value as a bool.
        for name, kinds, width, what in (("is_not", "b", (), "bools"),
                                         ("args", "iu", (2,), "(gates, 2) integer wire indices")):
            try:
                column = np.asarray(getattr(self, name))
            except ValueError:   # a ragged list
                column = np.asarray(getattr(self, name), dtype=object)
            if column.size and (column.dtype.kind not in kinds
                                or column.ndim != 1 + len(width) or column.shape[1:] != width):
                raise NetlistError(f"gate column {name} must hold {what}, got {column.dtype} "
                                   f"values of shape {column.shape}")
            column = column.astype(np.intp if width else bool).reshape(-1, *width)
            object.__setattr__(self, name, _read_only(column))
        object.__setattr__(self, "src", _read_only(np.array(self.src, dtype=object)))
        if not len(self.is_not) == len(self.args) == len(self.src):
            raise NetlistError("gate columns differ in length")
        n_in, n = len(self.inputs), len(self.wires)
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
        if len(self.is_not) != n - n_in:
            raise NetlistError("every wire after the inputs must be written by exactly one gate")
        # Gate i writes wire n_in + i, so it may read only the wires below.
        bad = (self.args < 0) | (self.args >= np.arange(n_in, n)[:, None])
        if bad.any():
            i, k = np.argwhere(bad)[0].tolist()
            raise NetlistError(f"gate {i} reads wire {self.args[i, k]}, which is neither an "
                               f"input nor written by an earlier gate")

    def _key(self) -> tuple:
        return (self.wires, self.inputs, self.outputs, self.is_not.tobytes(),
                self.args.tobytes(), tuple(self.src.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CompiledNetwork):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @cached_property
    def _output_wires(self) -> tuple[int, ...]:
        """Each output's wire index, in output order, computed on first use and kept."""
        return tuple(map(self.wires.index, self.outputs))

    @cached_property
    def level_groups(self) -> LevelGroups:
        """The gates grouped by phase, computed on first use and kept.

        Phases alternate between the two ops: AND gates sit in even phases
        and NOT gates in odd ones.  Inputs are at phase -1, and a gate sits
        in the first phase after both of its operands' phases whose parity
        is its op, so each phase is one group of one op that reads only
        earlier phases.  A network of depth d takes between d and 2d
        phases, and the chains that :data:`EXPANSION` emits alternate NOT
        and AND, which keeps it nearer d than a grouping by (level, op),
        whose levels mostly hold both ops.  The phases are sorted in the
        narrowest unsigned type that holds them, which NumPy radix-sorts at
        8 and 16 bits.
        """
        n_in, n = len(self.inputs), len(self.is_not)
        phase = [-1] * n_in
        for a, b, odd in zip(*self.args.T.tolist(), self.is_not.tolist()):
            pa, pb = phase[a], phase[b]
            m = pa if pa > pb else pb
            phase.append((m + 1) | 1 if odd else (m + 2) & -2)
        key = np.array(phase[n_in:], dtype=np.intp)
        if n:
            key = key.astype(np.min_scalar_type(key.max()))
        order = np.argsort(key, kind="stable")
        key = key[order]
        cuts = (key[1:] != key[:-1]).nonzero()[0] + 1
        bounds = [0, *cuts.tolist(), n] if n else [0]
        ops = ["NOT" if k & 1 else "AND" for k in key[bounds[:-1]].tolist()]
        return LevelGroups(bounds, ops, _read_only(order + n_in), _read_only(self.args[order].T))

    def to_json(self) -> str:
        wires = self.wires
        doc = {
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "gates": [
                {
                    "op": "NOT" if is_not else "AND",
                    "args": [wires[a]] if is_not else [wires[a], wires[b]],
                    "out": out,
                    "src": src,
                }
                for is_not, (a, b), out, src in zip(self.is_not.tolist(), self.args.tolist(),
                                                    wires[len(self.inputs):], self.src.tolist())
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
        return cls(tuple(wires), inputs, _json_names(doc, "outputs"), nots, args, srcs)


def _json_names(doc: dict, key: str) -> tuple[str, ...]:
    names = doc.get(key)
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise NetlistError(f"compiled network field {key!r} must be a list of names")
    return tuple(names)


def _new_name(token, defined, lineno: int | None) -> str:
    """``token`` once it is a valid name that is not in ``defined``."""
    if not (isinstance(token, str) and token.isascii() and token.isidentifier()):
        raise NetlistError(f"invalid name {token!r}", lineno)
    if token in _RESERVED:
        raise NetlistError(f"{token!r} is a reserved word", lineno)
    if token in defined:
        raise NetlistError(f"name {token!r} already defined", lineno)
    return token


def _check_gate(target, gate, args, defined, lineno: int | None = None) -> None:
    """The rules of one gate ``target = gate args`` over the names ``defined`` before it.

    The gate must be known and take ``len(args)`` arguments, every argument
    must be defined (an undefined one is checked as a name first), and
    ``target`` must be a new name.  :func:`parse` passes the line number;
    :func:`lower` and the AST oracle of :func:`eval_boolean` check each gate
    of a hand-built :class:`NetlistAst` with it, in the walks they make.
    """
    arity = GATE_ARITY.get(gate)
    if arity is None:
        raise NetlistError(f"unknown gate {gate!r}", lineno)
    if len(args) != arity:
        raise NetlistError(f"{gate} takes {arity} argument(s), got {len(args)}", lineno)
    for token in args:
        if token not in defined:
            _new_name(token, defined, lineno)
            raise NetlistError(f"undefined name {token!r}", lineno)
    _new_name(target, defined, lineno)


def parse(text: str) -> NetlistAst:
    """Parse netlist source into an AST, rejecting malformed programs.

    Raises :class:`NetlistError` with the offending line number for bad
    tokens, unknown gates, undefined or redefined names, arity mismatches
    and netlists without outputs.  A defined name is a valid one, so an
    argument is checked as a name only when it is not defined.  A name is
    an ASCII identifier, ``[A-Za-z_][A-Za-z0-9_]*``.
    """
    inputs: list[str] = []
    outputs: list[str] = []
    assignments: list[tuple[str, str, tuple[str, ...]]] = []
    defined: set[str] = set()

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
                defined.add(_new_name(token, defined, lineno))
                inputs.append(token)
            continue
        if keyword in ("wire", "output"):
            if len(tokens) < 3 or tokens[2] != "=":
                raise NetlistError(f"expected '{keyword} <name> = <GATE> <args>'", lineno)
            if len(tokens) < 4:
                raise NetlistError("missing gate after '='", lineno)
            target, gate, args = tokens[1], tokens[3], tuple(tokens[4:])
            _check_gate(target, gate, args, defined, lineno)
            defined.add(target)
            assignments.append((target, gate, args))
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
    for target, gate, args in ast.assignments:
        keyword = "output" if target in outputs else "wire"
        lines.append(f"{keyword} {target} = {gate} " + " ".join(args))
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
    earlier primitive of its gate.  No per-primitive object is built.  Each
    source gate passes :func:`_check_gate` on the way, so a hand-built AST
    lowers only if :func:`parse` would accept its gates.
    """
    n_in = len(ast.inputs)
    index = {name: i for i, name in enumerate(ast.inputs)}
    # Per source gate: its primitive count, its arguments, its target and
    # the offset from a primitive's position in the flat template list to
    # the wire it writes.
    counts, a, b, shift, targets = [], [], [], [], []
    end = n_in
    for target, gate, args in ast.assignments:
        _check_gate(target, gate, args, index)
        start, count = _SPANS[gate]
        counts.append(count)
        a.append(index[args[0]])
        b.append(index[args[-1]])
        shift.append(end - start)
        targets.append(target)
        end += count
        index[target] = end - 1
    a, b, shift = np.array([a, b, shift], dtype=np.intp).reshape(3, -1).repeat(counts, axis=1)
    flat = np.arange(n_in, end) - shift
    refs = _REFS[flat]
    operands = np.where(refs == -2, a[:, None], np.where(refs == -1, b[:, None], refs + shift[:, None]))
    src = np.array(targets, dtype=object).repeat(counts)
    wires = ast.inputs + tuple((src + _SUFFIX[flat]).tolist())
    return CompiledNetwork(wires, ast.inputs, ast.outputs, _IS_NOT[flat], operands, src)


def _check_assignment(inputs: tuple[str, ...], assignment: dict, lanes: bool = False) -> list:
    """Each input's binding in ``assignment``, in input order: a 0/1 scalar, as an ``int``,
    or, with ``lanes``, 1-D ``uint64`` lane words, which must then bind every input, in one
    length.  Any other binding, and a missing or stray name, raises :class:`NetlistError`."""
    missing = [name for name in inputs if name not in assignment]
    if missing:
        raise NetlistError(f"assignment missing input(s): {', '.join(missing)}")
    stray = [name for name in assignment if name not in inputs]
    if stray:
        raise NetlistError(
            f"assignment binds name(s) that are not inputs: {', '.join(map(str, stray))}")
    what = "0 or 1, or 1-D uint64 lane words" if lanes else "0 or 1"
    for name, value in assignment.items():
        if isinstance(value, np.ndarray):
            valid = lanes and value.dtype == np.uint64 and value.ndim == 1
        else:
            valid = value in (0, 1)
        if not valid:
            raise NetlistError(f"input {name!r} must be {what}, got {value!r}")
    bits = [assignment[name] for name in inputs]
    arrays = {value.shape for value in bits if isinstance(value, np.ndarray)}
    if not arrays:
        return [int(value) for value in bits]
    if len(arrays) > 1 or not all(isinstance(value, np.ndarray) for value in bits):
        raise NetlistError("lane words must bind every input or none, in one length")
    return bits


def eval_boolean(
    source: NetlistAst | CompiledNetwork, assignment: dict
) -> dict[str, int | np.ndarray]:
    """Evaluate outputs under a plain Boolean semantics.

    Accepts either an AST (evaluating the declared gates directly) or a
    compiled network (evaluating the primitives); for any well-lowered
    network the two agree on every assignment.  Each input is bound to a
    0/1 scalar, and every output is a 0/1 ``int``; or every input is bound
    to 1-D ``uint64`` lane words of one length, bit ``j`` of word ``w``
    holding assignment ``64 * w + j``, and every output is lane words of
    that length, so a chunk of assignments is evaluated bit-parallel in one
    call, NOT flipping every bit.  An AST's gates and outputs are checked as
    they are walked (see :func:`_check_gate`).
    """
    bits = _check_assignment(source.inputs, assignment, lanes=True)
    one = ~np.uint64(0) if bits and isinstance(bits[0], np.ndarray) else 1
    if isinstance(source, NetlistAst):
        values = dict(zip(source.inputs, bits))
        for target, gate, args in source.assignments:
            _check_gate(target, gate, args, values)
            values[target] = _BOOL_FN[gate](one, *(values[arg] for arg in args))
        for name in source.outputs:
            if name not in values:
                raise NetlistError(f"output {name!r} is never defined")
        return {name: values[name] for name in source.outputs}

    values = bits
    not_, and_ = _BOOL_FN["NOT"], _BOOL_FN["AND"]
    for is_not, (a, b) in zip(source.is_not.tolist(), source.args.tolist()):
        values.append(not_(one, values[a]) if is_not else and_(one, values[a], values[b]))
    return {name: values[i] for name, i in zip(source.outputs, source._output_wires)}
