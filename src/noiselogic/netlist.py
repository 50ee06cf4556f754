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

:func:`parse` checks and resolves each gate once; :func:`lower` gathers
the template arrays of :data:`EXPANSION` and loops only over source gates.

A compiled network's gates are walked in phases
(:attr:`CompiledNetwork.level_groups`), one kernel call each: ANDs run in
even phases and NOTs in odd ones, and a gate runs in the first phase
after its operands' whose parity is its op.  The expansions above
alternate NOT and AND along their paths, so a network needs far fewer
phases than (level, op) groups.
"""

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
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

_GATE_CODE = {gate: code for code, gate in enumerate(EXPANSION)}   # NOT 0, AND 1, ...

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
    # The gates as _check_gate resolves them, over inputs + targets; see _resolve.
    _gates: list | None = field(default=None, init=False, compare=False, repr=False)


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
        key = self.__dict__.get("_phase")   # lower's, from the source gates
        if key is None:   # each primitive as its own NOT or AND gate
            gates = zip((~self.is_not).tolist(), *self.args.T.tolist())
            key = np.array(_gate_phases(n_in, gates)[n_in:], dtype=np.intp)
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


def _check_gate(target, gate, args, defined, lineno: int | None = None) -> tuple[int, int, int]:
    """The rules of one gate ``target = gate args`` over ``defined``, each name's position.

    The gate must be known and take ``len(args)`` arguments, every argument
    must be defined (an undefined one is checked as a name first), and
    ``target`` must be a new name.  Returns the gate's code and its first
    and last arguments' positions.  :func:`parse` passes the line number.
    """
    arity = GATE_ARITY.get(gate)
    if arity is None:
        raise NetlistError(f"unknown gate {gate!r}", lineno)
    if len(args) != arity:
        raise NetlistError(f"{gate} takes {arity} argument(s), got {len(args)}", lineno)
    try:
        resolved = _GATE_CODE[gate], defined[args[0]], defined[args[-1]]
    except KeyError as exc:
        undefined = exc.args[0]   # the first argument that is not defined
    else:
        _new_name(target, defined, lineno)
        return resolved
    _new_name(undefined, defined, lineno)
    raise NetlistError(f"undefined name {undefined!r}", lineno)


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
    defined: dict[str, int] = {}   # name -> position, in definition order
    gates: list[tuple[int, int, int]] = []

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
                defined[_new_name(token, defined, lineno)] = len(defined)
                inputs.append(token)
            continue
        if keyword in ("wire", "output"):
            if len(tokens) < 3 or tokens[2] != "=":
                raise NetlistError(f"expected '{keyword} <name> = <GATE> <args>'", lineno)
            if len(tokens) < 4:
                raise NetlistError("missing gate after '='", lineno)
            target, gate, args = tokens[1], tokens[3], tuple(tokens[4:])
            gates.append(_check_gate(target, gate, args, defined, lineno))
            defined[target] = len(defined)
            assignments.append((target, gate, args))
            if keyword == "output":
                outputs.append(target)
            continue
        raise NetlistError(f"expected 'input', 'wire' or 'output', got {keyword!r}", lineno)

    if not outputs:
        raise NetlistError("netlist declares no outputs")
    if inputs and defined[inputs[-1]] != len(inputs) - 1:   # an input follows a gate
        position = {name: k for k, name in enumerate(inputs + [t for t, _, _ in assignments])}
        moved = [position[name] for name in defined]
        gates = [(code, moved[a], moved[b]) for code, a, b in gates]
    ast = NetlistAst(tuple(inputs), tuple(outputs), tuple(assignments))
    object.__setattr__(ast, "_gates", gates)
    return ast


def _resolve(ast: NetlistAst) -> list[tuple[int, int, int]]:
    """The AST's resolved gates: parse's, or a hand-built AST's, checked once by parse's rules."""
    if ast._gates is None:
        if not all(isinstance(value, tuple) for value in (ast.inputs, ast.outputs, ast.assignments)):
            raise NetlistError("NetlistAst inputs, outputs and assignments must be tuples")
        defined: dict[str, int] = {}
        for token in ast.inputs:
            defined[_new_name(token, defined, None)] = len(defined)
        gates = []
        for row in ast.assignments:
            if not (isinstance(row, tuple) and len(row) == 3 and isinstance(row[1], str)
                    and isinstance(row[2], tuple)):
                raise NetlistError(f"assignment {row!r} is not a (target, gate, args) tuple")
            gates.append(_check_gate(*row, defined))
            defined[row[0]] = len(defined)
        if not ast.outputs:
            raise NetlistError("netlist declares no outputs")
        for name in ast.outputs:
            if not isinstance(name, str) or name not in defined:
                raise NetlistError(f"output {name!r} is never defined")
        object.__setattr__(ast, "_gates", gates)
    return ast._gates


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

    Returns each gate code's first primitive in that list and its primitive
    count, and per primitive: whether it is a NOT, its two operands (a NOT's
    one twice; -2 for "a", -1 for "b", else the earlier primitive's position
    in the list), the suffix of the wire it writes and its phase offsets.
    The steps to a NOT, ``(m + 1) | 1``, and to an AND, ``(m + 2) & -2``, are
    monotone, so they commute with ``max``: with its gate's arguments at
    phases ``pa`` and ``pb``, a primitive is at the least phase of its op's
    parity at or past ``max(pa + c_a, pb + c_b)``, that is, at ``max(pa +
    off_a, pb + off_b)`` with its lowest bit set to that parity, where each
    ``off = c + 1 - parity``.
    """
    spans, prims = [], []
    for expansion in EXPANSION.values():
        start = len(prims)
        spans.append((start, len(expansion)))
        steps = []   # each primitive's (c_a, c_b); -2**40 where no path reads the argument
        for k, (op, *operands) in enumerate(expansion):
            refs = [-2 if x == "a" else -1 if x == "b" else start + x for x in operands]
            # c counts 1 from an argument, and from an earlier primitive 1 if
            # the op changes and 2 if it repeats.
            steps.append([max(1 if x == arg else -(1 << 40) if isinstance(x, str)
                              else steps[x][i] + 1 + (expansion[x][0] == op) for x in operands)
                          for i, arg in enumerate("ab")])
            prims.append((op == "NOT", refs[0], refs[-1], f"${k}" if k < len(expansion) - 1
                          else "", [c + (op != "NOT") for c in steps[k]]))
    is_not, ref_a, ref_b, suffix, offsets = zip(*prims)
    return (np.array(spans), np.array(is_not), np.array([ref_a, ref_b]).T,
            np.array(suffix, dtype=object), np.array(offsets, dtype=np.intp))


_SPANS, _IS_NOT, _REFS, _SUFFIX, _OFFSETS = _flat_expansions()
# Per gate code: the phase offsets and parity of the primitive writing its target.
_TARGET_PHASE = [(*_OFFSETS[s + n - 1].tolist(), int(_IS_NOT[s + n - 1])) for s, n in _SPANS.tolist()]


def _gate_phases(n_in: int, gates) -> list[int]:
    """Phase -1 for each input, then each gate's target's, from each gate's code and its
    arguments' positions: source gates, or primitives as NOT (0) and AND (1) gates."""
    phase = [-1] * n_in
    for code, a, b in gates:
        off_a, off_b, odd = _TARGET_PHASE[code]
        pa, pb = phase[a] + off_a, phase[b] + off_b
        phase.append((pa if pa > pb else pb) & -2 | odd)
    return phase


def lower(ast: NetlistAst) -> CompiledNetwork:
    """Expand every derived gate through :data:`EXPANSION`, with array operations.

    The primitives are the source gates' expansions laid end to end
    (``np.repeat`` over the per-gate primitive counts), each operand
    resolved by ``np.where`` to an argument wire or to the wire of an
    earlier primitive of its gate and each phase from its gate's arguments'
    phases; the one Python loop is over the source gates, for their
    targets' phases.  A hand-built AST is checked first (see :func:`_resolve`).
    """
    gates = _resolve(ast)
    n_in = len(ast.inputs)
    phase = np.array(_gate_phases(n_in, gates), dtype=np.intp)
    code, a, b = np.fromiter(chain.from_iterable(gates), np.intp, 3 * len(gates)).reshape(-1, 3).T
    start, count = _SPANS[code].T
    end = count.cumsum() + n_in   # one past each gate's last wire
    wire = np.concatenate((np.arange(n_in), end - 1))   # the wire of each source position
    # Per primitive: its gate's argument wires and phases, and the offset from
    # its position in the flat template list to the wire it writes.
    wa, wb, pa, pb, shift = np.array([wire[a], wire[b], phase[a], phase[b],
                                      end - count - start]).repeat(count, axis=1)
    flat = np.arange(n_in, n_in + len(shift)) - shift
    refs = _REFS[flat]
    operands = np.where(refs == -2, wa[:, None],
                        np.where(refs == -1, wb[:, None], refs + shift[:, None]))
    is_not, (off_a, off_b) = _IS_NOT[flat], _OFFSETS[flat].T
    src = np.array([target for target, _, _ in ast.assignments], dtype=object).repeat(count)
    wires = ast.inputs + tuple((src + _SUFFIX[flat]).tolist())
    network = CompiledNetwork(wires, ast.inputs, ast.outputs, is_not, operands, src)
    network.__dict__["_phase"] = np.maximum(pa + off_a, pb + off_b) & -2 | is_not
    return network


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
    call, NOT flipping every bit.  A hand-built AST is checked by parse's
    rules (see :func:`_resolve`).
    """
    bits = _check_assignment(source.inputs, assignment, lanes=True)
    one = ~np.uint64(0) if bits and isinstance(bits[0], np.ndarray) else 1
    if isinstance(source, NetlistAst):
        _resolve(source)
        values = dict(zip(source.inputs, bits))
        for target, gate, args in source.assignments:
            values[target] = _BOOL_FN[gate](one, *(values[arg] for arg in args))
        return {name: values[name] for name in source.outputs}

    values = bits
    not_, and_ = _BOOL_FN["NOT"], _BOOL_FN["AND"]
    for is_not, (a, b) in zip(source.is_not.tolist(), source.args.tolist()):
        values.append(not_(one, values[a]) if is_not else and_(one, values[a], values[b]))
    return {name: values[i] for name, i in zip(source.outputs, source._output_wires)}
