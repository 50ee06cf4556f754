"""Workload inputs: netlists, ops and their expected outputs.

Everything here is a function of the workload name and seed; the package
under test only ever sees the generated files and flags.  This module does
not import ``noiselogic``.

Sizes are fixed per workload (input count, primitive count after lowering,
wave length, trial counts) and only the netlist structure and the
generator seeds vary with the seed, so every seed asks for the same amount
of work.  Each ``verify`` op costs 2**inputs * primitives primitive
evaluations plus one oracle call per assignment.
"""

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path

import reference

DEFAULT_SEED = 1
HELDOUT_SEED = 90210

BACKENDS = ("rtw-additive-not", "rtw-multiplicative-not", "spike")

# (NOT, AND) primitives each source gate lowers to (the frozen table in
# netlist.py).
_NOT_AND = {"NOT": (1, 0), "AND": (0, 1), "BUF": (2, 0), "NAND": (1, 1), "OR": (3, 1),
            "NOR": (4, 1), "XOR": (5, 3), "XNOR": (6, 3)}
PRIMITIVES = {gate: n + a for gate, (n, a) in _NOT_AND.items()}
_UNARY = ("NOT", "BUF")

FULL_ADDER = """\
input a b cin
wire s1 = XOR a b
wire c1 = AND a b
wire c2 = AND s1 cin
output sum = XOR s1 cin
output cout = OR c1 c2
"""

ONE_AND = "input a b\noutput y = AND a b\n"


@dataclass(frozen=True)
class Netlist:
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    gates: tuple[tuple[str, str, tuple[str, ...]], ...]   # (target, gate, args)

    @property
    def primitives(self) -> int:
        return sum(PRIMITIVES[gate] for _, gate, _ in self.gates)

    def text(self) -> str:
        lines = ["input " + " ".join(self.inputs)]
        for target, gate, args in self.gates:
            keyword = "output" if target in self.outputs else "wire"
            lines.append(f"{keyword} {target} = {gate} " + " ".join(args))
        return "\n".join(lines) + "\n"


def parse_fixed(text: str) -> Netlist:
    """Read one of the benchmark's own fixed netlists (no error handling)."""
    inputs, outputs, gates = (), [], []
    for line in text.splitlines():
        tokens = line.split()
        if tokens[0] == "input":
            inputs = tuple(tokens[1:])
            continue
        if tokens[0] == "output":
            outputs.append(tokens[1])
        gates.append((tokens[1], tokens[3], tuple(tokens[4:])))
    return Netlist(inputs, tuple(outputs), tuple(gates))


def random_netlist(rng: random.Random, n_inputs: int, primitives: int) -> Netlist:
    """Random acyclic netlist lowering to exactly ``primitives`` primitives.

    Exactly two thirds (rounded) of the primitives are NOTs and the rest
    ANDs, since the two differ in cost (a spike AND is four orthons, a
    NOT one).  Gates are drawn uniformly from the kinds that still fit
    both budgets, arguments uniformly from all earlier wires.  The last
    gate and the middle one are outputs.
    """
    drawn = []
    nots = round(primitives * 2 / 3)
    left = {"NOT": nots, "AND": primitives - nots}
    while left["NOT"] or left["AND"]:
        gate = rng.choice([g for g, (n, a) in _NOT_AND.items()
                           if n <= left["NOT"] and a <= left["AND"]])
        arity = 1 if gate in _UNARY else 2
        drawn.append((gate, [rng.randrange(n_inputs + len(drawn)) for _ in range(arity)]))
        left["NOT"] -= _NOT_AND[gate][0]
        left["AND"] -= _NOT_AND[gate][1]
    output_at = {len(drawn) // 2, len(drawn) - 1}
    names = [f"i{k}" for k in range(n_inputs)]
    for j in range(len(drawn)):
        names.append(f"o{len([k for k in output_at if k < j])}" if j in output_at else f"w{j}")
    gates = tuple(
        (names[n_inputs + j], gate, tuple(names[a] for a in args))
        for j, (gate, args) in enumerate(drawn)
    )
    outputs = tuple(names[n_inputs + j] for j in sorted(output_at))
    return Netlist(tuple(names[:n_inputs]), outputs, gates)


@dataclass
class Op:
    """One timed operation and what it must produce."""

    kind: str                 # verify | simulate | stats | latency
    backend: str | None
    argv: list[str] | None    # CLI arguments; None for the API op
    netlist: str | None = None
    seed: int = 0
    steps: int = 0
    trials: int = 0
    window: int = 0           # stats --n
    assignment: dict[str, int] = field(default_factory=dict)   # simulate --assign
    evals: int = 0            # primitive evaluations
    assignments: int = 0
    digest: str = ""          # SHA-256 of the expected output document

    @property
    def label(self) -> str:
        return f"stats n={self.window}" if self.kind == "stats" else f"{self.kind} {self.netlist}"


@dataclass
class Workload:
    netlists: dict[str, Netlist]
    files: dict[str, str]
    ops: list[Op]

    def compute_digests(self) -> None:
        """Digest each op's expected output document (slow; not timed)."""
        for op in self.ops:
            op.digest = digest(reference.to_text(_expected(self, op)))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _expected(wl: Workload, op: Op) -> dict:
    net = wl.netlists.get(op.netlist)
    if op.kind == "verify":
        return reference.verify_doc(wl.files[op.netlist], net, op.backend, op.seed, op.steps)
    if op.kind == "simulate":
        return reference.simulate_doc(wl.files[op.netlist], net, op.backend, op.seed, op.steps,
                                      op.assignment)
    if op.kind == "stats":
        return reference.stats_doc(op.window, op.trials, op.seed)
    return reference.latency_doc(op.backend, op.seed, op.steps, op.trials)


def check_semantics(wl: Workload, op: Op, doc: dict) -> str | None:
    """Properties every correct output has, checked on the parsed output."""
    if op.kind == "verify":
        space = 2 ** len(wl.netlists[op.netlist].inputs)
        if doc.get("pass") is not True:
            return "verify did not pass"
        if any(r.get("checked") != space for r in doc.get("backends", [])):
            return f"verify did not check all {space} assignments"
    elif op.kind == "simulate" and doc.get("ambiguous_wires"):
        return "simulate reported ambiguous wires"
    elif op.kind == "stats" and not (doc.get("ambiguity") or {}).get("within_band"):
        return "Monte-Carlo ambiguity estimate outside its 4-sigma band"
    elif op.kind == "latency" and doc.get("ambiguous_windows") != 0:
        return "decision_latency reported ambiguous windows"
    return None


# ---------------------------------------------------------------------------
# the three workloads

# Op latencies differ by class (netlist x backend), so the sizes are chosen
# for rank-stable statistics: an odd number of op classes per round puts
# op_p50_s in the middle of one class's block of latencies, and the op
# classes just below op_tail_s's rank have similar costs.
#
# (inputs, primitives) of the generated verify netlists; each is checked on
# every backend.  Primitive counts fall as inputs rise so that no single
# op dominates a round.
_VERIFY_SIZES = {"full": ((8, 32), (9, 16), (10, 10), (12, 4)), "smoke": ((4, 6),)}
# (inputs, primitives, dump waves) of the simulate netlists.  The two large
# netlists make the spike ops the costliest classes, so the tail rank falls
# inside their block; the dumping ops are small.
_SIMULATE_SIZES = {
    "full": ((32, 4334, False), (28, 3800, False), (8, 64, True)),
    "smoke": ((8, 60, False), (6, 20, True)),
}
_SIMULATE_STEPS = {"full": 4096, "smoke": 256}
# Each (n, trials) leaves its 4-sigma band for about 1e-4 of seeds.
_STATS = {"full": ((4, 500_000), (10, 500_000), (14, 500_000)), "smoke": ((4, 1000),)}
# (netlist, backend, trials); every backend appears once per netlist family.
# The one-AND spike op is the one heaviest op, so with ~20 rounds a run's
# op_tail_s falls inside its block of latencies rather than at its edge.
_LATENCY = {
    "full": (("and", "rtw-additive-not", 1500), ("and", "spike", 1000),
             ("adder", "rtw-multiplicative-not", 200), ("adder", "spike", 60)),
    "smoke": (("and", "rtw-additive-not", 20), ("adder", "spike", 10),
              ("adder", "rtw-multiplicative-not", 10)),
}
_LATENCY_STEPS = 64


def build(name: str, seed: int, workdir: Path, smoke: bool = False) -> Workload:
    """Generate the workload's inputs and write its netlist files."""
    size = "smoke" if smoke else "full"
    rng = random.Random(f"{name}/{seed}")
    netlists: dict[str, Netlist] = {}
    ops: list[Op] = []
    if name == "verify-exhaustive":
        netlists["adder"] = parse_fixed(FULL_ADDER)
        for n_inputs, prims in _VERIFY_SIZES[size]:
            netlists[f"n{n_inputs}p{prims}"] = random_netlist(rng, n_inputs, prims)
    elif name == "simulate-long":
        for n_inputs, prims, _ in _SIMULATE_SIZES[size]:
            netlists[f"n{n_inputs}p{prims}"] = random_netlist(rng, n_inputs, prims)
    elif name == "montecarlo":
        netlists["and"] = parse_fixed(ONE_AND)
        netlists["adder"] = parse_fixed(FULL_ADDER)
    else:
        raise ValueError(f"unknown workload {name!r}")

    workdir.mkdir(parents=True, exist_ok=True)
    files = {}
    for key, net in netlists.items():
        path = workdir / f"{key}.net"
        path.write_text(net.text(), encoding="utf-8")
        files[key] = str(path)

    if name == "verify-exhaustive":
        steps = 256
        for key, net in netlists.items():
            op_seed = rng.getrandbits(32)
            for backend in BACKENDS:
                ops.append(Op(
                    "verify", backend,
                    ["verify", files[key], "--backends", backend,
                     "--seed", str(op_seed), "--steps", str(steps)],
                    netlist=key, seed=op_seed, steps=steps,
                    evals=2 ** len(net.inputs) * net.primitives,
                    assignments=2 ** len(net.inputs),
                ))
    elif name == "simulate-long":
        steps = _SIMULATE_STEPS[size]
        for (key, net), (_, _, waves) in zip(netlists.items(), _SIMULATE_SIZES[size]):
            op_seed = rng.getrandbits(32)
            assignment = {name: rng.getrandbits(1) for name in net.inputs}
            assign = ",".join(f"{name}={bit}" for name, bit in assignment.items())
            for backend in BACKENDS:
                argv = ["simulate", files[key], "--assign", assign, "--backend", backend,
                        "--seed", str(op_seed), "--steps", str(steps)]
                if waves:
                    argv += ["--waves", str(workdir / f"{key}-{backend}.csv")]
                ops.append(Op("simulate", backend, argv, netlist=key, seed=op_seed,
                              steps=steps, assignment=assignment,
                              evals=net.primitives, assignments=1))
    else:
        for n, trials in _STATS[size]:
            op_seed = rng.getrandbits(32)
            ops.append(Op("stats", None,
                          ["stats", "--n", str(n), "--trials", str(trials), "--seed", str(op_seed)],
                          seed=op_seed, trials=trials, window=n))
        for key, backend, trials in _LATENCY[size]:
            net = netlists[key]
            ops.append(Op("latency", backend, None, netlist=key, seed=rng.getrandbits(32),
                          steps=_LATENCY_STEPS, trials=trials,
                          evals=trials * net.primitives, assignments=trials))
    return Workload(netlists, files, ops)
