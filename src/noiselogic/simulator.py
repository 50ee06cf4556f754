"""Execution of compiled networks on noise backends, equivalence proof
against the Boolean oracle, and reliability statistics.

A backend owns one reference pair per run (a single shared alphabet; every
wire in the network is generated from and classified against the same High
and Low waves, which is what makes the gate identities compose).  Three
backends exist:

* ``rtw-additive-not``: RTW family, NOT realized as universe minus input;
* ``rtw-multiplicative-not``: RTW family, NOT as the triple product;
* ``spike``: spike family, orthon/adder circuits.

:func:`run`, :func:`verify_equivalence` and :func:`decision_latency` all
evaluate a network by one walk, :func:`_evaluate`: each (topological level,
op) group of gates is one kernel call on a ``(gates, rows, steps)`` batch
gathered from one ``(slots, rows, steps)`` matrix, whose rows are the one
run, the assignments of a chunk or the trials of a chunk.

Ambiguity, the event that a window cannot decide a logic value, is a
reported outcome rather than an exception: runs record it per wire, and
equivalence reports count incidents instead of aborting.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import rtw_gates, spike_gates
from .errors import ConfigError, InvariantError, NetlistError
from .generators import (
    count_identical_rtw_pairs,
    gen_orthogonal_spike_pair,
    rtw_sign_matrix,
    spike_pair_rows,
)
from .netlist import CompiledNetwork, NetlistAst, _check_assignment, eval_boolean, lower
from .prng import SplitMix64, derive_seed
from .signals import (
    CARRIER_DTYPE,
    RTW,
    SPIKE,
    Classification,
    GeneratorConfig,
    LogicReferencePair,
    RtwSignal,
    SpikeTrain,
    Verdict,
    Waveform,
    classify_rows,
    universe_spike,
)

EXHAUSTIVE_INPUT_LIMIT = 20

# Waveform bytes one chunk of assignments (verify_equivalence) or of trials
# (decision_latency) may hold: each slot of the wave matrix is a
# (rows, steps) block of CARRIER_DTYPE.
_CHUNK_BYTES = 2 << 20

# Per-chunk waves besides the slots in decision_latency: the High and Low
# batches, and the [L, H] table stacked from them.
_PAIR_WAVES = 4


def _chunk_rows(steps: int, waves: int) -> int:
    """Rows per chunk so that ``waves`` live ``(rows, steps)`` blocks fit ``_CHUNK_BYTES``."""
    return max(1, _CHUNK_BYTES // (CARRIER_DTYPE.itemsize * steps * waves))


# Child-stream index reserved for drawing sampled assignments, far away
# from the per-trial indices used by the Monte-Carlo loops.
_SAMPLE_STREAM = 2**48


# Family -> gate module; backend name -> (family, NOT kernel, AND kernel).
# Kernels and pair generators are looked up on their module each time a
# backend is built, so a rebound module attribute (e.g. an instrumenting
# wrapper) is honoured.
_FAMILY_GATES = {RTW: rtw_gates, SPIKE: spike_gates}
_BACKEND_TABLE = {
    "rtw-additive-not": (RTW, "not_additive", "and_gate"),
    "rtw-multiplicative-not": (RTW, "not_multiplicative", "and_gate"),
    "spike": (SPIKE, "spike_not", "spike_and"),
}

BACKENDS = tuple(_BACKEND_TABLE)


def backend_family(name: str) -> str:
    """Logic family (``RTW`` or ``SPIKE``) that a backend runs on."""
    if name not in _BACKEND_TABLE:
        raise ConfigError(f"unknown backend {name!r}; expected one of {', '.join(BACKENDS)}")
    return _BACKEND_TABLE[name][0]


class _Backend:
    """A reference pair and its family's kernel per op, called as ``kernel[op](pair, *inputs)``.

    The pair is one drawn pair, or a ``(rows, steps)`` batch of pairs whose
    row ``i`` serves row ``i`` of every wave.
    """

    def __init__(self, name: str, pair: LogicReferencePair):
        family, not_name, and_name = _BACKEND_TABLE[name]
        module = _FAMILY_GATES[family]
        self.pair = pair
        self.kernel = {"NOT": getattr(module, not_name), "AND": getattr(module, and_name)}


def make_backend(name: str, config: GeneratorConfig) -> _Backend:
    """Instantiate a backend by name; one reference pair is drawn here."""
    if backend_family(name) == RTW:
        # Through the gate module's name, which perfbench/tracing.py wraps.
        return _Backend(name, rtw_gates.gen_rtw_pair(config))
    return _Backend(name, gen_orthogonal_spike_pair(config))


def _draw_pair_rows(family: str, config: GeneratorConfig, count: int,
                    start: int) -> LogicReferencePair:
    """``count`` pairs: row ``i`` is ``make_backend``'s pair for ``derive_seed(config.seed, start + i)``."""
    if family == RTW:
        h, l = (rtw_sign_matrix(config.seed, count, config.steps, child=child, start=start)
                for child in (0, 1))
        return LogicReferencePair(RtwSignal(h), RtwSignal(l))
    h, l = spike_pair_rows(config, count, start)
    return LogicReferencePair(SpikeTrain(h), SpikeTrain(l))


class _Plan(NamedTuple):
    groups: list[tuple[str, tuple[np.ndarray, ...], np.ndarray]]   # op, operand slots, output slots
    slot: dict[str, int]   # kept wire name -> the slot that holds it at the end
    slots: int


def _plan(network: CompiledNetwork, keep) -> _Plan:
    """Group the gates by (topological level, op) and give every wire a slot.

    Inputs are at level 0 and a gate is one level above its deepest
    argument, so a group reads only lower levels and runs as one batch.
    Input ``i`` takes slot ``i``.  A wire not named in ``keep`` frees its
    slot once the last group that reads it has gathered it (or, if none
    does, once it is written), and a later output takes the slot.
    """
    level = [0] * len(network.wires)
    by_key: dict[tuple[int, str], list] = {}
    for gate in network.gates:
        level[gate.out] = 1 + max(level[arg] for arg in gate.args)
        by_key.setdefault((level[gate.out], gate.op), []).append(gate)
    ordered = [(op, gates) for (_, op), gates in sorted(by_key.items())]
    # The group after which each wire is dead; a kept wire never is.
    dead_after = [-1] * len(network.wires)
    for k, (_, gates) in enumerate(ordered):
        for gate in gates:
            for wire in (gate.out, *gate.args):
                dead_after[wire] = k
    keep = set(keep)
    dead_after = [len(ordered) if name in keep else k for name, k in zip(network.wires, dead_after)]
    slot = list(range(len(network.wires)))
    # A stack of slots to take: the unused ones, lowest on top, under the freed ones.
    free = slot[len(network.inputs):][::-1]
    free += [w for w in range(len(network.inputs)) if dead_after[w] < 0]
    groups = []
    for k, (op, gates) in enumerate(ordered):
        args = tuple(np.array([slot[w] for w in col]) for col in zip(*(g.args for g in gates)))
        free += dict.fromkeys(slot[w] for g in gates for w in g.args if dead_after[w] == k)
        for gate in gates:
            slot[gate.out] = free.pop()
        groups.append((op, args, np.array([slot[g.out] for g in gates])))
        free += [slot[g.out] for g in gates if dead_after[g.out] == k]
    kept = {name: slot[w] for w, name in enumerate(network.wires) if dead_after[w] == len(ordered)}
    return _Plan(groups, kept, max(slot, default=-1) + 1)


def _evaluate(plan: _Plan, bk: _Backend, bits, rows: int) -> np.ndarray:
    """Walk ``plan`` on ``bk``; returns the read-only ``(slots, rows, steps)`` wave matrix.

    Input ``i`` takes the rows of the stacked ``[L, H]`` table that
    ``bits[i]`` picks, a 0/1 int or a ``(rows,)`` bit array, for one pair
    or a ``(rows, steps)`` batch of pairs alike.  Each group gathers its
    operands as ``(gates, rows, steps)`` batches, checked when they were
    written, runs its kernel once, with all of its checks, and scatters
    the outputs back into their slots.
    """
    carrier = type(bk.pair.h)
    table = np.stack((bk.pair.l.values, bk.pair.h.values))
    matrix = np.empty((plan.slots, rows, bk.pair.steps), dtype=CARRIER_DTYPE)
    for i, bit in enumerate(bits):
        matrix[i] = np.take(table, bit, axis=0)
    for op, args, outs in plan.groups:
        batches = [matrix[arg] for arg in args]
        for batch in batches:
            batch.flags.writeable = False
        matrix[outs] = bk.kernel[op](bk.pair, *map(carrier._of_checked, batches)).values
    matrix.flags.writeable = False
    return matrix


@dataclass
class SimulationRun:
    """All wire waveforms and classifications of one network execution."""

    backend: str
    config: GeneratorConfig
    network: CompiledNetwork
    assignment: dict[str, int]
    waveforms: dict[str, Waveform]
    classifications: dict[str, Classification]

    @property
    def output_classifications(self) -> dict[str, Classification]:
        return {name: self.classifications[name] for name in self.network.outputs}

    @property
    def ambiguous_wires(self) -> list[str]:
        return [name for name, c in self.classifications.items() if c.is_ambiguous]

    def output_bits(self) -> dict[str, int]:
        return {name: c.verdict.to_bit() for name, c in self.output_classifications.items()}


def run(
    network: CompiledNetwork,
    backend: str,
    assignment: dict[str, int],
    config: GeneratorConfig,
) -> SimulationRun:
    """Execute one assignment on one backend, retaining every waveform.

    One reference pair is drawn for the whole run; inputs bind to the High
    or Low wave, and every wire (inputs included) is classified against the
    pair.  Ambiguous wires are reported in the result, not raised.

    The walk is :func:`_evaluate` on one row with every wire kept, and
    each waveform of the result is a read-only view of its slot of the
    matrix, checked once as part of its group's batch.
    """
    _check_assignment(network.inputs, assignment)
    bk = make_backend(backend, config)
    carrier = type(bk.pair.h)
    plan = _plan(network, network.wires)
    matrix = _evaluate(plan, bk, [assignment[name] for name in network.inputs], 1)[:, 0]
    got, at, details = classify_rows(carrier._of_checked(matrix), bk.pair)
    readings = [Classification(Verdict.AMBIGUOUS, None, details[s]) if s in details
                else Classification(Verdict.from_bit(bit), step)
                for s, (bit, step) in enumerate(zip(got.tolist(), at.tolist()))]
    waveforms = {name: carrier._of_checked(matrix[s]) for name, s in plan.slot.items()}
    classifications = {name: readings[s] for name, s in plan.slot.items()}
    return SimulationRun(
        backend=backend,
        config=config,
        network=network,
        assignment=dict(assignment),
        waveforms=waveforms,
        classifications=classifications,
    )


@dataclass
class EquivalenceReport:
    """Outcome of checking a network's noise semantics against the oracle."""

    backend: str
    steps: int
    seed: int
    inputs: tuple[str, ...]
    mode: str                      # "exhaustive" or "sample"
    assignment_space: int          # 2 ** len(inputs)
    checked: int
    passed: int
    failures: list[dict] = field(default_factory=list)
    ambiguous: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.ambiguous and self.passed == self.checked

    def counterexample(self) -> dict | None:
        return self.failures[0] if self.failures else None

    def to_doc(self) -> dict:
        return {
            "backend": self.backend,
            "steps": self.steps,
            "seed": self.seed,
            "inputs": list(self.inputs),
            "mode": self.mode,
            "assignment_space": self.assignment_space,
            "checked": self.checked,
            "passed": self.passed,
            "failures": self.failures,
            "ambiguous": self.ambiguous,
            "pass": self.ok,
        }


def _assignments_from_indices(
    inputs: tuple[str, ...], indices: np.ndarray
) -> dict[str, np.ndarray]:
    """One ``(rows,)`` bit array per input; input ``j`` of ``n`` is bit ``n - 1 - j`` of the index.

    ``indices`` is a uint64 array, or an object array of Python ints for
    more than 64 inputs.
    """
    n = len(inputs)
    return {name: ((indices >> (n - 1 - j)) & 1).astype(np.int64)
            for j, name in enumerate(inputs)}


def _draw_indices(stream: SplitMix64, n_inputs: int, sample: int) -> np.ndarray:
    """``sample`` assignment indices, uniform over ``2 ** n_inputs``.

    Each index takes ``ceil(n_inputs / 64)`` words from ``stream``, read
    big-endian and reduced modulo ``2 ** n_inputs``, so every input bit is
    drawn.  Up to 64 inputs that is one word per index, in a uint64 array;
    wider indices are Python ints in an object array.
    """
    space = 2 ** n_inputs
    words = -(-n_inputs // 64)
    drawn = []
    for _ in range(sample):
        index = 0
        for _ in range(words):
            index = (index << 64) | stream.next_u64()
        drawn.append(index % space)
    return np.array(drawn, dtype=np.uint64 if words == 1 else object)


def verify_equivalence(
    source: NetlistAst | CompiledNetwork,
    backend: str,
    config: GeneratorConfig,
    *,
    network: CompiledNetwork | None = None,
    sample: int | None = None,
) -> EquivalenceReport:
    """Prove (exhaustively) or probe (by sampling) waveform-level equivalence.

    ``source`` provides the Boolean oracle: an AST is evaluated at the
    source-gate level, a compiled network at the primitive level.  The
    simulated network defaults to ``lower(source)`` for an AST and to the
    source itself otherwise; passing ``network`` explicitly lets callers
    check an independently produced (or deliberately corrupted) lowering
    against the oracle, provided it has the oracle's inputs and outputs.

    Up to ``EXHAUSTIVE_INPUT_LIMIT`` inputs every assignment is checked;
    beyond that a ``sample`` count is required and assignments are drawn
    uniformly from a derived stream (see :func:`_draw_indices`).
    Equivalence holds only with zero failures and zero ambiguous incidents.

    Assignments are evaluated in chunks of at most ``_CHUNK_BYTES`` of
    waveform data: each chunk is one :func:`_evaluate` walk with a row per
    assignment, so every (level, op) group and the oracle run once per
    chunk.  The report is the
    one a per-assignment loop would give, with failures and ambiguous
    incidents in assignment order.
    """
    if network is None:
        net = lower(source) if isinstance(source, NetlistAst) else source
    else:
        for what in ("inputs", "outputs"):
            mine, theirs = getattr(network, what), getattr(source, what)
            if set(mine) != set(theirs):
                raise NetlistError(
                    f"network {what} ({', '.join(mine)}) differ from the "
                    f"netlist {what} ({', '.join(theirs)})"
                )
        net = network
    n_inputs = len(net.inputs)
    space = 2 ** n_inputs
    if sample is None:
        if n_inputs > EXHAUSTIVE_INPUT_LIMIT:
            raise ConfigError(
                f"{n_inputs} inputs exceed the exhaustive limit of "
                f"{EXHAUSTIVE_INPUT_LIMIT}; pass a sample count to probe instead"
            )
        drawn = None
        count = space
        mode = "exhaustive"
    else:
        if sample < 1:
            raise ConfigError(f"sample count must be positive, got {sample}")
        drawn = _draw_indices(SplitMix64(derive_seed(config.seed, _SAMPLE_STREAM)),
                              n_inputs, sample)
        count = sample
        mode = "sample"

    bk = make_backend(backend, config)
    report = EquivalenceReport(
        backend=backend,
        steps=config.steps,
        seed=config.seed,
        inputs=net.inputs,
        mode=mode,
        assignment_space=space,
        checked=0,
        passed=0,
    )
    carrier = type(bk.pair.h)
    plan = _plan(net, net.outputs)
    rows = _chunk_rows(config.steps, plan.slots)
    for lo in range(0, count, rows):
        hi = min(lo + rows, count)
        indices = np.arange(lo, hi, dtype=np.uint64) if drawn is None else drawn[lo:hi]
        bits = _assignments_from_indices(net.inputs, indices)
        expected = eval_boolean(source, bits)
        matrix = _evaluate(plan, bk, [bits[name] for name in net.inputs], hi - lo)
        bad = np.zeros(hi - lo, dtype=bool)
        outcomes = []
        for name in net.outputs:
            got, _, details = classify_rows(carrier._of_checked(matrix[plan.slot[name]]), bk.pair)
            bad |= got != expected[name]   # an ambiguous row (-1) never matches
            outcomes.append((name, got, details))
        report.checked += hi - lo
        report.passed += hi - lo - int(bad.sum())
        for r in np.flatnonzero(bad):
            assignment = {name: int(bits[name][r]) for name in net.inputs}
            for name, got, details in outcomes:
                if r in details:
                    report.ambiguous.append(
                        {"assignment": assignment, "wire": name, "detail": details[r]}
                    )
                elif got[r] != expected[name][r]:
                    report.failures.append(
                        {
                            "assignment": assignment,
                            "output": name,
                            "expected": int(expected[name][r]),
                            "got": Verdict.from_bit(int(got[r])).value,
                        }
                    )
    return report


# ---------------------------------------------------------------------------
# reliability and latency


@dataclass
class ReliabilityReport:
    """Analytic vs Monte-Carlo ambiguity probability for an n-step window."""

    n: int
    analytic_ambiguity: float
    mc_estimate: float
    mc_trials: int
    sigma: float
    band_4sigma: float
    within_band: bool
    decided_at_histogram: dict[int, int] | None = None

    def to_doc(self) -> dict:
        doc = {
            "n": self.n,
            "analytic_ambiguity": self.analytic_ambiguity,
            "mc_estimate": self.mc_estimate,
            "mc_trials": self.mc_trials,
            "sigma": self.sigma,
            "band_4sigma": self.band_4sigma,
            "within_band": self.within_band,
        }
        if self.decided_at_histogram is not None:
            doc["decided_at_histogram"] = {
                str(k): v for k, v in sorted(self.decided_at_histogram.items())
            }
        return doc


def ambiguity_analytic(n: int) -> float:
    """Probability that n-step RTW references are elementwise identical: 0.5**n."""
    if not isinstance(n, int) or n < 1:
        raise ConfigError(f"step count must be a positive integer, got {n!r}")
    return 0.5 ** n


def min_steps_for(epsilon: float) -> int:
    """Smallest n with 0.5**n <= epsilon (the guaranteeing convention).

    The companion :func:`rounded_steps_for` gives the nearest-integer
    solution of 0.5**n == epsilon, which for thresholds just below a power
    of two lands one step lower; both are reported by the stats interface
    so neither convention hides the other.
    """
    if not 0.0 < epsilon < 1.0:
        raise ConfigError(f"epsilon must lie strictly between 0 and 1, got {epsilon!r}")
    n = max(1, math.ceil(-math.log2(epsilon)))
    while 0.5 ** n > epsilon:
        n += 1
    while n > 1 and 0.5 ** (n - 1) <= epsilon:
        n -= 1
    return n


def rounded_steps_for(epsilon: float) -> int:
    """Nearest integer n to the exact solution of 0.5**n == epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise ConfigError(f"epsilon must lie strictly between 0 and 1, got {epsilon!r}")
    return max(1, round(-math.log2(epsilon)))


def ambiguity_monte_carlo(
    n: int, trials: int, seed: int, *, chunk: int = 1 << 14
) -> ReliabilityReport:
    """Estimate the ambiguity probability by drawing independent pairs.

    Trial ``i`` regenerates exactly the pair that ``gen_rtw_pair`` would
    produce for the derived seed of ``(seed, i)``; the whole sweep is
    evaluated in vectorized chunks whose aggregate is independent of the
    chunking, so serial and chunked runs agree bit for bit.  Within a chunk
    each trial is dropped at its first differing step.
    """
    if not isinstance(n, int) or not 1 <= n <= 20:
        raise ConfigError(f"window length must be an integer in [1, 20], got {n!r}")
    if trials < 1000:
        raise ConfigError(f"at least 1000 trials required, got {trials}")
    matches = 0
    for start in range(0, trials, chunk):
        matches += count_identical_rtw_pairs(seed, min(chunk, trials - start), n, start=start)
    analytic = ambiguity_analytic(n)
    estimate = matches / trials
    sigma = math.sqrt(analytic * (1.0 - analytic) / trials)
    band = 4.0 * sigma
    return ReliabilityReport(
        n=n,
        analytic_ambiguity=analytic,
        mc_estimate=estimate,
        mc_trials=trials,
        sigma=sigma,
        band_4sigma=band,
        within_band=abs(estimate - analytic) <= band,
    )


@dataclass
class LatencyReport:
    """Distribution of the deciding step over independently seeded runs."""

    backend: str
    trials: int
    steps: int
    histogram: dict[int, int]
    ambiguous_windows: int
    mean_decided_at: float
    decision_rate: float           # per-step probability that a step decides

    def to_doc(self) -> dict:
        return {
            "backend": self.backend,
            "trials": self.trials,
            "steps": self.steps,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "ambiguous_windows": self.ambiguous_windows,
            "mean_decided_at": self.mean_decided_at,
            "decision_rate": self.decision_rate,
        }


def decision_latency(
    network: CompiledNetwork,
    config: GeneratorConfig,
    trials: int,
    backend: str = BACKENDS[-1],
    assignment: dict[str, int] | None = None,
) -> LatencyReport:
    """Histogram of the step at which output values become decided.

    Each trial runs the network on a freshly derived reference pair and
    records the deciding step of its outputs (all outputs decide at the
    same step, the pair's first discriminating step, which for the spike
    family is the first universe spike).  The distribution is geometric
    with per-step rate ``spike_rate_h + spike_rate_l`` for spikes and 0.5
    for RTW references; windows that cannot decide at all are tallied
    separately.  The default backend is the spike one, last in ``BACKENDS``.

    Trial ``i`` uses the pair that ``make_backend`` draws for the derived
    seed ``derive_seed(config.seed, i)``.  Trials are evaluated in chunks of
    at most ``_CHUNK_BYTES`` of waveform data: row ``i`` of a chunk's
    ``(rows, steps)`` reference batch is trial ``i``'s pair, so every
    (level, op) group runs once per chunk, and the report is the one a
    per-trial loop would give.
    """
    if trials < 1:
        raise ConfigError(f"trials must be positive, got {trials}")
    if assignment is None:
        assignment = {name: 1 for name in network.inputs}
    _check_assignment(network.inputs, assignment)
    family = backend_family(backend)
    histogram: dict[int, int] = {}
    decided_trials = 0
    total = 0
    bits = [assignment[name] for name in network.inputs]
    plan = _plan(network, network.outputs)
    rows = _chunk_rows(config.steps, plan.slots + _PAIR_WAVES)
    for lo in range(0, trials, rows):
        count = min(rows, trials - lo)
        bk = _Backend(backend, _draw_pair_rows(family, config, count, lo))
        matrix = _evaluate(plan, bk, bits, count)
        carrier = type(bk.pair.h)
        # Per row, as a per-trial loop over the outputs reads it: -2 before
        # the first output, then its deciding step, or -1 from the first
        # ambiguous output on.
        decided = np.full(count, -2)
        for name in network.outputs:
            _, at, _ = classify_rows(carrier._of_checked(matrix[plan.slot[name]]), bk.pair)
            if np.any((decided >= 0) & (at >= 0) & (at != decided)):
                raise InvariantError("outputs decided at different steps in one run")
            decided = np.where(decided == -1, -1, at)
        ok = decided >= 0
        if family == SPIKE:
            first_u = universe_spike(bk.pair).values.argmax(axis=1)
            if np.any(decided[ok] != first_u[ok]):
                raise InvariantError("decision step deviates from the first universe spike")
        for step, count in zip(*np.unique(decided[ok], return_counts=True)):
            histogram[int(step)] = histogram.get(int(step), 0) + int(count)
        decided_trials += int(ok.sum())
        total += int(decided[ok].sum())
    mean = total / decided_trials if decided_trials else float("nan")
    if family == SPIKE:
        rate = config.spike_rate_h + config.spike_rate_l
    else:
        rate = 0.5
    return LatencyReport(
        backend=backend,
        trials=trials,
        steps=config.steps,
        histogram=histogram,
        ambiguous_windows=trials - decided_trials,
        mean_decided_at=mean,
        decision_rate=rate,
    )
