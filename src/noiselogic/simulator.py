"""Execution of compiled networks on noise backends, equivalence proof
against the Boolean oracle, and reliability statistics.

A backend owns one reference pair per run (a single shared alphabet; every
wire in the network is generated from and classified against the same High
and Low waves, which is what makes the gate identities compose).  Three
backends exist:

* ``rtw-additive-not``: RTW family, NOT realized as universe minus input;
* ``rtw-multiplicative-not``: RTW family, NOT as the triple product;
* ``spike``: spike family, orthon/adder circuits.

Ambiguity, the event that a window cannot decide a logic value, is a
reported outcome rather than an exception: runs record it per wire, and
equivalence reports count incidents instead of aborting.
"""

import math
from dataclasses import dataclass, field

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
    classify,
    universe_spike,
)

EXHAUSTIVE_INPUT_LIMIT = 20

# Waveform bytes one chunk of assignments (verify_equivalence) or of trials
# (decision_latency) may hold: each live wire is a (rows, steps) block of
# CARRIER_DTYPE, and a wire's block is dropped after the last gate that
# reads it.
_CHUNK_BYTES = 2 << 20

# Per-chunk waves besides the live wires in decision_latency: the High and
# Low batches and the RTW context's universe, difference and H * L.
_PAIR_WAVES = 5


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
    """A reference pair and its family's (NOT, AND) kernels.

    The pair is one drawn pair, or a ``(rows, steps)`` batch of pairs whose
    row ``i`` serves row ``i`` of every wave.
    """

    def __init__(self, name: str, pair: LogicReferencePair):
        family, not_name, and_name = _BACKEND_TABLE[name]
        module = _FAMILY_GATES[family]
        self.name = name
        self.pair = pair
        self.ctx = rtw_gates.RtwGateContext(pair) if family == RTW else pair
        self._not = getattr(module, not_name)
        self._and = getattr(module, and_name)
        # First step where the references differ, -1 where they never do
        # (per row for a batch); for a spike pair, whose trains are
        # disjoint, that is the first universe spike.
        differs = pair.h.values != pair.l.values
        self.first_step = np.where(differs.any(axis=-1), differs.argmax(axis=-1), -1)

    def bind(self, bits) -> Waveform:
        """High or Low for a 0/1 bit; a ``(rows, steps)`` batch for a ``(rows,)`` bit array."""
        if isinstance(bits, np.ndarray):
            h = self.pair.h
            return type(h)(np.where(bits[:, None], h.values, self.pair.l.values))
        return self.pair.h if bits else self.pair.l

    def not_(self, x: Waveform) -> Waveform:
        return self._not(self.ctx, x)

    def and_(self, a: Waveform, b: Waveform) -> Waveform:
        return self._and(self.ctx, a, b)


def make_backend(name: str, config: GeneratorConfig) -> _Backend:
    """Instantiate a backend by name; one reference pair is drawn here."""
    if backend_family(name) == RTW:
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


def _classify_rows(backend, x: Waveform) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
    """:func:`classify` for each row of a ``(rows, steps)`` batch.

    Returns every row's bit (1 High, 0 Low, -1 ambiguous), its deciding
    step (-1 when ambiguous) and the diagnostic of each ambiguous row.  The
    backend's pair may be one pair or a batch with one pair per row.  Valid
    gates only ever emit exact copies of a reference, so rows that are
    copies of their reference, where the references differ somewhere, are
    decided in one vectorized comparison at the pair's first differing
    step, which is where the full classifier would decide them.  Any other
    row goes through the full classifier with its own pair, for a proper
    diagnostic.
    """
    values = x.values
    pair = backend.pair
    high = (values == pair.h.values).all(axis=1)
    decided = (high | (values == pair.l.values).all(axis=1)) & (backend.first_step >= 0)
    got = high.astype(np.int64)
    at = np.where(decided, backend.first_step, -1)
    details = {}
    for r in np.flatnonzero(~decided):
        row_pair = pair if pair.h.values.ndim == 1 else pair.row(r)
        outcome = classify(type(x)(values[r]), row_pair)
        if outcome.is_ambiguous:
            got[r] = -1
            details[r] = outcome.detail
        else:
            got[r] = outcome.verdict.to_bit()
            at[r] = outcome.decided_at
    return got, at, details


def _release_plan(network: CompiledNetwork) -> tuple[list[list[int]], int]:
    """Per gate, the waves no longer needed after it; and the most waves alive at once.

    A wave is dead after the last gate that reads it, unless it is an output.
    """
    last_use = {}
    for k, gate in enumerate(network.gates):
        for arg in gate.args:
            last_use[arg] = k
    outputs = {network.wire_index(name) for name in network.outputs}
    release: list[list[int]] = [[] for _ in network.gates]
    for wire, k in last_use.items():
        if wire not in outputs:
            release[k].append(wire)
    live = peak = len(network.inputs)
    for dead in release:
        live += 1
        peak = max(peak, live)
        live -= len(dead)
    return release, max(peak, 1)


def _level_plan(network: CompiledNetwork) -> list[tuple[str, tuple[np.ndarray, ...], np.ndarray]]:
    """The gates grouped by (topological level, op), in level order.

    Inputs are at level 0 and a gate is one level above its deepest
    argument, so the gates of one group read only wires of lower levels and
    can run as one batch.  Each group is its op, one index array per
    operand (the wires the gates read) and the index array of the wires
    they write.
    """
    level = [0] * len(network.wires)
    groups: dict[tuple[int, str], list] = {}
    for gate in network.gates:
        level[gate.out] = 1 + max(level[arg] for arg in gate.args)
        groups.setdefault((level[gate.out], gate.op), []).append(gate)
    return [
        (op, tuple(np.array(column) for column in zip(*(g.args for g in gates))),
         np.array([g.out for g in gates]))
        for (_, op), gates in sorted(groups.items())
    ]


def _evaluate_wires(network: CompiledNetwork, backend, assignment,
                    release: list[list[int]] | None = None) -> list[Waveform | None]:
    """Every wire's wave; each input is bound to a 0/1 int or to a ``(rows,)`` bit array.

    With a ``release`` plan from :func:`_release_plan`, each wave is dropped
    after its last use, and only the outputs are left at the end.
    """
    waves: list[Waveform | None] = [None] * len(network.wires)
    for i, name in enumerate(network.inputs):
        waves[i] = backend.bind(assignment[name])
    for k, gate in enumerate(network.gates):
        if gate.op == "NOT":
            waves[gate.out] = backend.not_(waves[gate.args[0]])
        else:
            waves[gate.out] = backend.and_(waves[gate.args[0]], waves[gate.args[1]])
        if release:
            for wire in release[k]:
                waves[wire] = None
    return waves


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

    All waves live in one ``(wires, steps)`` matrix.  The gates run one
    :func:`_level_plan` group at a time: the group's inputs are gathered
    from the matrix as ``(gates, steps)`` batches, the backend's kernel runs
    once on them, with all its checks, and the outputs are written back.
    The finished matrix is made read-only, and each waveform of the result
    is a view of its row, checked once as part of its group's batch.
    """
    _check_assignment(network.inputs, assignment)
    bk = make_backend(backend, config)
    carrier = type(bk.pair.h)
    wires = np.empty((len(network.wires), config.steps), dtype=CARRIER_DTYPE)
    for i, name in enumerate(network.inputs):
        wires[i] = bk.bind(assignment[name]).values
    for op, args, outs in _level_plan(network):
        batches = [carrier(wires[arg]) for arg in args]
        out = bk.not_(*batches) if op == "NOT" else bk.and_(*batches)
        wires[outs] = out.values
    wires.setflags(write=False)
    got, at, details = _classify_rows(bk, carrier._of_checked(wires))
    waveforms = {}
    classifications = {}
    for i, (name, bit, step) in enumerate(zip(network.wires, got.tolist(), at.tolist())):
        waveforms[name] = carrier._of_checked(wires[i])
        if i in details:
            classifications[name] = Classification(Verdict.AMBIGUOUS, None, details[i])
        else:
            classifications[name] = Classification(Verdict.from_bit(bit), step)
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


def _assignment_from_index(inputs: tuple[str, ...], index: int) -> dict[str, int]:
    n = len(inputs)
    return {name: (index >> (n - 1 - j)) & 1 for j, name in enumerate(inputs)}


def _assignments_from_indices(
    inputs: tuple[str, ...], indices: np.ndarray
) -> dict[str, np.ndarray]:
    """Bit-parallel :func:`_assignment_from_index`: one ``(rows,)`` bit array per input.

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
    live waveform data: each chunk is one ``(rows, steps)`` batch per wire,
    so every primitive and the oracle run once per chunk.  The report is the
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
    out_index = {name: net.wires.index(name) for name in net.outputs}
    release, live_peak = _release_plan(net)
    rows = _chunk_rows(config.steps, live_peak)
    for lo in range(0, count, rows):
        hi = min(lo + rows, count)
        indices = np.arange(lo, hi, dtype=np.uint64) if drawn is None else drawn[lo:hi]
        bits = _assignments_from_indices(net.inputs, indices)
        expected = eval_boolean(source, bits)
        waves = _evaluate_wires(net, bk, bits, release)
        bad = np.zeros(hi - lo, dtype=bool)
        outcomes = []
        for name in net.outputs:
            got, _, details = _classify_rows(bk, waves[out_index[name]])
            bad |= got != expected[name]   # an ambiguous row (-1) never matches
            outcomes.append((name, got, details))
        report.checked += hi - lo
        report.passed += hi - lo - int(bad.sum())
        for r in np.flatnonzero(bad):
            assignment = _assignment_from_index(net.inputs, int(indices[r]))
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
    primitive runs once per chunk, and the report is the one a per-trial
    loop would give.
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
    out_index = {name: network.wires.index(name) for name in network.outputs}
    release, live_peak = _release_plan(network)
    rows = _chunk_rows(config.steps, live_peak + _PAIR_WAVES)
    for lo in range(0, trials, rows):
        count = min(rows, trials - lo)
        bk = _Backend(backend, _draw_pair_rows(family, config, count, lo))
        waves = _evaluate_wires(network, bk, assignment, release)
        # Per row, as a per-trial loop over the outputs reads it: -2 before
        # the first output, then its deciding step, or -1 from the first
        # ambiguous output on.
        decided = np.full(count, -2)
        for name in network.outputs:
            _, at, _ = _classify_rows(bk, waves[out_index[name]])
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
