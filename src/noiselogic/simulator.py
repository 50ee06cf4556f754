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
op) group of gates is one kernel call on the packed words of its operands,
gathered from one words-major ``(slots, words, rows)`` ``uint64`` matrix
whose rows are the one run, the assignments of a chunk or one column set of
a chunk of trials; each slot is one contiguous ``(words, rows)`` batch.
:func:`run` keeps every wire, wire ``i`` in slot ``i``;
:func:`verify_equivalence` and :func:`decision_latency` keep only the
outputs and reuse the slots of dead wires (:func:`_plan`).  Both walk the
groups that :func:`_slot_groups` builds.  The kernels take and return
those words, so the walk wraps no wave: every operand is an input's copy
of High or Low or a kernel's output, on the backend's pair, so the
carrier and step checks that words cannot carry hold by construction, and
each kernel still checks every value.

Every walk is on a pair's step classes, :attr:`LogicReferencePair.step_classes`:
the pair cut to one step per distinct ``(H_t, L_t)`` column, at most four,
so a row is one cut word below 16 at any step count, and
:meth:`StepClasses.read` classifies each distinct word once.  This rests on
one precondition, which all three meet: every input copies High or Low, so
every wire is a per-step function of the column.  A path that feeds other
input waves must cut on ``(H, L, inputs)`` columns, or not cut at all.
Every kernel check still runs, on the cut pair; each distinct word is read,
and each wave a run hands out built, as its full wave against the full
pair.  :func:`decision_latency` walks one pair per distinct column set.

Ambiguity, the event that a window cannot decide a logic value, is a
reported outcome rather than an exception: runs record it per wire, and
equivalence reports count incidents instead of aborting.
"""

import math
import os
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import generators, rtw_gates, spike_gates
from .errors import ConfigError, NetlistError
from .generators import count_identical_rtw_pairs
from .netlist import (
    PRIMITIVE_ARITY,
    CompiledNetwork,
    LevelGroups,
    NetlistAst,
    _check_assignment,
    eval_boolean,
    lower,
)
from .prng import SplitMix64, derive_seed, derive_seeds
from .signals import (
    RTW,
    SPIKE,
    Classification,
    GeneratorConfig,
    LogicReferencePair,
    StepClasses,
    Waveform,
    _column_masks,
    _integer,
    first_set_step,
    words_for,
)

EXHAUSTIVE_INPUT_LIMIT = 20

# Waveform bytes one chunk of assignments (verify_equivalence) or of trials
# (decision_latency) may hold, in (words, rows) blocks of uint64: the slots
# of the wave matrix, or the drawn reference planes and their column masks.
_CHUNK_BYTES = 2 << 20

# Trials one chunk of the ambiguity sweep draws.
_MC_CHUNK = 1 << 16


def _chunk_rows(steps: int, waves: int) -> int:
    """Rows per chunk so that ``waves`` live ``(words, rows)`` blocks, at least one, fit
    ``_CHUNK_BYTES``."""
    return max(1, _CHUNK_BYTES // (8 * words_for(steps) * max(1, waves)))


# Worker threads a sweep may run its chunks on, at most.  The sweeps' speed
# was measured with 2 usable CPUs only; 3 or 4 threads are correct but untimed.
_MAX_WORKERS = 4


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def _map_chunks(fn, starts: range) -> list:
    """``[fn(start) for start in starts]`` on up to ``min(_MAX_WORKERS, usable CPUs, chunks)`` threads.

    Results come back in chunk order, so a merge over them gives the same
    report for any thread count, and the first chunk exception in chunk
    order propagates, as in the serial loop.  One chunk or one CPU runs
    inline and starts no thread; otherwise every thread has ended on return.
    NumPy releases the GIL for the array work of a chunk.
    """
    workers = min(_MAX_WORKERS, _usable_cpus(), len(starts))
    if workers <= 1:
        return [fn(start) for start in starts]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, starts))


# Child-stream index reserved for drawing sampled assignments, far away
# from the per-trial indices used by the Monte-Carlo loops.
_SAMPLE_STREAM = 2**48


# Family -> gate module; backend name -> (family, NOT kernel, AND kernel).
# Kernels are looked up on their module each time a backend is built, and
# the generators' draws on theirs at each draw, so a rebound module
# attribute (e.g. an instrumenting wrapper) is honoured.
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
    """A reference pair and its family's kernel per op, called as ``kernel[op](pair, *words)``."""

    def __init__(self, name: str, pair: LogicReferencePair):
        family, not_name, and_name = _BACKEND_TABLE[name]
        module = _FAMILY_GATES[family]
        self.pair = pair
        self.kernel = {"NOT": getattr(module, not_name), "AND": getattr(module, and_name)}


def make_backend(name: str, config: GeneratorConfig) -> _Backend:
    """Instantiate a backend by name; one reference pair is drawn here, for ``config.seed``."""
    return _Backend(name, generators.reference_pairs(backend_family(name), config.seed, config))


class _Plan(NamedTuple):
    groups: list[tuple[str, tuple[np.ndarray, ...], np.ndarray]]   # op, operand slots, output slots
    slots: int
    outputs: list[int]   # the slot that holds each output at the end, in output order


def _slot_groups(groups: LevelGroups, slot: np.ndarray | None = None) -> list:
    """``groups`` as ``(op, operand slots, output slots)``, wire ``i`` in slot ``slot[i]``.

    Without ``slot``, wire ``i`` is in slot ``i``.  An operand's slots are
    one row of the group's reads: a NOT reads one, an AND two.
    """
    out, reads = groups.out, groups.reads
    if slot is not None:
        out, reads = slot[out], slot[reads]
    return [(op, tuple(reads[:PRIMITIVE_ARITY[op], lo:hi]), out[lo:hi])
            for op, lo, hi in zip(groups.ops, groups.bounds, groups.bounds[1:])]


def _plan(network: CompiledNetwork) -> _Plan:
    """Give every wire a slot, reusing the slots of wires that are not outputs.

    The groups are the network's :attr:`~CompiledNetwork.level_groups`,
    computed once per network; :func:`_slot_groups` gives them their
    slots.  A group reads only lower levels and runs as one batch.  Input
    ``i`` takes slot ``i``.  A wire that is not an output frees its slot
    once the last group that reads it has gathered it (or, if none does,
    once it is written), before that group's outputs take theirs, and a
    wire written later takes the slot: one pass over the groups' gates pops
    their outputs' slots off a stack that holds the unused slots, lowest on
    top, under the freed ones, pushed in wire order.  The slot count is one
    past the highest slot taken, or the input count.  :func:`run`, which
    keeps every wire, walks wire ``i`` in slot ``i`` instead.
    """
    groups = network.level_groups
    n_in, n_wires, n_groups = len(network.inputs), len(network.wires), len(groups.ops)
    # The group before whose outputs a wire frees its slot: its last reader's,
    # else the one after its writer's; an output never frees its slot.
    group = np.repeat(np.arange(n_groups), np.diff(groups.bounds))
    free_before = np.zeros(n_wires, dtype=np.intp)
    free_before[groups.out] = group + 1
    # As many values as indices: ufunc.at misreads broadcast values in NumPy 2.4.
    np.maximum.at(free_before, groups.reads.ravel(), np.concatenate([group, group]))
    kept = [network.wire_index(name) for name in network.outputs]
    free_before[kept] = n_groups
    freed = [[] for _ in range(n_groups + 1)]
    for wire, k in enumerate(free_before.tolist()):
        freed[k].append(wire)
    stack = list(range(n_wires - 1, n_in - 1, -1))   # the unused slots, lowest on top
    slot = list(range(n_wires))
    out = groups.out.tolist()
    for k, (lo, hi) in enumerate(zip(groups.bounds, groups.bounds[1:])):
        stack += [slot[wire] for wire in freed[k]]
        for wire in out[lo:hi]:
            slot[wire] = stack.pop()
    slot = np.array(slot, dtype=np.intp)
    return _Plan(_slot_groups(groups, slot), int(slot.max(initial=-1)) + 1, slot[kept].tolist())


def _evaluate(groups: list, slots: int, bk: _Backend, bits, rows: int) -> np.ndarray:
    """Walk ``groups`` on ``bk``; returns the read-only ``(slots, words, rows)`` wave matrix.

    Input ``i`` is High where ``bits[i]``, a 0/1 int or a ``(rows,)`` bit
    array, is 1 and Low elsewhere.
    Each group runs its kernel once, with all of its checks, on the words
    of its operands as they are: ``(words, rows)`` views of its slots for
    one gate, gathered ``(gates, words, rows)`` batches for more.  The
    kernel's output words go straight into the matrix; no wave is built.
    """
    # The pair spreads over the rows as (words, 1) columns.
    h, l = bk.pair._columns
    matrix = np.empty((slots, words_for(bk.pair.steps), rows), dtype=np.uint64)
    for i, bit in enumerate(bits):
        matrix[i] = np.where(bit, h, l)   # a (rows,) bit array spreads over the words
    for op, args, outs in groups:
        if len(outs) == 1:
            args, outs = [arg[0] for arg in args], outs[0]
        matrix[outs] = bk.kernel[op](bk.pair, *[matrix[arg] for arg in args])
    matrix.flags.writeable = False
    return matrix


@dataclass(eq=False)
class SimulationRun:
    """Every wire's wave and reading from one network execution, by cut word.

    ``cut`` holds each wire's cut word, in wire order, from the walk on the
    step classes ``classes`` of the run's pair, and ``readings`` is
    :meth:`StepClasses.read`'s table of those words.  :attr:`waveforms`
    and :attr:`classifications` are read-only mappings over the wires,
    built when first read: every wire with cut word ``v`` shares one wave,
    wrapping the view ``classes.expand[v]`` of its full wave, and one
    reading, ``readings[v]``.  :attr:`ambiguous_wires` builds
    :attr:`classifications` only if some present word reads Ambiguous.
    """

    backend: str
    config: GeneratorConfig
    network: CompiledNetwork
    assignment: dict[str, int]
    classes: StepClasses
    cut: list[int]
    readings: list[Classification | None]

    @cached_property
    def waveforms(self) -> Mapping[str, Waveform]:
        wrap = type(self.classes.pair.h)._of_words
        waves = [wrap(row, self.config.steps) for row in self.classes.expand]
        return MappingProxyType(dict(zip(self.network.wires, [waves[v] for v in self.cut])))

    @cached_property
    def classifications(self) -> Mapping[str, Classification]:
        readings = self.readings
        return MappingProxyType(dict(zip(self.network.wires, [readings[v] for v in self.cut])))

    @property
    def output_classifications(self) -> dict[str, Classification]:
        # Looked up directly: building :attr:`classifications` walks every wire.
        index = self.network.wire_index
        return {name: self.readings[self.cut[index(name)]] for name in self.network.outputs}

    @property
    def ambiguous_wires(self) -> list[str]:
        if not any(r is not None and r.is_ambiguous for r in self.readings):
            return []
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

    The walk is :func:`_evaluate` on one row of the pair's step classes,
    over the network's level groups with wire ``i`` in slot ``i``: every
    wire is kept, so no slot is planned or reused, and the cut words come
    out in wire order.  One :meth:`StepClasses.read` call reads each
    distinct word once.  Wave and classification objects are built per cut
    word, not per wire (see :class:`SimulationRun`).
    """
    _check_assignment(network.inputs, assignment)
    classes = make_backend(backend, config).pair.step_classes
    cut = _evaluate(_slot_groups(network.level_groups), len(network.wires),
                    _Backend(backend, classes.pair),
                    [assignment[name] for name in network.inputs], 1)[:, 0, 0]
    return SimulationRun(
        backend=backend,
        config=config,
        network=network,
        assignment=dict(assignment),
        classes=classes,
        cut=cut.tolist(),
        readings=classes.read(cut),
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
        # The fields in order, not copied: ``dataclasses.asdict`` deep-copies
        # every value, which cost about 1 % of a small exhaustive verify.
        return {**vars(self), "inputs": list(self.inputs), "pass": self.ok}


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
    """``sample`` assignment indices, uniform over ``2 ** n_inputs``, from one block of ``stream``.

    Each index takes ``ceil(n_inputs / 64)`` consecutive words, read
    big-endian and reduced modulo ``2 ** n_inputs``, so every input bit is
    drawn.  Up to 64 inputs that is one word per index, masked, in a uint64
    array; wider indices are Python ints in an object array.
    """
    if n_inputs <= 64:
        return stream.block(sample) & np.uint64(2**n_inputs - 1)
    words = -(-n_inputs // 64)
    block = stream.block(sample * words).reshape(sample, words).astype(object)
    index = block[:, 0]
    for k in range(1, words):
        index = index << 64 | block[:, k]
    return index % 2**n_inputs


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
    waveform data: each chunk is one :func:`_evaluate` walk on the pair's
    step classes with a row per assignment, so every (level, op) group and
    the oracle run once per chunk, and one :meth:`StepClasses.read` of the
    outputs' cut words reads each distinct word once.  Chunks run on up to
    ``min(4, usable CPUs, chunks)`` threads (see :func:`_map_chunks`) and
    merge in chunk order, so the report is the one a per-assignment loop
    would give, with failures and ambiguous incidents in assignment order,
    for any thread count.
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
        sample = _integer("sample", sample)
        if sample < 1:
            raise ConfigError(f"sample count must be positive, got {sample}")
        drawn = _draw_indices(SplitMix64(derive_seed(config.seed, _SAMPLE_STREAM)),
                              n_inputs, sample)
        count = sample
        mode = "sample"

    classes = make_backend(backend, config).pair.step_classes
    bk = _Backend(backend, classes.pair)
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
    groups, slots, out_slots = _plan(net)
    rows = _chunk_rows(bk.pair.steps, slots)

    def check(lo: int) -> tuple[int, int, list[dict], list[dict]]:
        """Rows, passes, failures and ambiguous incidents of the chunk at ``lo``."""
        hi = min(lo + rows, count)
        indices = np.arange(lo, hi, dtype=np.uint64) if drawn is None else drawn[lo:hi]
        bits = _assignments_from_indices(net.inputs, indices)
        expected = eval_boolean(source, bits)
        # Every output of every row is one cut word: (outputs, rows).
        walk = _evaluate(groups, slots, bk, [bits[name] for name in net.inputs], hi - lo)
        cut = walk[out_slots, 0]
        readings = classes.read(cut)
        # The bit of each word present; an ambiguous word's -1 never matches.
        got = np.array([-1 if r is None or r.is_ambiguous else r.verdict.to_bit()
                        for r in readings])[cut]
        bad = np.zeros(hi - lo, dtype=bool)
        for name, row in zip(net.outputs, got):
            bad |= row != expected[name]
        failures, ambiguous = [], []
        for r in np.flatnonzero(bad).tolist():
            assignment = {name: int(bits[name][r]) for name in net.inputs}
            for name, v in zip(net.outputs, cut[:, r].tolist()):
                reading = readings[v]
                if reading.is_ambiguous:
                    ambiguous.append(
                        {"assignment": assignment, "wire": name, "detail": reading.detail}
                    )
                elif reading.verdict.to_bit() != expected[name][r]:
                    failures.append(
                        {
                            "assignment": assignment,
                            "output": name,
                            "expected": int(expected[name][r]),
                            "got": reading.verdict.value,
                        }
                    )
        return hi - lo, hi - lo - int(bad.sum()), failures, ambiguous

    for checked, passed, failures, ambiguous in _map_chunks(check, range(0, count, rows)):
        report.checked += checked
        report.passed += passed
        report.failures += failures
        report.ambiguous += ambiguous
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

    def to_doc(self) -> dict:
        return dict(vars(self))


def ambiguity_analytic(n: int) -> float:
    """Probability that n-step RTW references are elementwise identical: 0.5**n."""
    n = _integer("n", n)
    if n < 1:
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


def ambiguity_monte_carlo(n: int, trials: int, seed: int) -> ReliabilityReport:
    """Estimate the ambiguity probability by drawing independent pairs.

    Trial ``i`` regenerates exactly the pair that ``reference_pairs`` draws
    for the derived seed of ``(seed, i)``; the whole sweep is
    evaluated in vectorized chunks whose aggregate is independent of the
    chunking, so serial and chunked runs agree bit for bit.  Within a chunk
    each trial is dropped at its first differing step.  Chunks of ``_MC_CHUNK``
    trials run on up to ``min(4, usable CPUs, chunks)`` threads (see
    :func:`_map_chunks`); the count does not depend on the thread count.
    A chunk is one :func:`count_identical_rtw_pairs` call, which holds five
    chunk-sized word buffers (2.5 MiB) and makes 19 NumPy calls a step.
    The chunk is large because the threads hand the GIL over between those
    calls: on 2 CPUs, three 500k-trial sweeps took 58-62 ms at 2**16 trials
    a chunk, on one thread or two, but 151-154 ms on two threads at 2**14.
    """
    n = _integer("n", n)
    if not 1 <= n <= 20:
        raise ConfigError(f"window length must be an integer in [1, 20], got {n!r}")
    trials, number = _integer("trials", trials), _integer("seed", seed)
    if not 0 <= number < 2**64:
        raise ConfigError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    seed = number
    if trials < 1000:
        raise ConfigError(f"at least 1000 trials required, got {trials}")
    chunk = _MC_CHUNK
    matches = sum(_map_chunks(
        lambda start: count_identical_rtw_pairs(seed, min(chunk, trials - start), n, start=start),
        range(0, trials, chunk)))
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
        return {**vars(self), "histogram": {str(k): v for k, v in sorted(self.histogram.items())}}


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
    seed ``derive_seed(config.seed, i)``, drawn in chunks of at most
    ``_CHUNK_BYTES`` of planes and column masks.  On the cut, whether a
    trial decides depends only on the set of ``(H_t, L_t)`` columns its pair
    has, so each distinct set of a chunk is walked once, on the pair of its
    first trial, built (and so checked) from the full waves; it decides when
    the network has outputs and :meth:`StepClasses.read` reads each High or
    Low.  Chunks run on up to ``min(4, usable CPUs, chunks)`` threads (see
    :func:`_map_chunks`) and merge in chunk order, so the report is the one
    a per-trial loop would give, for any thread count.
    """
    trials = _integer("trials", trials)
    if trials < 1:
        raise ConfigError(f"trials must be positive, got {trials}")
    if assignment is None:
        assignment = {name: 1 for name in network.inputs}
    _check_assignment(network.inputs, assignment)
    family = backend_family(backend)
    bits = [assignment[name] for name in network.inputs]
    groups, slots, out_slots = _plan(network)
    rows = _chunk_rows(config.steps, 7)   # the two planes, four column masks and a temporary

    def decide(lo: int) -> tuple[np.ndarray, np.ndarray]:
        """Deciding steps of the chunk at ``lo`` and their trial counts; ambiguous trials drop out."""
        count = min(rows, trials - lo)
        planes = generators.reference_words(family, derive_seeds(config.seed, count, lo), config)
        # Bit b of a trial's set is set when its pair has column b.
        sets = np.dot(1 << np.arange(4), _column_masks(*planes, config.steps).any(axis=1))
        decides = np.zeros(16, dtype=bool)
        for code, r in zip(*(a.tolist() for a in np.unique(sets, return_index=True))):
            classes = generators._pair(family, planes[..., r], config.steps).step_classes
            walk = _evaluate(groups, slots, _Backend(backend, classes.pair), bits, 1)
            cut = walk[out_slots, 0, 0]
            table = classes.read(cut)   # a reading for each cut word present, else None
            decides[code] = bool(out_slots) and not any(c and c.is_ambiguous for c in table)
        counts = np.bincount(first_set_step(planes[0] ^ planes[1])[decides[sets]])
        return np.flatnonzero(counts), counts[counts > 0]

    histogram: dict[int, int] = {}
    for steps, counts in _map_chunks(decide, range(0, trials, rows)):
        for step, count in zip(steps.tolist(), counts.tolist()):
            histogram[step] = histogram.get(step, 0) + count
    decided_trials = sum(histogram.values())
    total = sum(step * count for step, count in histogram.items())
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
