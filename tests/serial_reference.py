"""One-wave-at-a-time references for the simulator's one walker and its kernels.

The simulator classifies whole batches of waves with ``classify_rows`` and
evaluates every network one (topological level, op) group at a time over
one slot matrix of packed words.  The functions here are a per-wire,
step-by-step reading of the classification rule, a per-gate walk that
keeps one wave per wire, and the gate kernels as literal ``int8``
arithmetic on the unpacked values (the paper's polynomials and neuron
circuits, with their checks), all written apart from the package; tests
require equal results from both.
"""

from typing import NamedTuple

import numpy as np

import noiselogic as nl
from noiselogic import simulator


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

    Each input is bound to the backend's High or Low wave for its 0/1 bit.
    """
    waves = [None] * len(network.wires)
    for i, name in enumerate(network.inputs):
        waves[i] = backend.pair.h if assignment[name] else backend.pair.l
    for gate in network.gates:
        waves[gate.out] = backend.kernel[gate.op](backend.pair, *(waves[arg] for arg in gate.args))
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


def _check_input(pair, x, family, role="input", exact=True):
    if pair.family != family:
        raise nl.FamilyMismatchError(f"{family} gates need a {family} pair, got {pair.family}")
    if len(x) != pair.steps:
        raise nl.LengthMismatchError(f"{role} has {len(x)} steps, pair has {pair.steps}")
    v, h, l = x.values, pair.h.values, pair.l.values
    if exact and not ((v == h).all(axis=-1) | (v == l).all(axis=-1)).all():
        raise nl.InvalidLogicValueError(f"{role} matches neither the High nor the Low reference")


def not_additive(pair, x):
    """Universe minus input."""
    _check_input(pair, x, nl.RTW)
    return nl.RtwSignal(pair.h.values + pair.l.values - x.values)


def not_multiplicative(pair, x):
    """x * H * L, over any -1/+1 wave."""
    _check_input(pair, x, nl.RTW, exact=False)
    return nl.RtwSignal(x.values * (pair.h.values * pair.l.values))


def and_gate(pair, x1, x2):
    """The cubic (H - L)(x1 - L)(x2 - L) / 4 + L, with the quarter checked exact."""
    _check_input(pair, x1, nl.RTW, "first input")
    _check_input(pair, x2, nl.RTW, "second input")
    h, l = pair.h.values, pair.l.values
    cube = (h - l) * (x1.values - l) * (x2.values - l)
    if np.any(cube & 3):
        raise nl.InvariantError("gate polynomial produced a non-divisible value")
    return nl.RtwSignal(cube // 4 + l)


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
    out = _orthon(u, x.values)[1]
    if not np.array_equal(out, (1 - x.values) * u):
        raise nl.InvariantError("NOT circuit deviates")
    return nl.SpikeTrain(out)


def spike_and(pair, x1, x2):
    """Four orthons into an adder, checked against x1 x2 H | x1 L | x2 L."""
    _check_input(pair, x1, nl.SPIKE, "first input")
    _check_input(pair, x2, nl.SPIKE, "second input")
    a, b, h, l = x1.values, x2.values, pair.h.values, pair.l.values
    out = _orthon(_orthon(a, b)[0], h)[0] | _orthon(a, l)[0] | _orthon(b, l)[0]
    if not np.array_equal(out, a * b * h | a * l | b * l):
        raise nl.InvariantError("AND circuit deviates")
    return nl.SpikeTrain(out)


# Backend name -> (NOT, AND) on the unpacked values.
INT8_KERNELS = {
    "rtw-additive-not": (not_additive, and_gate),
    "rtw-multiplicative-not": (not_multiplicative, and_gate),
    "spike": (spike_not, spike_and),
}
