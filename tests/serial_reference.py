"""One-wave-at-a-time references for the simulator's one walker.

The simulator classifies whole batches of waves with ``classify_rows`` and
evaluates every network one (topological level, op) group at a time over
one slot matrix.  The functions here are a per-wire, step-by-step reading
of the classification rule and a per-gate walk that keeps one wave per
wire, written apart from the simulator's walker; tests require equal
results from both.
"""

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


def serial_run(network, backend, assignment, config) -> nl.SimulationRun:
    """``run`` gate by gate in netlist order, classifying wire by wire."""
    bk = simulator.make_backend(backend, config)
    waves = serial_wires(network, bk, assignment)
    return nl.SimulationRun(
        backend=backend,
        config=config,
        network=network,
        assignment=dict(assignment),
        waveforms={name: waves[i] for i, name in enumerate(network.wires)},
        classifications={name: classify_wire(bk, waves[i])
                         for i, name in enumerate(network.wires)},
    )
