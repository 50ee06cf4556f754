"""One-wave-at-a-time references for the batched and level-parallel engines.

The simulator classifies whole batches of waves with ``_classify_rows``
and runs ``run`` one topological level at a time.  The functions here are
the per-wire and per-gate code those paths replaced; tests require equal
results from both.
"""

import noiselogic as nl
from noiselogic import simulator


def classify_wire(backend, x: nl.Waveform) -> nl.Classification:
    """Classification with a fast path for exact reference copies.

    Equality against the backend's pair decides a copy at the pair's first
    differing step; anything else goes through the full scanning
    classifier for its diagnostic.
    """
    step = int(backend.first_step)
    if step >= 0:
        if x == backend.pair.h:
            return nl.Classification(nl.Verdict.HIGH, step)
        if x == backend.pair.l:
            return nl.Classification(nl.Verdict.LOW, step)
    return nl.classify(x, backend.pair)


def serial_run(network, backend, assignment, config) -> nl.SimulationRun:
    """``run`` gate by gate in netlist order, classifying wire by wire."""
    bk = simulator.make_backend(backend, config)
    waves = simulator._evaluate_wires(network, bk, assignment)
    return nl.SimulationRun(
        backend=backend,
        config=config,
        network=network,
        assignment=dict(assignment),
        waveforms={name: waves[i] for i, name in enumerate(network.wires)},
        classifications={name: classify_wire(bk, waves[i])
                         for i, name in enumerate(network.wires)},
    )
