"""Universal gates for the spike-train logic family.

The building block is an idealized, delay-free neuron with one excitatory
and one inhibitory input: it fires at a step exactly when the excitatory
input fires and the inhibitory one does not.  Two such neurons form an
orthon, which splits its inputs A, B into the set intersections A&B and
A&~B.  The NOT gate feeds the universe (union of both references) and the
input through one orthon; the AND gate combines four orthons through a
saturating three-input adder neuron:

    NOT x      = (1 - x) & U
    x1 AND x2  = (x1 & x2 & H) | (x1 & L) | (x2 & L)

Every circuit-level evaluation here is checked against its direct
set-algebra formula, so the neuron wiring and the defining set identities
can never drift apart silently.  Derived gates are composed from NOT and
AND by the netlist lowering table only.
"""

from typing import NamedTuple

import numpy as np

from .errors import InvariantError
from .signals import SPIKE, LogicReferencePair, SpikeTrain, _require_same_length, universe_spike


def neuron_eval(excitatory: SpikeTrain, inhibitory: SpikeTrain) -> SpikeTrain:
    """Delay-free neuron: fires where the (+) input fires and the (-) input is silent."""
    _require_same_length(excitatory, inhibitory, "neuron")
    return SpikeTrain(excitatory.values * (1 - inhibitory.values))


class OrthonOutputs(NamedTuple):
    intersection: SpikeTrain   # A & B, the upper output
    difference: SpikeTrain     # A & ~B, the lower output


def orthon_eval(a: SpikeTrain, b: SpikeTrain) -> OrthonOutputs:
    """Two-neuron orthon splitting A, B into A & B and A & ~B.

    The first neuron takes A excitatory and B inhibitory, producing A & ~B;
    the second takes A excitatory and the first neuron's output inhibitory,
    which leaves A & B.  Both outputs are checked against the direct set
    formulas.
    """
    _require_same_length(a, b, "orthon")
    lower = neuron_eval(a, b)
    upper = neuron_eval(a, lower)
    if not np.array_equal(upper.values, a.values * b.values):
        raise InvariantError("orthon upper output deviates")
    if not np.array_equal(lower.values, a.values * (1 - b.values)):
        raise InvariantError("orthon lower output deviates")
    return OrthonOutputs(upper, lower)


def adder_union(*inputs: SpikeTrain) -> SpikeTrain:
    """Adder neuron: fires when any excitatory input fires (saturating union)."""
    if not inputs:
        raise ValueError("adder neuron needs at least one input")
    acc = inputs[0].values
    for train in inputs[1:]:
        _require_same_length(inputs[0], train, "adder")
        acc = acc | train.values
    return SpikeTrain(acc)


def spike_not(pair: LogicReferencePair, x: SpikeTrain) -> SpikeTrain:
    """NOT gate: the universe spikes that the input does not claim.

    Realized as one orthon with the universe on A and the input on B,
    taking the lower (A & ~B) output; checked against (1 - x) * U.
    """
    pair.check_gate_input(x, SPIKE)
    u = universe_spike(pair)
    out = orthon_eval(u, x).difference
    if not np.array_equal(out.values, (1 - x.values) * u.values):
        raise InvariantError("NOT circuit deviates")
    return out


def spike_and(pair: LogicReferencePair, x1: SpikeTrain, x2: SpikeTrain) -> SpikeTrain:
    """AND gate: four orthons into a three-input adder neuron.

    The adder unions x1 & x2 & H (two chained orthons), x1 & L and x2 & L;
    the result is checked against the direct set formula.
    """
    pair.check_gate_input(x1, SPIKE, "first input")
    pair.check_gate_input(x2, SPIKE, "second input")
    both = orthon_eval(x1, x2).intersection
    both_high = orthon_eval(both, pair.h).intersection
    x1_low = orthon_eval(x1, pair.l).intersection
    x2_low = orthon_eval(x2, pair.l).intersection
    out = adder_union(both_high, x1_low, x2_low)
    direct = (
        x1.values * x2.values * pair.h.values
        | x1.values * pair.l.values
        | x2.values * pair.l.values
    )
    if not np.array_equal(out.values, direct):
        raise InvariantError("AND circuit deviates")
    return out
