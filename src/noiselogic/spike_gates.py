"""Universal gates for the spike-train logic family.

The building block is an idealized, delay-free neuron with one excitatory
and one inhibitory input: it fires at a step exactly when the excitatory
input fires and the inhibitory one does not, ``e & ~i`` on the packed
words.  Two such neurons form an orthon, which splits its inputs A, B into
the set intersections A&B and A&~B.  The NOT gate feeds the universe
(union of both references) and the input through one orthon; the AND gate
combines four orthons through a saturating three-input adder neuron, a
word-wise ``|``:

    NOT x      = (1 - x) & U
    x1 AND x2  = (x1 & x2 & H) | (x1 & L) | (x2 & L)

Every circuit-level evaluation here is checked against its direct
set-algebra formula, so the neuron wiring and the defining set identities
can never drift apart silently.  Derived gates are composed from NOT and
AND by the netlist lowering table only.
"""

from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import InvariantError, OrthogonalityError
from .signals import SPIKE, LogicReferencePair, SpikeTrain, _require_aligned


def neuron_eval(excitatory: SpikeTrain, inhibitory: SpikeTrain) -> SpikeTrain:
    """Delay-free neuron: fires where the (+) input fires and the (-) input is silent."""
    _require_aligned("neuron", excitatory, inhibitory)
    return SpikeTrain._of_words(excitatory.words & ~inhibitory.words, len(excitatory))


class OrthonOutputs(NamedTuple):
    intersection: SpikeTrain   # A & B, the upper output
    difference: SpikeTrain     # A & ~B, the lower output


def orthon_eval(a: SpikeTrain, b: SpikeTrain) -> OrthonOutputs:
    """Two-neuron orthon splitting A, B into A & B and A & ~B.

    The first neuron takes A excitatory and B inhibitory, producing A & ~B;
    the second takes A excitatory and the first neuron's output inhibitory,
    which leaves A & B; the first neuron rejects an A and a B that do not
    combine.  Both outputs are checked against the direct set formulas.
    """
    lower = neuron_eval(a, b)
    upper = neuron_eval(a, lower)
    if not np.array_equal(upper.words, a.words & b.words):
        raise InvariantError("orthon upper output deviates")
    if not np.array_equal(lower.words, a.words & ~b.words):
        raise InvariantError("orthon lower output deviates")
    return OrthonOutputs(upper, lower)


def adder_union(*inputs: SpikeTrain) -> SpikeTrain:
    """Adder neuron: fires when any excitatory input fires (saturating union)."""
    if not inputs:
        raise ValueError("adder neuron needs at least one input")
    for a, b in combinations(inputs, 2):
        _require_aligned("adder", a, b)
    acc = inputs[0].words
    for train in inputs[1:]:
        acc = acc | train.words
    return SpikeTrain._of_words(acc, len(inputs[0]))


def spike_not(pair: LogicReferencePair, x: SpikeTrain) -> SpikeTrain:
    """NOT gate: the universe spikes that the input does not claim.

    Realized as one orthon with the universe, the union of the disjoint
    references, on A and the input on B, taking the lower (A & ~B) output;
    checked against (1 - x) * U.
    """
    high, low, (v,), _ = pair.operands(SPIKE, x)
    h, l = high.words, low.words
    if np.any(h & l):
        raise OrthogonalityError("reference trains overlap; union is not a valid universe")
    u = SpikeTrain._of_words(h | l, pair.steps)
    out = orthon_eval(u, x).difference
    if not np.array_equal(out.words, u.words & ~v):
        raise InvariantError("NOT circuit deviates")
    return out


def spike_and(pair: LogicReferencePair, x1: SpikeTrain, x2: SpikeTrain) -> SpikeTrain:
    """AND gate: four orthons into a three-input adder neuron.

    The adder unions x1 & x2 & H (two chained orthons), x1 & L and x2 & L;
    the result is checked against the direct set formula.
    """
    high, low, (a, b), _ = pair.operands(SPIKE, x1, x2)
    both = orthon_eval(x1, x2).intersection
    both_high = orthon_eval(both, high).intersection
    x1_low = orthon_eval(x1, low).intersection
    x2_low = orthon_eval(x2, low).intersection
    out = adder_union(both_high, x1_low, x2_low)
    h, l = high.words, low.words
    if not np.array_equal(out.words, (a & b & h) | (a & l) | (b & l)):
        raise InvariantError("AND circuit deviates")
    return out
