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

The gates, the neuron, the orthon and the adder take and return
words-major ``uint64`` words, not trains; the gates check theirs with
:meth:`LogicReferencePair.operands`, and the neuron, orthon and adder
combine words as NumPy broadcasts them.  Call any of them on trains
through :func:`noiselogic.signals.on_waves`, which checks the trains' step
counts first.
"""

import numpy as np

from .errors import InvariantError, OrthogonalityError
from .signals import SPIKE, LogicReferencePair, _all, _differs


def neuron_eval(excitatory: np.ndarray, inhibitory: np.ndarray) -> np.ndarray:
    """Delay-free neuron: fires where the (+) input fires and the (-) input is silent."""
    return excitatory & ~inhibitory


def orthon_eval(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-neuron orthon splitting A, B into ``(A & B, A & ~B)``, its upper and lower outputs.

    The first neuron takes A excitatory and B inhibitory, producing A & ~B;
    the second takes A excitatory and the first neuron's output inhibitory,
    which leaves A & B.  Both outputs are checked against the direct set
    formulas.
    """
    lower = neuron_eval(a, b)
    upper = neuron_eval(a, lower)
    # One reduce checks both outputs; only a deviation says which, upper first.
    if not _all((upper == a & b) & (lower == a & ~b), axis=None):
        if _differs(upper, a & b):
            raise InvariantError("orthon upper output deviates")
        raise InvariantError("orthon lower output deviates")
    return upper, lower


def adder_union(*inputs: np.ndarray) -> np.ndarray:
    """Adder neuron: fires when any excitatory input fires (saturating union)."""
    if not inputs:
        raise ValueError("adder neuron needs at least one input")
    acc = inputs[0]
    for x in inputs[1:]:
        acc = acc | x
    return acc


def spike_not(pair: LogicReferencePair, x: np.ndarray) -> np.ndarray:
    """NOT gate: the universe spikes that the input does not claim.

    Realized as one orthon with the universe, the union of the disjoint
    references, on A and the input on B, taking the lower (A & ~B) output;
    checked against (1 - x) * U.
    """
    h, l, _ = pair.operands(SPIKE, x)
    if np.any(h & l):
        raise OrthogonalityError("reference trains overlap; union is not a valid universe")
    u = h | l
    out = orthon_eval(u, x)[1]
    if _differs(out, u & ~x):
        raise InvariantError("NOT circuit deviates")
    return out


def spike_and(pair: LogicReferencePair, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """AND gate: four orthons into a three-input adder neuron.

    The adder unions x1 & x2 & H (two chained orthons), x1 & L and x2 & L;
    the result is checked against the direct set formula.
    """
    h, l, _ = pair.operands(SPIKE, x1, x2)
    both = orthon_eval(x1, x2)[0]
    both_high = orthon_eval(both, h)[0]
    x1_low = orthon_eval(x1, l)[0]
    x2_low = orthon_eval(x2, l)[0]
    out = adder_union(both_high, x1_low, x2_low)
    if _differs(out, (x1 & x2 & h) | (x1 & l) | (x2 & l)):
        raise InvariantError("AND circuit deviates")
    return out
