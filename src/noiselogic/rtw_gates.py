"""Universal gates for the RTW logic family.

NOT comes in two exact forms: an additive one, universe minus input, and a
multiplicative one, input times both references, which stays entirely in
+1/-1 arithmetic.  AND is the cubic polynomial

    (1/4) * (H - L) * (x1 - L) * (x2 - L) + L

whose first factor vanishes whenever an input equals the Low reference and
collapses to H via the cube identity (H - L)**3 == 4 * (H - L) when both
inputs are High.

Each is a per-step function of signs, so on the packed words (a set bit is
+1) it is a Boolean function of the step's bits, exact on every sign
combination (``tests/test_word_kernels.py``): both NOTs are ``x ^ H ^ L``,
the parity of three signs, which is also H + L - x wherever x is H or L;
AND is ``L ^ ((H ^ L) & ~(x1 ^ H) & ~(x2 ^ H))``, H where the references
differ and both inputs follow H, else L.

The kernels take and return words-major ``uint64`` words, one wave
``(words,)``, a batch ``(words, rows)`` or a group ``(groups, words,
rows)``, and check them with :meth:`LogicReferencePair.operands`; call
them on waves through :func:`noiselogic.signals.on_waves`.  The additive
NOT and the AND gate demand logic-valued inputs (exact copies of a
reference) because their algebra promises nothing for arbitrary
waveforms.  The multiplicative NOT is closed over any +1/-1 wave and
accepts them; this asymmetry is deliberate, and the only difference
between the two RTW backends.  The AND output is checked, row by row, to
be H where both inputs copy H and L elsewhere, by the pair's ``select``.

Derived gates (OR, NAND, XOR, ...) are not defined here: the netlist
lowering table is the one place where they are composed from NOT and AND.
"""

import numpy as np

from .errors import InvariantError
from .signals import RTW, LogicReferencePair, _differs


def _and_words(h: np.ndarray, l: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    return l ^ ((h ^ l) & ~(x1 ^ h) & ~(x2 ^ h))


def not_additive(pair: LogicReferencePair, x: np.ndarray) -> np.ndarray:
    """NOT as universe minus input; defined only for logic-valued inputs."""
    h, l, _ = pair.operands(RTW, x)
    return x ^ h ^ l


def not_multiplicative(pair: LogicReferencePair, x: np.ndarray) -> np.ndarray:
    """NOT as x * H * L; closed over arbitrary +1/-1 waveforms."""
    h, l, _ = pair.operands(RTW, x, exact=False)
    return x ^ h ^ l


def and_gate(pair: LogicReferencePair, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """AND via the cubic reference polynomial; L absorbs, (H, H) gives H."""
    h, l, (a_high, b_high) = pair.operands(RTW, x1, x2)
    out = _and_words(h, l, x1, x2)
    if _differs(out, pair.select(a_high & b_high, h, l)):
        raise InvariantError("AND output is not H exactly where both inputs are High")
    return out
