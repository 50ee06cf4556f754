"""Universal gates for the RTW logic family.

NOT comes in two exact forms: an additive one, universe minus input, and a
multiplicative one, input times both references, which stays entirely in
+1/-1 arithmetic.  AND is the cubic polynomial

    (1/4) * (H - L) * (x1 - L) * (x2 - L) + L

whose first factor vanishes whenever an input equals the Low reference and
collapses to H via the cube identity (H - L)**3 == 4 * (H - L) when both
inputs are High.  All arithmetic is exact integer arithmetic; the quarter
factor is a checked-exact integer division, never a float.

The kernels take the reference pair, as the spike kernels do, and derive
the universe H + L, the difference H - L and the product H * L inline.

The additive NOT and the AND gate demand logic-valued inputs (exact copies
of a reference) because their algebra promises nothing for arbitrary
waveforms.  The multiplicative NOT is closed over any +1/-1 wave and
accepts them; this asymmetry is deliberate and documented.

Derived gates (OR, NAND, XOR, ...) are not defined here: the netlist
lowering table is the one place where they are composed from NOT and AND.
"""

import numpy as np

from .errors import InvariantError
from .generators import gen_rtw_pair  # make_backend draws through here; perfbench/tracing.py wraps it
from .signals import RTW, LogicReferencePair, RtwSignal


def not_additive(pair: LogicReferencePair, x: RtwSignal) -> RtwSignal:
    """NOT as universe minus input; defined only for logic-valued inputs."""
    pair.check_gate_input(x, RTW)
    return RtwSignal(pair.h.values + pair.l.values - x.values)


def not_multiplicative(pair: LogicReferencePair, x: RtwSignal) -> RtwSignal:
    """NOT as x * H * L; closed over arbitrary +1/-1 waveforms."""
    pair.check_gate_input(x, RTW, exact=False)
    return RtwSignal(x.values * (pair.h.values * pair.l.values))


def and_gate(pair: LogicReferencePair, x1: RtwSignal, x2: RtwSignal) -> RtwSignal:
    """AND via the cubic reference polynomial; L absorbs, (H, H) gives H."""
    pair.check_gate_input(x1, RTW, "first input")
    pair.check_gate_input(x2, RTW, "second input")
    h, l = pair.h.values, pair.l.values
    # The raw difference H - L, in {-2, 0, +2}, is consumed undivided so
    # all arithmetic stays integral.
    cube = (h - l) * (x1.values - l) * (x2.values - l)
    # Values are {-8, 0, +8} for logic inputs, so the quarter is exact; & 3 is a cheap % 4.
    if np.any(cube & 3):
        raise InvariantError("gate polynomial produced a non-divisible value")
    return RtwSignal(cube // 4 + l)
