"""Universal gates for the RTW logic family.

NOT comes in two exact forms: an additive one, universe minus input, and a
multiplicative one, input times both references, which stays entirely in
+1/-1 arithmetic.  AND is the cubic polynomial

    (1/4) * (H - L) * (x1 - L) * (x2 - L) + L

whose first factor vanishes whenever an input equals the Low reference and
collapses to H via the cube identity (H - L)**3 == 4 * (H - L) when both
inputs are High.  All arithmetic is exact integer arithmetic; the quarter
factor is a checked-exact integer division, never a float.

The additive NOT and the AND gate demand logic-valued inputs (exact copies
of a reference) because their algebra promises nothing for arbitrary
waveforms.  The multiplicative NOT is closed over any +1/-1 wave and
accepts them; this asymmetry is deliberate and documented.

Derived gates (OR, NAND, XOR, ...) are not defined here: the netlist
lowering table is the one place where they are composed from NOT and AND.
"""

import numpy as np

from .errors import FamilyMismatchError, InvariantError
from .generators import gen_rtw_pair
from .signals import (
    RTW,
    GeneratorConfig,
    LogicReferencePair,
    MultiLevelSignal,
    RtwSignal,
    universe_rtw,
)


class RtwGateContext:
    """A reference pair plus the cached signals every RTW gate reuses."""

    def __init__(self, pair: LogicReferencePair):
        if pair.family != RTW:
            raise FamilyMismatchError(f"RTW gate context needs an RTW pair, got {pair.family}")
        self.pair = pair
        self.universe = universe_rtw(pair)
        # Raw difference H - L, values in {-2, 0, +2}; the gate polynomial
        # consumes it undivided so all arithmetic stays integral.
        self.difference = MultiLevelSignal(pair.h.values - pair.l.values)
        self._hl = pair.h.values * pair.l.values

    @classmethod
    def from_config(cls, config: GeneratorConfig) -> "RtwGateContext":
        return cls(gen_rtw_pair(config))

    @property
    def h(self) -> RtwSignal:
        return self.pair.h

    @property
    def l(self) -> RtwSignal:
        return self.pair.l

    @property
    def steps(self) -> int:
        return self.pair.steps


def not_additive(ctx: RtwGateContext, x: RtwSignal) -> RtwSignal:
    """NOT as universe minus input; defined only for logic-valued inputs."""
    ctx.pair.check_gate_input(x, RTW)
    return RtwSignal(ctx.universe.values - x.values)


def not_multiplicative(ctx: RtwGateContext, x: RtwSignal) -> RtwSignal:
    """NOT as x * H * L; closed over arbitrary +1/-1 waveforms."""
    ctx.pair.check_gate_input(x, RTW, exact=False)
    return RtwSignal(x.values * ctx._hl)


def and_gate(ctx: RtwGateContext, x1: RtwSignal, x2: RtwSignal) -> RtwSignal:
    """AND via the cubic reference polynomial; L absorbs, (H, H) gives H."""
    ctx.pair.check_gate_input(x1, RTW, "first input")
    ctx.pair.check_gate_input(x2, RTW, "second input")
    l = ctx.pair.l.values
    cube = ctx.difference.values * (x1.values - l) * (x2.values - l)
    # Values are {-8, 0, +8} for logic inputs, so the quarter is exact.
    if np.any(cube % 4):
        raise InvariantError("gate polynomial produced a non-divisible value")
    return RtwSignal(cube // 4 + l)
