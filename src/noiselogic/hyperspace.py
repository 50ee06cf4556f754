"""Multi-bit hyperspace vectors and the squeezed-collapse demonstration.

N logic bits can ride on a single wire by combining their reference waves:
the RTW family multiplies the selected wave of each bit (a product of
+1/-1 waves can never be zero), and the spike family unions the selected
trains of jointly generated, pairwise disjoint pairs (each bit remains
recoverable by membership tests against its own references).

The squeezed convention, which represents Low as the all-zero waveform, is
provided purely as a baseline: a single Low factor annihilates the whole
RTW product, and a Low spike bit becomes indistinguishable from an absent
bit.  Both failure modes are what the non-squeezed encoding avoids.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FamilyMismatchError, LengthMismatchError, OrthogonalityError
from .signals import (
    RTW,
    SPIKE,
    LogicReferencePair,
    MultiLevelSignal,
    RtwSignal,
    SpikeTrain,
    Waveform,
)

# Purely a demo-runtime bound; the construction itself has no size limit.
DEFAULT_MAX_BITS = 24


@dataclass(frozen=True)
class HyperVector:
    """One combined waveform carrying an ordered vector of logic bits."""

    family: str
    bits: tuple[int, ...]
    combined: Waveform
    pairs: tuple[LogicReferencePair, ...]
    squeezed: bool = False

    @property
    def zero_count(self) -> int:
        return int(np.count_nonzero(self.combined.values == 0))

    @property
    def collapsed(self) -> bool:
        """True when the combined waveform is identically zero."""
        return not bool(self.combined.values.any())


def check_bit_count(n: int, max_bits: int) -> None:
    """Reject ``n`` bits beyond the cap; cheap enough to run before any pair is drawn."""
    if n > max_bits:
        raise ConfigError(f"{n} bits exceed the configured cap of {max_bits}")


def _check_vector_args(pairs, bits, family: str) -> None:
    if len(bits) == 0:
        raise ConfigError("bit vector must contain at least one bit")
    if len(pairs) != len(bits):
        raise ConfigError(f"{len(bits)} bits need {len(bits)} pairs, got {len(pairs)}")
    if any(b not in (0, 1) for b in bits):
        raise ConfigError("bits must be 0 (Low) or 1 (High)")
    steps = pairs[0].steps
    for pair in pairs:
        if pair.family != family:
            raise FamilyMismatchError(f"expected a {family} pair, got {pair.family}")
        if pair.steps != steps:
            raise LengthMismatchError("all pairs must share one length")


def rtw_product_vector(
    pairs: tuple[LogicReferencePair, ...],
    bits: tuple[int, ...],
) -> HyperVector:
    """Product of each bit's selected reference wave; never zero anywhere."""
    _check_vector_args(pairs, bits, RTW)
    combined = np.ones(pairs[0].steps, dtype=np.int64)
    for pair, bit in zip(pairs, bits):
        combined = combined * (pair.h.values if bit else pair.l.values)
    return HyperVector(RTW, tuple(bits), RtwSignal(combined), tuple(pairs))


def squeezed_collapse_demo(
    pairs: tuple[LogicReferencePair, ...],
    bits: tuple[int, ...],
) -> HyperVector:
    """Same product under the squeezed convention (Low bit = zero wave).

    Any Low factor resets the entire product to zero, which is exactly why
    the squeezed encoding cannot address a multi-bit product space.
    """
    _check_vector_args(pairs, bits, RTW)
    combined = np.ones(pairs[0].steps, dtype=np.int64)
    for pair, bit in zip(pairs, bits):
        factor = pair.h.values if bit else np.zeros(pair.steps, dtype=np.int64)
        combined = combined * factor
    return HyperVector(RTW, tuple(bits), MultiLevelSignal(combined), tuple(pairs), squeezed=True)


def _check_cross_disjoint(pairs: tuple[LogicReferencePair, ...]) -> None:
    occupied = np.zeros(pairs[0].steps, dtype=np.int64)
    for i, pair in enumerate(pairs):
        for train in (pair.h, pair.l):
            if np.any(occupied & train.values):
                raise OrthogonalityError(
                    f"pair {i} spikes where an earlier train already spikes; "
                    "superposition needs jointly generated disjoint pairs"
                )
            occupied = occupied | train.values


def spike_superposition(
    pairs: tuple[LogicReferencePair, ...],
    bits: tuple[int, ...],
    squeezed: bool = False,
) -> HyperVector:
    """Union of each bit's selected train over cross-disjoint pairs.

    Under the squeezed convention Low bits contribute the empty train,
    which makes them unrecoverable (see :func:`recover_bits`).
    """
    _check_vector_args(pairs, bits, SPIKE)
    _check_cross_disjoint(pairs)
    combined = np.zeros(pairs[0].steps, dtype=np.int64)
    for pair, bit in zip(pairs, bits):
        if bit:
            combined = combined | pair.h.values
        elif not squeezed:
            combined = combined | pair.l.values
    return HyperVector(SPIKE, tuple(bits), SpikeTrain(combined), tuple(pairs), squeezed=squeezed)


def recover_bits(vector: HyperVector) -> tuple[int | None, ...]:
    """Read each bit back from a spike superposition by membership tests.

    Bit i is High when the superposition intersects its High reference and
    Low when it intersects its Low reference; cross-disjointness makes the
    two tests exclusive.  None marks a bit that neither test claims, which
    is the fate of every Low bit under the squeezed convention.
    """
    if vector.family != SPIKE:
        raise FamilyMismatchError("membership recovery is defined for spike superpositions")
    recovered: list[int | None] = []
    for pair in vector.pairs:
        in_h = bool(np.any(vector.combined.values & pair.h.values))
        in_l = bool(np.any(vector.combined.values & pair.l.values))
        if in_h and not in_l:
            recovered.append(1)
        elif in_l and not in_h:
            recovered.append(0)
        else:
            recovered.append(None)
    return tuple(recovered)


def matches_pattern(vector: HyperVector, bits: tuple[int, ...]) -> bool:
    """Test an RTW product vector against a candidate bit pattern.

    Multiplying the combined wave by the candidate's own product leaves the
    all-ones wave when the patterns coincide, since every matched factor
    squares to one.  A mismatched bit contributes the product of its two
    references instead, so a false positive requires those references to
    agree on every step (probability 0.5**steps per mismatched bit).
    """
    if vector.family != RTW or vector.squeezed:
        raise FamilyMismatchError("pattern match is defined for non-squeezed RTW products")
    if len(bits) != len(vector.pairs):
        raise ConfigError(f"pattern has {len(bits)} bits, vector has {len(vector.pairs)}")
    acc = vector.combined.values.copy()
    for pair, bit in zip(vector.pairs, bits):
        acc = acc * (pair.h.values if bit else pair.l.values)
    return bool(np.all(acc == 1))
