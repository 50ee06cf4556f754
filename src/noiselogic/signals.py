"""Clocked waveform types, reference pairs and classification.

All signals are immutable sequences of small integers, one value per
discrete clock step, on a single global clock.  A waveform may carry
leading batch axes, ``(rows, steps)`` or ``(groups, rows, steps)``,
holding one wave per row; the gate kernels broadcast such a batch against
the references, one pair or one pair per row, so the gates of one
topological level over a chunk of assignments or of trials cost one array
expression per gate kind.  Logic values are never represented in
floating point: every gate identity in this package is an exact integer
identity, and tests compare waveforms for exact elementwise equality.

Four concrete carriers:

* :class:`RtwSignal`, a bipolar random-telegraph-style wave valued -1/+1;
* :class:`SpikeTrain`, a unipolar 0/1 train read as a set of spike times;
* :class:`MultiLevelSignal`, integers in [-2, 2] (reference sums and
  differences);
* :class:`IntWave`, an unconstrained integer wave for transient arithmetic
  such as the cubed reference difference, whose values exceed [-2, 2].

The first three store their values as read-only ``int8`` arrays
(:data:`CARRIER_DTYPE`); the family check runs on the values as given,
before they are narrowed, so an out-of-range value is rejected rather than
wrapped.  Every gate polynomial stays within ``int8`` (the RTW cube within
+-8).  :class:`IntWave` and the base :class:`Waveform` keep ``int64``,
because their arithmetic is unbounded.

A :class:`LogicReferencePair` binds the High and Low reference waves of one
family; :func:`classify_rows` reads a wave or a batch of waves against such
a pair, by one rule for both families, and :func:`classify` is its one-wave
case, reporting High, Low or Ambiguous together with the deciding step.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union

import numpy as np

from .errors import (
    ConfigError,
    FamilyMismatchError,
    InvalidLogicValueError,
    LengthMismatchError,
    OrthogonalityError,
)

RTW = "rtw"
SPIKE = "spike"

FAMILIES = (RTW, SPIKE)


# Storage dtype of RtwSignal, SpikeTrain and MultiLevelSignal.
CARRIER_DTYPE = np.dtype(np.int8)


def _as_int_array(values) -> np.ndarray:
    """``values`` as an integer array of one to three axes, not yet copied or narrowed."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        # Element by element: NumPy reads a list that mixes ints and floats
        # through float64, which rounds the ints beyond 2**53.
        arr = np.array(values, dtype=object)
    if arr.ndim not in (1, 2, 3):
        raise ValueError(f"waveform values must have one to three axes, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError("waveform must contain at least one step")
    too_wide = "waveform values must fit in 64-bit signed integers"
    if arr.dtype == np.uint64 and arr.max() > np.iinfo(np.int64).max:
        raise ValueError(too_wide)   # int64 storage would wrap it
    if arr.dtype == object:
        ints = [int(v) if isinstance(v, (float, np.floating)) and float(v).is_integer() else v
                for v in arr.ravel().tolist()]
        if not all(isinstance(v, (int, np.integer)) for v in ints):
            raise ValueError("waveform values must be integers")
        if not all(-2**63 <= v < 2**63 for v in ints):
            raise ValueError(too_wide)
        arr = np.array(ints, dtype=np.int64).reshape(arr.shape)
    return arr


class Waveform:
    """Immutable integer waveform; subclasses restrict the value set."""

    __slots__ = ("_values",)
    _dtype = np.dtype(np.int64)

    def __init__(self, values: Sequence[int] | np.ndarray):
        arr = _as_int_array(values)
        self._check(arr)
        arr = arr.astype(self._dtype)   # always a private copy
        arr.setflags(write=False)
        self._values = arr

    @classmethod
    def _of_checked(cls, arr: np.ndarray) -> "Waveform":
        """Wrap ``arr`` as it is, without a copy or a check.

        Only for read-only arrays of this class's dtype whose values have
        already passed this class's check, such as the rows of a matrix of
        waves that was checked batch by batch.
        """
        if arr.flags.writeable or arr.dtype != cls._dtype:
            raise ValueError(f"{cls.__name__} can only wrap a read-only {cls._dtype} array")
        wave = object.__new__(cls)
        wave._values = arr
        return wave

    @staticmethod
    def _check(arr: np.ndarray) -> None:
        pass

    @property
    def values(self) -> np.ndarray:
        """Backing array (read-only flag set; do not mutate)."""
        return self._values

    def __len__(self) -> int:
        """Number of clock steps (the last axis), also for a batch."""
        return self._values.shape[-1]

    def __getitem__(self, step: int) -> int:
        return int(self._values[step])

    def __iter__(self):
        return iter(int(v) for v in self._values)

    def __eq__(self, other) -> bool:
        if isinstance(other, Waveform):
            return np.array_equal(self._values, other._values)
        return NotImplemented

    def __hash__(self) -> int:
        # Equal waves of different carriers (and so dtypes) hash alike.
        return hash((self._values.shape, self._values.astype(np.int64).tobytes()))

    def __repr__(self) -> str:
        shape = self._values.shape
        if len(shape) > 1:
            axes = "".join(f"{a}={n}, " for a, n in zip(("groups", "rows")[3 - len(shape):], shape))
            return f"{type(self).__name__}({axes}steps={len(self)})"
        body = ",".join(str(int(v)) for v in self._values[:16])
        tail = ",..." if len(self) > 16 else ""
        return f"{type(self).__name__}([{body}{tail}], steps={len(self)})"

    def to_list(self) -> list[int]:
        return [int(v) for v in self._values]


class IntWave(Waveform):
    """Unrestricted integer waveform, used for intermediate arithmetic."""


class RtwSignal(Waveform):
    """Bipolar clocked wave; every step is exactly -1 or +1."""

    _dtype = CARRIER_DTYPE

    @staticmethod
    def _check(arr: np.ndarray) -> None:
        if not np.all(np.abs(arr) == 1):
            bad = arr[np.abs(arr) != 1][0]
            raise ValueError(f"RtwSignal values must be -1 or +1, found {bad}")


class MultiLevelSignal(Waveform):
    """Integer wave bounded to the closed range [-2, 2]."""

    _dtype = CARRIER_DTYPE

    @staticmethod
    def _check(arr: np.ndarray) -> None:
        if arr.min() < -2 or arr.max() > 2:
            raise ValueError("MultiLevelSignal values must lie in [-2, 2]")


class SpikeTrain(Waveform):
    """Unipolar clocked wave; every step is 0 or 1, read as a set of spike times."""

    _dtype = CARRIER_DTYPE

    @staticmethod
    def _check(arr: np.ndarray) -> None:
        if arr.min() < 0 or arr.max() > 1:
            bad = arr[(arr != 0) & (arr != 1)][0]
            raise ValueError(f"SpikeTrain values must be 0 or 1, found {bad}")

    def spike_times(self) -> np.ndarray:
        return np.flatnonzero(self._values)

    def spike_count(self) -> int:
        return int(self._values.sum())

    def is_empty(self) -> bool:
        return not bool(self._values.any())


def _require_same_length(a: Waveform, b: Waveform, what: str) -> None:
    if len(a) != len(b):
        raise LengthMismatchError(f"{what}: lengths differ ({len(a)} vs {len(b)})")


@dataclass(frozen=True, eq=False)
class LogicReferencePair:
    """The bound (High, Low) reference waves of one logic family.

    The family is inferred from the waveform types.  Spike pairs must be
    orthogonal (no coincident spikes) and both trains non-empty; those are
    construction-time invariants.  RTW pairs may be elementwise identical,
    which simply makes classification against them ambiguous.

    High and Low may also be ``(rows, steps)`` batches of the same shape,
    one pair per row; the gate kernels then evaluate row ``i`` of a batch
    input against pair ``i``, and every check above holds row by row.
    """

    h: Union[RtwSignal, SpikeTrain]
    l: Union[RtwSignal, SpikeTrain]

    def __post_init__(self):
        if isinstance(self.h, RtwSignal) and isinstance(self.l, RtwSignal):
            family = RTW
        elif isinstance(self.h, SpikeTrain) and isinstance(self.l, SpikeTrain):
            family = SPIKE
        else:
            raise FamilyMismatchError(
                f"reference waves must share one family, got "
                f"{type(self.h).__name__} and {type(self.l).__name__}"
            )
        if self.h.values.shape != self.l.values.shape:
            raise LengthMismatchError(
                f"reference pair: shapes differ ({self.h.values.shape} vs {self.l.values.shape})"
            )
        if family == SPIKE:
            if np.any(self.h.values & self.l.values):
                where = np.argwhere(self.h.values & self.l.values)[0]
                row = f" in row {int(where[0])}" if len(where) > 1 else ""
                raise OrthogonalityError(
                    f"reference trains spike together at step {int(where[-1])}{row}"
                )
            # Per row, for a batch of pairs.
            if not (self.h.values.any(axis=-1).all() and self.l.values.any(axis=-1).all()):
                raise ValueError("spike reference trains must both be non-empty")
        object.__setattr__(self, "_family", family)

    @property
    def family(self) -> str:
        return self._family

    @property
    def steps(self) -> int:
        return len(self.h)

    def check_gate_input(self, x: Waveform, family: str, role: str = "input",
                         *, exact: bool = True) -> None:
        """Reject a gate input that does not fit this pair.

        The pair must belong to ``family`` and ``x`` must span the pair's
        steps; with ``exact`` it must also be an exact copy of High or Low,
        the only inputs the gate algebra makes promises about.  A batch
        ``x`` passes only when every wave in it is such a copy (of its
        row's pair, for a batch of pairs).
        """
        if self.family != family:
            raise FamilyMismatchError(f"{family} gates need a {family} pair, got {self.family}")
        if len(x) != self.steps:
            raise LengthMismatchError(f"{role} has {len(x)} steps, pair has {self.steps}")
        if exact:
            v = x.values
            if not ((v == self.h.values).all(axis=-1) | (v == self.l.values).all(axis=-1)).all():
                raise InvalidLogicValueError(
                    f"{role} matches neither the High nor the Low reference"
                )

    def __eq__(self, other) -> bool:
        if isinstance(other, LogicReferencePair):
            return self.h == other.h and self.l == other.l
        return NotImplemented


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters for the seeded reference-wave generators.

    ``spike_rate_h`` and ``spike_rate_l`` are per-step spike probabilities
    for the two spike reference trains; they are unused by the RTW
    generators but validated regardless so one config can drive either
    family.
    """

    seed: int
    steps: int
    spike_rate_h: float = 0.25
    spike_rate_l: float = 0.25

    def __post_init__(self):
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not isinstance(self.steps, int) or self.steps < 1:
            raise ConfigError(f"steps must be a positive integer, got {self.steps!r}")
        for name, rate in (("spike_rate_h", self.spike_rate_h), ("spike_rate_l", self.spike_rate_l)):
            if not 0.0 < rate < 1.0:
                raise ConfigError(f"{name} must lie in (0, 1), got {rate!r}")
        if self.spike_rate_h + self.spike_rate_l > 1.0:
            raise ConfigError(
                f"spike rates must sum to at most 1, got "
                f"{self.spike_rate_h} + {self.spike_rate_l}"
            )


class Verdict(str, Enum):
    HIGH = "High"
    LOW = "Low"
    AMBIGUOUS = "Ambiguous"

    @classmethod
    def from_bit(cls, bit: int) -> "Verdict":
        return cls.HIGH if bit else cls.LOW

    def to_bit(self) -> int:
        if self is Verdict.AMBIGUOUS:
            raise ValueError("ambiguous classification has no Boolean value")
        return 1 if self is Verdict.HIGH else 0


@dataclass(frozen=True)
class Classification:
    """Outcome of reading a waveform against a reference pair.

    ``decided_at`` is the step index at which the value was decided, or
    None when the window is ambiguous.
    """

    verdict: Verdict
    decided_at: int | None
    detail: str = ""

    @property
    def is_ambiguous(self) -> bool:
        return self.verdict is Verdict.AMBIGUOUS


# ---------------------------------------------------------------------------
# universes


def universe_rtw(pair: LogicReferencePair) -> MultiLevelSignal:
    """Additive universe of an RTW pair: the elementwise sum High + Low.

    For -1/+1 references the result takes values in {-2, 0, +2}; the odd
    levels of the general [-2, 2] range cannot occur.
    """
    if pair.family != RTW:
        raise FamilyMismatchError(f"additive universe needs an RTW pair, got {pair.family}")
    return MultiLevelSignal(pair.h.values + pair.l.values)


def universe_spike(pair: LogicReferencePair) -> SpikeTrain:
    """Union universe of a spike pair (equal to the sum, by orthogonality)."""
    if pair.family != SPIKE:
        raise FamilyMismatchError(f"union universe needs a spike pair, got {pair.family}")
    if np.any(pair.h.values & pair.l.values):
        raise OrthogonalityError("reference trains overlap; union is not a valid universe")
    return SpikeTrain(pair.h.values | pair.l.values)


# ---------------------------------------------------------------------------
# classification


def classify_rows(x: Waveform, pair: LogicReferencePair) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
    """Read every row of ``x`` against its reference pair, by one rule for both families.

    ``x`` is one wave or a ``(rows, steps)`` batch; ``pair`` is one pair or
    a batch with one pair per row.  The first step where High and Low
    differ votes for the reference that ``x`` follows there (for a spike
    pair, whose trains are disjoint, that is the first universe spike).
    The vote stands only if the whole wave equals the voted reference;
    otherwise the row is ambiguous, as it is when the references never
    differ.

    Returns every row's bit (1 High, 0 Low, -1 ambiguous), its deciding
    step (-1 when ambiguous) and the diagnostic of each ambiguous row.
    """
    if not isinstance(x, type(pair.h)):
        raise FamilyMismatchError(
            f"expected a {type(pair.h).__name__} against a {pair.family} pair, "
            f"got {type(x).__name__}"
        )
    _require_same_length(x, pair.h, "classify")
    v, h, l = np.atleast_2d(x.values, pair.h.values, pair.l.values)
    if len(h) > 1 and h.shape != v.shape:
        raise LengthMismatchError(f"classify: {len(v)} waves against {len(h)} pairs")
    differs = h != l
    votes = differs.any(axis=1)
    first = differs.argmax(axis=1)
    high = (v == h).all(axis=1)
    decided = votes & (high | (v == l).all(axis=1))
    bits = np.where(decided, high, -1)
    steps = np.where(decided, first, -1)
    details = {}
    for r in np.flatnonzero(~decided).tolist():
        p = r if len(h) > 1 else 0
        if not votes[p]:
            details[r] = "references are identical across the whole window"
            continue
        t = int(first[p])
        vote, reference = (Verdict.HIGH, h[p]) if v[r, t] == h[p, t] else (Verdict.LOW, l[p])
        mismatch = int(np.argmax(v[r] != reference))
        details[r] = (f"step {t} votes {vote.value} but the wave deviates from that "
                      f"reference at step {mismatch}")
    return bits, steps, details


def classify(x: Waveform, pair: LogicReferencePair) -> Classification:
    """Read the logic value of one wave ``x`` against a reference pair.

    The one-wave case of :func:`classify_rows`: High or Low with its
    deciding step, or Ambiguous with a diagnostic.
    """
    if x.values.ndim != 1:
        raise ValueError("classify reads one wave; use classify_rows for a batch")
    (bit,), (step,), details = classify_rows(x, pair)
    if details:
        return Classification(Verdict.AMBIGUOUS, None, details[0])
    return Classification(Verdict.from_bit(int(bit)), int(step))
