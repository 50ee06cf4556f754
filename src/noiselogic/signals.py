"""Clocked waveform types, waveform algebra and per-step classification.

All signals are immutable sequences of small integers, one value per
discrete clock step, on a single global clock.  A waveform may carry a
leading batch axis, ``(rows, steps)``, holding one wave per row; the gate
kernels broadcast such a batch against the 1-D references, so a batch of
assignments, of trials or of the gates of one topological level costs one
array expression per gate kind.  Logic values are never represented in
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
family; :func:`classify` reads an observed waveform against such a pair and
reports High, Low or Ambiguous together with the deciding step.
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
    """``values`` as an integer array of one or two axes, not yet copied or narrowed."""
    arr = np.asarray(values)
    if arr.ndim not in (1, 2):
        raise ValueError(
            f"waveform values must be (steps,) or (rows, steps), got shape {arr.shape}"
        )
    if arr.size < 1:
        raise ValueError("waveform must contain at least one step")
    if not np.issubdtype(arr.dtype, np.integer):
        int_arr = arr.astype(np.int64)
        if not np.array_equal(int_arr, arr):
            raise ValueError("waveform values must be integers")
        arr = int_arr
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
        return hash((type(self).__name__, self._values.tobytes()))

    def __repr__(self) -> str:
        if self._values.ndim == 2:
            return f"{type(self).__name__}(rows={self._values.shape[0]}, steps={len(self)})"
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

    def row(self, i: int) -> "LogicReferencePair":
        """Pair ``i`` of a batch of pairs."""
        return LogicReferencePair(type(self.h)(self.h.values[i]), type(self.l)(self.l.values[i]))

    def check_gate_input(self, x: Waveform, family: str, role: str = "input",
                         *, exact: bool = True) -> None:
        """Reject a gate input that does not fit this pair.

        The pair must belong to ``family`` and ``x`` must span the pair's
        steps; with ``exact`` it must also be an exact copy of High or Low,
        the only inputs the gate algebra makes promises about.  A batch
        ``x`` passes only when every row is such a copy.
        """
        if self.family != family:
            raise FamilyMismatchError(f"{family} gates need a {family} pair, got {self.family}")
        if len(x) != self.steps:
            raise LengthMismatchError(f"{role} has {len(x)} steps, pair has {self.steps}")
        if exact:
            v = x.values
            # For one wave, Waveform equality (skipping Low on a High input)
            # is cheaper than the row-wise expression a batch needs.
            if v.ndim == 1:
                copies = x == self.h or x == self.l
            else:
                rows_h = (v == self.h.values).all(axis=1)
                copies = (rows_h | (v == self.l.values).all(axis=1)).all()
            if not copies:
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
# waveform algebra


def add(a: Waveform, b: Waveform) -> IntWave:
    _require_same_length(a, b, "add")
    return IntWave(a.values + b.values)


def sub(a: Waveform, b: Waveform) -> IntWave:
    _require_same_length(a, b, "sub")
    return IntWave(a.values - b.values)


def mul(a: Waveform, b: Waveform) -> IntWave:
    _require_same_length(a, b, "mul")
    return IntWave(a.values * b.values)


def scale_quarter(x: Waveform | Sequence[int]) -> IntWave:
    """Exact division by four; every element must be divisible by 4."""
    arr = x.values if isinstance(x, Waveform) else _as_int_array(x)
    if np.any(arr % 4 != 0):
        bad = arr[arr % 4 != 0][0]
        raise ValueError(f"scale_quarter requires elements divisible by 4, found {bad}")
    return IntWave(arr // 4)


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


def classify(x: Waveform, pair: LogicReferencePair) -> Classification:
    """Read the logic value of ``x`` against a reference pair.

    RTW family: scan for the first step where the references differ; the
    observed value at that step decides High or Low.  If the references
    never differ the window is ambiguous (for independently drawn
    references this happens with probability 0.5**n over n steps).

    Spike family: the first universe spike decides; the observed train
    matches the High reference at that step (spiking with it, or staying
    silent while Low spikes) or it does not.  The decision is then checked
    against full-sequence equality with the matching reference, and any
    mismatch is reported as ambiguous with a diagnostic.
    """
    if pair.family == RTW:
        if not isinstance(x, RtwSignal):
            raise FamilyMismatchError(
                f"expected an RtwSignal against an RTW pair, got {type(x).__name__}"
            )
        _require_same_length(x, pair.h, "classify")
        differs = pair.h.values != pair.l.values
        if not differs.any():
            return Classification(
                Verdict.AMBIGUOUS, None,
                "references are identical across the whole window",
            )
        t = int(np.argmax(differs))
        if x[t] == pair.h[t]:
            return Classification(Verdict.HIGH, t)
        return Classification(Verdict.LOW, t)

    if not isinstance(x, SpikeTrain):
        raise FamilyMismatchError(
            f"expected a SpikeTrain against a spike pair, got {type(x).__name__}"
        )
    _require_same_length(x, pair.h, "classify")
    u = pair.h.values | pair.l.values
    if not u.any():
        return Classification(
            Verdict.AMBIGUOUS, None, "no reference spikes in the window"
        )
    t = int(np.argmax(u))
    verdict = Verdict.HIGH if x[t] == pair.h[t] else Verdict.LOW
    reference = pair.h if verdict is Verdict.HIGH else pair.l
    if x != reference:
        mismatch = int(np.flatnonzero(x.values != reference.values)[0])
        return Classification(
            Verdict.AMBIGUOUS, None,
            f"step {t} votes {verdict.value} but the train deviates from that "
            f"reference at step {mismatch}",
        )
    return Classification(verdict, t)
