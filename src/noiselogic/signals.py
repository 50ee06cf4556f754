"""Clocked waveform types, reference pairs and classification.

All signals are immutable sequences of integers, one value per step of a
single global clock, compared for exact elementwise equality; no logic
value is ever a float.  Every waveform is one wave, of one axis: a batch
of waves lives only as packed words.

The two logic carriers, the bipolar -1/+1 :class:`RtwSignal` and the 0/1
:class:`SpikeTrain` (a set of spike times), store read-only ``uint64``
bit-planes with the step count beside them: step ``t`` is bit ``t % 64``
of word ``t // 64``, a set bit is +1 or a spike, and the padding bits past
the last step are zero.  Words are words-major: one wave is ``(words,)``,
a batch ``(words, rows)`` and a gathered group ``(groups, words, rows)``,
so the exact-copy tests and classification reduce over the words axis,
one pass over contiguous rows; :func:`pack_steps` packs 0/1 values into
any of them.  The gate kernels and the spike helpers take and return such
words, not waves: a kernel hands its input words to
:meth:`LogicReferencePair.operands`, which checks them against the pair
and returns High and Low shaped to combine with them, so the kernels do
not know the layout.  Words from outside pass one check,
:func:`_check_words`, in ``operands``, :func:`classify_rows` and
``BitWave._of_words``: dtype, axes, word count and, unless an exact-copy
check covers it, the padding rule.  Every kernel ANDs each ``~`` with a
clean wave, so clean words stay clean.  Words carry no carrier:
:func:`on_waves` checks waves with :meth:`LogicReferencePair._check_wave`,
runs a kernel or helper on their words and wraps its output.  The family
check of the values runs once, on the values a carrier is built from;
``values`` unpacks to ``int8`` for the boundaries (CSV, reports, tests).
:class:`MultiLevelSignal` (values in [-2, 2]) and the base
:class:`Waveform` (unbounded) store ``int64``.

A :class:`LogicReferencePair` binds one High and one Low reference wave of
one family; :func:`classify_rows` reads the ``(words, rows)`` words of a
batch of waves against such a pair, by one rule for both families, and
:func:`classify` is its one-wave case, reporting High, Low or Ambiguous
together with the deciding step.  :attr:`LogicReferencePair.step_classes`
cuts a pair to one step per distinct ``(H_t, L_t)`` column
(:class:`StepClasses`), on which the simulator walks whenever every input
copies High or Low; a wave on the cut pair is one word below 16, and
:meth:`StepClasses.read` reads the full wave of each word present once,
against the full pair, into a table indexed by the word.
"""

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Sequence, Union

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

WORD_BITS = 64


def words_for(steps: int) -> int:
    """Number of ``uint64`` words that hold ``steps`` one-bit steps."""
    return -(-steps // WORD_BITS)


# ``ndarray.all`` without its Python wrapper, which a gate call would pay a
# few times over.
_all = np.logical_and.reduce


def _words_axis(words: np.ndarray) -> int:
    """The axis of words-major ``words`` that runs over words: a wave's only one, else ``-2``."""
    return -2 if words.ndim > 1 else -1


_LAYOUTS = {1: "(words,)", 2: "(words, rows)", 3: "(groups, words, rows)"}


def _check_words(x, steps: int, what: str, ndims: tuple[int, ...], padding: bool = True) -> None:
    """The one check of words from outside: ``x`` must be words-major ``uint64`` words of
    ``steps``-step waves, of one of ``ndims`` axes, and with ``padding`` set no bit past the
    last step.  Another dtype raises FamilyMismatchError, anything else LengthMismatchError."""
    if not isinstance(x, np.ndarray) or x.dtype != np.uint64:
        got = f"{x.dtype} words" if isinstance(x, np.ndarray) else type(x).__name__
        raise FamilyMismatchError(f"{what} must be uint64 words, got {got}")
    n = words_for(steps)
    if x.ndim not in ndims or x.shape[_words_axis(x)] != n:
        raise LengthMismatchError(f"{what} has words of shape {x.shape}, expected "
                                  f"{' or '.join(_LAYOUTS[d] for d in ndims)} with {n} words")
    if padding and steps % WORD_BITS:
        # The OR of every wave's last word, past the last step: one reduce, no temporary.
        stray = int(np.bitwise_or.reduce(x[:, -1] if x.ndim == 3 else x[-1], axis=None))
        stray >>= steps % WORD_BITS
        if stray:
            step = steps + (stray & -stray).bit_length() - 1
            raise LengthMismatchError(f"{what} sets step {step}, past the last step {steps - 1}")


def _wave_shape(words: np.ndarray, steps: int) -> tuple[int, ...]:
    """The logical ``(..., rows, steps)`` shape of the waves of ``steps`` steps in ``words``."""
    if words.ndim == 1:
        return (steps,)
    return words.shape[:-2] + (words.shape[-1], steps)


def pack_steps(bits: np.ndarray) -> np.ndarray:
    """``(steps,)`` or ``(..., rows, steps)`` 0/1 or bool values as words-major ``uint64`` words.

    One wave packs to ``(words,)``, a batch to ``(..., words, rows)``; the
    padding bits are zero.
    """
    bits = np.asarray(bits, dtype=bool)
    padded = np.zeros(bits.shape[:-1] + (WORD_BITS * words_for(bits.shape[-1]),), dtype=bool)
    padded[..., :bits.shape[-1]] = bits
    words = np.packbits(padded, axis=-1, bitorder="little").view("<u8")
    words = words.astype(np.uint64, copy=False)
    return words if words.ndim == 1 else np.ascontiguousarray(np.swapaxes(words, -1, -2))


def first_set_step(words: np.ndarray) -> np.ndarray:
    """Step of the lowest set bit of every wave in words-major ``words``; meaningless for no bit."""
    axis = _words_axis(words)
    k = (words != 0).argmax(axis=axis)
    # Kept as an array until the end: on a NumPy scalar, ``~w + 1`` of a zero
    # word warns of overflow, where an array wraps silently.
    w = np.take_along_axis(words, np.expand_dims(k, axis), axis=axis)
    # w & -w keeps the lowest set bit, a power of two that float64 holds exactly.
    low = np.frexp((w & (~w + np.uint64(1))).astype(np.float64))[1].squeeze(axis)
    return k * WORD_BITS + low - 1


def _as_int_array(values) -> np.ndarray:
    """``values`` as an integer array of one axis, not yet copied or narrowed."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        # Element by element: NumPy reads a list that mixes ints and floats
        # through float64, which rounds the ints beyond 2**53.
        arr = np.array(values, dtype=object)
    if arr.ndim != 1:
        raise ValueError(f"waveform values must have exactly one axis, got shape {arr.shape}")
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

    def __init__(self, values: Sequence[int] | np.ndarray):
        arr = _as_int_array(values)
        self._check(arr)
        self._store(arr)

    @staticmethod
    def _check(arr: np.ndarray) -> None:
        pass

    def _store(self, arr: np.ndarray) -> None:
        arr = arr.astype(np.int64)   # always a private copy
        arr.setflags(write=False)
        self._values = arr

    @property
    def values(self) -> np.ndarray:
        """The values as a read-only array of shape :attr:`shape`."""
        return self._values

    @property
    def shape(self) -> tuple[int, ...]:
        return self._values.shape

    def __len__(self) -> int:
        """Number of clock steps."""
        return self.shape[0]

    def __getitem__(self, step: int) -> int:
        return int(self.values[step])

    def __iter__(self):
        return iter(self.to_list())

    def __eq__(self, other) -> bool:
        if isinstance(other, Waveform):
            return np.array_equal(self.values, other.values)
        return NotImplemented

    def __hash__(self) -> int:
        # Equal waves of different carriers (and so dtypes) hash alike.
        return hash((self.shape, self.values.astype(np.int64).tobytes()))

    def __repr__(self) -> str:
        body = ",".join(map(str, self.values[:16].tolist()))
        tail = ",..." if len(self) > 16 else ""
        return f"{type(self).__name__}([{body}{tail}], steps={len(self)})"

    def to_list(self) -> list[int]:
        return self.values.tolist()


class MultiLevelSignal(Waveform):
    """Integer wave bounded to the closed range [-2, 2]."""

    @staticmethod
    def _check(arr: np.ndarray) -> None:
        if arr.min() < -2 or arr.max() > 2:
            raise ValueError("MultiLevelSignal values must lie in [-2, 2]")


class BitWave(Waveform):
    """A one-bit-per-step carrier; ``_low`` is the value of a clear bit, a set bit is 1."""

    __slots__ = ("_words", "_steps")
    _low = 0

    def _store(self, arr: np.ndarray) -> None:
        words = pack_steps(arr > 0)
        words.setflags(write=False)
        self._words, self._steps = words, len(arr)

    @classmethod
    def _of_words(cls, words: np.ndarray, steps: int) -> "BitWave":
        """Wrap the ``(words,)`` words of one wave, such as a kernel's output, read-only and
        without a copy, once :func:`_check_words` passes them."""
        _check_words(words, steps, cls.__name__, (1,))
        words.flags.writeable = False
        wave = object.__new__(cls)
        wave._words, wave._steps = words, steps
        return wave

    @property
    def words(self) -> np.ndarray:
        """The read-only ``(words,)`` bit-planes."""
        return self._words

    @property
    def values(self) -> np.ndarray:
        """A fresh read-only ``int8`` unpacking of the words, of shape :attr:`shape`."""
        bits = np.unpackbits(np.ascontiguousarray(self._words, dtype="<u8").view(np.uint8),
                             count=self._steps, bitorder="little").view(np.int8)
        arr = 2 * bits - 1 if self._low else bits
        arr.setflags(write=False)
        return arr

    @property
    def shape(self) -> tuple[int, ...]:
        return (self._steps,)

    def __len__(self) -> int:
        return self._steps


class RtwSignal(BitWave):
    """Bipolar clocked wave; every step is exactly -1 or +1 (a set bit is +1)."""

    _low = -1

    @staticmethod
    def _check(arr: np.ndarray) -> None:
        if not np.all(np.abs(arr) == 1):
            bad = arr[np.abs(arr) != 1][0]
            raise ValueError(f"RtwSignal values must be -1 or +1, found {bad}")


class SpikeTrain(BitWave):
    """Unipolar clocked wave; every step is 0 or 1, read as a set of spike times."""

    @staticmethod
    def _check(arr: np.ndarray) -> None:
        if arr.min() < 0 or arr.max() > 1:
            bad = arr[(arr != 0) & (arr != 1)][0]
            raise ValueError(f"SpikeTrain values must be 0 or 1, found {bad}")

    def spike_times(self) -> np.ndarray:
        return np.flatnonzero(self.values)

    def spike_count(self) -> int:
        return int(self.values.sum())

    def is_empty(self) -> bool:
        return not bool(self._words.any())


def _column_masks(h: np.ndarray, l: np.ndarray, steps: int) -> np.ndarray:
    """Plane ``b`` sets the steps where ``(H_t, L_t) == (b >> 1, b & 1)``, of the words-major
    words of one pair, ``(words,)``, or of a batch of pairs, ``(words, rows)``."""
    masks = np.empty((4,) + h.shape, dtype=np.uint64)   # filled in place, with no stacked copy
    np.invert(h | l, out=masks[0])
    masks[0, -1] &= ~np.uint64(0) >> np.uint64(-steps % WORD_BITS)   # clear the padding
    np.bitwise_and(~h, l, out=masks[1])
    np.bitwise_and(h, ~l, out=masks[2])
    np.bitwise_and(h, l, out=masks[3])
    return masks


@dataclass(frozen=True, eq=False)
class LogicReferencePair:
    """The bound High and Low reference waves of one logic family.

    The family is inferred from the waveform types.  High and Low must
    span one step count.  Spike pairs must be orthogonal (no
    coincident spikes) and both trains non-empty; those are
    construction-time invariants.  RTW pairs may be elementwise identical,
    which simply makes classification against them ambiguous.
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
        if self.h.shape != self.l.shape:
            raise LengthMismatchError(
                f"reference pair: shapes differ ({self.h.shape} vs {self.l.shape})"
            )
        if family == SPIKE:
            if np.any(self.h.words & self.l.words):
                step = int(first_set_step(self.h.words & self.l.words))
                raise OrthogonalityError(f"reference trains spike together at step {step}")
            if not (self.h.words.any() and self.l.words.any()):
                raise ValueError("spike reference trains must both be non-empty")
        object.__setattr__(self, "_family", family)

    @property
    def family(self) -> str:
        return self._family

    @cached_property
    def steps(self) -> int:
        return len(self.h)

    @cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray]:
        """High's and Low's words as ``(words, 1)`` columns, which spread over a batch's rows."""
        return self.h.words[:, None], self.l.words[:, None]

    def _check_wave(self, x: Waveform, role: str) -> np.ndarray:
        """The words of ``x``, once it is a wave of the pair's carrier that spans its steps."""
        if not isinstance(x, type(self.h)):
            raise FamilyMismatchError(f"{role} must be a {type(self.h).__name__} for a "
                                      f"{self.family} pair, got {type(x).__name__}")
        if len(x) != self.steps:
            raise LengthMismatchError(f"{role} has {len(x)} steps, pair has {self.steps}")
        return x.words

    def operands(self, family: str, *inputs: np.ndarray, exact: bool = True):
        """Check the input words of one ``family`` gate call; return ``(h, l, highs)``.

        The pair must be a ``family`` pair, and each input, one wave, a
        batch or a group, pass :func:`_check_words` against its steps; two
        inputs must share one shape.  With ``exact`` each row must also copy
        High or Low, the only inputs the gate algebra makes promises about,
        which rules out padding bits too; otherwise the padding is checked.
        ``h`` and ``l`` are the pair's words shaped to combine with the
        inputs, ``(words, 1)`` columns against a batch; ``highs`` holds each
        input's mask of the rows that copy High, with the words axis kept
        (``None`` without ``exact``).  Words show no carrier, which
        :func:`on_waves` checks for waves.
        """
        if self.family != family:
            raise FamilyMismatchError(f"{family} gates need a {family} pair, got {self.family}")
        roles = ("input",) if len(inputs) == 1 else ("first input", "second input")
        highs = []
        for x, role in zip(inputs, roles):
            _check_words(x, self.steps, role, (1, 2, 3), padding=not exact)
            h, l = self._columns if x.ndim > 1 else (self.h.words, self.l.words)
            high = None
            if exact:
                axis = _words_axis(x)
                high = _all(x == h, axis=axis, keepdims=True)
                if not _all(high | _all(x == l, axis=axis, keepdims=True), axis=None):
                    raise InvalidLogicValueError(
                        f"{role} matches neither the High nor the Low reference")
            highs.append(high)
        if len(inputs) > 1 and inputs[0].shape != inputs[1].shape:
            # Equal shapes also rule out a silent broadcast.
            a, b = (_wave_shape(x, self.steps) for x in inputs)
            raise LengthMismatchError(f"AND: shapes differ ({a} vs {b})")
        return h, l, highs

    @cached_property
    def step_classes(self) -> "StepClasses":
        """This pair cut to one step per distinct ``(H_t, L_t)`` column.

        See :class:`StepClasses`.  Computed once, on the packed words; an
        RTW pair has at most four columns and a spike pair at most three.
        """
        masks = _column_masks(self.h.words, self.l.words, self.steps)
        kept = np.flatnonzero(masks.any(axis=1)).tolist()
        masks = masks[kept]
        cut = [np.array([sum(1 << j for j, b in enumerate(kept) if b & bit)], dtype=np.uint64)
               for bit in (2, 1)]
        pair = LogicReferencePair(*(type(w)._of_words(words, len(kept))
                                    for w, words in zip((self.h, self.l), cut)))
        # Row v ORs the masks of the columns whose bits v sets; they are disjoint, so it sums them.
        bit = np.arange(len(kept), dtype=np.uint64)
        expand = (np.arange(1 << len(kept), dtype=np.uint64)[:, None] >> bit & np.uint64(1)) @ masks
        expand.flags.writeable = False
        return StepClasses(pair, self, expand)

    def __eq__(self, other) -> bool:
        if isinstance(other, LogicReferencePair):
            return self.h == other.h and self.l == other.l
        return NotImplemented


class StepClasses(NamedTuple):
    """A one-wave pair cut to one step per distinct ``(H_t, L_t)`` column.

    ``pair`` has one step per column present in the full pair ``full``, in
    column order ``(0, 0), (0, 1), (1, 0), (1, 1)``, and ``expand[v]`` is
    the full ``(words,)`` wave of cut words ``v``: set at the steps of every
    column ``j`` whose bit ``v`` sets.

    Every gate kernel is a per-step function of its inputs' bits and the
    pair's bits.  So when every input copies High or Low, every wire at step
    ``t`` is a function of the column ``(H_t, L_t)`` only, and a walk on the
    cut pair gives each wire's cut wave, which ``expand`` turns into its
    full wave.  Every kernel check is a per-step predicate or an all-steps
    equality, and every column is kept, so each check passes or fails on
    the cut pair as on the full one, whatever the order of the columns.  The
    precondition is the point: a walk fed with other waves must cut on
    ``(H, L, inputs)`` columns, or not at all.
    """

    pair: LogicReferencePair
    full: LogicReferencePair
    expand: np.ndarray

    def read(self, words) -> list["Classification | None"]:
        """The reading of every cut word in the integer array ``words``, indexed by the word.

        A cut wave is one word below ``2 ** pair.steps``, at most 16 of
        them, so the full wave ``expand[v]`` of each word ``v`` present is
        classified once, by :func:`classify_rows` against the full pair; an
        absent word reads ``None``.
        """
        counts = np.bincount(np.ravel(words).astype(np.intp), minlength=len(self.expand))
        present = np.flatnonzero(counts)
        bits, at, details = classify_rows(self.expand[present].T, self.full)
        table = [None] * len(counts)
        for r, v in enumerate(present.tolist()):
            table[v] = (Classification(Verdict.AMBIGUOUS, None, details[r]) if r in details
                        else Classification(Verdict.from_bit(int(bits[r])), int(at[r])))
        return table


def _integer(name: str, value) -> int:
    """``value`` as an ``int``; a NumPy integer passes, a bool or non-integer raises ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(name: str, value) -> float:
    """``value`` unchanged if it is a real number; a bool or anything else raises ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    return value


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
        # A NumPy integer is stored as a plain int, so reports serialize it.
        for name, lo, hi, what in (("seed", 0, 2**64, "a 64-bit unsigned"),
                                   ("steps", 1, math.inf, "a positive")):
            value = getattr(self, name)
            try:
                number = _integer(name, value)
            except ConfigError:
                number = None
            if number is None or not lo <= number < hi:
                raise ConfigError(f"{name} must be {what} integer, got {value!r}")
            object.__setattr__(self, name, number)
        for name, rate in (("spike_rate_h", self.spike_rate_h), ("spike_rate_l", self.spike_rate_l)):
            if not 0.0 < _real(name, rate) < 1.0:
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
    if np.any(pair.h.words & pair.l.words):
        raise OrthogonalityError("reference trains overlap; union is not a valid universe")
    return SpikeTrain._of_words(pair.h.words | pair.l.words, pair.steps)


# ---------------------------------------------------------------------------
# gate calls on waves


def on_waves(fn, *args):
    """Call the word kernel or spike helper ``fn`` on waves; return its output as waves.

    A gate kernel is called as ``on_waves(kernel, pair, *waves)`` and its
    output words wrapped in the pair's carrier; a spike helper as
    ``on_waves(helper, *trains)``, each of its outputs wrapped as a
    :class:`SpikeTrain`.  Words carry neither a carrier family nor an exact
    step count, so those two checks run here: a kernel input must pass
    :meth:`LogicReferencePair._check_wave`, and a helper's inputs must span
    one step count.  ``fn`` then runs on the ``words``, with every check of
    its own.  Nothing here is gate logic, and the simulator, which keeps
    words throughout, never comes here.
    """
    if args and isinstance(args[0], LogicReferencePair):
        pair, waves = args[0], args[1:]
        roles = ["first input", "second input"] if len(waves) == 2 else ["input"] * len(waves)
        words = [pair._check_wave(x, role) for x, role in zip(waves, roles)]
        return type(pair.h)._of_words(fn(pair, *words), pair.steps)
    # An orthon's first neuron checks its inputs, so only the adder has its own label.
    what = "adder" if getattr(fn, "__name__", None) == "adder_union" else "neuron"
    for x in args[1:]:
        if len(x) != len(args[0]):
            raise LengthMismatchError(f"{what}: lengths differ ({len(args[0])} vs {len(x)})")
    out = fn(*(x.words for x in args))
    steps = len(args[0])
    if isinstance(out, tuple):   # an orthon's two outputs
        return tuple(SpikeTrain._of_words(words, steps) for words in out)
    return SpikeTrain._of_words(out, steps)


# ---------------------------------------------------------------------------
# classification


def classify_rows(words: np.ndarray, pair: LogicReferencePair) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
    """Read every row of the ``(words, rows)`` words against the reference pair, by one rule
    for both families.

    ``words`` must pass :func:`_check_words` against the pair's steps,
    padding included; like a kernel's input, they show no carrier, which
    :func:`classify` checks for a wave.  The first step where High and Low
    differ, the lowest set bit of ``H ^ L``, votes for the reference that a
    row follows there (for a spike pair, whose trains are disjoint, that is
    the first universe spike).  The vote stands only if the whole row equals
    the voted reference; otherwise the row is ambiguous, as it is when the
    references never differ.

    Returns every row's bit (1 High, 0 Low, -1 ambiguous), its deciding
    step (-1 when ambiguous) and the diagnostic of each ambiguous row.
    """
    _check_words(words, pair.steps, "classified rows", (2,))
    h, l = pair._columns
    differs = pair.h.words ^ pair.l.words
    t = int(first_set_step(differs)) if differs.any() else -1
    high = (words == h).all(axis=0)
    decided = (t >= 0) & (high | (words == l).all(axis=0))
    bits = np.where(decided, high, -1)
    steps = np.where(decided, t, -1)
    details = {}
    for r in np.flatnonzero(~decided).tolist():
        if t < 0:
            details[r] = "references are identical across the whole window"
            continue
        follows_high = not (int(words[t // WORD_BITS, r] ^ h[t // WORD_BITS, 0]) >> t % WORD_BITS) & 1
        vote, reference = (Verdict.HIGH, pair.h) if follows_high else (Verdict.LOW, pair.l)
        mismatch = int(first_set_step(words[:, r] ^ reference.words))
        details[r] = (f"step {t} votes {vote.value} but the wave deviates from that "
                      f"reference at step {mismatch}")
    return bits, steps, details


def classify(x: Waveform, pair: LogicReferencePair) -> Classification:
    """Read the logic value of one wave ``x`` against a reference pair.

    The one-row case of :func:`classify_rows`, once ``x`` is a wave of the
    pair's carrier that spans its steps: High or Low with its deciding
    step, or Ambiguous with a diagnostic.
    """
    words = pair._check_wave(x, "classified wave")
    (bit,), (step,), details = classify_rows(words[:, None], pair)
    if details:
        return Classification(Verdict.AMBIGUOUS, None, details[0])
    return Classification(Verdict.from_bit(int(bit)), int(step))
