"""Seeded generators for reference waves.

All generators are pure functions of their config: an identical
:class:`~noiselogic.signals.GeneratorConfig` always yields a bit-identical
waveform, via the SplitMix64 streams documented in :mod:`noiselogic.prng`.

Stream layout (fixed; golden tests depend on it):

* :func:`reference_words` is the one draw of reference pairs: it turns
  each trial seed into the words of one (High, Low) pair, and every other
  pair source is one of its cases; :func:`reference_pairs` draws the one
  pair of one seed.
* An RTW pair takes High from child stream 0 and Low from child stream 1
  of its trial seed, one word per step; the top bit of a word is the
  step's sign, a set bit +1.
* A spike pair's attempt ``r`` takes child stream ``r`` of its trial
  seed; each step makes one three-way draw (High spike, Low spike, no
  spike), which makes the trains disjoint by construction.  Attempts
  repeat, up to :data:`MAX_RETRIES`, until both trains are non-empty.  In
  a batch only the rows still holding an empty train draw the next
  attempt, so a row's pair does not depend on the other rows.
* ``gen_rtw_pair`` and ``gen_orthogonal_spike_pair`` draw for the trial
  seed ``config.seed``; ``gen_rtw_pairs`` draws pair ``i`` for
  ``derive_seed(seed, i)``, and the Monte-Carlo sweeps draw trial ``i``
  for ``derive_seed(config.seed, i)``.  ``count_identical_rtw_pairs``
  walks the same RTW words step by step.
* ``gen_rtw`` draws from the root stream of ``config.seed``, one word per
  step, mapping the top bit to +1/-1.
* ``gen_disjoint_spike_pairs`` is the joint multi-pair variant: one
  (2N+1)-way draw per step keeps all 2N trains pairwise disjoint, and its
  attempts take the child streams of ``seed`` as a spike pair's do.
"""

import numpy as np

from .errors import ConfigError, GenerationError
from .prng import GOLDEN, MASK64, SplitMix64, derive_seeds, mix64_array
from .signals import (
    RTW,
    SPIKE,
    GeneratorConfig,
    LogicReferencePair,
    RtwSignal,
    SpikeTrain,
    _integer,
    _real,
    pack_steps,
    words_for,
)

MAX_RETRIES = 64

_U = np.uint64

# Raw words one block of reference_words rows may hold: a block draws
# (rows, steps) uint64 words at a time, 64 times the size of its packed waves.
_RAW_BYTES = 2 << 20


def gen_rtw(config: GeneratorConfig) -> RtwSignal:
    """One random telegraph wave: each step -1 or +1 with probability 0.5."""
    raw = SplitMix64(config.seed).block(config.steps)
    return RtwSignal._of_words(pack_steps(raw >> _U(63)), config.steps)


def _threshold(p: float) -> int:
    # Exact: p has a 53-bit mantissa, scaling by 2**64 only shifts the exponent.
    return int(p * 2.0**64)


def _categorical_spikes(raw: np.ndarray, rates: list[float]) -> np.ndarray:
    """One draw per raw word over len(rates)+1 outcomes; returns the bool bands.

    Outcome ``i`` fires train ``i`` when the raw word falls in the i-th
    probability band; the remainder band fires nothing.  Bands are compared
    as exact 64-bit integers, so the draw is a deterministic function of the
    raw stream.  ``raw`` may have any shape; train ``i`` is
    ``bands[i]``, of the same shape.
    """
    bands = np.zeros((len(rates),) + raw.shape, dtype=bool)
    lo = 0
    acc = 0.0
    for i, rate in enumerate(rates):
        acc += rate
        hi = min(_threshold(acc), 2**64)
        if hi <= lo:
            continue
        if hi == 2**64:
            bands[i] = raw >= _U(lo)
        else:
            bands[i] = (raw >= _U(lo)) & (raw < _U(hi))
        lo = hi
    return bands


def _child_seeds(seeds: np.ndarray, child: int) -> np.ndarray:
    """Vectorized :func:`derive_seed`: ``derive_seed(seeds[i], child)`` for every ``i``."""
    return mix64_array(seeds + _U((GOLDEN * (child + 1)) & MASK64))


def _child_words(seeds: np.ndarray, child: int, steps: int) -> np.ndarray:
    """``(len(seeds), steps)`` raw words: row ``i`` is ``SplitMix64(derive_seed(seeds[i], child)).block(steps)``."""
    steps_k = np.arange(1, steps + 1, dtype=np.uint64)
    return mix64_array(_child_seeds(seeds, child)[:, None] + _U(GOLDEN) * steps_k[None, :])


def _rtw_words(seeds: np.ndarray, config: GeneratorConfig, out: np.ndarray) -> None:
    """Pack the High and Low waves of the RTW pairs of ``seeds`` into ``out[0]`` and ``out[1]``."""
    for child in (0, 1):
        out[child] = pack_steps(_child_words(seeds, child, config.steps) >> _U(63))


def _spike_words(seeds: np.ndarray, config: GeneratorConfig, out: np.ndarray,
                 rates: list[float] | None = None) -> None:
    """Pack the trains of ``seeds``, train ``i`` drawn at ``rates[i]`` (by default the
    config's High and Low rates), into ``out``; only the rows with an empty train redraw."""
    if rates is None:
        rates = [config.spike_rate_h, config.spike_rate_l]
    pending = np.arange(len(seeds))
    for attempt in range(MAX_RETRIES):
        drawn = pack_steps(_categorical_spikes(
            _child_words(seeds[pending], attempt, config.steps), rates))
        out[..., pending] = drawn
        pending = pending[~drawn.any(axis=-2).all(axis=0)]
        if not pending.size:
            return
    raise GenerationError(
        f"could not draw two non-empty spike trains in {MAX_RETRIES} attempts "
        f"(steps={config.steps}, rates={config.spike_rate_h}/{config.spike_rate_l})"
    )


def _check_room(trains: int, steps: int) -> None:
    """Raise GenerationError, before any draw, when ``trains`` non-empty
    disjoint spike trains cannot fit in ``steps`` steps."""
    if steps < trains:
        raise GenerationError(f"{trains} non-empty disjoint spike trains need at least "
                              f"{trains} steps, got steps={steps}")


_DRAW = {RTW: (_rtw_words, RtwSignal), SPIKE: (_spike_words, SpikeTrain)}


def reference_words(family: str, trial_seeds, config: GeneratorConfig) -> np.ndarray:
    """The words of the reference pair of each trial seed: the one draw of reference pairs.

    ``trial_seeds`` is a 1-D ``uint64`` array; the result is the read-only
    ``(2, words, rows)`` ``uint64`` planes whose column ``i`` holds the
    packed High (plane 0) and Low (plane 1) waves of the pair of
    ``trial_seeds[i]``, disjoint and non-empty for a spike pair.
    ``config`` supplies the steps and the spike rates; its seed is not
    read.  Rows are drawn in blocks whose raw words fit ``_RAW_BYTES``, so
    a large batch costs little more memory than its packed waves.  A spike
    row that exhausts its attempts raises :class:`GenerationError`, and so
    does a spike draw at one step, before drawing.
    """
    if family not in _DRAW:
        raise ConfigError(f"unknown logic family {family!r}")
    draw = _DRAW[family][0]
    if family == SPIKE:
        _check_room(2, config.steps)
    seeds = np.asarray(trial_seeds, dtype=np.uint64)
    if seeds.ndim != 1:
        raise ConfigError(f"trial seeds must be a 1-D array, got shape {seeds.shape}")
    planes = np.empty((2, words_for(config.steps), seeds.size), dtype=np.uint64)
    block = max(1, _RAW_BYTES // (8 * config.steps))
    for lo in range(0, seeds.size, block):
        draw(seeds[lo:lo + block], config, planes[..., lo:lo + block])
    planes.flags.writeable = False
    return planes


def _pair(family: str, words: np.ndarray, steps: int) -> LogicReferencePair:
    """The checked ``family`` pair whose High and Low words are ``words[0]`` and ``words[1]``."""
    return LogicReferencePair(*(_DRAW[family][1]._of_words(plane, steps) for plane in words))


def reference_pairs(family: str, seed, config: GeneratorConfig) -> LogicReferencePair:
    """The pair of one trial seed, column 0 of its :func:`reference_words`; an array of
    seeds raises :class:`ConfigError`."""
    if np.ndim(seed):
        raise ConfigError(f"reference_pairs draws the pair of one seed, got shape "
                          f"{np.shape(seed)}; draw a batch with reference_words")
    return _pair(family, reference_words(family, [seed], config)[..., 0], config.steps)


def gen_rtw_pair(config: GeneratorConfig) -> LogicReferencePair:
    """Independent High and Low RTW references from one config."""
    return reference_pairs(RTW, config.seed, config)


def gen_orthogonal_spike_pair(config: GeneratorConfig) -> LogicReferencePair:
    """Disjoint High/Low spike trains, both guaranteed non-empty.

    Disjointness holds by construction (one categorical draw per step);
    non-emptiness is enforced by regenerating from the next child stream,
    failing after :data:`MAX_RETRIES` attempts.
    """
    return reference_pairs(SPIKE, config.seed, config)


def gen_disjoint_spike_pairs(
    seed: int,
    steps: int,
    n_pairs: int,
    rate_per_train: float | None = None,
) -> tuple[LogicReferencePair, ...]:
    """Jointly generate ``n_pairs`` spike pairs whose 2N trains never collide.

    A single (2N+1)-way categorical draw per step assigns the step's spike
    to exactly one train or to none, so cross-pair disjointness is a
    construction guarantee rather than a filter.  The default per-train
    rate fills 90% of the steps in expectation, split evenly.
    """
    n_pairs = _integer("n_pairs", n_pairs)
    if n_pairs < 1:
        raise ConfigError(f"n_pairs must be a positive integer, got {n_pairs!r}")
    config = GeneratorConfig(seed=seed, steps=steps)
    if rate_per_train is None:
        rate_per_train = 0.9 / (2 * n_pairs)
    rate_per_train = _real("rate_per_train", rate_per_train)
    if not 0.0 < rate_per_train < 1.0 or 2 * n_pairs * rate_per_train > 1.0:
        raise ConfigError(
            f"per-train rate {rate_per_train} infeasible for {2 * n_pairs} disjoint trains"
        )
    rates = [rate_per_train] * (2 * n_pairs)
    _check_room(len(rates), steps)
    # Train i is plane i, one (words, 1) column for the one seed.
    planes = np.empty((len(rates), words_for(steps), 1), dtype=np.uint64)
    try:
        _spike_words(np.array([seed], dtype=np.uint64), config, planes, rates)
    except GenerationError:
        raise GenerationError(
            f"could not fill {2 * n_pairs} non-empty disjoint trains in "
            f"{MAX_RETRIES} attempts (steps={steps}, rate={rate_per_train})"
        ) from None
    trains = [SpikeTrain._of_words(plane[:, 0], steps) for plane in planes]
    return tuple(LogicReferencePair(h, l) for h, l in zip(trains[::2], trains[1::2]))


def gen_rtw_pairs(seed: int, steps: int, n_pairs: int) -> tuple[LogicReferencePair, ...]:
    """Independently seeded RTW pairs (child stream per pair)."""
    n_pairs = _integer("n_pairs", n_pairs)
    if n_pairs < 1:
        raise ConfigError(f"n_pairs must be a positive integer, got {n_pairs!r}")
    config = GeneratorConfig(seed=seed, steps=steps)
    return tuple(reference_pairs(RTW, s, config) for s in derive_seeds(seed, n_pairs))


def count_identical_rtw_pairs(seed: int, trials: int, steps: int, start: int = 0) -> int:
    """Trials whose RTW High and Low references agree at every step.

    Trial ``i`` is the pair ``reference_words`` draws for the trial seed
    ``derive_seed(seed, start + i)``, so this equals
    ``(planes[0] == planes[1]).all(axis=0).sum()`` over the planes of
    those pairs, but the words are drawn one step at a time and each trial
    is dropped at its first differing step.  Half the trials survive each step,
    so the sweep mixes about seven words per trial instead of
    ``2 * steps + 4``.
    """
    trial_seeds = derive_seeds(seed, trials, start)
    h_seeds, l_seeds = _child_seeds(trial_seeds, 0), _child_seeds(trial_seeds, 1)
    for k in range(1, steps + 1):
        step = _U((GOLDEN * k) & MASK64)
        agree = ((mix64_array(h_seeds + step) ^ mix64_array(l_seeds + step)) >> _U(63)) == 0
        # Taking by position is about 4x faster than masking with ``agree``
        # when half the rows survive at random.
        keep = np.flatnonzero(agree)
        h_seeds = h_seeds[keep]
        l_seeds = l_seeds[keep]
        if not h_seeds.size:
            break
    return int(h_seeds.size)
