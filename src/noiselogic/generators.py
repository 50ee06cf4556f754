"""Seeded generators for reference waves.

All generators are pure functions of their config: an identical
:class:`~noiselogic.signals.GeneratorConfig` always yields a bit-identical
waveform, via the SplitMix64 streams documented in :mod:`noiselogic.prng`.

Stream layout (fixed; golden tests depend on it):

* ``gen_rtw`` draws from the root stream of ``config.seed``, one word per
  step, mapping the top bit to +1/-1.
* ``gen_rtw_pair`` uses child streams 0 (High) and 1 (Low) of
  ``config.seed``.
* ``gen_orthogonal_spike_pair`` attempt ``r`` uses child stream ``r``; each
  step makes one three-way draw (High spike, Low spike, no spike), which
  makes the trains disjoint by construction.  Attempts repeat, up to
  :data:`MAX_RETRIES`, until both trains are non-empty.
* ``spike_pair_rows`` is the same draw for many trials at once: row ``i``
  takes the trial seed ``derive_seed(config.seed, start + i)`` and draws
  attempt ``r`` from child stream ``r`` of that seed, exactly as
  ``gen_orthogonal_spike_pair`` does for a config with that seed.  Only the
  rows still holding an empty train draw the next attempt, so a row's
  result does not depend on the other rows.  ``gen_orthogonal_spike_pair``
  is its one-row case.
* ``rtw_sign_matrix`` row ``i`` is child ``child`` of the trial seed
  ``derive_seed(seed, start + i)``, one word per step; ``gen_rtw_pair`` is
  its one-row case, for the trial seed ``config.seed``, and
  ``count_identical_rtw_pairs`` walks the same words step by step.
* ``gen_disjoint_spike_pairs`` is the joint multi-pair variant: one
  (2N+1)-way draw per step keeps all 2N trains pairwise disjoint.
"""

import numpy as np

from .errors import ConfigError, GenerationError
from .prng import GOLDEN, MASK64, SplitMix64, derive_seed, derive_seeds, mix64_array
from .signals import GeneratorConfig, LogicReferencePair, RtwSignal, SpikeTrain

MAX_RETRIES = 64

_U = np.uint64


def _signs(raw: np.ndarray) -> np.ndarray:
    """-1/+1 from the top bit of each raw word."""
    return 2 * (raw >> _U(63)).astype(np.int64) - 1


def gen_rtw(config: GeneratorConfig) -> RtwSignal:
    """One random telegraph wave: each step -1 or +1 with probability 0.5."""
    return RtwSignal(_signs(SplitMix64(config.seed).block(config.steps)))


def gen_rtw_pair(config: GeneratorConfig) -> LogicReferencePair:
    """Independent High and Low RTW references from one config."""
    seeds = np.array([config.seed], dtype=np.uint64)
    h, l = (RtwSignal(_rtw_rows(seeds, child, config.steps)[0]) for child in (0, 1))
    return LogicReferencePair(h, l)


def _threshold(p: float) -> int:
    # Exact: p has a 53-bit mantissa, scaling by 2**64 only shifts the exponent.
    return int(p * 2.0**64)


def _categorical_spikes(raw: np.ndarray, rates: list[float]) -> np.ndarray:
    """One draw per raw word over len(rates)+1 outcomes; returns the 0/1 trains.

    Outcome ``i`` fires train ``i`` when the raw word falls in the i-th
    probability band; the remainder band fires nothing.  Bands are compared
    as exact 64-bit integers, so the draw is a deterministic function of the
    raw stream.  ``raw`` may have any shape; train ``i`` is
    ``trains[i]``, of the same shape.
    """
    trains = np.zeros((len(rates),) + raw.shape, dtype=np.int64)
    lo = 0
    acc = 0.0
    for i, rate in enumerate(rates):
        acc += rate
        hi = min(_threshold(acc), 2**64)
        if hi <= lo:
            continue
        if hi == 2**64:
            band = raw >= _U(lo)
        else:
            band = (raw >= _U(lo)) & (raw < _U(hi))
        trains[i][band] = 1
        lo = hi
    return trains


def _child_seeds(seeds: np.ndarray, child: int) -> np.ndarray:
    """Vectorized :func:`derive_seed`: ``derive_seed(seeds[i], child)`` for every ``i``."""
    return mix64_array(seeds + _U((GOLDEN * (child + 1)) & MASK64))


def _child_words(seeds: np.ndarray, child: int, steps: int) -> np.ndarray:
    """``(len(seeds), steps)`` raw words: row ``i`` is ``SplitMix64(derive_seed(seeds[i], child)).block(steps)``."""
    steps_k = np.arange(1, steps + 1, dtype=np.uint64)
    return mix64_array(_child_seeds(seeds, child)[:, None] + _U(GOLDEN) * steps_k[None, :])


def _rtw_rows(trial_seeds: np.ndarray, child: int, steps: int) -> np.ndarray:
    """``(rows, steps)`` signs: row ``i`` is child ``child`` of ``trial_seeds[i]``, one word per step."""
    return _signs(_child_words(trial_seeds, child, steps))


def _spike_rows(trial_seeds: np.ndarray, config: GeneratorConfig) -> tuple[np.ndarray, np.ndarray]:
    """High and Low ``(rows, steps)`` trains, one orthogonal pair per trial seed.

    Every row starts at attempt 0; only rows with an empty train draw the
    next attempt, from the next child stream of their own seed.
    """
    rates = [config.spike_rate_h, config.spike_rate_l]
    h = np.zeros((len(trial_seeds), config.steps), dtype=np.int64)
    l = np.zeros_like(h)
    pending = np.arange(len(trial_seeds))
    for attempt in range(MAX_RETRIES):
        h_vals, l_vals = _categorical_spikes(
            _child_words(trial_seeds[pending], attempt, config.steps), rates)
        h[pending] = h_vals
        l[pending] = l_vals
        pending = pending[~(h_vals.any(axis=1) & l_vals.any(axis=1))]
        if not pending.size:
            return h, l
    raise GenerationError(
        f"could not draw two non-empty spike trains in {MAX_RETRIES} attempts "
        f"(steps={config.steps}, rates={config.spike_rate_h}/{config.spike_rate_l})"
    )


def gen_orthogonal_spike_pair(config: GeneratorConfig) -> LogicReferencePair:
    """Disjoint High/Low spike trains, both guaranteed non-empty.

    Disjointness holds by construction (one categorical draw per step);
    non-emptiness is enforced by regenerating from the next child stream,
    failing after :data:`MAX_RETRIES` attempts.
    """
    h, l = _spike_rows(np.array([config.seed], dtype=np.uint64), config)
    return LogicReferencePair(SpikeTrain(h[0]), SpikeTrain(l[0]))


def spike_pair_rows(
    config: GeneratorConfig, trials: int, start: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized spike-pair generation for Monte-Carlo sweeps.

    Returns the High and Low ``(trials, steps)`` trains.  Row ``i`` equals
    ``gen_orthogonal_spike_pair`` for ``config`` with the derived trial seed
    ``derive_seed(config.seed, start + i)``, retries included, and the same
    :class:`GenerationError` is raised when a row exhausts its attempts.
    """
    return _spike_rows(derive_seeds(config.seed, trials, start), config)


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
    if n_pairs < 1:
        raise ConfigError(f"n_pairs must be at least 1, got {n_pairs}")
    if steps < 1:
        raise ConfigError(f"steps must be at least 1, got {steps}")
    if rate_per_train is None:
        rate_per_train = 0.9 / (2 * n_pairs)
    if not 0.0 < rate_per_train < 1.0 or 2 * n_pairs * rate_per_train > 1.0:
        raise ConfigError(
            f"per-train rate {rate_per_train} infeasible for {2 * n_pairs} disjoint trains"
        )
    rates = [rate_per_train] * (2 * n_pairs)
    for attempt in range(MAX_RETRIES):
        stream = SplitMix64(derive_seed(seed, attempt))
        raw = stream.block(steps)
        trains = _categorical_spikes(raw, rates)
        if all(trains[i].any() for i in range(2 * n_pairs)):
            return tuple(
                LogicReferencePair(SpikeTrain(trains[2 * i]), SpikeTrain(trains[2 * i + 1]))
                for i in range(n_pairs)
            )
    raise GenerationError(
        f"could not fill {2 * n_pairs} non-empty disjoint trains in "
        f"{MAX_RETRIES} attempts (steps={steps}, rate={rate_per_train})"
    )


def gen_rtw_pairs(seed: int, steps: int, n_pairs: int) -> tuple[LogicReferencePair, ...]:
    """Independently seeded RTW pairs (child stream per pair)."""
    if n_pairs < 1:
        raise ConfigError(f"n_pairs must be at least 1, got {n_pairs}")
    return tuple(
        gen_rtw_pair(GeneratorConfig(seed=derive_seed(seed, i), steps=steps))
        for i in range(n_pairs)
    )


def rtw_sign_matrix(
    seed: int, trials: int, steps: int, child: int, start: int = 0
) -> np.ndarray:
    """Vectorized RTW generation for Monte-Carlo sweeps.

    Row ``i`` equals ``gen_rtw_pair`` child ``child`` (0 for High, 1 for
    Low) of the derived trial seed ``derive_seed(seed, start + i)``; the
    serial and vectorized paths are bit-identical by the counter-mode
    identity of SplitMix64, so chunked sweeps aggregate independently of
    the chunking.
    """
    return _rtw_rows(derive_seeds(seed, trials, start), child, steps)


def count_identical_rtw_pairs(seed: int, trials: int, steps: int, start: int = 0) -> int:
    """Rows whose High and Low ``rtw_sign_matrix`` rows agree at every step.

    Equal to ``np.all(h == l, axis=1).sum()`` over the child 0 and child 1
    matrices, but the words are drawn one step at a time and each trial is
    dropped at its first differing step.  Half the trials survive each step,
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
