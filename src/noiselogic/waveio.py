"""Shared CSV waveform format.

One header row ``step,<name1>,<name2>,...`` followed by one row per clock
step; every value is a decimal integer, ASCII ``-?[0-9]+``.  All modules and the CLI emit and
consume this one format.
"""

import re

import numpy as np

from .signals import IntWave, Waveform

_CELL = re.compile(r"-?[0-9]+")


def format_waveform_csv(columns: dict[str, Waveform]) -> str:
    """Render named waveforms as CSV text (column order = dict order)."""
    if not columns:
        raise ValueError("at least one waveform column required")
    if any(w.values.ndim != 1 for w in columns.values()):
        raise ValueError("every waveform column must be a single wave, not a batch")
    lengths = {len(w) for w in columns.values()}
    if len(lengths) != 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    (steps,) = lengths
    # One row of Python ints per step, the step index first; ``%d`` of an
    # int is its ``str``.
    table = np.column_stack([np.arange(steps), *(w.values for w in columns.values())])
    row = ",".join(["%d"] * table.shape[1]) + "\n"
    return "step," + ",".join(columns) + "\n" + "".join(map(row.__mod__, map(tuple, table.tolist())))


def write_waveform_csv(path, columns: dict[str, Waveform]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_waveform_csv(columns))


def parse_waveform_csv(text: str) -> dict[str, IntWave]:
    """Inverse of :func:`format_waveform_csv`; step indices are checked.

    Malformed text raises :class:`ValueError`: a bad header, empty or
    repeated column names, a row of the wrong width, a wrong step index, a
    cell that is not ``-?[0-9]+`` (no sign ``+``, spaces, ``_`` or non-ASCII
    digits, all of which Python's ``int`` would take), a value outside
    64-bit range, or no rows at all.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty waveform CSV")
    header = lines[0].split(",")
    if header[0] != "step" or len(header) < 2:
        raise ValueError("waveform CSV must start with a 'step,<name>,...' header")
    names = header[1:]
    if not all(names):
        raise ValueError("waveform CSV header has an empty column name")
    if len(set(names)) != len(names):
        raise ValueError("waveform CSV header repeats a column name")
    if len(lines) < 2:
        raise ValueError("waveform CSV has no rows")
    rows = []
    for t, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row {t} has {len(cells)} cells, expected {len(header)}")
        if not all(map(_CELL.fullmatch, cells)):
            raise ValueError(f"row {t} has a cell that is not a decimal integer")
        if int(cells[0]) != t:
            raise ValueError(f"row {t} carries step index {cells[0]}")
        rows.append([int(c) for c in cells[1:]])
    try:
        data = np.asarray(rows, dtype=np.int64)
    except OverflowError:
        raise ValueError("waveform CSV value outside the 64-bit integer range") from None
    return {name: IntWave(data[:, j]) for j, name in enumerate(names)}
