"""Shared CSV waveform format.

One header row ``step,<name1>,<name2>,...`` followed by one row per clock
step; every value is a decimal integer, ASCII ``-?[0-9]+``.  The CLI's
``gen`` and ``simulate --waves`` write this one format through
:func:`write_waveform_csv`.  :func:`parse_waveform_csv` reads it back; no
command calls it, and its caller in this repository is the writer's test.
"""

import re

import numpy as np

from .signals import IntWave, Waveform

_CELL = re.compile(r"-?[0-9]+")

# Cells format_waveform_csv renders at a time.
_BLOCK_CELLS = 1 << 14


def format_waveform_csv(columns: dict[str, Waveform]) -> str:
    """Render named waveforms as CSV text (column order = dict order).

    The body is built with array operations, for every waveform kind
    alike.  The glyph table holds ``b"%d,"`` of each step index and of each
    distinct value present in the waves, and ``b"%d\\n"`` of the latter for
    the last column; every cell is an index into it.  The table's entries
    are NUL-padded to one width, so the indexed cells of a block of rows
    form those rows side by side, and deleting the padding leaves their
    text.  Blocks of at most ``_BLOCK_CELLS`` cells bound the temporaries.
    """
    return b"".join(_csv_blocks(columns)).decode("utf-8")


def _csv_blocks(columns: dict[str, Waveform]) -> list[bytes]:
    """The UTF-8 text of :func:`format_waveform_csv`: the header, then blocks of rows."""
    if not columns:
        raise ValueError("at least one waveform column required")
    if any(len(w.shape) != 1 for w in columns.values()):
        raise ValueError("every waveform column must be a single wave, not a batch")
    lengths = {len(w) for w in columns.values()}
    if len(lengths) != 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    (steps,) = lengths
    data = np.column_stack([w.values for w in columns.values()])
    distinct = np.unique(data)
    values = distinct.tolist()
    glyphs = np.array([b"%d," % t for t in range(steps)] + [b"%d," % v for v in values]
                      + [b"%d\n" % v for v in values])
    blocks = [("step," + ",".join(columns) + "\n").encode("utf-8")]
    rows = max(1, _BLOCK_CELLS // (1 + len(columns)))
    for lo in range(0, steps, rows):
        block = data[lo:lo + rows]
        cells = np.empty((len(block), 1 + len(columns)), dtype=np.intp)
        cells[:, 0] = np.arange(lo, lo + len(block))
        cells[:, 1:] = np.searchsorted(distinct, block)
        cells[:, 1:] += steps
        cells[:, -1] += len(values)
        blocks.append(np.take(glyphs, cells).tobytes().translate(None, b"\0"))
    return blocks


def write_waveform_csv(path, columns: dict[str, Waveform]) -> None:
    """Write :func:`format_waveform_csv` of ``columns`` to ``path`` as UTF-8, block by block."""
    blocks = _csv_blocks(columns)
    with open(path, "wb") as fh:
        fh.writelines(blocks)


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
