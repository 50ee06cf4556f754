"""Shared CSV waveform format.

One header row ``step,<name1>,<name2>,...`` followed by one row per clock
step; every value is a decimal integer, ASCII ``-?[0-9]+``.  The CLI's
``gen`` and ``simulate --waves`` write this one format through
:func:`write_waveform_csv`.  Nothing in the package reads it back; the
reader that checks the writer lives with the tests.
"""

import numpy as np

from .signals import Waveform

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
