"""Shared CSV waveform format.

One header row ``step,<name1>,<name2>,...`` followed by one row per clock
step; every value is a decimal integer, ASCII ``-?[0-9]+``.  The CLI's
``gen`` and ``simulate --waves`` write this one format through
:func:`write_waveform_csv`.  Nothing in the package reads it back; the
reader that checks the writer lives with the tests.

The writer renders the text of each distinct step row once.  The CLI's
CSVs have at most four of them, three on spike: in the non-squeezed gates
both logic values are the reference waves themselves, so every wire at
step ``t`` is a function of the pair's column ``(H_t, L_t)`` alone, and a
spike pair never spikes in both trains at once.
"""

import numpy as np

from .signals import Waveform

# Cells format_waveform_csv renders at a time.
_BLOCK_CELLS = 1 << 14


def format_waveform_csv(columns: dict[str, Waveform]) -> str:
    """Render named waveforms as CSV text (column order = dict order).

    The body is built with array operations, for every waveform kind
    alike.  The distinct rows of the ``(steps, columns)`` value matrix are
    found over the columns of distinct wave objects only, each unpacked
    once, and rendered once each: the glyph table holds ``b"%d,"`` of each
    distinct value present in them, and ``b"%d\\n"`` of it for the last
    column, and every cell is an index into it.  The table's entries are
    NUL-padded to one width, so the indexed cells of a block of rows form
    those rows side by side, and deleting the padding leaves their text.
    Blocks of at most ``_BLOCK_CELLS`` cells bound the temporaries.  Each
    step is then ``b"%d," % t`` followed by its row's text.
    """
    return b"".join(_csv_blocks(columns)).decode("utf-8")


def _csv_blocks(columns: dict[str, Waveform]) -> list[bytes]:
    """The UTF-8 text of :func:`format_waveform_csv`: the header, then the rows."""
    if not columns:
        raise ValueError("at least one waveform column required")
    if any(len(w.shape) != 1 for w in columns.values()):
        raise ValueError("every waveform column must be a single wave, not a batch")
    lengths = {len(w) for w in columns.values()}
    if len(lengths) != 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    (steps,) = lengths
    # ``SimulationRun.waveforms`` hands every wire of one cut word the same
    # wave object, so a dump has few distinct columns.
    waves = list({id(w): w for w in columns.values()}.values())
    position = {id(w): k for k, w in enumerate(waves)}
    data = np.column_stack([w.values for w in waves])
    # Each row's bytes as one void item, so np.unique compares whole rows.
    keys = data.view(np.dtype((np.void, data.itemsize * data.shape[1]))).ravel()
    _, first, row_of = np.unique(keys, return_index=True, return_inverse=True)
    table = data[first][:, [position[id(w)] for w in columns.values()]]   # over every column
    distinct = np.unique(table)
    values = distinct.tolist()
    glyphs = np.array([b"%d," % v for v in values] + [b"%d\n" % v for v in values])
    texts = []
    rows = max(1, _BLOCK_CELLS // len(columns))
    for lo in range(0, len(first), rows):
        cells = np.searchsorted(distinct, table[lo:lo + rows])
        cells[:, -1] += len(values)
        texts += np.take(glyphs, cells).tobytes().translate(None, b"\0").splitlines(keepends=True)
    parts = [None] * (2 * steps)
    parts[::2] = [b"%d," % t for t in range(steps)]
    parts[1::2] = np.array(texts, dtype=object)[row_of].tolist()
    return [("step," + ",".join(columns) + "\n").encode("utf-8"), b"".join(parts)]


def write_waveform_csv(path, columns: dict[str, Waveform]) -> None:
    """Write :func:`format_waveform_csv` of ``columns`` to ``path`` as UTF-8."""
    blocks = _csv_blocks(columns)
    with open(path, "wb") as fh:
        fh.writelines(blocks)
