"""Shared CSV waveform format.

One header row ``step,<name1>,<name2>,...`` followed by one row per clock
step; every value is a decimal integer, ASCII ``-?[0-9]+``.  The CLI's
``gen`` and ``simulate --waves`` write this one format through
:func:`write_waveform_csv`.  Nothing in the package reads it back; the
reader that checks the writer lives with the tests.

The writer renders the text of each distinct step row once, by one
``",".join``.  The CLI's CSVs have at most four distinct rows, three on
spike: in the non-squeezed gates both logic values are the reference waves
themselves, so every wire at step ``t`` is a function of the pair's column
``(H_t, L_t)`` alone, and a spike pair never spikes in both trains at once.
"""

import numpy as np

from .signals import Waveform


def format_waveform_csv(columns: dict[str, Waveform]) -> str:
    """Render named waveforms as CSV text (column order = dict order).

    The distinct rows are found over the columns of distinct wave objects,
    each unpacked once, and each is rendered once, by one ``",".join``.
    """
    return b"".join(_csv_blocks(columns)).decode("utf-8")


def _csv_blocks(columns: dict[str, Waveform]) -> list[bytes]:
    """The UTF-8 text of :func:`format_waveform_csv`: the header, then the rows."""
    if not columns:
        raise ValueError("at least one waveform column required")
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
    table = data[first][:, [position[id(w)] for w in columns.values()]].tolist()
    texts = np.array([(",".join(map(str, row)) + "\n").encode() for row in table], dtype=object)
    parts = [None] * (2 * steps)
    parts[::2] = [b"%d," % t for t in range(steps)]
    parts[1::2] = texts[row_of].tolist()
    return [("step," + ",".join(columns) + "\n").encode("utf-8"), b"".join(parts)]


def write_waveform_csv(path, columns: dict[str, Waveform]) -> None:
    """Write :func:`format_waveform_csv` of ``columns`` to ``path`` as UTF-8."""
    blocks = _csv_blocks(columns)
    with open(path, "wb") as fh:
        fh.writelines(blocks)
