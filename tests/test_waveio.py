import random
import re

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import noiselogic as nl
from noiselogic.cli import main
from noiselogic.waveio import format_waveform_csv, write_waveform_csv

from conftest import FULL_ADDER, random_netlist_source
from serial_reference import serial_run

_CELL = re.compile(r"-?[0-9]+")


def parse_waveform_csv(text: str) -> dict[str, nl.Waveform]:
    """Inverse of :func:`format_waveform_csv`, the writer's oracle; step indices are checked.

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
    return {name: nl.Waveform(data[:, j]) for j, name in enumerate(names)}


def test_format_shape():
    text = format_waveform_csv({"H": nl.RtwSignal([1, -1]), "L": nl.RtwSignal([-1, -1])})
    assert text == "step,H,L\n0,1,-1\n1,-1,-1\n"


def test_header_keeps_names_outside_ascii(tmp_path):
    columns = {"wäve": nl.Waveform([3, -12])}
    assert format_waveform_csv(columns) == "step,wäve\n0,3\n1,-12\n"
    write_waveform_csv(tmp_path / "w.csv", columns)
    assert (tmp_path / "w.csv").read_bytes() == "step,wäve\n0,3\n1,-12\n".encode("utf-8")


def test_round_trip(tmp_path):
    columns = {
        "H": nl.SpikeTrain([0, 1, 0]),
        "L": nl.SpikeTrain([1, 0, 0]),
        "U": nl.SpikeTrain([1, 1, 0]),
    }
    path = tmp_path / "waves.csv"
    write_waveform_csv(path, columns)
    parsed = parse_waveform_csv(path.read_text())
    assert list(parsed) == ["H", "L", "U"]
    for name, wave in columns.items():
        assert parsed[name].to_list() == wave.to_list()


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        format_waveform_csv({"a": nl.RtwSignal([1]), "b": nl.RtwSignal([1, 1])})


def test_parse_validates_step_column():
    with pytest.raises(ValueError):
        parse_waveform_csv("step,x\n1,0\n")
    with pytest.raises(ValueError):
        parse_waveform_csv("tick,x\n0,0\n")


def _per_cell_csv(columns) -> str:
    """The formatter as it was: one ``str(int(...))`` per cell."""
    arrays = [w.values for w in columns.values()]
    lines = ["step," + ",".join(columns)]
    for t in range(len(arrays[0])):
        lines.append(str(t) + "," + ",".join(str(int(a[t])) for a in arrays))
    return "\n".join(lines) + "\n"


def test_format_is_byte_identical_to_per_cell_formatting():
    rng = np.random.default_rng(7)
    columns = {f"r{k}": nl.RtwSignal(rng.choice([-1, 1], 300)) for k in range(5)}
    columns["s"] = nl.SpikeTrain(rng.integers(0, 2, 300))
    columns["m"] = nl.MultiLevelSignal(rng.integers(-2, 3, 300))
    columns["big"] = nl.Waveform(rng.integers(-(2**62), 2**62, 300))
    text = format_waveform_csv(columns)
    assert text == _per_cell_csv(columns)
    parsed = parse_waveform_csv(text)
    assert all(parsed[name] == wave for name, wave in columns.items())


# One column of each kind, drawn from a seeded generator; the wide integer
# columns reach the 64-bit extremes.
_KINDS = {
    "rtw": lambda rng, n: nl.RtwSignal(rng.choice([-1, 1], n)),
    "spike": lambda rng, n: nl.SpikeTrain(rng.integers(0, 2, n)),
    "multi": lambda rng, n: nl.MultiLevelSignal(rng.integers(-2, 3, n)),
    "wide": lambda rng, n: nl.Waveform(rng.integers(-(2**63), 2**63 - 1, n, endpoint=True)),
    "extremes": lambda rng, n: nl.Waveform(rng.choice([-(2**63), -1, 0, 2**63 - 1], n)),
}


@settings(max_examples=60, deadline=None)
@given(
    # Step counts on both sides of the step column's digit boundaries.
    steps=st.sampled_from([1, 9, 10, 99, 100, 1000, 1001, 4096]),
    kinds=st.lists(st.sampled_from(sorted(_KINDS)), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_format_equals_per_cell_formatting_for_mixed_columns(steps, kinds, seed):
    rng = np.random.default_rng(seed)
    columns = {f"{kind}{k}": _KINDS[kind](rng, steps) for k, kind in enumerate(kinds)}
    assert format_waveform_csv(columns) == _per_cell_csv(columns)


@settings(max_examples=60, deadline=None)
@given(
    steps=st.sampled_from([1, 9, 10, 99, 100, 1001, 4096]),
    # The number of row classes; None gives one class per step.
    classes=st.sampled_from([1, 2, 3, 4, 5, None]),
    kinds=st.lists(st.sampled_from(sorted(_KINDS)), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_format_equals_per_cell_formatting_for_few_distinct_rows(steps, classes, kinds, seed):
    # Every column is table[step_class], so the rows repeat as the CLI's do.
    rng = np.random.default_rng(seed)
    k = steps if classes is None else classes
    step_class = rng.integers(0, k, steps)
    tables = [_KINDS[kind](rng, k) for kind in kinds]
    columns = {f"{kind}{j}": type(table)(table.values[step_class])
               for j, (kind, table) in enumerate(zip(kinds, tables))}
    assert format_waveform_csv(columns) == _per_cell_csv(columns)


@settings(max_examples=60, deadline=None)
@given(
    steps=st.sampled_from([1, 10, 100, 1001, 4096]),
    kinds=st.lists(st.sampled_from(sorted(_KINDS)), min_size=1, max_size=4),
    picks=st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_format_equals_per_cell_formatting_for_shared_and_equal_columns(steps, kinds, picks,
                                                                       seed):
    # Columns that repeat one object, as every wire of one cut word does in
    # a run's waveforms, beside columns that are equal but distinct objects.
    rng = np.random.default_rng(seed)
    shared = [_KINDS[kind](rng, steps) for kind in kinds]
    columns = {}
    for j, (k, same) in enumerate(picks):
        wave = shared[k % len(shared)]
        columns[f"c{j}"] = wave if same else type(wave)(wave.values)
    assert format_waveform_csv(columns) == _per_cell_csv(columns)


@settings(max_examples=20, deadline=None)
@given(
    steps=st.sampled_from([2000, 4096]),
    extra=st.lists(st.sampled_from(sorted(_KINDS)), max_size=3),
    picks=st.lists(st.integers(0, 6), min_size=1, max_size=10),
    seed=st.integers(0, 2**32 - 1),
)
def test_format_equals_one_join_per_step_for_thousands_of_distinct_rows(steps, extra, picks,
                                                                        seed):
    # Every carrier, a wide column that makes nearly every row distinct, and
    # columns that repeat one wave object.
    rng = np.random.default_rng(seed)
    waves = [_KINDS[kind](rng, steps) for kind in ["rtw", "spike", "multi", "wide"] + extra]
    columns = {f"c{j}": wave for j, wave in enumerate(waves)}
    columns.update({f"again{j}": waves[k % len(waves)] for j, k in enumerate(picks)})
    text = format_waveform_csv(columns)
    assert len(_row_bodies(text)) > 1000
    assert text == _per_cell_csv(columns)


def _row_bodies(text: str) -> set[str]:
    return {line.split(",", 1)[1] for line in text.splitlines()[1:]}


@pytest.mark.parametrize("backend", nl.BACKENDS)
def test_cli_csvs_have_at_most_four_distinct_rows(tmp_path, backend):
    # Every wire at step t is a function of the pair's column (H_t, L_t),
    # and a spike pair never spikes in both trains at once.
    limit = 3 if backend == "spike" else 4
    rng = random.Random(f"rows/{backend}")
    runner = CliRunner()
    for k, steps in enumerate((2, 7, 64, 65, 130, 1000)):
        source = random_netlist_source(rng)
        netlist, waves = tmp_path / f"n{k}.nl", tmp_path / f"n{k}.csv"
        netlist.write_text(source)
        assign = ",".join(f"{name}={rng.getrandbits(1)}" for name in nl.parse(source).inputs)
        seed = str(rng.getrandbits(64))
        result = runner.invoke(main, ["simulate", str(netlist), "--assign", assign,
                                      "--backend", backend, "--seed", seed, "--steps", str(steps),
                                      "--waves", str(waves)])
        assert result.exit_code == 0, result.output
        assert len(_row_bodies(waves.read_text())) <= limit
        result = runner.invoke(main, ["gen", "--backend", backend, "--seed", seed,
                                      "--steps", str(steps)])
        assert result.exit_code == 0, result.output
        assert len(_row_bodies(result.output)) <= limit


@pytest.mark.parametrize("backend", nl.BACKENDS)
def test_simulate_waves_writes_the_per_cell_csv_of_the_serial_run(tmp_path, backend):
    netlist = tmp_path / "adder.nl"
    netlist.write_text(FULL_ADDER)
    waves = tmp_path / "waves.csv"
    result = CliRunner().invoke(main, ["simulate", str(netlist), "--assign", "a=1,b=0,cin=1",
                                       "--backend", backend, "--seed", "9", "--steps", "130",
                                       "--waves", str(waves)])
    assert result.exit_code == 0, result.output
    network = nl.lower(nl.parse(FULL_ADDER))
    want = serial_run(network, backend, {"a": 1, "b": 0, "cin": 1},
                      nl.GeneratorConfig(seed=9, steps=130))
    assert waves.read_bytes() == _per_cell_csv(want.waveforms).encode()


def test_batch_column_rejected():
    # Rejected where it would be built: every waveform is one wave.
    with pytest.raises(ValueError, match="exactly one axis"):
        format_waveform_csv({"a": nl.RtwSignal([[1, -1], [-1, 1]])})


@pytest.mark.parametrize("text, message", [
    ("step,a\n0,99999999999999999999999\n", "64-bit"),
    ("step,a\n0,-9223372036854775809\n", "64-bit"),
    ("step,a,a\n0,1,2\n", "repeats"),
    ("step,\n0,1\n", "empty column name"),
    ("step,a,,b\n0,1,2,3\n", "empty column name"),
    ("step,a\n", "no rows"),
    ("step,a\n0,1_000\n1, +7\n2,\u0661\n", "not a decimal integer"),
    ("step,a\n0,+7\n", "not a decimal integer"),
    ("step,a\n0, 7\n", "not a decimal integer"),
    ("step,a\n\u0660,1\n", "not a decimal integer"),
    ("step,a\n+0,1\n", "not a decimal integer"),
])
def test_parse_rejects_malformed_text_with_value_error(text, message):
    with pytest.raises(ValueError, match=message):
        parse_waveform_csv(text)


def test_parse_keeps_the_64_bit_extremes():
    parsed = parse_waveform_csv("step,a\n0,9223372036854775807\n1,-9223372036854775808\n")
    assert parsed["a"].to_list() == [2**63 - 1, -(2**63)]
