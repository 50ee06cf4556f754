import numpy as np
import pytest

import noiselogic as nl
from noiselogic.waveio import format_waveform_csv, parse_waveform_csv, write_waveform_csv


def test_format_shape():
    text = format_waveform_csv({"H": nl.RtwSignal([1, -1]), "L": nl.RtwSignal([-1, -1])})
    assert text == "step,H,L\n0,1,-1\n1,-1,-1\n"


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
    columns["big"] = nl.IntWave(rng.integers(-(2**62), 2**62, 300))
    text = format_waveform_csv(columns)
    assert text == _per_cell_csv(columns)
    parsed = parse_waveform_csv(text)
    assert all(parsed[name] == wave for name, wave in columns.items())


def test_batch_column_rejected():
    with pytest.raises(ValueError, match="single wave"):
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
