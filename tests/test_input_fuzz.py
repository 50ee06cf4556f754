"""Fuzzing of the three text inputs: netlists, compiled-network JSON, waveform CSV.

Whatever the text, each loader either returns a valid result or raises
``NoiseLogicError`` or ``ValueError``, which the CLI turns into exit code 2
with a message.  Any other exception would reach the user as a traceback.
"""

import json
import re

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import noiselogic as nl
from noiselogic.waveio import format_waveform_csv, parse_waveform_csv

from conftest import FULL_ADDER

FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
REJECTED = (nl.NoiseLogicError, ValueError)

# Cells mix small values, arbitrary integers and values just past the
# 64-bit range with stray text, including text Python's int() accepts: a
# sign "+", spaces, "_" and non-ASCII digits.
integers = st.one_of(st.integers(-3, 3), st.integers(),
                     st.integers(2**63 - 2, 2**66), st.integers(-(2**66), -(2**63) + 1))
int_lookalikes = st.one_of(
    st.integers(0, 999).map(lambda v: f"+{v}"),
    st.integers(-999, 999).map(lambda v: f" {v}"),
    st.integers(1000, 10**6).map(lambda v: f"{v:_}"),
    # Arabic-Indic digits.
    st.integers(0, 999).map(lambda v: str(v).translate({48 + d: 0x660 + d for d in range(10)})),
)
cells = st.one_of(integers.map(str), int_lookalikes,
                  st.text(alphabet="0123456789-+ ._ae,x\u0661\uff17", max_size=6))
names = st.one_of(st.sampled_from(["a", "b", "y", "w0", "step", "", "a b", "$1", "input"]),
                  st.text(max_size=5))


def _loads(load, text):
    """The loader's result, or None when it rejects ``text`` as it should."""
    try:
        return load(text)
    except REJECTED:
        return None


@st.composite
def netlist_texts(draw):
    """Line-structured netlists, most of them almost well-formed."""
    keywords = st.sampled_from(["input", "wire", "output", "INPUT", "#", "", "wire y ="])
    gates = st.sampled_from([*nl.netlist.GATE_ARITY, "XOR3", "", "and"])
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        tokens = [draw(keywords), draw(names), draw(st.sampled_from(["=", "", "=="])),
                  draw(gates), *draw(st.lists(names, max_size=3))]
        lines.append(" ".join(tokens))
    return draw(st.sampled_from(["\n", "\r\n", "\n\n"])).join(lines)


class TestNetlistParse:
    @FUZZ
    @given(st.one_of(netlist_texts(), st.text(max_size=80)))
    def test_parse_returns_an_ast_or_rejects(self, text):
        ast = _loads(nl.parse, text)
        if ast is not None:
            assert ast.outputs
            assert nl.parse(nl.format_netlist(ast)) == ast


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), integers, st.floats(allow_nan=True), names),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(names, inner, max_size=4)),
    max_leaves=12,
)


@st.composite
def network_docs(draw):
    """Documents shaped like ``to_json`` output, with fields of any type."""
    gate_docs = []
    for _ in range(draw(st.integers(0, 5))):
        gate = {"op": draw(st.one_of(st.sampled_from(["NOT", "AND", "OR"]), json_values)),
                "args": draw(st.one_of(st.lists(names, max_size=3), json_values)),
                "out": draw(st.one_of(names, json_values))}
        if draw(st.booleans()):
            gate["src"] = draw(st.one_of(names, json_values))
        gate_docs.append(gate if draw(st.integers(0, 9)) else draw(json_values))
    doc = {"inputs": draw(st.one_of(st.lists(names, max_size=3), json_values)),
           "outputs": draw(st.one_of(st.lists(names, max_size=3), json_values)),
           "gates": gate_docs}
    for key in draw(st.sets(st.sampled_from(sorted(doc)), max_size=1)):
        del doc[key]
    return doc


class TestCompiledNetworkJson:
    @FUZZ
    @given(st.one_of(network_docs().map(json.dumps), json_values.map(json.dumps),
                     st.text(max_size=60)))
    def test_from_json_returns_a_network_or_rejects(self, text):
        network = _loads(nl.CompiledNetwork.from_json, text)
        if network is not None:
            assert nl.CompiledNetwork.from_json(network.to_json()) == network

    @FUZZ
    @given(st.data())
    def test_truncated_or_edited_adder_json(self, data):
        text = nl.lower(nl.parse(FULL_ADDER)).to_json()
        cut = data.draw(st.integers(0, len(text)))
        edit = data.draw(st.text(alphabet='"{}[],:0123456789abc-e', max_size=4))
        _loads(nl.CompiledNetwork.from_json, text[:cut] + edit + text[cut + len(edit):])


@st.composite
def csv_texts(draw):
    """Waveform CSV with a header and rows, each possibly malformed."""
    header = ["step", *draw(st.lists(names, min_size=0, max_size=4))]
    if draw(st.integers(0, 9)) == 0:
        header[0] = draw(names)
    lines = [",".join(header)]
    for t in range(draw(st.integers(0, 5))):
        width = len(header) if draw(st.integers(0, 9)) else draw(st.integers(0, 6))
        row = [str(t) if draw(st.integers(0, 9)) else draw(cells)]
        row += [draw(integers.map(str)) if draw(st.integers(0, 4)) else draw(cells)
                for _ in range(width - 1)]
        lines.append(",".join(row))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


class TestWaveformCsv:
    @FUZZ
    @given(st.one_of(csv_texts(), st.text(max_size=40)))
    @example("step,a\n0,99999999999999999999999\n")
    def test_parse_returns_waves_or_rejects(self, text):
        columns = _loads(parse_waveform_csv, text)
        if columns is not None:
            header = next(line for line in text.splitlines() if line.strip())
            assert list(columns) == header.split(",")[1:]
            assert all(columns)
            lengths = {len(wave) for wave in columns.values()}
            assert len(lengths) == 1
            assert parse_waveform_csv(
                format_waveform_csv(columns)) == columns

    @FUZZ
    @given(st.one_of(csv_texts(), st.text(max_size=40)))
    @example("step,a\n0,1_000\n1, +7\n2,\u0661\n")
    def test_accepts_only_decimal_integer_cells(self, text):
        if _loads(parse_waveform_csv, text) is not None:
            rows = [line for line in text.splitlines() if line.strip()][1:]
            cells = [cell for row in rows for cell in row.split(",")]
            assert all(re.fullmatch("-?[0-9]+", cell) for cell in cells), text
