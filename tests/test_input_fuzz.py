"""Fuzzing of the text inputs, of the library's counts and of whole command lines.

The text inputs are netlists and compiled-network JSON.  Whatever the
text, each loader either returns a valid result or raises
``NoiseLogicError`` or ``ValueError``, which the CLI turns into exit code 2
with a message.  Any other exception would reach the user as a traceback.
The waveform-CSV reader in ``test_waveio``, the writer's oracle, is held
to the same rule.  A call given a count returns only for an integer in
the count's range, a NumPy one included, and raises ``ConfigError`` for
anything else.
Whatever the command line, the CLI exits 0, 1 (a failed verification or
an ambiguous ``simulate --strict``) or 2 with an ``error:`` line on stderr.
"""

import json
import random
import re

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import noiselogic as nl
from noiselogic.cli import main
from noiselogic.waveio import format_waveform_csv

from conftest import FULL_ADDER, random_netlist_source
from serial_reference import serial_parse
from test_waveio import parse_waveform_csv

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


def _parsed(parse, text):
    """The AST, or the message and line number of the rejection."""
    try:
        return parse(text)
    except nl.NetlistError as exc:
        return str(exc), exc.lineno


GATE_NAMES = tuple(nl.netlist.GATE_ARITY)


@st.composite
def edited_netlists(draw):
    """A random netlist with one token deleted, duplicated or replaced."""
    source = random_netlist_source(random.Random(draw(st.integers(0, 2**32 - 1))),
                                   max_inputs=draw(st.integers(2, 6)),
                                   max_gates=draw(st.integers(1, 12)))
    lines = [line.split() for line in source.splitlines()]
    row = draw(st.integers(0, len(lines) - 1))
    tokens = lines[row]
    k = draw(st.integers(0, len(tokens) - 1))
    edit = draw(st.sampled_from(["delete", "duplicate", "replace"]))
    if edit == "delete":
        del tokens[k]
    elif edit == "duplicate":
        tokens.insert(k, tokens[k])
    else:
        tokens[k] = draw(st.sampled_from([
            "input", "wire", "output",                 # reserved words
            "9x", "a-b", "$1", "=", "y$0",             # bad names
            "ghost", "w999", "y",                      # names that may be undefined
            "MAJ", "and", "XOR3",                      # unknown gates
            "#", "a#b", "x#",                          # comments inside a gate line
            *GATE_NAMES, "i0", "w0",
        ]))
    return "\n".join(" ".join(line) for line in lines) + "\n"


class TestParseEqualsSerial:
    @FUZZ
    @given(edited_netlists())
    def test_single_token_edits(self, text):
        assert _parsed(nl.parse, text) == _parsed(serial_parse, text)

    @FUZZ
    @given(st.one_of(netlist_texts(), st.text(max_size=80)))
    def test_arbitrary_text(self, text):
        assert _parsed(nl.parse, text) == _parsed(serial_parse, text)


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


# Each count parameter of the library: its call with the other arguments
# fixed, and the largest count it accepts.
_FULL_ADDER_AST = nl.parse(FULL_ADDER)
_COUNTS = {
    "gen_rtw_pairs n_pairs": (lambda v: nl.gen_rtw_pairs(1, 16, v), float("inf")),
    "gen_disjoint_spike_pairs n_pairs":
        (lambda v: nl.gen_disjoint_spike_pairs(1, 256, v), float("inf")),
    "ambiguity_analytic n": (nl.ambiguity_analytic, float("inf")),
    "ambiguity_monte_carlo n": (lambda v: nl.ambiguity_monte_carlo(v, 1000, 1), 20),
    "verify_equivalence sample": (lambda v: nl.verify_equivalence(
        _FULL_ADDER_AST, "spike", nl.GeneratorConfig(seed=3, steps=32), sample=v), float("inf")),
}
counts = st.one_of(
    st.integers(-2, 24),
    st.builds(lambda t, v: t(v), st.sampled_from([np.int8, np.int32, np.int64]),
              st.integers(-2, 24)),
    st.builds(lambda t, v: t(v), st.sampled_from([np.uint8, np.uint64]), st.integers(0, 24)),
    st.booleans(), st.builds(np.bool_, st.booleans()),
    st.floats(allow_nan=True), st.sampled_from([3.0, 2.5, np.float64(4)]),
    st.text(max_size=3), st.just("3"), st.none(),
)


class TestCounts:
    @FUZZ
    @given(st.sampled_from(sorted(_COUNTS)), counts)
    @example("ambiguity_analytic n", True)
    @example("verify_equivalence sample", 2.5)
    def test_a_count_is_a_positive_integer_or_a_config_error(self, name, value):
        call, top = _COUNTS[name]
        integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        valid = integer and 1 <= value <= top or value is None and name.endswith("sample")
        try:
            call(value)
        except nl.ConfigError:
            assert not valid
        else:
            assert valid

    @pytest.mark.parametrize("name, value", [
        ("gen_rtw_pairs n_pairs", True), ("gen_disjoint_spike_pairs n_pairs", True),
        ("ambiguity_analytic n", True), ("ambiguity_monte_carlo n", True),
        ("verify_equivalence sample", True), ("verify_equivalence sample", 2.5),
    ])
    def test_a_bool_or_float_count_names_the_parameter(self, name, value):
        call, _ = _COUNTS[name]
        parameter = name.split()[1]
        with pytest.raises(nl.ConfigError, match=f"^{parameter} must be an integer, got {value!r}$"):
            call(value)


# Whole command lines: a subcommand with random flags whose values are
# mostly valid, files from the strategies above, and every path under the
# test's own directory.
_rarely = st.integers(0, 9).map(lambda k: k == 9)


def _value(valid, invalid):
    return _rarely.flatmap(lambda bad: st.sampled_from(invalid if bad else valid))


_seed = _value(["0", "1", "7", str(2**64 - 1)], ["-1", str(2**64), "x", "", "1.5"])
_steps = _value(["1", "2", "7", "64", "65", "130"], ["0", "-1", "x", "", "1e3"])
_rate = _value(["0.25", "0.05", "0.45", "0.6", "1e-320"], ["0", "1", "-0.1", "nan", "inf", "x"])
_common = {"--seed": _seed, "--steps": _steps, "--rate-h": _rate, "--rate-l": _rate}
_backend = _value(nl.BACKENDS, ["", "cmos", "spike,spike"])
_flags = {
    "gen": {**_common, "--backend": _backend, "--format": _value(["csv", "json"], ["xml", ""])},
    "simulate": {**_common, "--backend": _backend},
    "verify": {**_common,
               "--backends": _value(["all", "spike", "rtw-additive-not,spike",
                                     "rtw-multiplicative-not"],
                                    ["", ",", "spike,spike", "cmos"]),
               "--sample": _value(["1", "5", "64"], ["0", "-1", "x"])},
    "stats": {"--seed": _seed, "--n": _value(["1", "4", "20"], ["0", "21", "x"]),
              "--trials": _value(["1000", "1500"], ["-5", "0", "999", "x"]),
              "--epsilon": _value(["1e-3", "0.5", "1e-300", "5e-324"],
                                  ["0", "1", "nan", "inf", "x"])},
    "hyperspace": {"--seed": _seed, "--steps": _steps,
                   "--family": _value(["rtw", "spike"], ["cmos"]),
                   "--bits": st.one_of(st.text(alphabet="01", min_size=1, max_size=8),
                                       st.sampled_from(["", "01x", "2"])),
                   "--max-bits": _value(["3", "8", "64"], ["0", "-1", "x"])},
}
_NETLIST_COMMANDS = ("simulate", "verify")


@st.composite
def _assignments(draw, source):
    """``--assign`` text: random bits for the inputs of ``source`` when it parses, else junk."""
    try:
        inputs = nl.parse(source).inputs
    except nl.NetlistError:
        inputs = ["a"]
    if draw(_rarely):
        return draw(st.one_of(st.sampled_from(["", ",", "a=2", "a=1,a=0"]),
                              st.text(alphabet="abci0=1, ", max_size=10)))
    return ",".join(f"{name}={draw(st.integers(0, 1))}" for name in inputs)


@st.composite
def command_lines(draw, root):
    """A subcommand with random flags and values, and its netlist and network files."""
    command = draw(st.sampled_from([*_flags, "bogus"]))
    argv = [command]
    source = draw(st.one_of(
        st.just(FULL_ADDER),
        st.integers(0, 2**32 - 1).map(
            lambda s: random_netlist_source(random.Random(s), max_inputs=5, max_gates=10)),
        netlist_texts()))
    if command in _NETLIST_COMMANDS and not draw(_rarely):
        netlist = root / "net.nl"
        netlist.write_text(source, encoding="utf-8")
        argv.append(draw(_value([str(netlist)], [str(root / "missing.nl"), str(root)])))
    if command == "simulate" and not draw(_rarely):
        argv += ["--assign", draw(_assignments(source))]
    for name, values in _flags.get(command, {}).items():
        if name == "--bits" and not draw(_rarely) or draw(st.booleans()):
            argv += [name, draw(values)]
    paths = _value([str(root / "out.txt"), "-"],
                   [str(root / "missing" / "out.txt"), str(root), str(root / "net.nl" / "out")])
    if draw(st.booleans()):
        argv += ["--out", draw(paths)]
    if command == "simulate":
        if draw(st.booleans()):
            argv += ["--waves", draw(paths)]
        if draw(st.booleans()):
            argv.append("--strict")
    if command == "verify" and draw(_rarely):
        network = root / "net.json"
        network.write_text(draw(st.one_of(st.just(nl.lower(nl.parse(FULL_ADDER)).to_json()),
                                          network_docs().map(json.dumps))), encoding="utf-8")
        argv += ["--network", str(network)]
    if draw(_rarely):
        argv.insert(draw(st.integers(1, len(argv))),
                    draw(st.sampled_from(["--bogus", "--out", "-", "extra", "--help"])))
    return argv


class TestCommandLines:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_codes_and_messages(self, tmp_path, data):
        argv = data.draw(command_lines(tmp_path))
        result = CliRunner().invoke(main, argv)
        output = result.output
        event(f"{argv[0]} exits {result.exit_code}")
        assert result.exception is None or isinstance(result.exception, SystemExit), \
            (argv, result.exception)
        assert result.exit_code in (0, 1, 2), (argv, result.exit_code, output)
        assert "Traceback" not in output, (argv, output)
        if result.exit_code == 1:
            assert argv[0] in _NETLIST_COMMANDS, (argv, output)
        if result.exit_code == 2:
            assert re.search("^(error|Error): ", result.stderr, re.MULTILINE), (argv, output)
