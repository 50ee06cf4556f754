"""Invariant checks must hold under ``python -O``, which strips ``assert``."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FULL_ADDER

SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_source_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "noiselogic").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements vanish under python -O: {found}"


_CIRCUIT_FAULTS = """
import noiselogic as nl
from noiselogic import rtw_gates, spike_gates

if __debug__:
    raise SystemExit("not running under -O")
spike = nl.LogicReferencePair(nl.SpikeTrain([0, 1, 0, 0, 1]), nl.SpikeTrain([0, 0, 1, 0, 0]))
rtw = nl.reference_pairs(nl.RTW, 3, nl.GeneratorConfig(seed=3, steps=130))
a, b = nl.SpikeTrain([1, 1, 0, 0]).words, nl.SpikeTrain([1, 0, 1, 0]).words
neuron = spike_gates.neuron_eval


def neurons(first, second):
    # The orthon's first neuron makes its lower output, the second its upper one.
    calls = iter([first, second])
    return "neuron_eval", lambda e, i: next(calls)(e, i)


# Each fault fails exactly one output check: an upper neuron that ignores its
# inhibitory input; a lower neuron that also fires where A is silent, which
# the upper one masks out; an orthon whose lower output ignores B; an adder
# that keeps only its first input; an RTW word form that passes x1 through.
for module, (name, fault), call in (
        (spike_gates, neurons(neuron, lambda e, i: e), lambda: spike_gates.orthon_eval(a, b)),
        (spike_gates, neurons(lambda e, i: e & ~i | ~e, neuron),
         lambda: spike_gates.orthon_eval(a, b)),
        (spike_gates, ("orthon_eval", lambda a, b: (a & b, a)),
         lambda: spike_gates.spike_not(spike, spike.h.words)),
        (spike_gates, ("adder_union", lambda *inputs: inputs[0]),
         lambda: spike_gates.spike_and(spike, spike.l.words, spike.h.words)),
        (rtw_gates, ("_and_words", lambda h, l, x1, x2: x1),
         lambda: rtw_gates.and_gate(rtw, rtw.h.words, rtw.l.words))):
    real = getattr(module, name)
    setattr(module, name, fault)
    try:
        call()
    except nl.InvariantError as exc:
        print("InvariantError:", exc)
    setattr(module, name, real)
"""


_WORD_CHECKS = """
import numpy as np

import noiselogic as nl
from noiselogic import rtw_gates, spike_gates

if __debug__:
    raise SystemExit("not running under -O")
for kernel, arity, family in ((rtw_gates.not_additive, 1, nl.RTW),
                              (rtw_gates.and_gate, 2, nl.RTW),
                              (spike_gates.spike_not, 1, nl.SPIKE),
                              (spike_gates.spike_and, 2, nl.SPIKE)):
    pair = nl.reference_pairs(family, 3, nl.GeneratorConfig(seed=3, steps=130))
    h = pair.h.words
    non_copy = h | pair.l.words if pair.family == nl.SPIKE else h ^ np.uint64(1)
    other = nl.reference_pairs(nl.RTW, 3, nl.GeneratorConfig(seed=3, steps=129))
    for call in (lambda: kernel(pair, h[:2], *[h] * (arity - 1)),
                 lambda: kernel(pair, h.astype(np.int64), *[h] * (arity - 1)),
                 lambda: kernel(pair, non_copy, *[h] * (arity - 1)),
                 lambda: nl.on_waves(kernel, pair, other.h, *[pair.h] * (arity - 1))):
        try:
            call()
        except nl.NoiseLogicError as exc:
            print(kernel.__name__, type(exc).__name__, exc)
"""


_LANE_WALK_CHECKS = """
import os
import traceback

import noiselogic as nl
from noiselogic import rtw_gates

if __debug__:
    raise SystemExit("not running under -O")
# Seven inputs: 128 assignments, two lane words of 64.
ast = nl.parse("input a b c d e f g\\nwire n = NOT a\\noutput y = AND n b\\n")
config = nl.GeneratorConfig(seed=3, steps=130)
real_and_words, real_not = rtw_gates._and_words, rtw_gates.not_multiplicative


def non_copy_lane(pair, x):
    # Assignment 70's lane, bit 6 of lane word 1, flipped in the first column only.
    out = real_not(pair, x).copy()
    out[0, 1] ^= 1 << 6
    return out


for name, value in (("_and_words", lambda h, l, x1, x2: x1),
                    ("not_multiplicative", non_copy_lane)):
    setattr(rtw_gates, name, value)
    try:
        nl.verify_equivalence(ast, "rtw-multiplicative-not", config)
    except nl.NoiseLogicError as exc:
        frames = traceback.extract_tb(exc.__traceback__)
        print(type(exc).__name__, exc, "|", "_evaluate" in [f.name for f in frames],
              frames[-1].name, os.path.basename(frames[-1].filename))
    rtw_gates._and_words, rtw_gates.not_multiplicative = real_and_words, real_not
"""


def _run_python(*args: str) -> str:
    """Run the interpreter on ``args``; only its flags, not the suite's environment, set ``-O``."""
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _run_under_O(script: str) -> str:
    return _run_python("-O", "-c", script)


def test_each_circuit_check_raises_its_message_under_O():
    assert _run_under_O(_CIRCUIT_FAULTS).splitlines() == [
        "InvariantError: orthon upper output deviates",
        "InvariantError: orthon lower output deviates",
        "InvariantError: NOT circuit deviates",
        "InvariantError: AND circuit deviates",
        "InvariantError: AND output is not H exactly where both inputs are High",
    ]


def test_lane_walk_checks_raise_in_verify_under_O():
    assert _run_under_O(_LANE_WALK_CHECKS).splitlines() == [
        "InvariantError AND output is not H exactly where both inputs are High | True "
        "and_gate rtw_gates.py",
        "InvalidLogicValueError first input matches neither the High nor the Low reference | "
        "True operands simulator.py",
    ]


def test_word_checks_raise_under_O():
    printed = _run_under_O(_WORD_CHECKS).splitlines()
    assert len(printed) == 16, printed
    for kernel, lines in zip(("not_additive", "and_gate", "spike_not", "spike_and"),
                             (printed[i:i + 4] for i in range(0, 16, 4))):
        role = "input" if "not" in kernel else "first input"
        family = "spike" if kernel.startswith("spike") else "rtw"
        assert lines == [
            f"{kernel} LengthMismatchError {role} has words of shape (2,), expected (words,) "
            "or (words, rows) or (groups, words, rows) with 3 words",
            f"{kernel} FamilyMismatchError {role} must be uint64 words, got int64 words",
            f"{kernel} InvalidLogicValueError {role} matches neither the High nor the Low "
            "reference",
            (f"{kernel} LengthMismatchError {role} has 129 steps, pair has 130"
             if family == "rtw" else
             f"{kernel} FamilyMismatchError {role} must be a SpikeTrain for a spike pair, "
             "got RtwSignal"),
        ]


@pytest.mark.parametrize("backend", ["spike", "rtw-additive-not"])
def test_simulate_waves_is_byte_identical_under_O(tmp_path, backend):
    netlist = tmp_path / "adder.nl"
    netlist.write_text(FULL_ADDER)
    outputs = {}
    for flags in ((), ("-O",)):
        waves = tmp_path / f"waves{''.join(flags)}.csv"
        doc = _run_python(*flags, "-m", "noiselogic.cli", "simulate", str(netlist),
                          "--assign", "a=1,b=1,cin=0", "--backend", backend,
                          "--seed", "4", "--steps", "200", "--waves", str(waves))
        outputs[flags] = (doc, waves.read_bytes())
    assert outputs[()] == outputs[("-O",)]
    assert outputs[()][1].startswith(b"step,a,b,cin,")


_LOWER_ADDER = """
import json
import sys

import noiselogic as nl
from noiselogic import cli, simulator

if __debug__:
    raise SystemExit("not running under -O")
net = nl.lower(nl.parse(open(0).read()))
groups = simulator._slot_groups(net.level_groups)
print(net.to_json(), end="")
nots = int(net.is_not.sum())
print(len(groups), len(net.wires), {"NOT": nots, "AND": len(net.is_not) - nots},
      bool(net.is_not[-1]), net.args[-1].tolist(), net.wires.index(net.src[-1]), net.src[-1])
doc = json.loads(net.to_json())
doc["outputs"] *= 2
for build in (lambda: nl.CompiledNetwork(net.wires, net.inputs, net.outputs, net.is_not[1:],
                                         net.args, net.src),
              lambda: nl.CompiledNetwork.from_json(json.dumps(doc))):
    try:
        build()
    except nl.NetlistError as exc:
        print("NetlistError:", exc)
try:
    cli.main(["stats", "--out", sys.argv[1]])
except SystemExit as exc:
    print("exit", exc.code)
"""


def test_lowering_and_planning_under_O_match_the_golden_network(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", _LOWER_ADDER,
                           str(tmp_path / "missing" / "stats.json")], input=FULL_ADDER,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    golden = (SRC.parent / "tests" / "data" / "golden" / "network.json").read_text()
    text, summary = proc.stdout[:len(golden)], proc.stdout[len(golden):]
    assert text == golden
    assert summary == ("12 25 {'NOT': 13, 'AND': 9} True [23, 23] 24 cout\n"
                       "NetlistError: gate columns differ in length\n"
                       "NetlistError: compiled network declares an output twice\n"
                       "exit 2\n")
    assert "error: cannot write" in proc.stderr


@pytest.mark.parametrize("command", [
    ["simulate", "--assign", "a=1,b=0,cin=1", "--backend", "rtw-multiplicative-not"],
    ["verify", "--backends", "all"],
])
def test_simulate_and_verify_are_byte_identical_under_O(tmp_path, command):
    netlist = tmp_path / "adder.nl"
    netlist.write_text(FULL_ADDER)
    name, *options = command
    outputs = {flags: _run_python(*flags, "-m", "noiselogic.cli", name, str(netlist),
                                  *options, "--seed", "9", "--steps", "96")
               for flags in ((), ("-O",))}
    assert outputs[()] == outputs[("-O",)]
    assert json.loads(outputs[()])["netlist"] == str(netlist)
