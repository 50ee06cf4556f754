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


_CORRUPTED_NEURON = """
import noiselogic as nl
from noiselogic import spike_gates

if __debug__:
    raise SystemExit("not running under -O")
# A neuron that ignores its inhibitory input breaks the orthon identities.
spike_gates.neuron_eval = lambda excitatory, inhibitory: excitatory
pair = nl.LogicReferencePair(nl.SpikeTrain([0, 1, 0, 0, 1]), nl.SpikeTrain([0, 0, 1, 0, 0]))
try:
    spike_gates.spike_not(pair, pair.h.words)
except nl.InvariantError as exc:
    print("InvariantError:", exc)
"""


_CORRUPTED_RTW_AND = """
import noiselogic as nl
from noiselogic import rtw_gates

if __debug__:
    raise SystemExit("not running under -O")
# A word form that passes its first input through is not AND: High AND Low
# would read High.
rtw_gates._and_words = lambda h, l, x1, x2: x1
pair = nl.reference_pairs(nl.RTW, 3, nl.GeneratorConfig(seed=3, steps=130))
try:
    rtw_gates.and_gate(pair, pair.h.words, pair.l.words)
except nl.InvariantError as exc:
    print("InvariantError:", exc)
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


def test_corrupted_spike_gate_raises_invariant_error_under_O():
    stdout = _run_under_O(_CORRUPTED_NEURON)
    assert stdout.startswith("InvariantError: orthon"), stdout


def test_corrupted_packed_rtw_and_raises_invariant_error_under_O():
    stdout = _run_under_O(_CORRUPTED_RTW_AND)
    assert stdout.startswith("InvariantError: AND output"), stdout


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
plan = simulator._plan(net)
print(net.to_json(), end="")
print(len(plan.groups), plan.slots, net.gate_counts(),
      bool(net.is_not[-1]), net.args[-1].tolist(), int(net.out[-1]), net.src[-1])
doc = json.loads(net.to_json())
doc["outputs"] *= 2
for build in (lambda: nl.CompiledNetwork(net.wires, net.inputs, net.outputs, net.is_not[1:],
                                         net.args, net.out, net.src),
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
    assert summary == ("16 7 {'NOT': 13, 'AND': 9} True [23, 23] 24 cout\n"
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
