"""The benchmark's outside-in tracer must keep seeing the package's layers.

``perfbench/tracing.py`` wraps module attributes (``rtw_gates.and_gate``,
``simulator.eval_boolean``, ...) that the package resolves at call time.
A refactor that binds a kernel or helper at import time would make those
wrappers miss every call, and the per-layer metrics would silently read
zero.  This test loads the tracer by path, unchanged, and runs ``verify``
through the CLI the way the benchmark does.
"""

import importlib
import importlib.util
from pathlib import Path

from click.testing import CliRunner

import noiselogic as nl
from noiselogic.cli import main

from conftest import FULL_ADDER

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = ("cli", "simulator", "rtw_gates", "spike_gates", "generators", "prng")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_every_layer_of_verify(tmp_path):
    path = tmp_path / "adder.nl"
    path.write_text(FULL_ADDER)
    tracer = _load_tracing().Tracer()
    modules = {name: importlib.import_module(f"noiselogic.{name}") for name in MODULES}
    modules["signals.Waveform"] = nl.Waveform
    original_and = modules["rtw_gates"].and_gate
    tracer.install(modules)
    try:
        result = CliRunner().invoke(main, ["verify", str(path), "--steps", "64"])
    finally:
        tracer.uninstall()
    assert result.exit_code == 0, result.output
    assert modules["rtw_gates"].and_gate is original_and

    ands = nl.lower(nl.parse(FULL_ADDER)).gate_counts()["AND"]
    # Eight assignments fit one chunk: one kernel call per primitive per
    # backend, and one oracle call and one backend per backend.
    assert tracer.calls("rtw_gates.and") == 2 * ands
    assert tracer.calls("spike_gates.and") == ands
    assert tracer.calls("netlist.eval_boolean") == len(nl.BACKENDS)
    assert tracer.calls("simulator.make_backend") == len(nl.BACKENDS)
    for layer in ("rtw_gates.not", "spike_gates.not", "spike_gates.orthon",
                  "simulator.verify", "netlist.parse", "signals.waveform_new"):
        assert tracer.calls(layer) > 0, layer
