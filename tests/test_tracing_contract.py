"""The benchmark's outside-in tracer must keep seeing the package's layers.

``perfbench/tracing.py`` wraps module attributes (``rtw_gates.and_gate``,
``simulator.eval_boolean``, ...) that the package resolves at call time.
A refactor that binds a kernel or helper at import time would make those
wrappers miss every call, and the per-layer metrics would silently read
zero.  These tests load the tracer by path, unchanged, and run ``verify``
and ``simulate`` through the CLI and the Monte-Carlo sweeps through the
API, the way the benchmark does.
"""

import importlib
import importlib.util
import random
from pathlib import Path

from click.testing import CliRunner

import noiselogic as nl
from noiselogic.cli import main

from conftest import FULL_ADDER, level_groups, random_netlist_source

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = ("cli", "simulator", "rtw_gates", "spike_gates", "generators", "prng")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(fn):
    """Run ``fn`` under an installed tracer; return the tracer and the result."""
    tracer = _load_tracing().Tracer()
    modules = {name: importlib.import_module(f"noiselogic.{name}") for name in MODULES}
    modules["signals.Waveform"] = nl.Waveform
    original_and = modules["rtw_gates"].and_gate
    tracer.install(modules)
    try:
        result = fn()
    finally:
        tracer.uninstall()
    assert modules["rtw_gates"].and_gate is original_and
    return tracer, result


def _level_groups(network: nl.CompiledNetwork) -> tuple[int, int]:
    """The numbers of (topological level, op) groups of ANDs and of NOTs."""
    groups = level_groups(network)
    and_groups = sum(gates[0].op == "AND" for gates in groups)
    return and_groups, len(groups) - and_groups


def test_tracer_counts_every_layer_of_verify(tmp_path):
    path = tmp_path / "adder.nl"
    path.write_text(FULL_ADDER)
    tracer, result = _traced(
        lambda: CliRunner().invoke(main, ["verify", str(path), "--steps", "64"]))
    assert result.exit_code == 0, result.output

    network = nl.lower(nl.parse(FULL_ADDER))
    and_groups, not_groups = _level_groups(network)
    assert and_groups < network.gate_counts()["AND"]
    # Eight assignments fit one chunk: one kernel call per (level, op)
    # group per backend, and one oracle call and one backend per backend.
    assert tracer.calls("rtw_gates.and") == 2 * and_groups
    assert tracer.calls("spike_gates.and") == and_groups
    assert tracer.calls("rtw_gates.not") == 2 * not_groups
    assert tracer.calls("spike_gates.not") == not_groups
    assert tracer.calls("netlist.eval_boolean") == len(nl.BACKENDS)
    assert tracer.calls("simulator.make_backend") == len(nl.BACKENDS)
    for layer in ("rtw_gates.not", "spike_gates.not", "spike_gates.orthon",
                  "simulator.verify", "netlist.parse", "signals.waveform_new"):
        assert tracer.calls(layer) > 0, layer


def test_tracer_counts_the_monte_carlo_sweeps():
    network = nl.lower(nl.parse("input a b\noutput y = AND a b\n"))
    config = nl.GeneratorConfig(seed=1, steps=64)

    def sweeps():
        # 300 trials fit one chunk of the one-AND network.  The call goes
        # through the module attribute, as the benchmark's does.
        for backend in nl.BACKENDS:
            report = nl.simulator.decision_latency(network, config, 300, backend)
            assert report.ambiguous_windows == 0
        return nl.ambiguity_monte_carlo(4, 1000, 1)

    tracer, report = _traced(sweeps)
    assert report.within_band
    # One kernel call per primitive per chunk: one AND per RTW backend.
    assert tracer.calls("rtw_gates.and") == 2
    assert tracer.calls("spike_gates.and") == 1
    assert tracer.calls("simulator.decision_latency") == len(nl.BACKENDS)
    # The High and the Low batch of each RTW backend's one chunk.
    assert tracer.calls("generators.rtw_sign_matrix") == 4
    assert tracer.calls("prng.mix64_array") > 0


def test_tracer_counts_one_kernel_call_per_level_group_of_simulate(tmp_path):
    # simulate runs each (topological level, op) group of gates as one batch.
    source = random_netlist_source(random.Random(3), 8, 60)
    path = tmp_path / "net.nl"
    path.write_text(source)
    network = nl.lower(nl.parse(source))
    and_groups, not_groups = _level_groups(network)
    assert and_groups < network.gate_counts()["AND"]

    assign = ",".join(f"{name}=1" for name in network.inputs)

    def simulate_all():
        for backend in nl.BACKENDS:
            result = CliRunner().invoke(main, ["simulate", str(path), "--assign", assign,
                                               "--backend", backend, "--steps", "64"])
            assert result.exit_code == 0, result.output

    tracer, _ = _traced(simulate_all)
    assert tracer.calls("simulator.run") == len(nl.BACKENDS)
    assert tracer.calls("rtw_gates.and") == 2 * and_groups
    assert tracer.calls("spike_gates.and") == and_groups
    assert tracer.calls("rtw_gates.not") == 2 * not_groups
    assert tracer.calls("spike_gates.not") == not_groups
