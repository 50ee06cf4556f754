"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q

They are not part of the repository's test suite (pytest's ``testpaths``
names only ``tests/``).
"""

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}


def _smoke_runner(tmp_path):
    nl = worker._import_package(ROOT)
    wl = workloads.build("verify-exhaustive", 3, tmp_path, smoke=True)
    wl.compute_digests()
    return nl, wl, worker.Runner(nl, wl, worker.program_setup(nl, wl))


def test_gate_counts_a_corrupted_network_as_a_failed_op(tmp_path):
    nl, wl, runner = _smoke_runner(tmp_path)
    adder = next(op for op in wl.ops if op.netlist == "adder" and op.backend == "spike")
    network = json.loads(nl.lower(nl.parse(workloads.FULL_ADDER)).to_json())
    last = network["gates"][-1]
    last["args"] = [network["inputs"][0]]        # output no longer depends on its gate input
    corrupted = tmp_path / "adder-corrupted.json"
    corrupted.write_text(json.dumps(network))
    bad = workloads.Op(**{**adder.__dict__, "argv": [*adder.argv, "--network", str(corrupted)]})
    wl.ops.append(bad)

    runner.run_round(0)
    failures = [r for r in runner.records if r[3] is not None]
    assert [wl.ops[r[1]] for r in failures] == [bad]
    assert worker.op_fail_ratio(runner.records) == 1 / len(wl.ops)
    metrics, detail = worker.end_to_end(wl, runner.records)
    assert detail["ops_ok"] == len(wl.ops) - 1


def test_gate_catches_a_document_that_differs(tmp_path):
    _, wl, runner = _smoke_runner(tmp_path)
    op = wl.ops[0]
    op.digest = workloads.digest("{}\n")
    runner.run_round(0)
    assert runner.records[0][3] == "output differs from the expected document"
    assert all(r[3] is None for r in runner.records[1:])


def test_trace_reports_zero_for_a_missing_target():
    module = SimpleNamespace(spike_and=lambda a, b: a + b)
    tracer = Tracer()
    tracer.install({"spike_gates": module, "simulator": SimpleNamespace()})
    assert module.spike_and(1, 2) == 3
    tracer.uninstall()
    assert tracer.calls("spike_gates.and") == 1
    assert tracer.calls("simulator.make_backend") == 0
    assert tracer.self_times()["spike_gates.and"] >= 0.0


def test_self_times_add_up_to_the_root_spans():
    tracer = Tracer()
    inner = tracer.span("inner", lambda: sum(range(1000)))
    outer = tracer.span("outer", lambda: [inner() for _ in range(3)])
    outer()
    outer()
    self_s = tracer.self_times()
    assert tracer.calls("inner") == 6
    assert sum(self_s.values()) == pytest.approx(tracer.root_wall())


def test_netlist_generator_hits_its_primitive_budget():
    import random

    rng = random.Random(5)
    for n_inputs, prims in ((8, 40), (12, 5), (32, 4334)):
        net = workloads.random_netlist(rng, n_inputs, prims)
        assert net.primitives == prims
        assert len(net.inputs) == n_inputs and len(net.outputs) in (1, 2)
