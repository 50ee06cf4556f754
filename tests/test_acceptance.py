"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; the statistical gates use 4-sigma
binomial bands at fixed seeds, and every waveform comparison is exact.
"""

import contextlib
import functools
import json
import math
import random

import numpy as np
import pytest

import noiselogic as nl
from noiselogic import rtw_gates, spike_gates
from noiselogic.generators import gen_disjoint_spike_pairs
from noiselogic.prng import SplitMix64, derive_seed

from conftest import FULL_ADDER, random_netlist_source

# The word kernels, called on waves.
not_additive, not_multiplicative, and_gate, spike_not, spike_and = (
    functools.partial(nl.on_waves, kernel) for kernel in
    (rtw_gates.not_additive, rtw_gates.not_multiplicative, rtw_gates.and_gate,
     spike_gates.spike_not, spike_gates.spike_and))


@contextlib.contextmanager
def _criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({title}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({title}): PASS")


def test_criterion_1_rtw_gate_truth_tables():
    with _criterion(1, "RTW gate truth tables, 100 seeds x 1000 steps, exact"):
        for seed in range(100):
            pair = nl.reference_pairs(nl.RTW, seed, nl.GeneratorConfig(seed=seed, steps=1000))
            refs = {1: pair.h, 0: pair.l}
            assert not_additive(pair, pair.h) == pair.l
            assert not_additive(pair, pair.l) == pair.h
            assert not_multiplicative(pair, pair.h) == pair.l
            assert not_multiplicative(pair, pair.l) == pair.h
            for a in (0, 1):
                for b in (0, 1):
                    assert and_gate(pair, refs[a], refs[b]) == refs[a & b]


def test_criterion_2_cube_identity():
    with _criterion(2, "reference-difference cube identity, 1000 pairs, exact"):
        for seed in range(1000):
            pair = nl.reference_pairs(nl.RTW, seed, nl.GeneratorConfig(seed=seed, steps=1000))
            d = pair.h.values - pair.l.values
            assert np.array_equal(d * d * d, 4 * d)


def _behavioral_not(pair, x):
    u = pair.h.values | pair.l.values
    return nl.SpikeTrain((1 - x.values) * u)


def _behavioral_and(pair, x1, x2):
    return nl.SpikeTrain(
        (x1.values & x2.values & pair.h.values)
        | (x1.values & pair.l.values)
        | (x2.values & pair.l.values)
    )


def test_criterion_3_spike_gate_truth_tables():
    with _criterion(3, "spike gate truth tables + circuit/set-algebra agreement"):
        for seed in range(100):
            pair = nl.reference_pairs(nl.SPIKE, seed, nl.GeneratorConfig(seed=seed, steps=200))
            refs = {1: pair.h, 0: pair.l}
            for x in (pair.h, pair.l):
                circuit = spike_not(pair, x)
                assert circuit == _behavioral_not(pair, x)
            assert spike_not(pair, pair.h) == pair.l
            assert spike_not(pair, pair.l) == pair.h
            for a in (0, 1):
                for b in (0, 1):
                    circuit = spike_and(pair, refs[a], refs[b])
                    assert circuit == _behavioral_and(pair, refs[a], refs[b])
                    assert circuit == refs[a & b]


def test_criterion_4_universality_end_to_end():
    with _criterion(4, "50 random netlists + full adder, 3 backends, exhaustive"):
        rng = random.Random(2024)
        sources = [FULL_ADDER] + [random_netlist_source(rng) for _ in range(50)]
        asts = [nl.parse(s) for s in sources]
        used_gates = {gate for ast in asts for _, gate, _ in ast.assignments}
        assert used_gates == {"NOT", "BUF", "AND", "OR", "NAND", "NOR", "XOR", "XNOR"}
        config = nl.GeneratorConfig(seed=5, steps=256)
        for backend in nl.BACKENDS:
            for ast in asts:
                report = nl.verify_equivalence(ast, backend, config)
                assert report.ok, (backend, report.failures[:1], report.ambiguous[:1])
                assert report.checked == 2 ** len(ast.inputs)


def test_criterion_5_ambiguity_law():
    with _criterion(5, "ambiguity probability 0.5^n within 4-sigma, n = 1..10"):
        for n in range(1, 11):
            report = nl.ambiguity_monte_carlo(n, 100_000, seed=1234)
            assert report.within_band, report.to_doc()


def test_criterion_6_eighty_three_step_figure():
    with _criterion(6, "83-step residual value and both window conventions"):
        assert 1.03e-25 <= nl.ambiguity_analytic(83) <= 1.04e-25
        assert nl.min_steps_for(1e-25) == 84
        assert nl.rounded_steps_for(1e-25) == 83


def test_criterion_7_hyperspace_collapse_and_recovery():
    with _criterion(7, "N=20 hyperspace: no spurious zeros, collapse iff Low, recovery"):
        stream = SplitMix64(606)
        for case in range(100):
            bits = tuple((stream.next_u64() >> k) & 1 for k in range(20))
            rtw_pairs = nl.gen_rtw_pairs(derive_seed(606, case), 256, 20)
            vec = nl.rtw_product_vector(rtw_pairs, bits)
            assert vec.zero_count == 0
            squeezed = nl.squeezed_collapse_demo(rtw_pairs, bits)
            assert squeezed.collapsed == (0 in bits)
            spike_pairs = gen_disjoint_spike_pairs(derive_seed(909, case), 512, 20)
            superposition = nl.spike_superposition(spike_pairs, bits)
            assert nl.recover_bits(superposition) == bits


def test_criterion_8_spike_instantaneity():
    with _criterion(8, "decision latency geometric within 4-sigma per bin; first-spike decisions"):
        trials = 10_000
        config = nl.GeneratorConfig(seed=77, steps=64, spike_rate_h=0.25, spike_rate_l=0.25)
        network = nl.lower(nl.parse("input a b\noutput y = AND a b\n"))
        report = nl.decision_latency(network, config, trials)
        assert report.ambiguous_windows == 0
        p = 0.5
        tail_from = next(k for k in range(64) if trials * (1 - p) ** k * p < 10)
        for k in range(tail_from):
            p_k = (1 - p) ** k * p
            expected = trials * p_k
            sigma = math.sqrt(trials * p_k * (1 - p_k))
            observed = report.histogram.get(k, 0)
            assert abs(observed - expected) <= 4 * sigma, (k, observed, expected)
        p_tail = (1 - p) ** tail_from
        observed_tail = sum(c for k, c in report.histogram.items() if k >= tail_from)
        sigma_tail = math.sqrt(trials * p_tail * (1 - p_tail))
        assert abs(observed_tail - trials * p_tail) <= 4 * sigma_tail

        # Every spike-backend output decides at the pair's first universe spike.
        adder = nl.lower(nl.parse(FULL_ADDER))
        for seed in range(20):
            cfg = nl.GeneratorConfig(seed=seed, steps=128)
            result = nl.run(adder, "spike", {"a": 1, "b": 0, "cin": 1}, cfg)
            pair = nl.reference_pairs(nl.SPIKE, cfg.seed, cfg)
            first_u = int(np.argmax(nl.universe_spike(pair).values))
            for outcome in result.output_classifications.values():
                assert outcome.decided_at == first_u


def _artifact_bundle(tmp_path, tag: str) -> dict[str, str]:
    """Every CSV/JSON artifact kind the toolkit emits, from fixed seeds."""
    from click.testing import CliRunner

    from noiselogic.cli import main as cli_main

    runner = CliRunner()
    tmp_path.mkdir(parents=True, exist_ok=True)
    adder = tmp_path / f"adder-{tag}.nl"
    adder.write_text(FULL_ADDER)
    artifacts: dict[str, str] = {}

    def invoke(name, args):
        result = runner.invoke(cli_main, args)
        assert result.exit_code == 0, (name, result.output)
        artifacts[name] = result.output

    invoke("gen-rtw.csv", ["gen", "--seed", "1", "--steps", "32"])
    invoke("gen-spike.csv", ["gen", "--backend", "spike", "--seed", "7", "--steps", "32"])
    simulate = ["simulate", str(adder), "--assign", "a=1,b=1,cin=0", "--seed", "9",
                "--steps", "64"]
    invoke("simulate.json", simulate)
    for name, backend in (("simulate-waves-rtw.csv", []),
                          ("simulate-waves-spike.csv", ["--backend", "spike"])):
        waves = tmp_path / f"{tag}-{name}"
        invoke(name, simulate + backend + ["--waves", str(waves)])
        artifacts[name] = waves.read_text()
    invoke("verify.json", ["verify", str(adder), "--seed", "9", "--steps", "64"])
    invoke("stats.json", ["stats", "--n", "3", "--trials", "2000", "--seed", "1234",
                          "--epsilon", "1e-25"])
    # Five chunks of the ambiguity sweep, the last one partial.
    invoke("stats-sweep.json", ["stats", "--n", "14", "--trials", "300000", "--seed", "2718"])
    invoke("hyperspace-rtw.json", ["hyperspace", "--family", "rtw", "--bits", "10110",
                                   "--seed", "4", "--steps", "64"])
    invoke("hyperspace-spike.json", ["hyperspace", "--family", "spike", "--bits", "10110",
                                     "--seed", "4", "--steps", "256"])
    artifacts["network.json"] = nl.lower(nl.parse(FULL_ADDER)).to_json()
    # Patch the run-dependent netlist path out of the simulate report so the
    # bundle depends on nothing but seeds.
    doc = json.loads(artifacts["simulate.json"])
    doc["netlist"] = "adder.nl"
    artifacts["simulate.json"] = json.dumps(doc, indent=2) + "\n"
    doc = json.loads(artifacts["verify.json"])
    doc["netlist"] = "adder.nl"
    artifacts["verify.json"] = json.dumps(doc, indent=2) + "\n"
    return artifacts


# A generated netlist of 294 source gates (14 inputs, 1149 primitives),
# simulated on every backend.  Its golden, ``simulate-large.json``, is the
# three ``noiselogic simulate large.nl`` documents one after another, in
# ``BACKENDS`` order, as printed where large.nl is.
SIMULATE_LARGE = random_netlist_source(random.Random(6), 16, 320)
SIMULATE_LARGE_ARGS = [
    "--assign", "i0=1,i1=0,i2=1,i3=1,i4=0,i5=0,i6=1,i7=0,i8=1,i9=1,i10=1,i11=0,i12=0,i13=1",
    "--seed", "9", "--steps", "200"]


def test_simulate_large_matches_its_golden(tmp_path, monkeypatch):
    import pathlib

    from click.testing import CliRunner

    from noiselogic.cli import main as cli_main

    monkeypatch.chdir(tmp_path)
    pathlib.Path("large.nl").write_text(SIMULATE_LARGE)
    documents = []
    for backend in nl.BACKENDS:
        result = CliRunner().invoke(
            cli_main, ["simulate", "large.nl", *SIMULATE_LARGE_ARGS, "--backend", backend])
        assert result.exit_code == 0, result.output
        documents.append(result.output)
    golden = pathlib.Path(__file__).parent / "data" / "golden" / "simulate-large.json"
    assert "".join(documents) == golden.read_text()


def _pin20_source() -> str:
    """The 34th draw of a seed-7 stream of netlists of up to 20 inputs: 20 inputs, 136
    primitives."""
    rng = random.Random(7)
    for _ in range(34):
        source = random_netlist_source(rng, max_inputs=20)
    return source


# The exhaustive limit in practice: every one of 2**20 assignments on every
# backend.  Its golden, ``verify-pin20.json``, is ``noiselogic verify pin20.nl
# --seed 0 --steps 256`` as printed where pin20.nl is, and
# ``verify-pin20-sample.json`` the same with ``--sample 150001``.
PIN20 = _pin20_source()


def test_verify_pin20_matches_its_golden(tmp_path, monkeypatch):
    import pathlib

    from click.testing import CliRunner

    from noiselogic.cli import main as cli_main

    monkeypatch.chdir(tmp_path)
    pathlib.Path("pin20.nl").write_text(PIN20)
    result = CliRunner().invoke(cli_main, ["verify", "pin20.nl", "--seed", "0", "--steps", "256"])
    assert result.exit_code == 0, result.output
    golden = pathlib.Path(__file__).parent / "data" / "golden" / "verify-pin20.json"
    assert result.output == golden.read_text()
    doc = json.loads(result.output)
    assert [r["checked"] for r in doc["backends"]] == [2**20] * len(nl.BACKENDS)


def test_verify_pin20_sample_matches_its_golden(tmp_path, monkeypatch):
    import pathlib

    from click.testing import CliRunner

    from noiselogic.cli import main as cli_main

    # 150001 samples: not a whole number of lane words, and more than one chunk.
    monkeypatch.chdir(tmp_path)
    pathlib.Path("pin20.nl").write_text(PIN20)
    result = CliRunner().invoke(cli_main, ["verify", "pin20.nl", "--seed", "0", "--steps", "256",
                                           "--sample", "150001"])
    assert result.exit_code == 0, result.output
    golden = pathlib.Path(__file__).parent / "data" / "golden" / "verify-pin20-sample.json"
    assert result.output == golden.read_text()
    doc = json.loads(result.output)
    assert [r["checked"] for r in doc["backends"]] == [150001] * len(nl.BACKENDS)


def test_criterion_9_determinism(tmp_path):
    import pathlib

    with _criterion(9, "byte-identical artifacts on rerun + pinned goldens"):
        first = _artifact_bundle(tmp_path / "a", "a")
        second = _artifact_bundle(tmp_path / "b", "b")
        assert first == second
        golden_dir = pathlib.Path(__file__).parent / "data" / "golden"
        for name, text in first.items():
            golden = (golden_dir / name).read_text()
            assert text == golden, f"artifact {name} deviates from its pinned golden"


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
