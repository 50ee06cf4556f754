import math
from unittest import mock

import numpy as np
import pytest

import noiselogic as nl
from noiselogic import simulator
from noiselogic.errors import ConfigError
from noiselogic.prng import derive_seed
from noiselogic.simulator import make_backend

from conftest import GateRow, gate_rows, network_from_rows


def _config(seed=42, steps=256, **kw):
    return nl.GeneratorConfig(seed=seed, steps=steps, **kw)


def _and_network():
    return nl.lower(nl.parse("input a b\noutput y = AND a b\n"))


def corrupt_and_to_or(network: nl.CompiledNetwork) -> nl.CompiledNetwork:
    """Swap the first primitive AND into an OR-shaped subgraph (still {NOT, AND})."""
    gates = gate_rows(network)
    idx = next(i for i, g in enumerate(gates) if g.op == "AND")
    victim = gates[idx]
    wires = list(network.wires)
    base = len(wires)
    na, nb, conj = f"{victim.src}$fault0", f"{victim.src}$fault1", f"{victim.src}$fault2"
    wires.extend([na, nb, conj])
    patched = [
        GateRow("NOT", (victim.args[0],), base, victim.src),
        GateRow("NOT", (victim.args[1],), base + 1, victim.src),
        GateRow("AND", (base, base + 1), base + 2, victim.src),
        GateRow("NOT", (base + 2,), victim.out, victim.src),
    ]
    gates[idx:idx + 1] = patched
    # Re-sort so every new wire still precedes its uses: the patched gates
    # write to fresh indices except the final NOT, which reuses victim.out.
    return network_from_rows(wires, network.inputs, network.outputs, gates)


class TestRun:
    @pytest.mark.parametrize("backend", nl.BACKENDS)
    def test_and_true_true_is_exactly_high(self, backend):
        net = _and_network()
        result = nl.run(net, backend, {"a": 1, "b": 1}, _config())
        bk_pair_h = result.waveforms["a"]
        assert result.output_classifications["y"].verdict is nl.Verdict.HIGH
        assert result.waveforms["y"] == bk_pair_h

    @pytest.mark.parametrize("backend", nl.BACKENDS)
    def test_and_false_true_is_exactly_low(self, backend):
        net = _and_network()
        result = nl.run(net, backend, {"a": 0, "b": 1}, _config())
        assert result.output_classifications["y"].verdict is nl.Verdict.LOW
        assert result.waveforms["y"] == result.waveforms["a"]

    def test_spike_decided_at_first_universe_spike(self):
        net = _and_network()
        config = _config()
        result = nl.run(net, "spike", {"a": 1, "b": 1}, config)
        bk = make_backend("spike", config)
        first_u = int(np.argmax(nl.universe_spike(bk.pair).values))
        assert result.output_classifications["y"].decided_at == first_u

    def test_every_wire_classifies(self, full_adder_network):
        for backend in nl.BACKENDS:
            result = nl.run(full_adder_network, backend, {"a": 1, "b": 0, "cin": 1}, _config())
            assert result.ambiguous_wires == []
            assert set(result.classifications) == set(full_adder_network.wires)

    def test_missing_input_rejected(self):
        with pytest.raises(nl.NetlistError):
            nl.run(_and_network(), "spike", {"a": 1}, _config())

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            nl.run(_and_network(), "analog", {"a": 1, "b": 1}, _config())

    def test_seed_determinism(self, full_adder_network):
        a = nl.run(full_adder_network, "rtw-additive-not", {"a": 1, "b": 1, "cin": 0}, _config())
        b = nl.run(full_adder_network, "rtw-additive-not", {"a": 1, "b": 1, "cin": 0}, _config())
        assert all(a.waveforms[w] == b.waveforms[w] for w in full_adder_network.wires)


class TestLoweredDerivedGates:
    # Pairs as the per-family gate tests draw them: 64-step RTW pairs from
    # seeds 0-19 and 48-step spike pairs from seeds 0-9.
    SEEDS_STEPS = {
        "rtw-additive-not": (range(20), 64),
        "rtw-multiplicative-not": (range(20), 64),
        "spike": (range(10), 48),
    }

    @pytest.mark.parametrize("backend", nl.BACKENDS)
    @pytest.mark.parametrize("gate", ["BUF", "OR", "NAND", "NOR", "XOR", "XNOR"])
    def test_matches_boolean_oracle(self, gate, backend):
        args = "a" if gate == "BUF" else "a b"
        ast = nl.parse(f"input a b\noutput y = {gate} {args}\n")
        network = nl.lower(ast)
        seeds, steps = self.SEEDS_STEPS[backend]
        draw = nl.gen_orthogonal_spike_pair if backend == "spike" else nl.gen_rtw_pair
        for seed in seeds:
            config = _config(seed=seed, steps=steps)
            pair = draw(config)
            refs = {1: pair.h, 0: pair.l}
            for a in (0, 1):
                for b in (0, 1):
                    assignment = {"a": a, "b": b}
                    expected = nl.eval_boolean(ast, assignment)["y"]
                    result = nl.run(network, backend, assignment, config)
                    assert result.waveforms["y"] == refs[expected], (seed, a, b)


class TestVerifyEquivalence:
    @pytest.mark.parametrize("backend", nl.BACKENDS)
    def test_full_adder_all_backends(self, full_adder_ast, backend):
        report = nl.verify_equivalence(full_adder_ast, backend, _config())
        assert report.ok
        assert report.checked == 8 and report.passed == 8
        assert report.mode == "exhaustive"

    def test_backends_agree(self, full_adder_ast):
        reports = [nl.verify_equivalence(full_adder_ast, b, _config()) for b in nl.BACKENDS]
        assert all(r.ok for r in reports)

    def test_fault_injection_produces_counterexample(self, full_adder_ast):
        corrupted = corrupt_and_to_or(nl.lower(full_adder_ast))
        report = nl.verify_equivalence(
            full_adder_ast, "rtw-multiplicative-not", _config(), network=corrupted
        )
        assert not report.ok
        example = report.counterexample()
        assert example is not None
        # The corrupted gate really computes OR: re-check the reported case.
        assignment = example["assignment"]
        expected = nl.eval_boolean(full_adder_ast, assignment)
        assert expected[example["output"]] == example["expected"]

    def test_too_many_inputs_without_sampling(self):
        names = " ".join(f"i{k}" for k in range(21))
        lines = ["input " + names]
        prev = "i0"
        for k in range(1, 21):
            lines.append(f"wire x{k} = AND {prev} i{k}")
            prev = f"x{k}"
        lines.append(f"output y = BUF {prev}")
        ast = nl.parse("\n".join(lines) + "\n")
        with pytest.raises(ConfigError):
            nl.verify_equivalence(ast, "rtw-multiplicative-not", _config())
        report = nl.verify_equivalence(
            ast, "rtw-multiplicative-not", _config(), sample=50
        )
        assert report.mode == "sample"
        assert report.checked == 50
        assert report.ok

    def test_report_doc_is_stable(self, full_adder_ast):
        a = nl.verify_equivalence(full_adder_ast, "spike", _config()).to_doc()
        b = nl.verify_equivalence(full_adder_ast, "spike", _config()).to_doc()
        assert a == b
        assert a["pass"] is True


class TestAmbiguityAnalytic:
    def test_values(self):
        assert nl.ambiguity_analytic(1) == 0.5
        assert nl.ambiguity_analytic(3) == 0.125

    def test_83_step_window(self):
        assert 1.03e-25 <= nl.ambiguity_analytic(83) <= 1.04e-25

    def test_zero_rejected(self):
        with pytest.raises(ConfigError):
            nl.ambiguity_analytic(0)


class TestMinSteps:
    def test_examples(self):
        assert nl.min_steps_for(0.5) == 1
        assert nl.min_steps_for(0.1) == 4
        assert nl.min_steps_for(1e-25) == 84

    def test_rounded_convention(self):
        assert nl.rounded_steps_for(1e-25) == 83
        assert nl.rounded_steps_for(0.5) == 1

    def test_guarantee_holds(self):
        for eps in (0.3, 1e-3, 1e-6, 1e-12, 1e-25):
            n = nl.min_steps_for(eps)
            assert 0.5 ** n <= eps
            assert n == 1 or 0.5 ** (n - 1) > eps

    def test_range_checked(self):
        for eps in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ConfigError):
                nl.min_steps_for(eps)


class TestAmbiguityMonteCarlo:
    def test_matches_serial_oracle_small(self):
        n, trials, seed = 3, 2000, 17
        report = nl.ambiguity_monte_carlo(n, trials, seed)
        matches = 0
        for i in range(trials):
            pair = nl.gen_rtw_pair(nl.GeneratorConfig(seed=derive_seed(seed, i), steps=n))
            matches += int(pair.h == pair.l)
        assert report.mc_estimate == matches / trials

    def test_chunking_does_not_change_result(self):
        with mock.patch.object(simulator, "_MC_CHUNK", 1 << 14):
            a = nl.ambiguity_monte_carlo(4, 30_000, seed=5)
        with mock.patch.object(simulator, "_MC_CHUNK", 999):
            b = nl.ambiguity_monte_carlo(4, 30_000, seed=5)
        assert a.mc_estimate == b.mc_estimate

    def test_within_band_small(self):
        for n in (1, 2, 5):
            report = nl.ambiguity_monte_carlo(n, 20_000, seed=1234)
            assert report.within_band, (n, report)

    def test_long_window_estimate_is_essentially_zero(self):
        # Expected hit count at n=20 over 1e5 trials is about 0.1.
        report = nl.ambiguity_monte_carlo(20, 100_000, seed=1234)
        assert report.mc_estimate <= 5 / 100_000
        assert report.within_band

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            nl.ambiguity_monte_carlo(0, 10_000, seed=1)
        with pytest.raises(ConfigError):
            nl.ambiguity_monte_carlo(21, 10_000, seed=1)
        with pytest.raises(ConfigError):
            nl.ambiguity_monte_carlo(5, 999, seed=1)

    @pytest.mark.parametrize("trials, seed", [
        (1500.5, 1), (1500.0, 1), (True, 1), ("1500", 1),
        (1500, 1.5), (1500, True), (1500, np.float64(1)),
        (np.bool_(True), 1), (1500, np.bool_(True)),
    ])
    def test_non_integer_counts_and_seeds_are_config_errors(self, trials, seed):
        with pytest.raises(ConfigError, match="must be an integer"):
            nl.ambiguity_monte_carlo(4, trials, seed)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, np.int64(-1)])
    def test_seed_outside_64_bits_is_a_config_error(self, seed):
        with pytest.raises(ConfigError) as info:
            nl.ambiguity_monte_carlo(4, 1500, seed)
        assert str(info.value) == f"seed must be a 64-bit unsigned integer, got {seed!r}"

    def test_numpy_integer_counts_and_seeds_are_accepted(self):
        with mock.patch.object(simulator, "_MC_CHUNK", 400):
            want = nl.ambiguity_monte_carlo(4, 1500, 1)
            got = nl.ambiguity_monte_carlo(4, np.int64(1500), np.uint64(1))
        assert got == want
        assert type(got.mc_trials) is int


class TestReliabilityReportDoc:
    def test_doc_key_order_is_fixed(self):
        doc = nl.ambiguity_monte_carlo(2, 1000, seed=3).to_doc()
        assert list(doc) == [
            "n", "analytic_ambiguity", "mc_estimate", "mc_trials",
            "sigma", "band_4sigma", "within_band",
        ]


class TestDecisionLatency:
    def test_rates_half_half_decides_at_step_zero(self):
        report = nl.decision_latency(
            _and_network(),
            _config(seed=8, steps=16, spike_rate_h=0.5, spike_rate_l=0.5),
            trials=200,
        )
        assert report.histogram == {0: 200}
        assert report.ambiguous_windows == 0

    def test_geometric_mean_spike(self):
        config = _config(seed=21, steps=64, spike_rate_h=0.3, spike_rate_l=0.3)
        report = nl.decision_latency(_and_network(), config, trials=2000)
        # Geometric with p = 0.6, zero-indexed: mean (1 - p) / p.
        expected = 0.4 / 0.6
        sigma = math.sqrt((1 - 0.6) / 0.6**2 / 2000)
        assert abs(report.mean_decided_at - expected) < 4 * sigma

    def test_rtw_backend_geometric_half(self):
        config = _config(seed=33, steps=64)
        report = nl.decision_latency(
            _and_network(), config, trials=2000, backend="rtw-multiplicative-not"
        )
        assert report.decision_rate == 0.5
        sigma = math.sqrt(0.5 / 0.25 / 2000)
        assert abs(report.mean_decided_at - 1.0) < 4 * sigma

    @pytest.mark.parametrize("trials", [10.5, 10.0, True, np.bool_(True), "10", None])
    def test_non_integer_trials_are_config_errors(self, trials):
        with pytest.raises(ConfigError, match="trials must be an integer"):
            nl.decision_latency(_and_network(), _config(seed=3, steps=32), trials)

    def test_numpy_integer_trials_are_accepted(self):
        config = _config(seed=3, steps=32)
        got = nl.decision_latency(_and_network(), config, np.int64(300))
        assert got == nl.decision_latency(_and_network(), config, 300)
        assert type(got.trials) is int

    def test_determinism(self):
        config = _config(seed=3, steps=32)
        a = nl.decision_latency(_and_network(), config, trials=300)
        b = nl.decision_latency(_and_network(), config, trials=300)
        assert a.histogram == b.histogram
