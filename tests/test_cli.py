import json
from unittest import mock

import pytest
from click.testing import CliRunner

from noiselogic import lower, parse
from noiselogic import cli
from noiselogic.cli import main

from conftest import FULL_ADDER


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def adder_path(tmp_path):
    path = tmp_path / "adder.nl"
    path.write_text(FULL_ADDER)
    return str(path)


class TestGen:
    def test_rtw_csv_columns(self, runner):
        result = runner.invoke(main, ["gen", "--seed", "1", "--steps", "8"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "step,H,L,U"
        assert len(lines) == 9
        for line in lines[1:]:
            step, h, l, u = line.split(",")
            assert int(h) in (-1, 1) and int(l) in (-1, 1)
            assert int(u) == int(h) + int(l)

    def test_spike_csv_disjoint_columns(self, runner):
        result = runner.invoke(
            main,
            ["gen", "--backend", "spike", "--seed", "3", "--steps", "32",
             "--rate-h", "0.3", "--rate-l", "0.3"],
        )
        assert result.exit_code == 0
        for line in result.output.strip().splitlines()[1:]:
            _, h, l, u = line.split(",")
            assert int(h) * int(l) == 0
            assert int(u) == int(h) | int(l)

    def test_deterministic(self, runner):
        args = ["gen", "--seed", "9", "--steps", "16"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output

    def test_zero_steps_exit_2(self, runner):
        result = runner.invoke(main, ["gen", "--steps", "0"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args, message", [
        (["gen", "--backend", "spike", "--steps", "1"],
         "2 non-empty disjoint spike trains need at least 2 steps, got steps=1"),
        (["hyperspace", "--family", "spike", "--bits", "10110", "--steps", "9"],
         "10 non-empty disjoint spike trains need at least 10 steps, got steps=9"),
        (["hyperspace", "--family", "spike", "--bits", "10110", "--steps", "10"],
         "could not fill 10 non-empty disjoint trains in 64 attempts"),
    ], ids=["gen-one-step", "hyperspace-too-few-steps", "hyperspace-retries"])
    def test_spike_trains_without_room_exit_2(self, runner, args, message):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert f"error: {message}" in result.output

    def test_json_format(self, runner):
        result = runner.invoke(main, ["gen", "--seed", "1", "--steps", "8", "--format", "json"])
        doc = json.loads(result.output)
        # Golden pair fixture (child streams 0 and 1 of seed 1).
        assert doc["H"] == [-1, 1, -1, 1, -1, 1, 1, -1]
        assert doc["L"] == [-1, -1, -1, 1, -1, 1, -1, -1]

    def test_out_file(self, runner, tmp_path):
        out = tmp_path / "waves.csv"
        result = runner.invoke(main, ["gen", "--seed", "2", "--steps", "4", "--out", str(out)])
        assert result.exit_code == 0
        assert result.output == ""
        assert out.read_text().startswith("step,H,L,U\n")


class TestSimulate:
    def test_full_adder_bindings(self, runner, adder_path):
        result = runner.invoke(
            main, ["simulate", adder_path, "--assign", "a=1,b=1,cin=0"]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["outputs"]["sum"]["value"] == "Low"
        assert doc["outputs"]["cout"]["value"] == "High"
        assert doc["ambiguous_wires"] == []

    def test_spike_backend_reports_decided_at(self, runner, adder_path):
        result = runner.invoke(
            main,
            ["simulate", adder_path, "--assign", "a=0,b=1,cin=1", "--backend", "spike"],
        )
        doc = json.loads(result.output)
        for name in ("sum", "cout"):
            assert isinstance(doc["outputs"][name]["decided_at"], int)

    def test_missing_binding_exit_2(self, runner, adder_path):
        result = runner.invoke(main, ["simulate", adder_path, "--assign", "a=1,b=1"])
        assert result.exit_code == 2

    def test_bad_binding_syntax_exit_2(self, runner, adder_path):
        result = runner.invoke(main, ["simulate", adder_path, "--assign", "a=2,b=1,cin=0"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("assign, message", [
        ("a=1,b=1,cin=0,zz=1", "not inputs: zz"),
        ("a=1,b=1,cin=0,a=0", "'a' is bound more than once"),
        ("a=1,b=1,cin=1,=0", "binding '=0' must look like name=0 or name=1"),
        ("=1", "binding '=1' must look like name=0 or name=1"),
    ], ids=["stray-name", "duplicate-name", "empty-name", "only-an-empty-name"])
    def test_stray_or_duplicate_binding_exit_2(self, runner, adder_path, assign, message):
        result = runner.invoke(main, ["simulate", adder_path, "--assign", assign])
        assert result.exit_code == 2
        assert message in result.output

    def test_parse_error_reports_line(self, runner, tmp_path):
        bad = tmp_path / "bad.nl"
        bad.write_text("input a\nwire x = AND a ghost\noutput y = NOT x\n")
        result = runner.invoke(main, ["simulate", str(bad), "--assign", "a=1"])
        assert result.exit_code == 2
        assert "line 2" in result.output

    def test_waves_dump(self, runner, adder_path, tmp_path):
        waves = tmp_path / "waves.csv"
        result = runner.invoke(
            main,
            ["simulate", adder_path, "--assign", "a=1,b=0,cin=1",
             "--steps", "16", "--waves", str(waves)],
        )
        assert result.exit_code == 0
        header = waves.read_text().splitlines()[0]
        assert header.startswith("step,a,b,cin,")
        assert header.count(",") == 25  # step column + 25 wires


class TestVerify:
    def test_full_adder_all_backends_exit_0(self, runner, adder_path):
        result = runner.invoke(main, ["verify", adder_path, "--steps", "64"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["pass"] is True
        assert [b["backend"] for b in doc["backends"]] == [
            "rtw-additive-not", "rtw-multiplicative-not", "spike",
        ]

    def test_fault_injected_network_exit_1(self, runner, adder_path, tmp_path):
        import noiselogic as nl
        from test_simulator import corrupt_and_to_or

        corrupted = corrupt_and_to_or(nl.lower(nl.parse(FULL_ADDER)))
        net_path = tmp_path / "corrupt.json"
        net_path.write_text(corrupted.to_json())
        result = runner.invoke(
            main,
            ["verify", adder_path, "--steps", "64", "--network", str(net_path),
             "--backends", "rtw-multiplicative-not"],
        )
        assert result.exit_code == 1
        assert "counterexample" in result.output

    def test_21_inputs_refused_without_sample(self, runner, tmp_path):
        names = " ".join(f"i{k}" for k in range(21))
        lines = ["input " + names, "wire x0 = AND i0 i1"]
        for k in range(2, 21):
            lines.append(f"wire x{k - 1} = AND x{k - 2} i{k}")
        lines.append("output y = BUF x19")
        path = tmp_path / "wide.nl"
        path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["verify", str(path), "--steps", "16"])
        assert result.exit_code == 2
        assert "sample" in result.output

    @pytest.mark.parametrize("bad_file", ["netlist", "network"])
    def test_non_utf8_input_exit_2(self, runner, tmp_path, bad_file):
        netlist = tmp_path / "and.nl"
        network = tmp_path / "net.json"
        netlist.write_text("input a b\noutput y = AND a b\n")
        network.write_text(lower(parse(netlist.read_text())).to_json())
        bad = netlist if bad_file == "netlist" else network
        bad.write_bytes(bad.read_bytes().replace(b"a", b"\xff", 1))
        result = runner.invoke(main, ["verify", str(netlist), "--network", str(network)])
        assert result.exit_code == 2
        assert f"{bad} is not UTF-8 text" in result.output

    def test_unknown_backend_exit_2(self, runner, adder_path):
        result = runner.invoke(main, ["verify", adder_path, "--backends", "quantum"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("backends, message", [
        (",", "empty backend list"),
        ("", "empty backend list"),
        (" , ,", "empty backend list"),
        ("spike,spike", "backend 'spike' is named more than once"),
        ("rtw-additive-not, spike ,rtw-additive-not",
         "backend 'rtw-additive-not' is named more than once"),
    ])
    def test_empty_or_repeated_backend_list_exit_2(self, runner, adder_path, backends, message):
        # Checking no backend, or one twice, is no proof: refuse it as a bad option.
        result = runner.invoke(main, ["verify", adder_path, "--backends", backends])
        assert result.exit_code == 2
        assert f"error: {message}" in result.output
        assert '"pass"' not in result.output

    _AND_GATE = {"op": "AND", "args": ["a", "b"], "out": "y", "src": "y"}

    @pytest.mark.parametrize("document, message", [
        ({"inputs": ["a", "b"], "outputs": ["y"],
          "gates": [{**_AND_GATE, "args": ["a"]}]}, "AND takes 2 argument(s), got 1"),
        ({"inputs": ["a", "b"], "outputs": ["y"],
          "gates": [{**_AND_GATE, "op": "NOT"}]}, "NOT takes 1 argument(s), got 2"),
        ([1, 2], "must be a JSON object"),
        ('{"inputs": [', "not valid JSON"),
        ({"inputs": ["a", "b", "a"], "outputs": ["y"], "gates": [_AND_GATE]},
         "error: compiled network names a wire twice"),
        ({"inputs": ["a", "b", "c"], "outputs": ["y"], "gates": [_AND_GATE]},
         "differ from the netlist inputs"),
        ({"inputs": ["a", "b"], "outputs": ["z"], "gates": [{**_AND_GATE, "out": "z"}]},
         "differ from the netlist outputs"),
        ({"inputs": ["a", "b"], "outputs": [], "gates": []},
         "differ from the netlist outputs"),
        ({"inputs": ["a", "b"], "outputs": ["y", "y"],
          "gates": [{"op": "NOT", "args": ["a"], "out": "y", "src": "y"}]},
         "declares an output twice"),
        ({"inputs": ["a", "b"], "outputs": ["z"], "gates": [_AND_GATE]},
         "output 'z' is never defined"),
    ], ids=["and-one-arg", "not-two-args", "not-an-object", "invalid-json",
            "duplicate-inputs", "inputs-differ", "outputs-differ", "no-outputs",
            "duplicate-outputs", "undefined-output"])
    def test_malformed_network_exit_2(self, runner, tmp_path, document, message):
        netlist = tmp_path / "and.nl"
        netlist.write_text("input a b\noutput y = AND a b\n")
        net_path = tmp_path / "net.json"
        net_path.write_text(document if isinstance(document, str) else json.dumps(document))
        result = runner.invoke(
            main, ["verify", str(netlist), "--steps", "16", "--network", str(net_path)]
        )
        assert result.exit_code == 2
        assert message in result.output


class TestStats:
    def test_n3_analytic(self, runner):
        result = runner.invoke(
            main, ["stats", "--n", "3", "--trials", "5000", "--seed", "1234"]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["ambiguity"]["analytic_ambiguity"] == 0.125
        assert doc["ambiguity"]["within_band"] is True

    def test_epsilon_row_shows_both_conventions(self, runner):
        result = runner.invoke(main, ["stats", "--epsilon", "1e-25"])
        doc = json.loads(result.output)
        row = next(r for r in doc["min_steps"] if r["epsilon"] == 1e-25)
        assert row["steps_le"] == 84
        assert row["steps_rounded"] == 83

    def test_n0_exit_2(self, runner):
        result = runner.invoke(main, ["stats", "--n", "0"])
        assert result.exit_code == 2

    def test_deterministic(self, runner):
        args = ["stats", "--n", "2", "--trials", "2000", "--seed", "7"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output


class TestHyperspace:
    def test_rtw_report(self, runner):
        result = runner.invoke(main, ["hyperspace", "--family", "rtw", "--bits", "101"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["zero_count"] == 0
        assert doc["collapsed"] is True  # squeezed form dies on the 0 bit
        assert doc["recovered_bits"] is None

    def test_rtw_all_high_does_not_collapse(self, runner):
        result = runner.invoke(main, ["hyperspace", "--family", "rtw", "--bits", "111"])
        doc = json.loads(result.output)
        assert doc["collapsed"] is False

    def test_spike_recovery(self, runner):
        result = runner.invoke(
            main, ["hyperspace", "--family", "spike", "--bits", "1011", "--steps", "128"]
        )
        doc = json.loads(result.output)
        assert doc["recovered_bits"] == "1011"
        assert doc["squeezed_recovered_bits"] == "1?11"

    def test_empty_bits_exit_2(self, runner):
        result = runner.invoke(main, ["hyperspace", "--bits", ""])
        assert result.exit_code == 2

    def test_non_binary_bits_exit_2(self, runner):
        result = runner.invoke(main, ["hyperspace", "--bits", "10a"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("family", ["rtw", "spike"])
    def test_bit_cap_exits_2_before_any_pair_is_drawn(self, runner, family):
        # 3000 spike bits cannot fill 6000 disjoint trains at 256 steps; the
        # cap must answer first, without a draw.
        with mock.patch.object(cli, "gen_rtw_pairs") as rtw, \
                mock.patch.object(cli, "gen_disjoint_spike_pairs") as spike:
            result = runner.invoke(main, ["hyperspace", "--family", family, "--bits", "1" * 3000])
        assert result.exit_code == 2
        assert "error: 3000 bits exceed the configured cap of 24" in result.output
        assert not rtw.called and not spike.called


class TestUnwritableOutput:
    """An output that cannot be written is a usage error: exit 2, nothing on stdout."""

    COMMANDS = {
        "gen": ["gen", "--steps", "8"],
        "simulate": ["simulate", "ADDER", "--assign", "a=1,b=0,cin=1", "--steps", "16"],
        "verify": ["verify", "ADDER", "--steps", "16"],
        "stats": ["stats"],
        "hyperspace": ["hyperspace", "--bits", "101"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_out_in_a_missing_directory_exits_2(self, runner, adder_path, tmp_path, command):
        out = tmp_path / "missing" / "out.txt"
        argv = [adder_path if arg == "ADDER" else arg for arg in self.COMMANDS[command]]
        result = runner.invoke(main, [*argv, "--out", str(out)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"error: cannot write {out}: No such file or directory" in result.stderr

    def test_simulate_waves_in_a_missing_directory_prints_nothing(self, runner, adder_path,
                                                                  tmp_path):
        waves = tmp_path / "missing" / "waves.csv"
        result = runner.invoke(main, ["simulate", adder_path, "--assign", "a=1,b=0,cin=1",
                                      "--steps", "16", "--waves", str(waves)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"error: cannot write {waves}: No such file or directory" in result.stderr

    def test_simulate_waves_to_stdout_exits_2_and_writes_nothing(self, runner, adder_path,
                                                                 tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, ["simulate", adder_path, "--assign", "a=1,b=0,cin=1",
                                      "--steps", "16", "--waves", "-"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: --waves needs a file path")
        assert not (tmp_path / "-").exists()
        assert [path.name for path in tmp_path.iterdir()] == ["adder.nl"]

    def test_a_config_error_leaves_an_existing_out_untouched(self, runner, adder_path,
                                                              tmp_path):
        out = tmp_path / "out.json"
        out.write_text("kept")
        result = runner.invoke(main, ["simulate", adder_path, "--assign", "a=1",
                                      "--out", str(out), "--waves", str(tmp_path / "w.csv")])
        assert result.exit_code == 2
        assert out.read_text() == "kept" and not (tmp_path / "w.csv").exists()
