"""The public names of the package, pinned: adding or removing one is a deliberate change
to this list, and to the README's Library-changes list."""

import types

import noiselogic as nl

PACKAGE = [
    "BACKENDS", "Classification", "CompiledNetwork", "ConfigError", "EquivalenceReport",
    "FamilyMismatchError", "GenerationError", "GeneratorConfig", "HyperVector",
    "InvalidLogicValueError", "InvariantError", "LatencyReport", "LengthMismatchError",
    "LogicReferencePair", "MultiLevelSignal", "NetlistAst", "NetlistError", "NoiseLogicError",
    "OrthogonalityError", "RTW", "ReliabilityReport", "RtwSignal", "SPIKE", "SimulationRun",
    "SpikeTrain", "Verdict", "Waveform", "ambiguity_analytic", "ambiguity_monte_carlo",
    "classify", "classify_rows", "decision_latency", "eval_boolean", "format_netlist",
    "gen_disjoint_spike_pairs", "gen_rtw_pairs", "lower", "matches_pattern", "min_steps_for",
    "on_waves", "parse", "recover_bits", "reference_pairs", "rounded_steps_for",
    "rtw_product_vector", "run", "spike_superposition", "squeezed_collapse_demo",
    "universe_rtw", "universe_spike", "verify_equivalence",
]

# Public attributes of an instance, and the sequence protocol its class defines.
INSTANCES = {
    "CompiledNetwork": (lambda: nl.lower(nl.parse("input a\noutput y = NOT a\n")), [
        "args", "from_json", "inputs", "is_not", "level_groups", "outputs", "src", "to_json",
        "wires"]),
    "SpikeTrain": (lambda: nl.SpikeTrain([0, 1]), [
        "shape", "to_list", "values", "words", "__len__"]),
    "Waveform": (lambda: nl.Waveform([3, -4]), ["shape", "to_list", "values", "__len__"]),
}

_PROTOCOL = ("__contains__", "__getitem__", "__iter__", "__len__")


def test_the_package_exports_exactly_these_names():
    names = sorted(name for name, value in vars(nl).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PACKAGE


def test_compiled_networks_and_waves_have_exactly_these_public_attributes():
    for cls, (build, want) in INSTANCES.items():
        obj = build()
        assert type(obj).__name__ == cls
        names = [name for name in dir(obj) if not name.startswith("_")]
        names += [name for name in _PROTOCOL if hasattr(type(obj), name)]
        assert names == want, cls
