"""noiselogic: deterministic simulation and verification of logic carried
on nonzero random reference waveforms.

Two families are implemented end to end: bipolar random telegraph waves
with polynomial NOT/AND gates, and orthogonal neural spike trains with
orthon/adder circuits.  Both keep the logic Low value on a live waveform
(non-squeezed), which is what lets many bits share one wire as a product
or superposition.  A small netlist language compiles to the universal
{NOT, AND} basis and is provable waveform-exact against a plain Boolean
oracle.
"""

from .errors import (
    ConfigError,
    FamilyMismatchError,
    GenerationError,
    InvalidLogicValueError,
    InvariantError,
    LengthMismatchError,
    NetlistError,
    NoiseLogicError,
    OrthogonalityError,
)
from .generators import (
    gen_disjoint_spike_pairs,
    gen_rtw,
    gen_rtw_pairs,
    reference_pairs,
)
from .hyperspace import (
    HyperVector,
    matches_pattern,
    recover_bits,
    rtw_product_vector,
    spike_superposition,
    squeezed_collapse_demo,
)
from .netlist import (
    CompiledNetwork,
    NetlistAst,
    eval_boolean,
    format_netlist,
    lower,
    parse,
)
from .signals import (
    RTW,
    SPIKE,
    Classification,
    GeneratorConfig,
    LogicReferencePair,
    MultiLevelSignal,
    RtwSignal,
    SpikeTrain,
    Verdict,
    Waveform,
    classify,
    classify_rows,
    on_waves,
    universe_rtw,
    universe_spike,
)
from .simulator import (
    BACKENDS,
    EquivalenceReport,
    LatencyReport,
    ReliabilityReport,
    SimulationRun,
    ambiguity_analytic,
    ambiguity_monte_carlo,
    decision_latency,
    min_steps_for,
    rounded_steps_for,
    run,
    verify_equivalence,
)

__version__ = "0.1.0"
