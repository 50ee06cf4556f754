"""Expected output documents, computed without the package under test.

The correctness gate compares each op's output byte for byte with a
document built here.  Everything this module needs is either the
benchmark's own netlist (its Boolean function table is repeated below) or
the reference-wave stream layout that ``noiselogic.generators`` documents
as fixed: SplitMix64 outputs ``mix64(seed + k * GOLDEN)``, child ``i`` of a
seed is its ``(i+1)``-th output, RTW High/Low use children 0/1 and take the
top bit per step, and a spike pair attempt ``r`` draws one word per step
from child ``r`` into the bands [0, rate_h) and [rate_h, rate_h + rate_l).
"""

import json
import math

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1
_U = np.uint64

BOOL_FN = {
    "NOT": lambda a: 1 - a,
    "BUF": lambda a: a,
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "NAND": lambda a, b: 1 - (a & b),
    "NOR": lambda a, b: 1 - (a | b),
    "XOR": lambda a, b: a ^ b,
    "XNOR": lambda a, b: 1 - (a ^ b),
}

_DEFAULT_EPSILONS = (1e-3, 1e-6, 1e-12, 1e-25)


def to_text(doc) -> str:
    """The CLI's JSON rendering: two-space indent, trailing newline."""
    return json.dumps(doc, indent=2) + "\n"


def _mix(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.uint64, copy=True)
    z ^= z >> _U(30)
    z *= _U(_MUL1)
    z ^= z >> _U(27)
    z *= _U(_MUL2)
    z ^= z >> _U(31)
    return z


def _children(seeds: np.ndarray, index: int) -> np.ndarray:
    return _mix(seeds + _U((GOLDEN * (index + 1)) & _MASK))


def _stream(seeds: np.ndarray, steps: int) -> np.ndarray:
    ks = np.arange(1, steps + 1, dtype=np.uint64)
    return _mix(seeds[:, None] + _U(GOLDEN) * ks[None, :])


def _first_true(mask: np.ndarray) -> np.ndarray:
    """Index of the first True per row, -1 for rows without one."""
    return np.where(mask.any(axis=1), np.argmax(mask, axis=1), -1)


def rtw_decision_steps(seeds: np.ndarray, steps: int) -> np.ndarray:
    """First step where an RTW pair's High and Low differ (-1: never)."""
    h = _stream(_children(seeds, 0), steps) >> _U(63)
    l = _stream(_children(seeds, 1), steps) >> _U(63)
    return _first_true(h != l)


def spike_decision_steps(seeds: np.ndarray, steps: int, rate_h: float, rate_l: float) -> np.ndarray:
    """First universe spike of each seed's orthogonal spike pair."""
    lo = int(rate_h * 2.0**64)
    hi = int((rate_h + rate_l) * 2.0**64)
    out = np.full(seeds.size, -1)
    pending = np.arange(seeds.size)
    for attempt in range(64):
        raw = _stream(_children(seeds[pending], attempt), steps)
        high = raw < _U(lo)
        low = (raw >= _U(lo)) & (raw < _U(hi))
        ok = high.any(axis=1) & low.any(axis=1)
        out[pending[ok]] = _first_true(high | low)[ok]
        pending = pending[~ok]
        if not pending.size:
            break
    return out


def decision_step(backend: str, seed: int, steps: int) -> int:
    seeds = np.array([seed], dtype=np.uint64)
    if backend == "spike":
        return int(spike_decision_steps(seeds, steps, 0.25, 0.25)[0])
    return int(rtw_decision_steps(seeds, steps)[0])


def boolean_outputs(net, assignment: dict[str, int]) -> dict[str, int]:
    values = dict(assignment)
    for target, gate, args in net.gates:
        values[target] = BOOL_FN[gate](*(values[a] for a in args))
    return {name: values[name] for name in net.outputs}


def verify_doc(path: str, net, backend: str, seed: int, steps: int) -> dict:
    space = 2 ** len(net.inputs)
    report = {
        "backend": backend,
        "steps": steps,
        "seed": seed,
        "inputs": list(net.inputs),
        "mode": "exhaustive",
        "assignment_space": space,
        "checked": space,
        "passed": space,
        "failures": [],
        "ambiguous": [],
        "pass": True,
    }
    return {"netlist": path, "seed": seed, "steps": steps, "backends": [report], "pass": True}


def simulate_doc(path: str, net, backend: str, seed: int, steps: int,
                 assignment: dict[str, int]) -> dict:
    decided_at = decision_step(backend, seed, steps)
    bits = boolean_outputs(net, assignment)
    return {
        "netlist": path,
        "backend": backend,
        "seed": seed,
        "steps": steps,
        "assignment": {name: assignment[name] for name in net.inputs},
        "outputs": {
            name: {"value": "High" if bits[name] else "Low", "decided_at": decided_at}
            for name in net.outputs
        },
        "ambiguous_wires": [],
        "wire_count": len(net.inputs) + net.primitives,
        "primitive_count": net.primitives,
    }


def _ambiguity_matches(n: int, trials: int, seed: int, chunk: int = 1 << 15) -> int:
    matches = 0
    for start in range(0, trials, chunk):
        ks = np.arange(start + 1, min(start + chunk, trials) + 1, dtype=np.uint64)
        trial_seeds = _mix(_U(seed & _MASK) + _U(GOLDEN) * ks)
        h = _stream(_children(trial_seeds, 0), n) >> _U(63)
        l = _stream(_children(trial_seeds, 1), n) >> _U(63)
        matches += int(np.all(h == l, axis=1).sum())
    return matches


def _min_steps(epsilon: float) -> int:
    n = 1
    while 0.5 ** n > epsilon:
        n += 1
    return n


def stats_doc(n: int, trials: int, seed: int) -> dict:
    analytic = 0.5 ** n
    estimate = _ambiguity_matches(n, trials, seed) / trials
    sigma = math.sqrt(analytic * (1.0 - analytic) / trials)
    band = 4.0 * sigma
    table = []
    for eps in _DEFAULT_EPSILONS:
        steps_le = _min_steps(eps)
        steps_rounded = max(1, round(-math.log2(eps)))
        table.append({
            "epsilon": eps,
            "steps_le": steps_le,
            "steps_rounded": steps_rounded,
            "residual_le": 0.5 ** steps_le,
            "residual_rounded": 0.5 ** steps_rounded,
        })
    ambiguity = {
        "n": n,
        "analytic_ambiguity": analytic,
        "mc_estimate": estimate,
        "mc_trials": trials,
        "sigma": sigma,
        "band_4sigma": band,
        "within_band": abs(estimate - analytic) <= band,
    }
    return {"ambiguity": ambiguity, "min_steps": table}


def latency_doc(backend: str, seed: int, steps: int, trials: int) -> dict:
    ks = np.arange(1, trials + 1, dtype=np.uint64)
    trial_seeds = _mix(_U(seed & _MASK) + _U(GOLDEN) * ks)
    if backend == "spike":
        decided = spike_decision_steps(trial_seeds, steps, 0.25, 0.25)
        rate = 0.25 + 0.25
    else:
        decided = rtw_decision_steps(trial_seeds, steps)
        rate = 0.5
    ok = decided[decided >= 0]
    keys, counts = np.unique(ok, return_counts=True)
    return {
        "backend": backend,
        "trials": trials,
        "steps": steps,
        "histogram": {str(int(k)): int(c) for k, c in zip(keys, counts)},
        "ambiguous_windows": int((decided < 0).sum()),
        "mean_decided_at": int(ok.sum()) / ok.size if ok.size else float("nan"),
        "decision_rate": rate,
    }
