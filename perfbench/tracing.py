"""Outside-in tracing of the noiselogic layers.

Wrappers are installed on the module attributes that callers resolve at
call time (``simulator.classify``, ``rtw_gates.and_gate``, ...), so no
source file changes.  A span wrapper records (name, start, end, parent) in
flat in-memory arrays; a count wrapper only counts.  Self time is derived
from the spans at the end: a span's duration minus the durations of its
direct children.  A target missing from the package is skipped, and its
metrics then read zero.
"""

import json
import os
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, layer name, "span" | "count").  One layer name may
# cover several attributes: the same function imported into two modules,
# or the two NOT realizations of the RTW family.
TARGETS = (
    ("cli", "parse", "netlist.parse", "span"),
    ("cli", "lower", "netlist.lower", "span"),
    ("cli", "verify_equivalence", "simulator.verify", "span"),
    ("cli", "run", "simulator.run", "span"),
    ("cli", "ambiguity_monte_carlo", "simulator.ambiguity_mc", "span"),
    ("cli", "write_waveform_csv", "waveio.write_csv", "span"),
    ("simulator", "decision_latency", "simulator.decision_latency", "span"),
    ("simulator", "lower", "netlist.lower", "span"),
    ("simulator", "eval_boolean", "netlist.eval_boolean", "span"),
    ("simulator", "make_backend", "simulator.make_backend", "span"),
    ("simulator", "classify", "signals.classify", "span"),
    ("simulator", "_classify_wire", "simulator.classify_wire", "count"),
    ("simulator", "gen_orthogonal_spike_pair", "generators.spike_pair", "span"),
    ("simulator", "rtw_sign_matrix", "generators.rtw_sign_matrix", "span"),
    ("rtw_gates", "gen_rtw_pair", "generators.rtw_pair", "span"),
    ("rtw_gates", "not_additive", "rtw_gates.not", "span"),
    ("rtw_gates", "not_multiplicative", "rtw_gates.not", "span"),
    ("rtw_gates", "and_gate", "rtw_gates.and", "span"),
    ("spike_gates", "spike_not", "spike_gates.not", "span"),
    ("spike_gates", "spike_and", "spike_gates.and", "span"),
    ("spike_gates", "orthon_eval", "spike_gates.orthon", "count"),
    ("generators", "_categorical_spikes", "generators.spike_draws", "count"),
    ("generators", "mix64_array", "prng.mix64_array", "span"),
    ("prng", "mix64_array", "prng.mix64_array", "span"),
    ("signals.Waveform", "__init__", "signals.waveform_new", "count"),
    ("signals.Waveform", "__eq__", "signals.waveform_eq", "count"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, list[int]] = {}
        self.bytes_written = 0
        self._installed: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        nid = self._id(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def count(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _write_csv_bytes(self, fn):
        def measured(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            self.bytes_written += os.path.getsize(path)
            return result

        return measured

    def install(self, modules: dict[str, object]) -> None:
        for module_name, attr, name, kind in TARGETS:
            owner = modules.get(module_name)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            if attr == "write_waveform_csv":
                original_for_wrap = self._write_csv_bytes(original)
            else:
                original_for_wrap = original
            wrapped = (self.span if kind == "span" else self.count)(name, original_for_wrap)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def calls(self, name: str) -> int:
        if name in self.counts:
            return self.counts[name][0]
        nid = self._ids.get(name)
        if nid is None:
            return 0
        return int(np.count_nonzero(np.frombuffer(self.name_id, dtype=np.int32) == nid))

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name, over every recorded span."""
        n = len(self.start)
        if not n:
            return {}
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        per_name = np.bincount(np.frombuffer(self.name_id, dtype=np.int32),
                               weights=dur - child, minlength=len(self.names))
        return {name: float(per_name[i]) for i, name in enumerate(self.names)}

    def root_wall(self) -> float:
        """Total duration of the root spans, i.e. the traced op wall time."""
        if not len(self.start):
            return 0.0
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return float(dur[np.frombuffer(self.parent, dtype=np.int64) < 0].sum())

    def dump(self, path, limit: int = 50_000) -> None:
        """Write the first ``limit`` spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(min(limit, len(self.start))):
                fh.write(json.dumps({
                    "id": i, "name": self.names[self.name_id[i]], "parent": self.parent[i],
                    "start": self.start[i], "end": self.end[i],
                }) + "\n")
