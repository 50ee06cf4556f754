"""One workload in one fresh interpreter; started by run.py.

Closed loop, one client: the ops of the workload run one after another
in a fixed order (a round), and rounds repeat until the measuring time is
used up.  There are no threads and no queues, so the time an op waits
before it starts is zero by construction and is not reported.

With ``--setup-only`` the process stops after set-up (run.py times that
from outside).  With ``--trace 1`` the first half of the time runs
untraced and the second half traced, so the tracing overhead is measured
in the same process.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import reference
import workloads
from tracing import Tracer


def _import_package(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import noiselogic
    if Path(noiselogic.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"noiselogic imported from {noiselogic.__file__}, not from {src}")
    return noiselogic


def program_setup(nl, wl: workloads.Workload) -> dict:
    """What a user pays before the first op: parse, lower, build backends."""
    importlib.import_module("noiselogic.cli")
    networks = {key: nl.lower(nl.parse(Path(path).read_text(encoding="utf-8")))
                for key, path in wl.files.items()}
    for op in wl.ops:
        if op.backend is not None:
            nl.simulator.make_backend(op.backend, nl.GeneratorConfig(seed=op.seed, steps=op.steps))
    return networks


class Runner:
    def __init__(self, nl, wl: workloads.Workload, networks: dict):
        from click.testing import CliRunner

        self.nl = nl
        self.cli_main = sys.modules["noiselogic.cli"].main
        self.wl = wl
        self.networks = networks
        self.cli = CliRunner()
        self.tracer: Tracer | None = None
        self.first_traced = 0
        self.warm_up_failures: list[str | None] = []   # one entry per warm-up op
        self.kernel_s: dict[int, list[float]] = {}      # calibration kernel times per round
        self.records: list[tuple[int, int, float, str | None]] = []   # round, op, seconds, failure

    def execute(self, op: workloads.Op) -> tuple[float, str, str | None]:
        """Run one op; returns (seconds, output text, failure or None)."""
        if op.argv is not None:
            invoke = self.cli.invoke
            if self.tracer is not None:
                invoke = self.tracer.span("cli", invoke)
            t0 = perf_counter()
            result = invoke(self.cli_main, op.argv)
            seconds = perf_counter() - t0
            if result.exit_code != 0:
                return seconds, result.stdout, f"exit code {result.exit_code}: {result.exception!r}"
            return seconds, result.stdout, None
        config = self.nl.GeneratorConfig(seed=op.seed, steps=op.steps)
        t0 = perf_counter()
        try:
            report = self.nl.simulator.decision_latency(
                self.networks[op.netlist], config, op.trials, backend=op.backend)
        except Exception as exc:   # an op failure is counted, not fatal
            return perf_counter() - t0, "", f"raised {exc!r}"
        seconds = perf_counter() - t0
        return seconds, reference.to_text(report.to_doc()), None

    def judge(self, op: workloads.Op, text: str, failure: str | None) -> str | None:
        if failure is not None:
            return failure
        try:
            doc = json.loads(text)
        except ValueError:
            return "output is not a JSON document"
        reason = workloads.check_semantics(self.wl, op, doc)
        if reason is None and workloads.digest(text) != op.digest:
            reason = "output differs from the expected document"
        return reason

    def run_round(self, round_index: int) -> None:
        kernel_s = self.kernel_s.setdefault(round_index, [])
        for i, op in enumerate(self.wl.ops):
            kernel_s.append(calibrate.kernel())
            seconds, text, failure = self.execute(op)
            self.records.append((round_index, i, seconds, self.judge(op, text, failure)))

    def warm_up(self) -> None:
        """Run the cheapest op of each (kind, backend) once, untimed."""
        cheapest: dict[tuple, workloads.Op] = {}
        for op in self.wl.ops:
            key = (op.kind, op.backend)
            if key not in cheapest or op.evals + op.trials < cheapest[key].evals + cheapest[key].trials:
                cheapest[key] = op
        for op in cheapest.values():
            _, text, failure = self.execute(op)
            self.warm_up_failures.append(self.judge(op, text, failure))

    def run_for(self, seconds: float, first_round: int) -> int:
        """Whole rounds for about ``seconds`` of scaled time (at least one).

        Another round starts only while more than half a round's time is
        left, so the round count is the nearest whole number of rounds.
        Deciding on scaled time keeps the count, and so the rank of the
        op at the tail percentile, the same from run to run while the
        machine's speed drifts.  A run stops anyway after three times
        ``seconds`` of wall time.
        """
        t0 = perf_counter()
        rounds = 0
        elapsed = 0.0
        while True:
            index = first_round + rounds
            start = len(self.records)
            self.run_round(index)
            rounds += 1
            round_s = sum(r[2] for r in self.records[start:]) + sum(self.kernel_s[index])
            elapsed += self.round_scale(index) * round_s
            if elapsed + 0.5 * elapsed / rounds >= seconds or perf_counter() - t0 >= 3 * seconds:
                return rounds

    def round_scale(self, round_index: int) -> float:
        """The factor that brings a round's times to the nominal machine speed."""
        return calibrate.NOMINAL_S / statistics.median(self.kernel_s[round_index])

    def scale(self) -> dict[int, float]:
        return {r: self.round_scale(r) for r in self.kernel_s}


def scaled(records, scale: dict[int, float]):
    return [(r, i, seconds * scale[r], failure) for r, i, seconds, failure in records]


def _rate(records, ops, weight, pick=lambda op: True) -> float:
    work = elapsed = 0.0
    for _, i, seconds, failure in records:
        op = ops[i]
        if failure is None and weight(op) and pick(op):
            work += weight(op)
            elapsed += seconds
    return work / elapsed if elapsed else 0.0


def op_fail_ratio(records) -> float:
    """Failed ops over attempted ops; a failed op is in no timing."""
    return sum(r[3] is not None for r in records) / len(records) if records else 0.0


def _tail(times: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten ops beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(wl: workloads.Workload, records) -> tuple[dict, dict]:
    ops = wl.ops
    ok = [r for r in records if r[3] is None]
    times = [r[2] for r in ok]
    by_round: dict[int, float] = {}
    for round_index, _, seconds, _ in ok:
        by_round[round_index] = by_round.get(round_index, 0.0) + seconds
    tail, percentile, beyond = _tail(times) if times else (0.0, 0.0, 0)
    metrics = {
        "wall_s": (statistics.median(by_round.values()) if by_round else 0.0, "s"),
        "op_p50_s": (statistics.median(times) if times else 0.0, "s"),
        "op_tail_s": (tail, "s"),
        "prim_evals_per_s": (_rate(records, ops, lambda op: op.evals), "1/s"),
    }
    for backend in workloads.BACKENDS:
        metrics[f"prim_evals_per_s.{backend}"] = (
            _rate(records, ops, lambda op: op.evals, lambda op, b=backend: op.backend == b), "1/s")
    metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    per_op: dict[str, list[float]] = {}
    for _, i, seconds, _ in ok:
        per_op.setdefault(f"{ops[i].label} {ops[i].backend or ''}".strip(), []).append(seconds)
    detail = {
        "op_median_s": {label: statistics.median(t) for label, t in per_op.items()},
        "ops": len(records),
        "ops_ok": len(ok),
        "ops_per_round": len(ops),
        "rounds": len(by_round),
        "op_tail_percentile": percentile,
        "ops_beyond_tail": beyond,
        "ambiguity_trials_per_s": _rate(records, ops, lambda op: op.trials if op.kind == "stats" else 0),
        "latency_trials_per_s": _rate(records, ops, lambda op: op.trials if op.kind == "latency" else 0),
    }
    return metrics, detail


def per_layer(wl: workloads.Workload, runner: Runner, traced_rounds: int,
              overhead_s: float) -> dict:
    tracer = runner.tracer
    per = 1.0 / traced_rounds
    self_s = tracer.self_times()
    metrics: dict[str, tuple[float, str]] = {}

    def calls(layer):
        metrics[f"{layer}.calls"] = (tracer.calls(layer) * per, "count/round")

    def timed(layer):
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0) * per, "s/round")

    for layer in ("rtw_gates.not", "rtw_gates.and", "spike_gates.not", "spike_gates.and"):
        calls(layer)
        timed(layer)
        n = tracer.calls(layer)
        metrics[f"{layer}.us_per_call"] = (self_s.get(layer, 0.0) / n * 1e6 if n else 0.0, "us")
    calls("spike_gates.orthon")
    calls("signals.waveform_new")
    calls("signals.waveform_eq")
    calls("signals.classify")
    timed("signals.classify")
    metrics["simulator.classify.fast_path_hits"] = (
        (tracer.calls("simulator.classify_wire") - tracer.calls("signals.classify")) * per,
        "count/round")
    for layer in ("netlist.parse", "netlist.lower", "netlist.eval_boolean",
                  "generators.rtw_pair", "generators.spike_pair", "generators.rtw_sign_matrix",
                  "simulator.make_backend", "prng.mix64_array", "waveio.write_csv"):
        calls(layer)
        timed(layer)
    pairs = tracer.calls("generators.spike_pair")
    metrics["generators.spike_pair.attempts_per_pair"] = (
        tracer.calls("generators.spike_draws") / pairs if pairs else 0.0, "ratio")
    metrics["waveio.write_csv.bytes"] = (tracer.bytes_written * per, "B/round")
    for layer in ("simulator.verify", "simulator.run", "simulator.decision_latency",
                  "simulator.ambiguity_mc", "cli"):
        timed(layer)

    traced = [r for r in runner.records if r[0] >= runner.first_traced]
    ok = [r for r in traced if r[3] is None]
    metrics["simulator.prim_evals"] = (sum(wl.ops[i].evals for _, i, _, _ in ok) * per, "count/round")
    metrics["simulator.assignments"] = (
        sum(wl.ops[i].assignments for _, i, _, _ in ok) * per, "count/round")
    metrics["trace.op_wall_s"] = (tracer.root_wall() * per, "s/round")
    metrics["trace.overhead_s"] = (overhead_s, "s/round")
    metrics["op_fail_ratio"] = (op_fail_ratio(traced), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = Path(args.root)
    nl = _import_package(root)
    workdir = root / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, workdir, smoke=args.smoke)
        networks = program_setup(nl, wl)
        if args.setup_only:
            return 0
        wl.compute_digests()
        runner = Runner(nl, wl, networks)
        runner.warm_up()
        if not args.trace:
            runner.run_for(args.seconds, 0)
            metrics, detail = end_to_end(wl, scaled(runner.records, runner.scale()))
            raw, _ = end_to_end(wl, runner.records)
            detail["unscaled"] = {name: value for name, (value, _) in raw.items()}
            detail["kernel_median_s"] = statistics.median(
                t for times in runner.kernel_s.values() for t in times)
            records = runner.records
        else:
            untraced_rounds = runner.run_for(args.seconds / 2, 0)
            untraced, untraced_detail = end_to_end(wl, scaled(runner.records, runner.scale()))
            runner.tracer = Tracer()
            runner.first_traced = untraced_rounds
            modules = {name: sys.modules[f"noiselogic.{name}"] for name in
                       ("cli", "simulator", "rtw_gates", "spike_gates", "generators", "prng")}
            modules["signals.Waveform"] = nl.signals.Waveform
            runner.tracer.install(modules)
            try:
                traced_rounds = runner.run_for(args.seconds / 2, untraced_rounds)
            finally:
                runner.tracer.uninstall()
            traced_e2e, detail = end_to_end(wl, scaled(
                [r for r in runner.records if r[0] >= untraced_rounds], runner.scale()))
            overhead = traced_e2e["wall_s"][0] - untraced["wall_s"][0]
            metrics = per_layer(wl, runner, traced_rounds, overhead)
            # Trial rates are end-to-end figures, so they come from the untraced half.
            metrics["simulator.ambiguity_mc.trials_per_s"] = (
                untraced_detail["ambiguity_trials_per_s"], "1/s")
            metrics["simulator.decision_latency.trials_per_s"] = (
                untraced_detail["latency_trials_per_s"], "1/s")
            detail["untraced_wall_s"] = untraced["wall_s"][0]
            detail["traced_wall_s"] = traced_e2e["wall_s"][0]
            detail["accounted_share"] = (
                sum(v for k, (v, _) in metrics.items()
                    if k.endswith(".self_s")) / metrics["trace.op_wall_s"][0]
                if metrics["trace.op_wall_s"][0] else 0.0)
            runner.tracer.dump(workdir.parent / f"spans-{args.workload}.jsonl")
            records = runner.records
        failures = [f for f in [r[3] for r in records] + runner.warm_up_failures if f is not None]
        detail["failures"] = sorted(set(failures))[:5]
        detail["wait_time"] = "zero by construction: one client, one op at a time, no queues"
        print(json.dumps({
            "attempted": len(records) + len(runner.warm_up_failures),
            "failed": len(failures),
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            "detail": detail,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
