"""noiselogic benchmark: one workload per invocation.

    python3 perfbench/run.py --workload verify-exhaustive --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, nothing is installed.  The workload runs in a fresh
interpreter of its own (worker.py), so its peak RSS and set-up time are
not inherited.  ``setup_s`` is the median wall time of several further
fresh interpreters that only do the set-up: import noiselogic, parse and
lower the workload's netlists and build its backends, scaled by the
start-up time of bare interpreters run alongside (see calibrate.py).

The last line of stdout is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``).  The line before it holds
details such as the op count and the percentile of ``op_tail_s``.
Any error exits non-zero without printing a result.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from workloads import DEFAULT_SEED  # noqa: E402

WORKLOADS = ("verify-exhaustive", "simulate-long", "montecarlo")
SETUP_SAMPLES = 7
TIMEOUT_S = 170


def _worker(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: workloads.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = parser.parse_args()

    if not (ROOT / "src" / "noiselogic" / "__init__.py").is_file():
        print(f"error: no noiselogic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = DEFAULT_SEED
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")

    setup, start = [], []
    if not args.trace:
        for _ in range(1 if args.smoke else SETUP_SAMPLES):
            start.append(calibrate.interpreter_start())
            t0 = perf_counter()
            probe = _worker([*common, "--seconds", "0", "--setup-only"], TIMEOUT_S / 4)
            setup.append(perf_counter() - t0)
            if probe.returncode != 0:
                sys.stderr.write(probe.stderr)
                print("error: set-up failed", file=sys.stderr)
                return 1

    proc = _worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
                   TIMEOUT_S - sum(setup) - sum(start))
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = out["metrics"]
    if setup:
        scale = calibrate.START_NOMINAL_S / statistics.median(start)
        metrics["setup_s"] = {"value": statistics.median(setup) * scale, "unit": "s"}
        out["detail"]["unscaled_setup_samples_s"] = setup
        out["detail"]["interpreter_start_samples_s"] = start
    print(json.dumps({"detail": out["detail"]}))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
