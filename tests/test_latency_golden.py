"""The pinned ``decision_latency`` reports in ``tests/data/golden/latency.json``.

The full adder on every backend at 64 steps, and one RTW case at 3 steps
whose windows are often ambiguous.  Run as a script, this file prints the
golden document, so an installed package can be diffed against it:

    python tests/test_latency_golden.py | diff - tests/data/golden/latency.json
"""

import json
import pathlib

import noiselogic as nl

from conftest import FULL_ADDER

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden" / "latency.json"

# (backend, seed, steps, trials, assignment)
CASES = [
    *((backend, 9, 64, 300, None) for backend in nl.BACKENDS),
    ("rtw-additive-not", 21, 3, 300, {"a": 1, "b": 0, "cin": 1}),
]


def latency_document() -> str:
    network = nl.lower(nl.parse(FULL_ADDER))
    reports = []
    for backend, seed, steps, trials, assignment in CASES:
        config = nl.GeneratorConfig(seed=seed, steps=steps)
        report = nl.decision_latency(network, config, trials, backend, assignment)
        reports.append({"seed": seed, "assignment": assignment, **report.to_doc()})
    return json.dumps(reports, indent=2) + "\n"


def test_latency_reports_match_the_golden():
    document = latency_document()
    assert json.loads(document)[-1]["ambiguous_windows"] > 0
    assert document == GOLDEN.read_text()


if __name__ == "__main__":
    print(latency_document(), end="")
