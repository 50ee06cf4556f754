"""Chunks on threads: ``verify_equivalence``, ``decision_latency`` and the ambiguity sweep.

Each sweep maps its chunks through ``simulator._map_chunks``, which runs
them on up to ``min(_MAX_WORKERS, usable CPUs, chunks)`` threads and
returns their results in chunk order.  The tests set the usable CPU count
through the private ``simulator._usable_cpus`` and require the same report
from one worker, from three, and from the one-at-a-time references; the
first failing chunk in chunk order decides the exception, and no thread
outlives a sweep.
"""

import json
import random
import sys
import threading
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noiselogic as nl
from noiselogic import generators, rtw_gates, simulator, spike_gates
from noiselogic.prng import derive_seeds

from conftest import gate_rows, random_netlist_source
from test_batched_latency import chunked_latency, identical_rtw_pairs, outcome, serial_latency
from test_batched_verify import chunked_report, rewire_and, serial_report
from test_optimized_mode import _run_python, _run_under_O
from test_simulator import corrupt_and_to_or

def cpus(n: int):
    """Let the sweeps see ``n`` usable CPUs, so that they run on up to ``n`` threads."""
    return mock.patch.object(simulator, "_usable_cpus", lambda: n)


PROBES = {"evaluate": (simulator, "_evaluate"), "draw": (generators, "reference_words"),
          "count": (simulator, "count_identical_rtw_pairs")}

# The work of each sweep's chunks, led by the probe a chunk calls exactly once:
# a verify chunk is one walk, a latency chunk one draw and then a walk per
# column set, a chunk of the ambiguity sweep one count.
VERIFY, LATENCY, SWEEP = ("evaluate",), ("draw", "evaluate"), ("count",)


class ThreadLog:
    """Counts the threads started, and the thread of every probed call a chunk makes.

    ``threads["evaluate"]`` logs each ``simulator._evaluate`` walk,
    ``threads["draw"]`` each ``generators.reference_words`` draw and
    ``threads["count"]`` each ``count_identical_rtw_pairs`` count.
    """

    def __init__(self):
        self.started = 0
        self.threads: dict[str, list[str]] = {probe: [] for probe in PROBES}

    def __enter__(self):
        real_start = threading.Thread.start

        def start(thread):
            self.started += 1
            real_start(thread)

        def logged(probe, real):
            def call(*args, **kwargs):
                self.threads[probe].append(threading.current_thread().name)
                return real(*args, **kwargs)
            return call

        self._patches = [mock.patch.object(threading.Thread, "start", start)] + [
            mock.patch.object(module, name, logged(probe, getattr(module, name)))
            for probe, (module, name) in PROBES.items()]
        for patch in self._patches:
            patch.start()
        return self

    def __exit__(self, *exc):
        for patch in reversed(self._patches):
            patch.stop()

    def ran_on(self, work: tuple[str, ...]) -> set[str]:
        """The threads the probed calls of ``work`` ran on."""
        return {name for probe in work for name in self.threads[probe]}


def main_thread_name() -> str:
    return threading.main_thread().name


def by_workers(call, chunks: int, work: tuple[str, ...]) -> dict[int, object]:
    """``call()`` on one worker and on three; each run checks its thread count and
    that every call of ``work`` ran on the main thread or on workers only."""
    results = {}
    for workers in (1, 3):
        baseline = threading.active_count()
        with cpus(workers), ThreadLog() as log:
            results[workers] = call()
        assert len(log.threads[work[0]]) == chunks
        if workers == 1:
            assert log.started == 0 and log.ran_on(work) == {main_thread_name()}
        else:   # the pool starts a thread per chunk submitted while the others are busy
            assert 0 < log.started <= min(workers, chunks)
            assert main_thread_name() not in log.ran_on(work)
        assert threading.active_count() == baseline
    return results


def verify_chunks(source, config, network=None, sample=None) -> tuple[int, int]:
    """(rows per chunk, chunks) for a verify of at least three chunks."""
    net = network if network is not None else (
        nl.lower(source) if isinstance(source, nl.NetlistAst) else source)
    count = sample or 2 ** len(net.inputs)
    rows = max(1, count // 3)
    return rows, -(-count // rows)


class TestOneWorkerEqualsMany:
    @settings(max_examples=40, deadline=None)
    @given(
        netlist_seed=st.integers(0, 2**32 - 1),
        backend=st.sampled_from(nl.BACKENDS),
        steps=st.sampled_from([1, 2, 16, 40]),
        sample=st.one_of(st.none(), st.integers(3, 40)),
        corrupt=st.sampled_from([None, rewire_and, corrupt_and_to_or]),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_verify(self, netlist_seed, backend, steps, sample, corrupt, seed):
        if backend == "spike":
            steps = max(steps, 16)   # room for two non-empty orthogonal trains
        ast = nl.parse(random_netlist_source(random.Random(netlist_seed),
                                             max_inputs=5, max_gates=8))
        lowered = nl.lower(ast)
        if len(lowered.inputs) < 2 and sample is None:
            sample = 3   # too few assignments for three chunks
        network = corrupt(lowered) if corrupt and any(
            g.op == "AND" for g in gate_rows(lowered)) else None
        config = nl.GeneratorConfig(seed=seed, steps=steps)
        kwargs = {"network": network, "sample": sample}
        rows, chunks = verify_chunks(ast, config, **kwargs)
        assert chunks >= 3
        got = by_workers(lambda: chunked_report(ast, backend, config, rows, **kwargs).to_doc(),
                         chunks, VERIFY)
        assert got[1] == got[3] == serial_report(ast, backend, config, **kwargs).to_doc()

    @pytest.mark.parametrize("backend", nl.BACKENDS)
    @pytest.mark.parametrize("corrupt", [corrupt_and_to_or, rewire_and])
    def test_verify_failures_and_ambiguous_incidents_in_assignment_order(
            self, full_adder_ast, backend, corrupt):
        network = corrupt(nl.lower(full_adder_ast))
        # The first seed whose report has failures and, on RTW, the first
        # two-step seed whose references are identical, so that every
        # output reads Ambiguous.
        cases = [(16, "failures")] + ([(2, "ambiguous")] if backend != "spike" else [])
        for steps, incidents in cases:
            config = next(config for config in (nl.GeneratorConfig(seed=seed, steps=steps)
                                                for seed in range(100))
                          if getattr(serial_report(full_adder_ast, backend, config,
                                                   network=network), incidents))
            for sample in (None, 30):
                want = serial_report(full_adder_ast, backend, config, network=network,
                                     sample=sample)
                assert getattr(want, incidents)
                rows, chunks = verify_chunks(full_adder_ast, config, network, sample)
                got = by_workers(lambda: chunked_report(full_adder_ast, backend, config, rows,
                                                        network=network,
                                                        sample=sample).to_doc(), chunks,
                                 VERIFY)
                assert got[1] == got[3] == want.to_doc()

    @settings(max_examples=30, deadline=None)
    @given(
        netlist_seed=st.integers(0, 2**32 - 1),
        backend=st.sampled_from(nl.BACKENDS),
        steps=st.integers(1, 8),
        rate=st.sampled_from([0.1, 0.25, 0.45]),
        trials=st.integers(3, 25),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_latency(self, netlist_seed, backend, steps, rate, trials, seed):
        network = nl.lower(nl.parse(random_netlist_source(random.Random(netlist_seed),
                                                          max_inputs=5, max_gates=8)))
        config = nl.GeneratorConfig(seed=seed, steps=steps, spike_rate_h=rate, spike_rate_l=rate)
        rows = trials // 3
        got = {}
        for workers in (1, 3):
            with cpus(workers):
                got[workers] = outcome(chunked_latency, network, config, trials, backend,
                                       None, rows)
        assert got[1] == got[3] == outcome(serial_latency, network, config, trials, backend)

    @pytest.mark.parametrize("backend", nl.BACKENDS)
    def test_latency_with_outputs_that_read_ambiguous(self, backend):
        def off_reference_not(pair, x):
            if pair.family == nl.SPIKE:
                return pair.h.words | pair.l.words
            return nl.RtwSignal(-pair.h.values).words

        network = nl.lower(nl.parse("input a b\noutput y1 = AND a b\noutput y2 = NOT a\n"))
        config = nl.GeneratorConfig(seed=8, steps=16)
        module = spike_gates if backend == "spike" else rtw_gates
        with mock.patch.object(module, simulator._BACKEND_TABLE[backend][1], off_reference_not):
            got = by_workers(lambda: chunked_latency(network, config, 10, backend, None, 3),
                             4, LATENCY)
            want = serial_latency(network, config, 10, backend)
        assert want.ambiguous_windows == 10
        assert repr(got[1].to_doc()) == repr(got[3].to_doc()) == repr(want.to_doc())

    @pytest.mark.parametrize("backend", nl.BACKENDS)
    def test_latency_histograms_merge_in_chunk_order(self, full_adder_network, backend):
        config = nl.GeneratorConfig(seed=21, steps=3, spike_rate_h=0.2, spike_rate_l=0.2)
        got = by_workers(lambda: chunked_latency(full_adder_network, config, 40, backend,
                                                 None, 7), 6, LATENCY)
        want = serial_latency(full_adder_network, config, 40, backend)
        assert len(want.histogram) > 1
        assert list(got[1].histogram.items()) == list(got[3].histogram.items())
        assert repr(got[1].to_doc()) == repr(got[3].to_doc()) == repr(want.to_doc())

    def test_more_workers_than_cores_switching_every_microsecond(self, full_adder_ast,
                                                                  full_adder_network):
        network = rewire_and(nl.lower(full_adder_ast))
        config = nl.GeneratorConfig(seed=11, steps=32)
        want = (serial_report(full_adder_ast, "rtw-additive-not", config, network=network,
                              sample=120).to_doc(),
                repr(serial_latency(full_adder_network, config, 60, "spike").to_doc()))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with cpus(simulator._MAX_WORKERS):
                got = [(chunked_report(full_adder_ast, "rtw-additive-not", config, 1,
                                       network=network, sample=120).to_doc(),
                        repr(chunked_latency(full_adder_network, config, 60, "spike",
                                             None, 1).to_doc()))
                       for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert want[0]["failures"]
        assert got == [want] * 3

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 12), trials=st.integers(1000, 3000),
           chunk=st.integers(50, 400), seed=st.integers(0, 2**64 - 1))
    def test_ambiguity_sweep(self, n, trials, chunk, seed):
        want = identical_rtw_pairs(seed, trials, n) / trials
        with mock.patch.object(simulator, "_MC_CHUNK", chunk):
            got = by_workers(lambda: nl.ambiguity_monte_carlo(n, trials, seed),
                             -(-trials // chunk), SWEEP)
        assert got[1] == got[3]
        assert got[1].mc_estimate == want


class TestThreadBounds:
    @pytest.mark.parametrize("usable, chunks, threads", [
        (1, 10, 0), (2, 10, 2), (3, 2, 2), (8, 10, 4), (8, 1, 0), (8, 0, 0)])
    def test_never_more_threads_than_min_of_cap_cpus_and_chunks(self, usable, chunks,
                                                                threads):
        def fn(start):
            time.sleep(0.01)   # busy while the later chunks are submitted
            return start * start

        baseline = threading.active_count()
        with cpus(usable), ThreadLog() as log:
            got = simulator._map_chunks(fn, range(0, 3 * chunks, 3))
        assert got == [start * start for start in range(0, 3 * chunks, 3)]
        assert log.started == threads
        assert threading.active_count() == baseline

    def test_one_chunk_starts_no_thread(self, full_adder_ast, full_adder_network):
        config = nl.GeneratorConfig(seed=3, steps=32)
        for call, work in [
                (lambda: nl.verify_equivalence(full_adder_ast, "spike", config).ok, VERIFY),
                (lambda: nl.decision_latency(full_adder_network, config, 50, "rtw-additive-not"),
                 LATENCY),
                (lambda: nl.ambiguity_monte_carlo(6, 5000, 1), SWEEP)]:
            with cpus(4), ThreadLog() as log:
                assert call()
            assert log.started == 0 and len(log.threads[work[0]]) == 1
            assert log.ran_on(work) == {main_thread_name()}

    def test_usable_cpus_falls_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: {0, 1, 5},
                            raising=False)
        assert simulator._usable_cpus() == 3
        monkeypatch.delattr(simulator.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(simulator.os, "cpu_count", lambda: 6)
        assert simulator._usable_cpus() == 6
        monkeypatch.setattr(simulator.os, "cpu_count", lambda: None)
        assert simulator._usable_cpus() == 1


# Verify the one-AND network an assignment per chunk, with an AND word
# form that passes its first input through: only assignment a=1, b=0, the
# third chunk, gives High where the AND check wants Low.
_LATER_CHUNK_FAILS = """
import json
import threading
from unittest import mock

import noiselogic as nl
from noiselogic import rtw_gates, simulator

optimized = not __debug__
ast = nl.parse("input a b\\noutput y = AND a b\\n")
config = nl.GeneratorConfig(seed=3, steps=130)
plan = simulator._plan(nl.lower(ast))
rtw_gates._and_words = lambda h, l, x1, x2: x1
seen = []
for workers in (1, 3):
    baseline = threading.active_count()
    simulator._usable_cpus = lambda: workers
    # verify walks the pair's step classes, one word a row: one row a chunk.
    with mock.patch.object(simulator, "_CHUNK_BYTES", 8 * plan.slots):
        try:
            nl.verify_equivalence(ast, "rtw-additive-not", config)
        except Exception as exc:
            seen.append([type(exc).__name__, str(exc)])
    seen.append(threading.active_count() - baseline)
print(json.dumps([optimized, seen]))
"""


class TestFailuresOnThreads:
    @pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
    def test_a_later_chunk_check_raises_as_inline(self, flags):
        stdout = (_run_under_O if flags else lambda s: _run_python("-c", s))(_LATER_CHUNK_FAILS)
        optimized, seen = json.loads(stdout)
        assert optimized == bool(flags)
        error = ["InvariantError", "AND output is not H exactly where both inputs are High"]
        assert seen == [error, 0, error, 0]

    def test_the_first_failing_chunk_in_chunk_order_decides(self):
        # Chunk 1 fails late, chunk 2 at once: chunk 1's error is raised.
        def fn(start):
            if start == 1:
                time.sleep(0.05)
                raise ValueError("chunk 1")
            if start == 2:
                raise KeyError("chunk 2")
            return start

        for workers in (1, 2, 3):
            baseline = threading.active_count()
            with cpus(workers), pytest.raises(ValueError, match="chunk 1"):
                simulator._map_chunks(fn, range(4))
            assert threading.active_count() == baseline

    @pytest.mark.parametrize("workers", [1, 3])
    def test_a_later_latency_chunk_that_fails_raises_as_inline(self, full_adder_network,
                                                               workers):
        config = nl.GeneratorConfig(seed=5, steps=16)
        real = generators.reference_words
        trial_seeds = derive_seeds(config.seed, 12).tolist()

        def draw(family, seeds, config):
            start = trial_seeds.index(int(seeds[0]))
            if start >= 6:
                raise nl.GenerationError(f"no pair from trial {start}")
            return real(family, seeds, config)

        baseline = threading.active_count()
        # The name decision_latency looks up at each draw.
        with cpus(workers), mock.patch.object(generators, "reference_words", draw), \
                pytest.raises(nl.GenerationError, match="^no pair from trial 6$"):
            chunked_latency(full_adder_network, config, 12, "spike", None, 3)
        assert threading.active_count() == baseline
