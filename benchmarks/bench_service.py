"""Benchmark: the lifetime-query service amortises repeated queries.

Three acceptance gates for ``repro.service``:

1. **Repeat-query latency.**  On the 52k-state assembled chain, the p50
   latency of a repeat query (answered from the fingerprint-keyed result
   store) must be at least :data:`REQUIRED_REPEAT_SPEEDUP` times faster
   than the cold solve that populated it.
2. **Request coalescing.**  Eight concurrent identical queries against a
   fresh service must produce exactly **one** underlying solve (asserted
   through the ``repro.obs`` ``solves.*`` counters), with every response
   carrying the same curve.
3. **Throughput.**  Queries/sec over a fixed scenario mix (four distinct
   scenarios, round-robin after warmup) is recorded for trend diffing.

Results land in ``BENCH_service.json`` (stamped with commit SHA +
timestamp); the ``repeat_query_speedup`` metric is diffed against the
committed baseline in CI like the other bench records.
"""

import statistics
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.api import KiBaMParameters, LifetimeProblem, LifetimeQuery, WorkloadModel, serve
from repro.experiments.records import merge_record_section

#: Minimal cold-solve / repeat-query-p50 ratio on the 52k-state chain.
REQUIRED_REPEAT_SPEEDUP = 20.0

#: Saturation ceiling of the *recorded* ``repeat_query_speedup`` metric.
#: A store hit is microseconds against a multi-second cold solve, so the
#: raw ratio is O(10^4-10^5) and dominated by run-to-run noise of the
#: cold solve; diffing it with a 25% tolerance would flag pure jitter.
#: The record therefore saturates at 50x the gate (the raw ratio is kept
#: alongside for reference, exempt from the CI diff).
SPEEDUP_RECORD_CAP = 1000.0

#: Concurrent identical queries of the coalescing gate.
N_CONCURRENT = 8

#: Repeat queries used to resolve the p50 latency.
N_REPEATS = 50

#: Queries issued over the fixed scenario mix of the throughput gate.
N_MIX_QUERIES = 200

#: Truncation bound of the benchmark solves.
EPSILON = 1e-6

#: Where the trajectory record is written.
RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"


def _merge_record_section(section: str, payload: dict) -> None:
    """Write *payload* under *section*, preserving the other sections."""
    merge_record_section(RECORD_PATH, section, payload, benchmark="service")


def _workload() -> WorkloadModel:
    return WorkloadModel(
        state_names=("busy", "idle"),
        generator=np.array([[-0.02, 0.02], [0.02, -0.02]]),
        currents=np.array([1.0, 0.05]),
        initial_distribution=np.array([1.0, 0.0]),
        description="slow-switching busy/idle service-benchmark workload",
    )


def _assembled_problem() -> LifetimeProblem:
    """The 52k-state single-battery scenario shared with ``bench_kernels``."""
    return LifetimeProblem(
        workload=_workload(),
        battery=KiBaMParameters(capacity=300.0, c=0.625, k=1e-3),
        times=np.linspace(0.0, 3000.0, 33),
        delta=0.9,
        epsilon=EPSILON,
    )


# ----------------------------------------------------------------------
# Gate 1: repeat-query p50 latency vs. the cold solve.
# ----------------------------------------------------------------------


def test_repeat_query_latency():
    """Gate 1: repeat queries must be >= 20x faster than the cold solve."""
    service = serve()
    problem = _assembled_problem()

    cold = service.query(problem)
    assert cold.served_from == "solve"
    n_states = int(cold.diagnostics["n_states"])
    assert n_states >= 50_000, "the gate is about large chains"
    cold_seconds = cold.latency_seconds

    latencies = []
    for _ in range(N_REPEATS):
        repeat = service.query(problem)
        assert repeat.served_from == "cache"
        latencies.append(repeat.latency_seconds)
    p50_seconds = statistics.median(latencies)
    speedup = cold_seconds / p50_seconds

    stats = service.stats()
    assert stats["served"] == {"solve": 1, "cache": N_REPEATS, "coalesced": 0}
    assert stats["store"]["hits"] == N_REPEATS

    _merge_record_section("repeat_query", {
        "benchmark": "service_repeat_query_latency",
        "scenario": {
            "n_states": n_states,
            "n_times": int(problem.times.size),
            "epsilon": EPSILON,
            "n_repeats": N_REPEATS,
        },
        "results": {
            "cold_solve_seconds": cold_seconds,
            "repeat_p50_seconds": p50_seconds,
            "repeat_max_seconds": max(latencies),
            "repeat_query_speedup": min(speedup, SPEEDUP_RECORD_CAP),
            "repeat_query_speedup_raw": speedup,
            "required_min_speedup": REQUIRED_REPEAT_SPEEDUP,
        },
    })
    print(
        f"\n{n_states}-state chain: cold solve {cold_seconds:.2f} s, repeat p50 "
        f"{p50_seconds * 1e3:.2f} ms -> {speedup:.0f}x"
    )
    assert speedup >= REQUIRED_REPEAT_SPEEDUP


# ----------------------------------------------------------------------
# Gate 2: concurrent identical queries coalesce onto one solve.
# ----------------------------------------------------------------------


def test_concurrent_identical_queries_coalesce():
    """Gate 2: 8 concurrent identical queries -> exactly 1 underlying solve."""
    service = serve()
    query = LifetimeQuery(problem=_assembled_problem())
    responses = []
    barrier = threading.Barrier(N_CONCURRENT)

    def worker() -> None:
        barrier.wait()
        responses.append(service.submit(query))

    threads = [threading.Thread(target=worker) for _ in range(N_CONCURRENT)]
    with obs.override_metrics() as registry:
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_seconds = time.perf_counter() - started
        counters = registry.snapshot()["counters"]

    n_solves = sum(
        value for name, value in counters.items() if name.startswith("solves.")
    )
    served = sorted(response.served_from for response in responses)
    reference = responses[0].result.probabilities
    for response in responses:
        np.testing.assert_array_equal(response.result.probabilities, reference)

    _merge_record_section("coalescing", {
        "benchmark": "service_request_coalescing",
        "scenario": {
            "n_concurrent": N_CONCURRENT,
            "n_states": int(responses[0].diagnostics["n_states"]),
            "epsilon": EPSILON,
        },
        "results": {
            "n_solves": n_solves,
            "n_coalesced": served.count("coalesced"),
            "n_cache": served.count("cache"),
            "wall_seconds": wall_seconds,
        },
    })
    print(
        f"\n{N_CONCURRENT} concurrent identical queries: {n_solves} solve, "
        f"{served.count('coalesced')} coalesced, {served.count('cache')} from "
        f"the store, {wall_seconds:.2f} s wall"
    )
    assert n_solves == 1, "identical concurrent queries must share one solve"
    assert served.count("solve") == 1


# ----------------------------------------------------------------------
# Gate 3: queries/sec over a fixed scenario mix.
# ----------------------------------------------------------------------


def test_throughput_scenario_mix():
    """Gate 3: record steady-state queries/sec over a fixed scenario mix."""
    service = serve()
    workload = _workload()
    times = np.linspace(0.0, 300.0, 16)
    mix = [
        LifetimeQuery(
            problem=LifetimeProblem(
                workload=workload,
                battery=KiBaMParameters(capacity=60.0 + 15.0 * i, c=0.625, k=1e-3),
                times=times,
                delta=2.0,
                epsilon=EPSILON,
            )
        )
        for i in range(4)
    ]
    for query in mix:  # warmup: populate the store, then measure steady state
        assert service.submit(query).served_from == "solve"
    service.reset_window()

    started = time.perf_counter()
    for index in range(N_MIX_QUERIES):
        service.submit(mix[index % len(mix)])
    wall_seconds = time.perf_counter() - started
    throughput_qps = N_MIX_QUERIES / wall_seconds

    window = service.stats()
    assert window["served"]["cache"] == N_MIX_QUERIES, "steady state must hit the store"

    _merge_record_section("throughput", {
        "benchmark": "service_throughput_scenario_mix",
        "scenario": {
            "n_scenarios": len(mix),
            "n_queries": N_MIX_QUERIES,
            "n_times": int(times.size),
            "delta_as": 2.0,
            "epsilon": EPSILON,
        },
        "results": {
            "wall_seconds": wall_seconds,
            "throughput_qps": throughput_qps,
        },
    })
    print(
        f"\n{N_MIX_QUERIES} queries over a {len(mix)}-scenario mix: "
        f"{wall_seconds:.2f} s -> {throughput_qps:.0f} queries/s"
    )


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
