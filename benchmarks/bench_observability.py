"""Benchmark: the ``repro.obs`` tracing layer pays for itself.

Two acceptance gates for the observability layer:

1. **Disabled-trace overhead.**  With ``REPRO_TRACE`` unset, every
   instrumentation site in the hot path costs exactly one environment
   lookup (:func:`repro.obs.current_tracer` returning ``None``).  The
   gate measures that null-path cost directly (many repetitions of the
   real :func:`repro.obs.span` / :func:`repro.obs.count` helpers),
   counts how many sites one 52k-state incremental solve actually
   crosses (by re-running the identical solve in full mode and counting
   the recorded spans / metric increments), and requires the product to
   stay below :data:`REQUIRED_TRACE_OFF_OVERHEAD` of the solve.  Like
   the ``REPRO_CHECKS=off`` gate of ``bench_kernels``, the per-site cost
   is resolved by repetition rather than by differencing two
   multi-second end-to-end timings, so the gate stays meaningful at the
   sub-percent level where wall-clock noise would drown it.
2. **Full-trace sweep reconstruction.**  A 200-scenario checkpointed
   sweep runs under ``REPRO_TRACE=full`` with a deterministic
   first-attempt crash injected into one scenario's chunk
   (``REPRO_FAULTS`` harness).  The exported JSONL trace, read back
   through ``tools.repro_trace``, must reconstruct the complete
   execution timeline: every chunk's attempts in order, the failed
   attempt of the poisoned chunk followed by its backoff wait and a
   successful retry, the worker-side ``chunk_solve`` /
   ``checkpoint_write`` spans re-parented under the driver's
   ``chunk_attempt`` spans, and one checkpoint write per solved
   scenario.

Results land in ``BENCH_observability.json`` (stamped with commit SHA +
timestamp) and are diffed against the committed baseline in CI.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.battery.parameters import KiBaMParameters
from repro.engine import (
    ExecutionPolicy,
    LifetimeProblem,
    RunOptions,
    SweepCache,
    SweepSpec,
    override_faults,
    run_sweep,
    solve_lifetime,
)
from repro.experiments.records import merge_record_section
from repro.workload.base import WorkloadModel
from tools.repro_trace import phase_breakdown, load_spans, sweep_timeline

#: Maximal fraction of the 52k-state solve the disabled instrumentation
#: may cost (the ``repro.obs`` docstring promise).
REQUIRED_TRACE_OFF_OVERHEAD = 0.01

#: Repetitions used to resolve the (sub-microsecond) cost of one
#: disabled instrumentation site.
_SITE_TIMING_REPS = 20_000

#: Truncation bound of the benchmark solves.
EPSILON = 1e-6

#: Where the trajectory record is written.
RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_observability.json"


def _merge_record_section(section: str, payload: dict) -> None:
    """Write *payload* under *section*, preserving the other sections."""
    merge_record_section(RECORD_PATH, section, payload, benchmark="observability")


# ----------------------------------------------------------------------
# Gate 1: REPRO_TRACE unset on the assembled 52k-state solve.
# ----------------------------------------------------------------------


def _assembled_problem() -> LifetimeProblem:
    """The 52k-state single-battery scenario of ``bench_kernels``."""
    workload = WorkloadModel(
        state_names=("busy", "idle"),
        generator=np.array([[-0.02, 0.02], [0.02, -0.02]]),
        currents=np.array([1.0, 0.05]),
        initial_distribution=np.array([1.0, 0.0]),
        description="slow-switching busy/idle observability-benchmark workload",
    )
    battery = KiBaMParameters(capacity=300.0, c=0.625, k=1e-3)
    return LifetimeProblem(
        workload=workload,
        battery=battery,
        times=np.linspace(0.0, 3000.0, 33),
        delta=0.9,
        epsilon=EPSILON,
    )


def test_trace_off_overhead(benchmark, monkeypatch):
    """Gate 1: unset ``REPRO_TRACE`` must cost < 1% of the 52k-state solve."""
    # Take the environment path -- the library default -- so the measured
    # guard includes the env lookup current_tracer() performs per site.
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    assert obs.current_tracer() is None
    assert obs.trace_mode() == "off"

    problem = _assembled_problem()
    started = time.perf_counter()
    solved = benchmark.pedantic(
        lambda: solve_lifetime(problem, "mrm-uniformization"),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    solve_seconds = time.perf_counter() - started
    n_states = int(solved.diagnostics["n_states"])
    assert n_states >= 50_000, "the gate is about large chains"
    cdf = np.asarray(solved.probabilities, dtype=float)
    assert cdf[-1] >= 1.0 - 1e-3, "the grid must cover depletion"

    # How many instrumentation sites does one solve actually cross?  Run
    # the identical solve in full mode and count what was recorded: every
    # span is one span()/detail_span() crossing, every counter increment
    # and histogram observation one count()/observe() crossing.
    with obs.override_trace("full") as tracer, obs.override_metrics() as registry:
        solve_lifetime(problem, "mrm-uniformization")
        span_sites = len(tracer.spans())
        snapshot = registry.snapshot()
    metric_sites = sum(snapshot["counters"].values()) + sum(
        entry["count"] for entry in snapshot["histograms"].values()
    )

    # The null-path cost of the real helpers, resolved by repetition.
    started = time.perf_counter()
    for _ in range(_SITE_TIMING_REPS):
        with obs.span("probe", value=1):
            pass
        with obs.detail_span("probe", value=1):
            pass
    per_span_seconds = (time.perf_counter() - started) / (2 * _SITE_TIMING_REPS)
    started = time.perf_counter()
    for _ in range(_SITE_TIMING_REPS):
        obs.count("probe")
        obs.observe("probe", 1.0)
    per_metric_seconds = (time.perf_counter() - started) / (2 * _SITE_TIMING_REPS)

    overhead_seconds = span_sites * per_span_seconds + metric_sites * per_metric_seconds
    overhead = overhead_seconds / solve_seconds

    _merge_record_section("trace_off_overhead", {
        "benchmark": "repro_trace_off_instrumentation_overhead",
        "scenario": {
            "n_states": n_states,
            "n_times": int(problem.times.size),
            "epsilon": EPSILON,
            "site_timing_reps": _SITE_TIMING_REPS,
        },
        "results": {
            "solve_seconds": solve_seconds,
            "span_sites_per_solve": span_sites,
            "metric_sites_per_solve": metric_sites,
            "per_span_site_seconds": per_span_seconds,
            "per_metric_site_seconds": per_metric_seconds,
            "overhead_fraction": overhead,
            "required_max_overhead": REQUIRED_TRACE_OFF_OVERHEAD,
        },
    })
    print(
        f"\n{n_states}-state solve with REPRO_TRACE unset: {solve_seconds:.2f} s; "
        f"{span_sites} span sites x {per_span_seconds * 1e9:.0f} ns + "
        f"{metric_sites} metric sites x {per_metric_seconds * 1e9:.0f} ns = "
        f"{overhead * 100.0:.5f}% overhead"
    )
    assert overhead <= REQUIRED_TRACE_OFF_OVERHEAD


# ----------------------------------------------------------------------
# Gate 2: full-trace 200-scenario sweep reconstructs the retry timeline.
# ----------------------------------------------------------------------

#: Scenario count of the traced sweep.
N_SCENARIOS = 200

#: Label substring of the scenario whose chunk is crashed on attempt 0
#: (the trailing comma keeps ``C=36.5`` from matching too).
_POISON_LABEL = "C=36,"


def test_full_trace_sweep_reconstructs_retry_timeline(tmp_path):
    """Gate 2: the exported trace holds every chunk's attempt/retry story."""
    spec = SweepSpec(
        workloads=["simple"],
        batteries=[
            KiBaMParameters(capacity=30.0 + 0.5 * i, c=0.625, k=1e-3)
            for i in range(N_SCENARIOS)
        ],
        times=np.linspace(10.0, 400.0, 8),
        deltas=(10.0,),
        methods=["mrm-uniformization"],
    )
    cache = SweepCache(tmp_path / "cache")
    policy = ExecutionPolicy(backoff_base=0.01)
    trace_path = tmp_path / "sweep_trace.jsonl"

    # Four worker processes: the gate covers the cross-process path, where
    # worker spans ship back inside the result envelopes and are re-based
    # onto the driver's clock before re-parenting.
    with obs.override_trace("full") as tracer:
        with override_faults(f"crash:max_attempt=1:match={_POISON_LABEL}"):
            started = time.perf_counter()
            result = run_sweep(spec, options=RunOptions(max_workers=4, cache=cache, execution=policy))
            sweep_seconds = time.perf_counter() - started
        n_spans = tracer.export_jsonl(trace_path)

    assert len(result.results) == N_SCENARIOS
    assert result.diagnostics["n_chunks"] >= 3, "the gate is about multi-chunk sweeps"
    assert result.diagnostics["n_failed"] == 0
    assert result.diagnostics["n_retries"] >= 1
    assert result.diagnostics["trace_mode"] == "full"
    # The diagnostics count is taken before the enclosing "sweep" span
    # itself closes, so the export holds exactly one span more.
    assert n_spans == result.diagnostics["n_spans"] + 1

    spans = load_spans(trace_path)
    assert len(spans) == n_spans
    by_id = {span["span_id"]: span for span in spans}

    # Driver and worker spans are parented into one tree: every worker
    # chunk_solve hangs under the driver chunk_attempt of its attempt,
    # and every span's parent exists in the export.
    for span in spans:
        assert span["parent_id"] is None or span["parent_id"] in by_id
    chunk_solves = [span for span in spans if span["name"] == "chunk_solve"]
    assert chunk_solves, "worker spans must be shipped back into the trace"
    for span in chunk_solves:
        assert by_id[span["parent_id"]]["name"] == "chunk_attempt"

    # One checkpoint write per solved scenario reached the trace.
    checkpoint_writes = [span for span in spans if span["name"] == "checkpoint_write"]
    assert len(checkpoint_writes) == N_SCENARIOS

    # The timeline of every chunk is reconstructable; the poisoned chunk
    # shows failed attempt 0, a backoff wait, then a successful retry.
    timeline = sweep_timeline(spans)
    assert timeline, "the trace must contain chunk attempts"
    for events in timeline.values():
        attempts = [event for event in events if event["kind"] == "chunk_attempt"]
        assert attempts == sorted(attempts, key=lambda event: event["start"])
        assert attempts[-1]["status"] == "ok"
    retried = [
        events
        for events in timeline.values()
        if any(event["status"] == "failed" for event in events if event["kind"] == "chunk_attempt")
    ]
    assert len(retried) == 1, "exactly one chunk saw the injected crash"
    kinds = [(event["kind"], event["status"]) for event in retried[0]]
    assert ("chunk_attempt", "failed") in kinds
    assert ("backoff", None) in kinds
    assert kinds.index(("chunk_attempt", "failed")) < kinds.index(("backoff", None))
    final = retried[0][-1]
    assert final["kind"] == "chunk_attempt" and final["status"] == "ok"
    assert any(child["name"] == "chunk_solve" for child in final["children"])

    breakdown = {entry["name"]: entry for entry in phase_breakdown(spans)}
    assert breakdown["chunk_attempt"]["count"] == len(
        [span for span in spans if span["name"] == "chunk_attempt"]
    )

    _merge_record_section("full_trace_sweep", {
        "benchmark": "full_trace_sweep_retry_timeline",
        "scenario": {
            "n_scenarios": N_SCENARIOS,
            "delta_as": 10.0,
            "n_times": 8,
            "poisoned_label": _POISON_LABEL,
            "fault": "crash:max_attempt=1",
        },
        "results": {
            "sweep_seconds": sweep_seconds,
            "n_chunks": int(result.diagnostics["n_chunks"]),
            "n_spans": n_spans,
            "n_chunk_attempts": breakdown["chunk_attempt"]["count"],
            "n_backoffs": breakdown.get("backoff", {"count": 0})["count"],
            "n_checkpoint_writes": len(checkpoint_writes),
            "n_retries": int(result.diagnostics["n_retries"]),
        },
    })
    print(
        f"\n{N_SCENARIOS}-scenario full-trace sweep: {sweep_seconds:.2f} s, "
        f"{n_spans} spans, {breakdown['chunk_attempt']['count']} attempts "
        f"({result.diagnostics['n_retries']} retried), "
        f"{len(checkpoint_writes)} checkpoint writes"
    )


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
