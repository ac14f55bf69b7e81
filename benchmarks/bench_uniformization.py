"""Benchmark: incremental uniformisation versus the single-pass reference sweep.

The acceptance scenario of the fast-path rebuild: a >= 50k-state expanded
chain evaluated on a dense (>= 64-point) time grid whose horizon stretches
more than 10x past the depletion time.  The classical single-pass sweep
(:func:`~repro.markov.transient.single_pass_transient`, the detection-free
reference) pays one sparse product per Poisson term up to
``rate * t_max``; the
incremental path chains the segments and collapses everything after
steady-state detection, so the long tail is nearly free.

The gate requires a >= 3x wall-clock advantage with a maximal CDF deviation
of at most 1e-8, and records the measurement in ``BENCH_uniformization.json``
at the repository root so CI can track the perf trajectory across PRs.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro.battery.parameters import KiBaMParameters
from repro.core.discretization import discretize
from repro.core.kibamrm import KiBaMRM
from repro.experiments.records import write_bench_record
from repro.markov.transient import single_pass_transient
from repro.markov.uniformization import TransientPropagator
from repro.workload.base import WorkloadModel

#: Required wall-clock advantage of the incremental path (acceptance: >= 3x).
REQUIRED_SPEEDUP = 3.0

#: Required agreement between the two paths.
TOLERANCE = 1e-8

#: Required horizon stretch past the measured depletion time.
REQUIRED_HORIZON_RATIO = 10.0

#: Truncation bound shared by both paths (the engine default).
EPSILON = 1e-8

#: Where the trajectory record is written (repository root, so the CI
#: workflow can upload every ``BENCH_*.json`` as one artifact).
RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_uniformization.json"


def _scenario():
    """A slow-switching two-state workload on a transfer-capable battery.

    The parameters are chosen so that the uniformisation rate is dominated
    by the consumption transitions (about 1.5/s), depletion happens around
    t = 1000 s, and the 20000 s horizon leaves a post-depletion tail close
    to twenty times the depletion time.
    """
    workload = WorkloadModel(
        state_names=("busy", "idle"),
        generator=np.array([[-0.02, 0.02], [0.02, -0.02]]),
        currents=np.array([1.0, 0.05]),
        initial_distribution=np.array([1.0, 0.0]),
        description="slow-switching busy/idle benchmark workload",
    )
    battery = KiBaMParameters(capacity=300.0, c=0.625, k=1e-3)
    chain = discretize(KiBaMRM(workload=workload, battery=battery), delta=0.9)
    times = np.linspace(0.0, 20000.0, 96)
    return chain, times


def _depletion_time(times: np.ndarray, cdf: np.ndarray, level: float = 0.99) -> float:
    """First grid time at which the lifetime CDF reaches *level*."""
    crossed = np.nonzero(cdf >= level)[0]
    assert crossed.size > 0, "the grid must cover depletion"
    return float(times[int(crossed[0])])


def test_incremental_uniformization_speedup(benchmark):
    chain, times = _scenario()
    assert chain.n_states >= 50_000
    assert times.size >= 64

    propagator = TransientPropagator(chain.generator, validate=False)
    projection = np.zeros(chain.n_states)
    projection[chain.empty_states] = 1.0
    initial = chain.initial_distribution[None, :]

    # Baseline: the classical single shared sweep up to rate * t_max.
    started = time.perf_counter()
    baseline = single_pass_transient(
        propagator, initial, times, epsilon=EPSILON, projection=projection
    )
    single_pass_seconds = time.perf_counter() - started

    # Fast path: incremental segment chaining + steady-state detection.
    started = time.perf_counter()
    fast = benchmark.pedantic(
        lambda: propagator.transient_batch(
            initial, times, epsilon=EPSILON, projection=projection
        ),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    incremental_seconds = time.perf_counter() - started

    cdf_fast = np.asarray(fast.values[0], dtype=float)
    cdf_base = np.asarray(baseline.values[0], dtype=float)
    max_diff = float(np.max(np.abs(cdf_fast - cdf_base)))
    depletion = _depletion_time(times, cdf_fast)
    horizon_ratio = float(times[-1]) / depletion
    speedup = single_pass_seconds / incremental_seconds

    record = {
        "benchmark": "uniformization_fast_path",
        "scenario": {
            "n_states": int(chain.n_states),
            "n_nonzero": int(chain.n_nonzero),
            "uniformization_rate": float(propagator.rate),
            "delta_as": float(chain.grid.delta),
            "n_times": int(times.size),
            "t_max_seconds": float(times[-1]),
            "depletion_time_seconds": depletion,
            "horizon_over_depletion": horizon_ratio,
            "epsilon": EPSILON,
        },
        "results": {
            "single_pass_seconds": single_pass_seconds,
            "incremental_seconds": incremental_seconds,
            "speedup": speedup,
            "required_speedup": REQUIRED_SPEEDUP,
            "max_abs_cdf_diff": max_diff,
            "tolerance": TOLERANCE,
            "single_pass_iterations": int(baseline.iterations),
            "incremental_iterations": int(fast.iterations),
            "iterations_saved": int(fast.iterations_saved),
            "steady_state_time_seconds": fast.steady_state_time,
        },
    }
    write_bench_record(RECORD_PATH, record)
    print(
        f"\n{chain.n_states} states, {times.size} time points to t={times[-1]:g} s "
        f"({horizon_ratio:.1f}x depletion): single-pass {single_pass_seconds:.2f} s "
        f"({baseline.iterations} products), incremental {incremental_seconds:.2f} s "
        f"({fast.iterations} products, {fast.iterations_saved} saved), "
        f"speedup {speedup:.1f}x, max |dCDF| {max_diff:.2e}"
    )

    # Acceptance gates.
    assert horizon_ratio >= REQUIRED_HORIZON_RATIO
    assert max_diff <= TOLERANCE
    assert fast.steady_state_time is not None, "steady-state detection must fire"
    assert fast.iterations_saved > 0
    assert speedup >= REQUIRED_SPEEDUP


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
