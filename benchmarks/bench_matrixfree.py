"""Benchmark: matrix-free product chains and symmetry lumping at scale.

Two acceptance gates on one 4-battery identical bank whose product space
(~1.06 million states) is an order of magnitude past what PR 4's assembled
Kronecker path was sized for:

1. **Matrix-free beats the memory wall.**  The bench enforces a generator
   memory budget (:data:`MEMORY_BUDGET_BYTES`) modelling the headroom a
   CI runner / co-scheduled sweep worker actually has.  The assembled
   backend needs two CSR copies of the product generator (``Q`` and the
   uniformised ``P``) and must exceed the budget; the
   :class:`~repro.markov.kronecker.KroneckerGenerator` operator must fit
   in a fraction of it and still solve the full lifetime CDF through the
   unchanged uniformisation pipeline.  Correctness at scale is
   cross-checked against the exact symmetry quotient.
2. **Lumping pays on identical banks.**  On the same bank, the exact
   permutation quotient (sorted charge multisets, ~19x fewer states) must
   solve end-to-end (build + transient) at least
   :data:`REQUIRED_LUMPING_SPEEDUP` x faster than the matrix-free
   operator, with matching CDFs.

A third, informational record compares assembled vs matrix-free end-to-end
on a mid-size 3-battery chain where both fit, so the trajectory of the
per-iteration trade-off stays visible across builds.  Results land in
``BENCH_matrixfree.json`` (stamped with commit SHA + timestamp) and are
diffed against the committed baseline in CI.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro.battery.parameters import KiBaMParameters
from repro.experiments.records import merge_record_section
from repro.markov.kronecker import assembled_csr_bytes
from repro.markov.uniformization import TransientPropagator
from repro.multibattery import MultiBatterySystem
from repro.workload.base import WorkloadModel

#: Generator-storage budget (bytes) the large-bank gate enforces: the
#: assembled path (two CSR copies: Q and the uniformised P) must not fit,
#: the matrix-free operator must fit comfortably.
MEMORY_BUDGET_BYTES = 96 * 2**20

#: Required end-to-end advantage of the lumped quotient over the
#: matrix-free operator on the identical-battery bank.
REQUIRED_LUMPING_SPEEDUP = 2.0

#: Required CDF agreement between the matrix-free and lumped solutions.
TOLERANCE = 1e-8

#: Truncation bound of the benchmark solves.
EPSILON = 1e-6

#: Where the trajectory record is written.
RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_matrixfree.json"


def _merge_record_section(section: str, payload: dict) -> None:
    """Write *payload* under *section*, preserving the other sections."""
    merge_record_section(RECORD_PATH, section, payload, benchmark="matrixfree_product_chains")


def _workload() -> WorkloadModel:
    """A high-duty busy/idle workload (fast depletion keeps CI runs short)."""
    return WorkloadModel(
        state_names=("busy", "idle"),
        generator=np.array([[-0.02, 0.02], [0.02, -0.02]]),
        currents=np.array([0.5, 0.3]),
        initial_distribution=np.array([1.0, 0.0]),
        description="high-duty busy/idle matrix-free benchmark workload",
    )


def _bank(n_batteries: int) -> MultiBatterySystem:
    battery = KiBaMParameters(capacity=150.0, c=1.0, k=0.0)
    return MultiBatterySystem(
        workload=_workload(),
        batteries=(battery,) * n_batteries,
        policy="static-split",
        failures_to_die=n_batteries,
    )


def _solve(chain, times: np.ndarray):
    projection = np.zeros(chain.n_states)
    projection[chain.empty_states] = 1.0
    propagator = TransientPropagator(chain.generator, validate=False)
    return propagator.transient_batch(
        chain.initial_distribution[None, :],
        times,
        epsilon=EPSILON,
        projection=projection,
    )


def test_matrixfree_solves_past_the_assembled_memory_wall(benchmark):
    """Gates 1 + 2: the 4-battery bank, matrix-free and lumped."""
    system = _bank(4)
    battery = system.batteries[0]
    delta = battery.available_capacity / 26.0
    times = np.linspace(0.0, 2400.0, 17)

    n_states = system.estimated_states(delta)
    assert n_states >= 500_000, "the gate is about large banks"

    started = time.perf_counter()
    matrix_free = system.discretize(delta, backend="matrix-free")
    operator_build_seconds = time.perf_counter() - started

    # The memory wall: two CSR copies (Q and the uniformised P) for the
    # assembled backend vs the operator's diagonal + scalings + factors.
    assembled_bytes = 2 * assembled_csr_bytes(matrix_free.generator.nnz, n_states)
    operator_bytes = matrix_free.generator.storage_bytes()
    assert assembled_bytes > MEMORY_BUDGET_BYTES, (
        f"assembled generator storage ({assembled_bytes / 2**20:.0f} MiB) fits "
        f"the {MEMORY_BUDGET_BYTES / 2**20:.0f} MiB budget -- grow the bank"
    )
    assert operator_bytes <= MEMORY_BUDGET_BYTES // 3, (
        f"operator storage ({operator_bytes / 2**20:.1f} MiB) should be a "
        "small fraction of the budget"
    )

    started = time.perf_counter()
    solved = benchmark.pedantic(
        lambda: _solve(matrix_free, times), rounds=1, iterations=1, warmup_rounds=0
    )
    operator_solve_seconds = time.perf_counter() - started
    operator_seconds = operator_build_seconds + operator_solve_seconds
    cdf = np.asarray(solved.values[0], dtype=float)
    assert cdf[-1] >= 1.0 - 1e-3, "the grid must cover the whole lifetime CDF"

    # Gate 2: the exact quotient (and the correctness cross-check at scale).
    started = time.perf_counter()
    lumped = system.discretize(delta, backend="lumped")
    lumped_solved = _solve(lumped, times)
    lumped_seconds = time.perf_counter() - started
    max_diff = float(np.max(np.abs(np.asarray(lumped_solved.values[0]) - cdf)))
    lumping_speedup = operator_seconds / lumped_seconds

    _merge_record_section("large_bank", {
        "benchmark": "matrixfree_memory_wall_and_lumping",
        "scenario": {
            "n_batteries": 4,
            "policy": "static-split",
            "failures_to_die": 4,
            "n_states": int(n_states),
            "implied_nnz": int(matrix_free.generator.nnz),
            "lumped_states": int(lumped.n_states),
            "lumping_ratio": float(lumped.lumping_ratio),
            "delta_as": float(delta),
            "n_times": int(times.size),
            "t_max_seconds": float(times[-1]),
            "epsilon": EPSILON,
        },
        "results": {
            "memory_budget_bytes": MEMORY_BUDGET_BYTES,
            "assembled_generator_bytes": int(assembled_bytes),
            "operator_generator_bytes": int(operator_bytes),
            "operator_build_seconds": operator_build_seconds,
            "operator_solve_seconds": operator_solve_seconds,
            "operator_iterations": int(solved.iterations),
            "lumped_seconds": lumped_seconds,
            # Renamed from "lumping_speedup" when the fused operator apply
            # landed: the denominator (the operator solve) got faster, so
            # the quotient's measured advantage legitimately shrank and the
            # regression differ must rebaseline rather than flag the drop.
            "lumped_vs_operator_speedup": lumping_speedup,
            "required_lumping_speedup": REQUIRED_LUMPING_SPEEDUP,
            "max_abs_cdf_diff": max_diff,
            "tolerance": TOLERANCE,
            "final_cdf_mass": float(cdf[-1]),
        },
    })
    print(
        f"\n{n_states}-state 4-battery bank: assembled generator would need "
        f"{assembled_bytes / 2**20:.0f} MiB (> {MEMORY_BUDGET_BYTES / 2**20:.0f} MiB "
        f"budget), operator holds {operator_bytes / 2**20:.1f} MiB and solved "
        f"{solved.iterations} products in {operator_seconds:.1f} s; lumped "
        f"quotient ({lumped.n_states} states, {lumped.lumping_ratio:.1f}x fewer) "
        f"solved in {lumped_seconds:.2f} s ({lumping_speedup:.1f}x), "
        f"max |dCDF| {max_diff:.2e}"
    )

    assert max_diff <= TOLERANCE
    assert lumping_speedup >= REQUIRED_LUMPING_SPEEDUP


def test_midsize_backend_comparison_and_record():
    """Informational: assembled vs matrix-free where both fit, plus the record."""
    system = _bank(3)
    battery = system.batteries[0]
    delta = battery.available_capacity / 14.0
    times = np.linspace(0.0, 1800.0, 17)

    started = time.perf_counter()
    assembled = system.discretize(delta, backend="assembled")
    solved_assembled = _solve(assembled, times)
    assembled_seconds = time.perf_counter() - started

    started = time.perf_counter()
    matrix_free = system.discretize(delta, backend="matrix-free")
    solved_operator = _solve(matrix_free, times)
    operator_seconds = time.perf_counter() - started

    max_diff = float(
        np.max(np.abs(np.asarray(solved_operator.values) - np.asarray(solved_assembled.values)))
    )
    assert max_diff <= TOLERANCE

    _merge_record_section("midsize_comparison", {
        "benchmark": "matrixfree_vs_assembled_where_both_fit",
        "scenario": {
            "n_batteries": 3,
            "n_states": int(assembled.n_states),
            "nnz": int(assembled.generator.nnz),
            "delta_as": float(delta),
            "n_times": int(times.size),
        },
        "results": {
            "assembled_seconds": assembled_seconds,
            "operator_seconds": operator_seconds,
            "iterations": int(solved_assembled.iterations),
            "max_abs_cdf_diff": max_diff,
        },
    })
    print(
        f"\n{assembled.n_states}-state 3-battery chain (both backends fit): "
        f"assembled {assembled_seconds:.2f} s, matrix-free {operator_seconds:.2f} s "
        f"end-to-end, max |dCDF| {max_diff:.2e}"
    )


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
