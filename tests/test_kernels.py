"""Tests of the uniformisation compute kernel.

Covers :mod:`repro.markov.kernels` -- the segment loop's steady-state
detection contract, its bit-for-bit equivalence with the
allocate-per-product loop it replaced, and re-entrancy of a shared
propagator -- plus hypothesis property tests asserting that the
incremental solve and the detection-free reference sweep produce identical
transient distributions on random chains, that matrix-free product-chain
operators match their assembled CSR counterparts, and the Poisson-cache
accounting the kernel's solves report.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import scipy.sparse as sp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.battery.parameters import KiBaMParameters
from repro.engine import solve_lifetime
from repro.engine.batch import ScenarioBatch
from repro.engine.problem import LifetimeProblem
from repro.engine.workspace import SolveWorkspace
from repro.markov.kernels import (
    SEGMENT_COMPLETED,
    SEGMENT_START_INVARIANT,
    SEGMENT_TAIL_COLLAPSED,
    SegmentResult,
    build_kernel,
    segment_python,
)
from repro.markov.kronecker import UniformizedOperator
from repro.markov.poisson import (
    clear_poisson_caches,
    fox_glynn,
    poisson_cache_diagnostics,
    shared_poisson_windows,
)
from repro.markov.transient import single_pass_transient
from repro.markov.uniformization import TransientPropagator
from repro.multibattery import MultiBatterySystem
from repro.multibattery.policies import get_policy
from repro.workload.base import WorkloadModel


@st.composite
def random_generators(draw):
    """Random irreducible-ish CTMC generators with 2--5 states."""
    n = draw(st.integers(min_value=2, max_value=5))
    rates = draw(
        st.lists(
            st.lists(st.floats(min_value=0.0, max_value=4.0), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    matrix = np.asarray(rates, dtype=float)
    np.fill_diagonal(matrix, 0.0)
    # Guarantee a cycle so the chain mixes.
    for i in range(n):
        matrix[i, (i + 1) % n] += 0.4
    np.fill_diagonal(matrix, -matrix.sum(axis=1))
    return matrix


def two_battery_chains():
    """One small bank discretised both assembled and matrix-free."""
    workload = WorkloadModel(
        state_names=("busy", "idle"),
        generator=np.array([[-0.02, 0.02], [0.02, -0.02]]),
        currents=np.array([0.5, 0.05]),
        initial_distribution=np.array([1.0, 0.0]),
    )
    battery = KiBaMParameters(capacity=60.0, c=0.625, k=1e-3)
    system = MultiBatterySystem(
        workload=workload,
        batteries=(battery, battery),
        policy=get_policy("static-split"),
        failures_to_die=1,
    )
    delta = battery.available_capacity / 4.0
    return system.discretize(delta, backend="assembled"), system.discretize(
        delta, backend="matrix-free"
    )


def dense_apply(matrix):
    """``apply_into`` of a dense ``P`` on state-major ``(n, K)`` iterates."""

    def apply_into(x, out):
        np.copyto(out, matrix.T @ x)

    return apply_into


# ----------------------------------------------------------------------
# The segment loop's detection contract.
# ----------------------------------------------------------------------
class TestSegmentLoop:
    def _mixture(self, matrix, v, weights, left, right):
        expected = np.zeros_like(v)
        power = v.copy()
        for n in range(right + 1):
            if n >= left:
                expected += weights[n - left] * power
            power = power @ matrix
        return expected

    def test_completed_segment_is_the_poisson_mixture(self):
        rng = np.random.default_rng(3)
        matrix = rng.random((4, 4))
        matrix /= matrix.sum(axis=1, keepdims=True)
        v = rng.random((2, 4))
        weights = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
        result = segment_python(dense_apply(matrix), v.T, weights, 2, 6, 0.0)
        assert result.status == SEGMENT_COMPLETED
        assert result.performed == 6
        assert result.break_index == 6
        np.testing.assert_allclose(
            result.accumulated.T, self._mixture(matrix, v, weights, 2, 6), atol=1e-14
        )

    def test_invariant_start_is_flagged_without_accumulating(self):
        matrix = np.eye(3)
        v = np.array([[0.2], [0.3], [0.5]])
        weights = np.full(5, 0.2)
        result = segment_python(dense_apply(matrix), v, weights, 0, 4, 1e-9)
        assert result.status == SEGMENT_START_INVARIANT
        assert result.break_index == 0
        assert result.performed == 1

    def test_tail_collapse_matches_the_full_sweep(self):
        # Every state jumps to state 0 in one step, so the power iterates
        # are constant from n = 1 on: collapsing the tail onto the
        # remaining Poisson mass is exact.
        matrix = np.zeros((3, 3))
        matrix[:, 0] = 1.0
        v = np.array([[0.1], [0.4], [0.5]])
        weights = np.full(8, 0.125)
        lazy = segment_python(dense_apply(matrix), v, weights, 0, 7, 1e-9)
        full = segment_python(dense_apply(matrix), v, weights, 0, 7, 0.0)
        assert lazy.status == SEGMENT_TAIL_COLLAPSED
        assert lazy.performed < full.performed
        np.testing.assert_allclose(lazy.accumulated, full.accumulated, atol=1e-14)

    def test_progress_callback_counts_products(self):
        matrix = np.eye(2) * 0.5 + 0.25
        counts = []
        segment_python(
            dense_apply(matrix),
            np.ones((2, 1)) / 2.0,
            np.full(4, 0.25),
            0,
            3,
            0.0,
            counts.append,
        )
        assert counts == [1, 2, 3]


def frozen_segment(spmm, v, weights, left, right, tol, progress=None):
    """The segment loop as it was before state-major iterates, frozen.

    *v* is a ``(K, n)`` block and every product allocates a new one via
    ``spmm``.  The loop under test must reproduce it bit for bit.
    """
    accumulated = np.zeros_like(v)
    scaled = np.empty_like(v)
    remaining_mass = 1.0
    performed = 0
    status = SEGMENT_COMPLETED
    break_index = right
    for n in range(right + 1):
        if n >= left:
            weight = weights[n - left]
            np.multiply(v, weight, out=scaled)
            accumulated += scaled
            remaining_mass -= weight
        if n == right:
            break
        v_next = spmm(v)
        performed += 1
        if progress is not None:
            progress(performed)
        if tol > 0.0:
            np.subtract(v_next, v, out=scaled)
            np.abs(scaled, out=scaled)
            step_change = float(np.max(scaled.sum(axis=1)))
            v = v_next
            if step_change < tol:
                if n == 0:
                    status = SEGMENT_START_INVARIANT
                else:
                    status = SEGMENT_TAIL_COLLAPSED
                    accumulated += max(0.0, remaining_mass) * v
                break_index = n
                break
        else:
            v = v_next
    return SegmentResult(accumulated, v, performed, status, break_index)


def random_stochastic(n, seed, absorbing=0):
    """A sparse-ish dense row-stochastic matrix; the last *absorbing* states absorb."""
    rng = np.random.default_rng(seed)
    dense = rng.random((n, n)) * (rng.random((n, n)) < 0.05)
    dense[np.arange(n), (np.arange(n) + 1) % n] += 0.5
    dense[np.arange(n), np.arange(n)] += 1.0
    if absorbing:
        dense[-absorbing:] = 0.0
        dense[np.arange(n - absorbing, n), np.arange(n - absorbing, n)] = 1.0
    return dense / dense.sum(axis=1, keepdims=True)


def random_stochastic_csr(n, seed, absorbing=0):
    return sp.csr_matrix(random_stochastic(n, seed, absorbing))


def jump_to_first_csr(n):
    """Every state jumps to state 0: the iterates are constant from n = 1."""
    dense = np.zeros((n, n))
    dense[:, 0] = 1.0
    return sp.csr_matrix(dense)


def random_generator(n, seed):
    """A dense CTMC generator ``P - I`` of a random stochastic ``P``."""
    return random_stochastic(n, seed) - np.eye(n)


def random_block(k, n, seed):
    block = np.random.default_rng(seed).random((k, n))
    return block / block.sum(axis=1, keepdims=True)


def assert_segments_equal(new, old):
    """*new* (state-major) equals *old* (scenario-major) bit for bit."""
    assert (new.performed, new.status, new.break_index) == (
        old.performed,
        old.status,
        old.break_index,
    )
    assert np.array_equal(new.vector.T, old.vector)
    if new.status != SEGMENT_START_INVARIANT:
        assert np.array_equal(new.accumulated.T, old.accumulated)


# ----------------------------------------------------------------------
# The loop is the frozen allocate-per-product loop, bit for bit.
# ----------------------------------------------------------------------
class TestFrozenLoopEquivalence:
    WEIGHTS = np.array([0.05, 0.1, 0.2, 0.25, 0.2, 0.1, 0.06, 0.04])

    def _both(self, matrix, block, left, right, tol, operator=None):
        """Run the kernel on *matrix* (or *operator*) and the frozen loop."""
        applied = matrix if operator is None else operator
        weights = self.WEIGHTS[: right - left + 1]
        new_counts, old_counts = [], []
        new = build_kernel(applied).run_segment(
            block.T.copy(), weights, left, right, tol, new_counts.append
        )
        old = frozen_segment(
            lambda b: b @ applied, block, weights, left, right, tol, old_counts.append
        )
        assert new_counts == old_counts == list(range(1, new.performed + 1))
        return new, old

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("tol", [0.0, 1e-30])
    def test_completed_csr_blocks(self, k, tol):
        matrix = random_stochastic_csr(120, seed=5)
        new, old = self._both(matrix, random_block(k, 120, seed=k), 2, 9, tol)
        assert new.status == SEGMENT_COMPLETED
        assert_segments_equal(new, old)

    @pytest.mark.parametrize("k", [1, 3])
    def test_start_invariant_csr_blocks(self, k):
        matrix = random_stochastic_csr(60, seed=2, absorbing=60)
        new, old = self._both(matrix, random_block(k, 60, seed=k), 0, 7, 1e-9)
        assert new.status == SEGMENT_START_INVARIANT
        assert_segments_equal(new, old)

    @pytest.mark.parametrize("k", [1, 3])
    def test_tail_collapsed_csr_blocks(self, k):
        new, old = self._both(jump_to_first_csr(40), random_block(k, 40, seed=k), 0, 7, 1e-9)
        assert new.status == SEGMENT_TAIL_COLLAPSED
        assert_segments_equal(new, old)

    @pytest.mark.parametrize("k", [1, 3])
    def test_propagator_stores_p_once_and_matches_the_csr_product(self, k):
        generator = random_generator(90, seed=7)
        propagator = TransientPropagator(generator)
        matrix = propagator.probability_matrix
        assert matrix.format == "csc"
        assert matrix.T.format == "csr"
        assert np.shares_memory(matrix.T.data, matrix.data)
        # The CSR P the loop used to multiply with, built the same way.
        csr = (sp.identity(90, format="csr") + sp.csr_matrix(generator) / propagator.rate).tocsr()
        weights = self.WEIGHTS[:6]
        block = random_block(k, 90, seed=k)
        new = build_kernel(matrix).run_segment(block.T.copy(), weights, 0, 5, 1e-30)
        old = frozen_segment(lambda b: b @ csr, block, weights, 0, 5, 1e-30)
        assert_segments_equal(new, old)

    @pytest.mark.parametrize("k", [1, 3])
    def test_matrix_free_operator_through_the_adapter(self, k):
        assembled, matrix_free = two_battery_chains()
        rate = 1.02 * float(np.max(-assembled.generator.diagonal()))
        operator = UniformizedOperator(matrix_free.generator, rate)
        n = matrix_free.n_states
        new, old = self._both(None, random_block(k, n, seed=k), 1, 7, 1e-30, operator=operator)
        assert new.status == SEGMENT_COMPLETED
        assert_segments_equal(new, old)


class TestSpmmContract:
    @pytest.mark.parametrize("k", [1, 3])
    def test_spmm_is_a_k_by_n_product_that_keeps_its_input(self, k):
        matrix = random_stochastic_csr(80, seed=9)
        block = random_block(k, 80, seed=k)
        before = block.copy()
        product = build_kernel(matrix).spmm(block)
        assert product.shape == (k, 80)
        assert np.array_equal(block, before)
        assert np.array_equal(product, block @ matrix)


class TestReentrancy:
    def test_threads_sharing_one_propagator_match_serial_runs(self):
        workload = WorkloadModel(
            state_names=("busy", "idle"),
            generator=np.array([[-0.02, 0.02], [0.02, -0.02]]),
            currents=np.array([1.0, 0.05]),
            initial_distribution=np.array([1.0, 0.0]),
        )
        battery = KiBaMParameters(capacity=60.0, c=0.625, k=1e-3)
        problem = LifetimeProblem(workload=workload, battery=battery, times=[0.0], delta=1.0)
        from repro.core.discretization import discretize

        chain = discretize(problem.model(), problem.effective_delta)
        propagator = TransientPropagator(chain.generator, validate=False)
        projection = np.zeros(chain.n_states)
        projection[chain.empty_states] = 1.0
        stack = np.stack([chain.initial_distribution, random_block(1, chain.n_states, 3)[0]])
        jobs = [
            (stack[:1], np.linspace(0.0, 200.0, 9)),
            (stack, np.linspace(20.0, 120.0, 6)),
        ]

        def run(job):
            alphas, times = job
            return propagator.transient_batch(alphas, times, epsilon=1e-8, projection=projection)

        serial = [run(job).values for job in jobs]
        # More threads than cores, switching often, so that products of
        # different solves interleave on the shared propagator.
        n_threads = 4
        threaded: dict[int, list] = {i: [] for i in range(n_threads)}
        barrier = threading.Barrier(n_threads)

        def worker(index):
            barrier.wait()
            for _ in range(2):
                threaded[index].append(run(jobs[index % 2]).values)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for index in range(n_threads):
            assert len(threaded[index]) == 2
            for values in threaded[index]:
                assert np.array_equal(values, serial[index % 2])


# ----------------------------------------------------------------------
# The incremental solve and the reference sweep compute identical laws.
# ----------------------------------------------------------------------
class TestKernelEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(generator=random_generators())
    def test_modes_agree_per_kernel(self, generator):
        alpha = np.zeros(generator.shape[0])
        alpha[0] = 1.0
        times = np.array([1.0, 4.0, 16.0])
        propagator = TransientPropagator(generator)
        incremental = propagator.transient_batch(alpha[None], times)
        single = single_pass_transient(propagator, alpha, times, epsilon=1e-10)
        np.testing.assert_allclose(incremental.values, single.values, atol=1e-10)

# ----------------------------------------------------------------------
# Matrix-free operators: scipy kernel via __rmatmul__, fused uniformised apply.
# ----------------------------------------------------------------------
class TestMatrixFreeKernels:
    def test_matrix_free_chain_forces_scipy_and_matches_assembled(self):
        assembled, matrix_free = two_battery_chains()
        alpha = np.asarray(assembled.initial_distribution, dtype=float)
        times = np.array([200.0, 800.0, 2000.0])
        reference = TransientPropagator(assembled.generator).transient_batch(alpha[None], times)
        operator_side = TransientPropagator(matrix_free.generator)
        assert operator_side.is_matrix_free
        np.testing.assert_allclose(
            operator_side.transient_batch(alpha[None], times).values,
            reference.values,
            atol=1e-10,
        )

    def test_fused_operator_matches_unfused_and_assembled(self):
        assembled, matrix_free = two_battery_chains()
        generator = matrix_free.generator
        rate = 1.001 * float(np.max(-assembled.generator.diagonal()))
        fused = UniformizedOperator(generator, rate, fused=True)
        unfused = UniformizedOperator(generator, rate, fused=False)
        assert fused.fused and not unfused.fused
        rng = np.random.default_rng(11)
        block = rng.random((3, generator.shape[0]))
        explicit = block + (block @ assembled.generator) / rate
        np.testing.assert_allclose(block @ fused, explicit, atol=1e-12)
        np.testing.assert_allclose(block @ unfused, explicit, atol=1e-12)


# ----------------------------------------------------------------------
# The shared Poisson window table.
# ----------------------------------------------------------------------
class TestSharedPoissonWindows:
    @settings(max_examples=30, deadline=None)
    @given(
        rates=st.lists(
            st.floats(min_value=0.0, max_value=500.0), min_size=1, max_size=6
        )
    )
    def test_shared_windows_match_fox_glynn(self, rates):
        windows = shared_poisson_windows(tuple(rates), 1e-12)
        assert len(windows) == len(rates)
        for rate, window in zip(rates, windows):
            direct = fox_glynn(rate, 1e-12)
            assert (window.left, window.right) == (direct.left, direct.right)
            np.testing.assert_allclose(window.weights, direct.weights, atol=1e-12)
            assert window.total == pytest.approx(direct.total, abs=1e-12)

    def test_negative_rates_are_rejected(self):
        with pytest.raises(ValueError):
            shared_poisson_windows((1.0, -0.5))

    def test_cache_diagnostics_count_hits_and_misses(self):
        clear_poisson_caches()
        before = poisson_cache_diagnostics()
        assert before["poisson_shared_cache_hits"] == 0
        shared_poisson_windows((3.0, 7.0))
        shared_poisson_windows((3.0, 7.0))
        after = poisson_cache_diagnostics()
        assert after["poisson_shared_cache_misses"] == 1
        assert after["poisson_shared_cache_hits"] == 1
        assert after["poisson_shared_cache_maxsize"] is not None
        assert after["poisson_window_cache_maxsize"] is not None


# ----------------------------------------------------------------------
# Engine-level kernel telemetry.
# ----------------------------------------------------------------------
class TestEngineKernelKnob:
    def _problem(self, **kwargs) -> LifetimeProblem:
        workload = WorkloadModel(
            state_names=("on",),
            generator=np.zeros((1, 1)),
            currents=np.array([0.5]),
            initial_distribution=np.array([1.0]),
        )
        battery = KiBaMParameters(capacity=20.0, c=1.0, k=0.0)
        return LifetimeProblem(
            workload=workload,
            battery=battery,
            times=np.linspace(5.0, 60.0, 4),
            delta=battery.available_capacity / 8.0,
            **kwargs,
        )

    def test_solve_reports_poisson_counters(self):
        result = solve_lifetime(self._problem(), method="mrm-uniformization")
        assert "poisson_shared_cache_hits" in result.diagnostics

# ----------------------------------------------------------------------
# Workspace-level Poisson cache accounting.
# ----------------------------------------------------------------------
class TestWorkspacePoissonAccounting:
    """Accuracy of the per-workspace ``poisson_cache_*`` deltas.

    The Poisson memos are process-global; each :class:`SolveWorkspace`
    snapshots the counters at creation and reports deltas, and forwards
    each increment to the obs metrics registry exactly once even when
    ``diagnostics()`` is called repeatedly.
    """

    def _problem(self, **kwargs) -> LifetimeProblem:
        workload = WorkloadModel(
            state_names=("on",),
            generator=np.zeros((1, 1)),
            currents=np.array([0.5]),
            initial_distribution=np.array([1.0]),
        )
        battery = KiBaMParameters(capacity=20.0, c=1.0, k=0.0)
        return LifetimeProblem(
            workload=workload,
            battery=battery,
            times=np.linspace(5.0, 60.0, 4),
            delta=battery.available_capacity / 8.0,
            **kwargs,
        )

    def test_workspace_baselines_isolate_earlier_activity(self):
        clear_poisson_caches()
        first = SolveWorkspace()
        shared_poisson_windows((3.0, 7.0))
        shared_poisson_windows((3.0, 7.0))
        seen_by_first = first.diagnostics()
        assert seen_by_first["poisson_cache_misses"] == 1
        assert seen_by_first["poisson_cache_hits"] == 1

        # A workspace created *after* that activity starts from zero ...
        second = SolveWorkspace()
        fresh = second.diagnostics()
        assert fresh["poisson_cache_hits"] == 0
        assert fresh["poisson_cache_misses"] == 0

        # ... and both see activity that happens after its creation.
        shared_poisson_windows((3.0, 7.0))
        assert second.diagnostics()["poisson_cache_hits"] == 1
        assert first.diagnostics()["poisson_cache_hits"] == 2

    def test_repeated_diagnostics_forward_each_increment_once(self):
        clear_poisson_caches()
        with obs.override_metrics() as registry:
            workspace = SolveWorkspace()
            shared_poisson_windows((2.0, 5.0))
            shared_poisson_windows((2.0, 5.0))
            for _ in range(3):  # re-reads must not re-forward
                reported = workspace.diagnostics()
            counters = registry.snapshot()["counters"]
            assert counters["poisson_cache_hits"] == reported["poisson_cache_hits"] == 1
            assert counters["poisson_cache_misses"] == reported["poisson_cache_misses"] == 1

            # Only the increment since the last read is forwarded.
            shared_poisson_windows((2.0, 5.0))
            reported = workspace.diagnostics()
            counters = registry.snapshot()["counters"]
            assert counters["poisson_cache_hits"] == reported["poisson_cache_hits"] == 2

    def test_mixed_mode_batch_reports_accurate_poisson_totals(self):
        clear_poisson_caches()
        problems = [
            self._problem(epsilon=1e-8).with_label("epsilon=1e-8"),
            self._problem(epsilon=1e-10).with_label("epsilon=1e-10"),
        ]
        with obs.override_metrics() as registry:
            workspace = SolveWorkspace()
            outcome = ScenarioBatch(problems).run("mrm-uniformization", workspace=workspace)
            reported = workspace.diagnostics()
            counters = registry.snapshot()["counters"]
        assert len(outcome) == 2
        # The two epsilons form two merge groups on the same chain; the totals
        # the workspace reports are exactly what reached the registry,
        # despite the per-result diagnostics() calls in between.
        assert reported["poisson_cache_misses"] >= 1
        assert reported["poisson_cache_hits"] >= 1
        assert counters["poisson_cache_hits"] == reported["poisson_cache_hits"]
        assert counters["poisson_cache_misses"] == reported["poisson_cache_misses"]
