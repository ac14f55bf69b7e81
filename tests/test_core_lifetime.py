"""Tests of the lifetime distribution computed by the Markovian approximation.

Every curve is solved through :func:`repro.api.solve` with the
``mrm-uniformization`` solver: discretise the KiBaM wells with step
``delta``, then uniformise the absorbing expanded CTMC.
"""

import numpy as np
import pytest

import repro.api as api
from repro.battery.parameters import KiBaMParameters
from repro.core.discretization import discretize
from repro.core.kibamrm import KiBaMRM
from repro.engine.solvers import MRMUniformizationSolver
from repro.engine.workspace import SolveWorkspace
from repro.reward.occupation import two_level_lifetime_cdf
from repro.workload.onoff import onoff_workload


def lifetime_problem(model: KiBaMRM, delta: float, times) -> api.LifetimeProblem:
    """The lifetime question for *model* at step *delta* on *times*."""
    return api.LifetimeProblem(
        workload=model.workload,
        battery=model.battery,
        times=np.asarray(times, dtype=float),
        delta=delta,
        epsilon=1e-8,
    )


def approximate(model: KiBaMRM, delta: float, times):
    """The Markovian-approximation lifetime CDF of *model*."""
    return api.solve(lifetime_problem(model, delta, times), "mrm-uniformization").distribution


@pytest.fixture
def fast_onoff_model():
    """A small single-well battery driven by a slow on/off workload.

    The short lifetime keeps the uniformisation runs fast, so this fixture is
    used by most solver tests.
    """
    workload = onoff_workload(frequency=0.01, erlang_k=1)
    battery = KiBaMParameters(capacity=600.0, c=1.0, k=0.0)
    return KiBaMRM(workload=workload, battery=battery)


class TestLifetimeSolver:
    def test_cdf_is_monotone_and_bounded(self, fast_onoff_model):
        times = np.linspace(200.0, 4000.0, 20)
        curve = approximate(fast_onoff_model, 10.0, times)
        assert np.all(curve.probabilities >= 0.0)
        assert np.all(curve.probabilities <= 1.0)
        assert np.all(np.diff(curve.probabilities) >= -1e-9)

    def test_probability_negligible_before_fastest_possible_drain(self, fast_onoff_model):
        # Draining 600 As at 0.96 A takes 625 s even without idle periods; the
        # phase-type approximation smears a little mass below that bound, but
        # it must stay negligible well before it.
        curve = approximate(fast_onoff_model, 10.0, [300.0, 600.0])
        assert curve.probabilities[0] < 1e-6
        assert curve.probabilities[1] < 0.02

    def test_probability_approaches_one_for_long_horizons(self, fast_onoff_model):
        curve = approximate(fast_onoff_model, 10.0, [20000.0])
        assert curve.probabilities[0] > 0.99

    def test_finer_delta_approaches_exact_solution(self, fast_onoff_model):
        workload = fast_onoff_model.workload
        times = np.linspace(800.0, 3000.0, 12)
        exact = two_level_lifetime_cdf(
            workload.generator,
            workload.initial_distribution,
            workload.currents,
            fast_onoff_model.battery.capacity,
            times,
        )
        errors = []
        for delta in (50.0, 25.0, 10.0):
            curve = approximate(fast_onoff_model, delta, times)
            errors.append(float(np.max(np.abs(curve.probabilities - exact))))
        assert errors[0] > errors[-1]
        assert errors[-1] < 0.12

    def test_metadata_is_recorded(self, fast_onoff_model):
        curve = approximate(fast_onoff_model, 20.0, [1000.0, 2000.0])
        assert curve.metadata["method"] == "mrm-uniformization"
        assert curve.metadata["delta"] == 20.0
        assert curve.metadata["n_states"] == discretize(fast_onoff_model, 20.0).n_states
        assert curve.metadata["iterations"] > 0

    def test_mean_lifetime_close_to_expected_consumption_time(self, fast_onoff_model):
        # The mean current is 0.48 A, so the 600 As battery lasts roughly
        # 1250 s (plus phase-type spread).
        horizon, n_points = 6000.0, 200
        times = np.linspace(horizon / n_points, horizon, n_points)
        mean = approximate(fast_onoff_model, 10.0, times).mean_lifetime()
        assert mean == pytest.approx(1250.0, rel=0.15)

    def test_one_shot_wrapper_matches_solver(self, fast_onoff_model):
        problem = lifetime_problem(fast_onoff_model, 20.0, [1000.0, 1500.0])
        via_solver = MRMUniformizationSolver().solve(problem, workspace=SolveWorkspace())
        via_wrapper = api.solve(problem, "mrm-uniformization")
        assert np.allclose(via_solver.probabilities, via_wrapper.probabilities)

    def test_two_well_solver_runs_and_is_slower_to_empty(self):
        workload = onoff_workload(frequency=0.01, erlang_k=1)
        partial = KiBaMRM(
            workload=workload, battery=KiBaMParameters(capacity=600.0, c=0.625, k=1e-4)
        )
        only_available = KiBaMRM(
            workload=workload, battery=KiBaMParameters(capacity=375.0, c=1.0, k=0.0)
        )
        times = np.linspace(400.0, 2500.0, 8)
        partial_curve = approximate(partial, 12.5, times)
        available_curve = approximate(only_available, 12.5, times)
        # With the bound charge feeding the available well the battery lasts
        # longer than with the available part alone (Figure 9 ordering).
        assert np.all(partial_curve.probabilities <= available_curve.probabilities + 0.02)
