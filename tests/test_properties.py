"""Property-based tests (hypothesis) on core invariants across the library."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.battery.kibam import KineticBatteryModel
from repro.battery.parameters import KiBaMParameters
from repro.battery.profiles import SquareWaveLoad
from repro.core.discretization import discretize
from repro.core.kibamrm import KiBaMRM
from repro.markov.generator import validate_generator
from repro.markov.steady_state import steady_state_distribution
from repro.markov.uniformization import TransientPropagator
from repro.reward.occupation import occupation_time_distribution
from repro.workload.onoff import onoff_workload


@st.composite
def small_generators(draw):
    """Random irreducible-ish generators with 2--4 states."""
    n = draw(st.integers(min_value=2, max_value=4))
    rates = draw(
        st.lists(
            st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    matrix = np.asarray(rates, dtype=float)
    np.fill_diagonal(matrix, 0.0)
    # Guarantee a cycle so that the chain has a unique stationary distribution.
    for i in range(n):
        matrix[i, (i + 1) % n] += 0.5
    np.fill_diagonal(matrix, -matrix.sum(axis=1))
    return matrix


class TestMarkovProperties:
    @given(generator=small_generators(), time=st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=30, deadline=None)
    def test_transient_distribution_is_stochastic(self, generator, time):
        alpha = np.zeros(generator.shape[0])
        alpha[0] = 1.0
        result = TransientPropagator(generator).transient_batch(alpha[None], [time])
        distribution = result.values[0, 0]
        assert np.all(distribution >= -1e-10)
        assert distribution.sum() == pytest.approx(1.0, abs=1e-7)

    @given(generator=small_generators())
    @settings(max_examples=30, deadline=None)
    def test_steady_state_is_fixed_point_of_transient(self, generator):
        pi = steady_state_distribution(generator)
        later = TransientPropagator(generator).transient_batch(pi[None], [3.0]).values[0, 0]
        assert np.allclose(later, pi, atol=1e-6)

    @given(
        generator=small_generators(),
        time=st.floats(min_value=0.1, max_value=10.0),
        fraction=st.floats(min_value=0.0, max_value=0.99),
    )
    @settings(max_examples=25, deadline=None)
    def test_occupation_probability_in_unit_interval_and_monotone_in_x(
        self, generator, time, fraction
    ):
        alpha = np.zeros(generator.shape[0])
        alpha[0] = 1.0
        high = [0]
        lower_x = occupation_time_distribution(generator, alpha, high, time, [fraction])[0]
        higher_x = occupation_time_distribution(
            generator, alpha, high, time, [min(fraction + 0.2, 1.0)]
        )[0]
        assert 0.0 <= higher_x <= lower_x <= 1.0


class TestKiBaMProperties:
    @given(
        c=st.floats(min_value=0.3, max_value=1.0),
        k=st.floats(min_value=0.0, max_value=1e-3),
        frequency=st.floats(min_value=0.001, max_value=1.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_kibam_delivers_at_most_its_capacity(self, c, k, frequency):
        capacity = 1000.0
        model = KineticBatteryModel(KiBaMParameters(capacity=capacity, c=c, k=k))
        profile = SquareWaveLoad(0.96, frequency=frequency)
        lifetime = model.lifetime(profile)
        assert lifetime is not None
        delivered = profile.mean_current(lifetime) * lifetime
        assert delivered <= capacity + 1e-6
        # ... and at least the available-charge well.
        assert delivered >= c * capacity - 1e-6

    @given(
        c=st.floats(min_value=0.3, max_value=0.95),
        k=st.floats(min_value=1e-6, max_value=1e-3),
        drain=st.floats(min_value=10.0, max_value=400.0),
        rest=st.floats(min_value=1.0, max_value=5000.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_resting_never_reduces_available_charge(self, c, k, drain, rest):
        model = KineticBatteryModel(KiBaMParameters(capacity=1000.0, c=c, k=k))
        drained = model.step(model.initial_state(), current=0.9, duration=drain)
        rested = model.step(drained, current=0.0, duration=rest)
        assert rested.available >= drained.available - 1e-9
        assert rested.total == pytest.approx(drained.total, rel=1e-9)


class TestDiscretizationProperties:
    @given(
        delta=st.sampled_from([10.0, 20.0, 25.0, 50.0]),
        c=st.sampled_from([0.5, 0.625, 1.0]),
    )
    @settings(max_examples=12, deadline=None)
    def test_expanded_generator_is_valid_and_absorbing_where_expected(self, delta, c):
        battery = KiBaMParameters(capacity=200.0, c=c, k=1e-3 if c < 1.0 else 0.0)
        model = KiBaMRM(workload=onoff_workload(frequency=0.05), battery=battery)
        discretized = discretize(model, delta=delta)
        validate_generator(discretized.generator)
        diagonal = discretized.generator.diagonal()
        assert np.allclose(diagonal[discretized.empty_states], 0.0)
        assert discretized.initial_distribution.sum() == pytest.approx(1.0)
