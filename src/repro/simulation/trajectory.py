"""Sampling trajectories of CTMC workload models.

A trajectory is a sequence of visited states together with the sojourn time
spent in each of them, sampled with the standard competing-exponentials
construction.  Trajectories are the input for the trajectory-driven battery
simulation of :mod:`repro.simulation.battery_sim`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workload.base import WorkloadModel

__all__ = ["Trajectory", "cumulative_jump_probabilities", "sample_trajectory"]


def cumulative_jump_probabilities(workload: WorkloadModel) -> np.ndarray:
    """Return the cumulative jump-probability matrix of the embedded chain.

    Row ``s`` is the cumulative distribution of the successor sampled when
    the CTMC leaves state ``s``: drawing ``u ~ U[0, 1)`` and taking
    ``searchsorted(row, u, side="right")`` (equivalently, counting the
    entries ``<= u``) yields the successor index, with zero-width bins --
    zero-probability successors -- skipped even when ``u`` lands exactly on
    their boundary.  An absorbing state (``rate <= 0``) self-loops: its row
    is 0 up to (but excluding) the state's own index and 1 from it on, so
    every ``u`` maps back to the state itself.  (An all-ones row would map
    every ``u`` to state 0 instead, silently restarting the workload.)

    Shared by the per-trajectory sampler below and the vectorised
    Monte-Carlo engine (:mod:`repro.simulation.vectorized`), so the two
    engines can never diverge in their jump semantics.
    """
    generator = workload.generator
    n = workload.n_states
    cumulative = np.zeros((n, n))
    for state in range(n):
        rate = -generator[state, state]
        if rate <= 0.0:
            cumulative[state, state:] = 1.0
            continue
        row = generator[state].copy()
        row[state] = 0.0
        cumulative[state] = np.cumsum(row / rate)
        cumulative[state, -1] = 1.0
    return cumulative


@dataclass(frozen=True)
class Trajectory:
    """A sampled piecewise-constant workload trajectory.

    Attributes
    ----------
    states:
        Indices of the visited workload states, in visiting order.
    durations:
        Sojourn time (seconds) spent in each visited state.  The final
        sojourn is truncated at the sampling horizon.
    currents:
        Current (amperes) drawn during each sojourn.
    horizon:
        The time horizon the trajectory covers.
    """

    states: np.ndarray
    durations: np.ndarray
    currents: np.ndarray
    horizon: float

    def __post_init__(self) -> None:
        if self.states.shape != self.durations.shape or self.states.shape != self.currents.shape:
            raise ValueError("states, durations and currents must have identical shapes")

    @property
    def n_sojourns(self) -> int:
        """Number of sojourns (state visits) in the trajectory."""
        return int(self.states.size)

    @property
    def total_duration(self) -> float:
        """Sum of all sojourn durations (equals the horizon)."""
        return float(self.durations.sum())

    def state_occupancy(self, n_states: int) -> np.ndarray:
        """Return the total time spent in each of *n_states* states."""
        occupancy = np.zeros(n_states)
        np.add.at(occupancy, self.states, self.durations)
        return occupancy


def sample_trajectory(
    workload: WorkloadModel,
    horizon: float,
    rng: np.random.Generator,
    *,
    initial_state: int | None = None,
) -> Trajectory:
    """Sample one workload trajectory up to time *horizon*.

    Parameters
    ----------
    workload:
        The CTMC workload model to sample from.
    horizon:
        Length of the sampled time window (seconds).
    rng:
        Random-number generator.
    initial_state:
        Optional fixed initial state index; by default the workload's
        initial distribution is sampled.

    Returns
    -------
    Trajectory
    """
    if horizon <= 0:
        raise ValueError("the horizon must be positive")

    generator = workload.generator
    exit_rates = -np.diag(generator)
    n = workload.n_states

    # Pre-compute cumulative jump probabilities per state; sampling a
    # successor then only needs one uniform and a searchsorted, which is far
    # cheaper than numpy.random.Generator.choice in this per-sojourn loop.
    cumulative_rows = cumulative_jump_probabilities(workload)

    if initial_state is None:
        state = int(rng.choice(n, p=workload.initial_distribution))
    else:
        if not 0 <= initial_state < n:
            raise ValueError(f"initial state {initial_state} out of range")
        state = int(initial_state)

    states: list[int] = []
    durations: list[float] = []
    elapsed = 0.0

    while elapsed < horizon:
        rate = exit_rates[state]
        if rate <= 0.0:
            # Absorbing workload state: stay there for the rest of the horizon.
            sojourn = horizon - elapsed
        else:
            sojourn = rng.exponential(1.0 / rate)
        if elapsed + sojourn >= horizon:
            sojourn = horizon - elapsed
            states.append(state)
            durations.append(sojourn)
            break
        states.append(state)
        durations.append(sojourn)
        elapsed += sojourn
        state = int(np.searchsorted(cumulative_rows[state], rng.random(), side="right"))
        state = min(state, n - 1)

    states_array = np.asarray(states, dtype=int)
    durations_array = np.asarray(durations, dtype=float)
    currents_array = workload.currents[states_array]
    return Trajectory(
        states=states_array,
        durations=durations_array,
        currents=currents_array,
        horizon=float(horizon),
    )
