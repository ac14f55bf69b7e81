"""The :class:`WorkloadModel` container.

A workload model is a CTMC over the operating modes of a device plus the
current drawn in every mode.  All quantities are stored in SI units
(transition rates per second, currents in amperes); the builders in this
sub-package accept the per-hour / mA parameters used in the paper and
convert once at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.markov.generator import validate_generator
from repro.markov.steady_state import steady_state_distribution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Iterable

    import numpy.typing as npt

    from repro.checking import FloatArray

__all__ = ["WorkloadModel"]


@dataclass(frozen=True)
class WorkloadModel:
    """A CTMC workload with per-state energy-consumption rates.

    Attributes
    ----------
    state_names:
        Human-readable names of the operating modes.
    generator:
        CTMC generator matrix in **per-second** rates, shape ``(N, N)``.
    currents:
        Current drawn in every state, in **amperes**, shape ``(N,)``.
    initial_distribution:
        Probability vector over the states at time zero.
    description:
        Optional free-text description of the model.
    """

    state_names: tuple[str, ...]
    generator: FloatArray
    currents: FloatArray
    initial_distribution: FloatArray
    description: str = ""

    def __post_init__(self) -> None:
        generator = np.asarray(self.generator, dtype=float)
        currents = np.asarray(self.currents, dtype=float)
        initial = np.asarray(self.initial_distribution, dtype=float)
        names = tuple(self.state_names)

        n = len(names)
        if generator.shape != (n, n):
            raise ValueError(
                f"generator shape {generator.shape} does not match {n} states"
            )
        if currents.shape != (n,):
            raise ValueError(f"currents shape {currents.shape} does not match {n} states")
        if initial.shape != (n,):
            raise ValueError(
                f"initial distribution shape {initial.shape} does not match {n} states"
            )
        validate_generator(generator)
        if not np.all(np.isfinite(currents)):
            raise ValueError("state currents must be finite")
        if np.any(currents < 0):
            raise ValueError("state currents must be non-negative")
        if np.any(initial < -1e-12) or not np.isclose(initial.sum(), 1.0, atol=1e-9):
            raise ValueError("the initial distribution must be a probability vector")

        object.__setattr__(self, "state_names", names)
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "currents", currents)
        object.__setattr__(self, "initial_distribution", initial)

    # ------------------------------------------------------------------
    @property
    def n_states(self) -> int:
        """Number of operating modes."""
        return len(self.state_names)

    def state_index(self, name: str) -> int:
        """Return the index of the state called *name*."""
        try:
            return self.state_names.index(name)
        except ValueError as exc:
            raise KeyError(f"unknown state name {name!r}") from exc

    def current_of(self, name: str) -> float:
        """Return the current (A) drawn in the state called *name*."""
        return float(self.currents[self.state_index(name)])

    # ------------------------------------------------------------------
    def steady_state(self) -> FloatArray:
        """Return the stationary distribution of the workload CTMC."""
        return steady_state_distribution(self.generator, validate=False)

    def mean_current(self) -> float:
        """Return the long-run average current (A) under the stationary law."""
        return float(self.steady_state() @ self.currents)

    def probability_in(
        self, names: Iterable[str], distribution: npt.ArrayLike | None = None
    ) -> float:
        """Return the probability mass of the named states.

        *distribution* defaults to the stationary distribution; pass a
        transient distribution to evaluate time-dependent occupancy.
        """
        if distribution is None:
            distribution = self.steady_state()
        index = [self.state_index(name) for name in names]
        return float(np.asarray(distribution)[index].sum())

    # ------------------------------------------------------------------
    def with_initial_state(self, name: str) -> "WorkloadModel":
        """Return a copy that starts deterministically in the named state."""
        initial = np.zeros(self.n_states)
        initial[self.state_index(name)] = 1.0
        return replace(self, initial_distribution=initial)

    def scaled_time(self, factor: float) -> "WorkloadModel":
        """Return a copy with all transition rates multiplied by *factor*.

        Useful for what-if studies (e.g. doubling the sending frequency).
        """
        if factor <= 0:
            raise ValueError("the scaling factor must be positive")
        return replace(self, generator=self.generator * factor)
