"""Reference transient solutions that tests and benchmarks compare against.

The transient solve itself is
:meth:`repro.markov.uniformization.TransientPropagator.transient_batch`;
this module holds the cross-checks for it: the dense matrix exponential,
the detection-free one-sweep uniformisation of
:func:`single_pass_transient`, and cumulative (time-integrated) state
probabilities, which cross-check the occupation-time algorithm of the
analytic solver.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg

from repro.checking.dense import dense_fallback
from repro.checking.protocols import FloatArray
from repro.markov.kernels import build_kernel
from repro.markov.poisson import shared_poisson_windows
from repro.markov.uniformization import BatchTransientResult, TransientPropagator

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy.typing as npt

    from repro.checking.protocols import GeneratorLike

__all__ = [
    "expm_transient",
    "single_pass_transient",
    "cumulative_state_probabilities",
]


def expm_transient(
    generator: GeneratorLike, initial_distribution: npt.ArrayLike, time: float
) -> FloatArray:
    """Reference transient solution via the dense matrix exponential.

    Only intended for small chains (tests and cross-validation); the
    uniformisation-based solver is the production path.
    """
    dense = dense_fallback(generator)
    alpha = np.asarray(initial_distribution, dtype=float).ravel()
    return alpha @ scipy.linalg.expm(dense * float(time))


def single_pass_transient(
    propagator: TransientPropagator,
    initial_distributions: npt.ArrayLike,
    times: npt.ArrayLike,
    *,
    epsilon: float,
    projection: npt.ArrayLike | None = None,
) -> BatchTransientResult:
    """Reference transient solution via the classical one-sweep uniformisation.

    The vector sequence ``v_n = alpha P^n`` is generated once, up to the
    largest right truncation point, and every requested time point
    accumulates the terms that fall inside its own Poisson window (all
    windows at *epsilon*, sliced from one shared table).  There is no
    steady-state detection and no segment chaining, so this is the
    cross-check baseline for :meth:`TransientPropagator.transient_batch`;
    tests and benchmarks call it, the solvers never do.  Arguments and the
    result layout follow :meth:`~TransientPropagator.transient_batch`.
    """
    alphas = np.atleast_2d(np.asarray(initial_distributions, dtype=float))
    times_array = np.atleast_1d(np.asarray(times, dtype=float))
    proj = None if projection is None else np.asarray(projection, dtype=float)
    unique_times, inverse = np.unique(times_array, return_inverse=True)
    rate = propagator.rate
    windows = shared_poisson_windows(tuple(rate * float(t) for t in unique_times), float(epsilon))
    lefts = np.array([window.left for window in windows], dtype=np.int64)
    rights = np.array([window.right for window in windows], dtype=np.int64)
    max_right = int(rights.max())
    min_left = int(lefts.min())
    truncation_error = np.array([max(0.0, 1.0 - window.total) for window in windows])

    # Concatenated weight table: the weight of window j at term n is
    # weight_table[offsets[j] + n] whenever lefts[j] <= n <= rights[j],
    # which turns the per-iteration window loop into one fancy-index
    # gather over the active windows.
    sizes = rights - lefts + 1
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1])) - lefts
    weight_table = np.concatenate([window.weights for window in windows])

    tail = (propagator.n_states,) if proj is None else proj.shape[1:]
    results = np.zeros((alphas.shape[0], unique_times.size, *tail))
    spmm = build_kernel(propagator.probability_matrix).spmm
    block = alphas.copy()
    for n in range(max_right + 1):
        # Projection products (and window updates) are skipped entirely
        # before the first active window.
        if n >= min_left:
            active = np.nonzero((lefts <= n) & (n <= rights))[0]
            if active.size:
                weights = weight_table[offsets[active] + n]
                contribution = block if proj is None else block @ proj
                if contribution.ndim == 1:
                    results[:, active] += contribution[:, None] * weights[None, :]
                else:
                    results[:, active] += weights[None, :, None] * contribution[:, None, :]
        if n < max_right:
            block = spmm(block)

    return BatchTransientResult(
        times=times_array,
        values=results[:, inverse],
        rate=rate,
        iterations=max_right,
        truncation_error=truncation_error[inverse],
        n_segments=int(unique_times.size),
    )


def cumulative_state_probabilities(
    generator: GeneratorLike,
    initial_distribution: npt.ArrayLike,
    time: float,
    *,
    n_points: int = 257,
    epsilon: float = 1e-10,
) -> FloatArray:
    """Return :math:`\\int_0^t \\pi_i(s)\\,ds` for every state ``i``.

    The integral is evaluated with the composite trapezoidal rule over a
    uniform grid of *n_points* transient solutions, which is accurate enough
    for the expected-energy computations it is used for (the integrand is
    smooth).  ``n_points`` must be at least two.
    """
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    grid = np.linspace(0.0, float(time), int(n_points))
    alpha = np.asarray(initial_distribution, dtype=float).ravel()
    distributions = (
        TransientPropagator(generator).transient_batch(alpha[None], grid, epsilon=epsilon).values[0]
    )
    return np.trapezoid(distributions, grid, axis=0)
