"""Transient solution of CTMCs via uniformisation.

Uniformisation (also called Jensen's method or randomisation) converts the
matrix exponential :math:`\\alpha e^{Qt}` into a Poisson mixture of powers of
the uniformised DTMC matrix ``P = I + Q/q``:

.. math::

   \\pi(t) \\;=\\; \\sum_{n=0}^{\\infty}
        e^{-qt} \\frac{(qt)^n}{n!} \\; \\alpha P^n .

The implementation supports **many output time points** through one
evaluation strategy: the time grid is sorted and deduplicated, and
``pi(t_j)`` is propagated from ``pi(t_{j-1})`` with Poisson rate
``q (t_j - t_{j-1})``, so the work per segment scales with the *gap*
between neighbouring time points instead of restarting from ``t = 0`` for
the largest time.  On top of that, the iteration monitors the per-step
change ``||v P - v||_1``: once the distribution stops changing (for the
battery chains this happens shortly after depletion, because the empty
states are absorbing) the remaining Poisson tail -- and every remaining
segment -- collapses to a closed-form completion.  Because ``P`` is
row-stochastic the 1-norm change is non-increasing, so the detection
threshold (half the truncation bound divided by the number of remaining
products, the other half being spent on the window truncations) keeps the
total per-point error below ``epsilon``.  Long horizons after depletion
become nearly free; the savings are reported in the result's
``iterations_saved`` / ``steady_state_time`` diagnostics.

The classical detection-free sweep (``v_n = alpha P^n`` generated once up
to the largest right truncation point, every time point accumulating the
terms inside its own Poisson window) is not a solve path: it is the
cross-check reference :func:`repro.markov.transient.single_pass_transient`
that tests and benchmarks compare against.

Two further reuse levers are exposed for the engine layer:

* :class:`TransientPropagator` validates the generator, converts it to CSR
  and uniformises it **once**, so repeated solves on the same chain (time
  grid refinements, parameter sweeps) skip all of that per call.  ``P`` is
  stored once, as the CSR transpose ``P^T`` the compiled products of
  :mod:`repro.markov.kernels` multiply with.
* :meth:`TransientPropagator.transient_batch` -- the one entry point of
  the transient solve, returning a :class:`BatchTransientResult` --
  propagates a whole *stack* of ``K`` initial distributions through the
  chain in one pass (a single distribution is the stack ``alpha[None]``).  The stack is
  held state-major, as an ``(n, K)`` block, so each dominating sparse
  product is one compiled CSR-times-multivector call instead of ``K``
  separate products, which is substantially faster for scenario batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.checking.protocols import FloatArray
from repro.markov import kernels
from repro.markov.generator import as_csr, validate_generator
from repro.markov.kronecker import KroneckerGenerator, UniformizedOperator
from repro.markov.poisson import cached_poisson_weights, truncation_points
from repro.markov.validate import check_generator

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy.typing as npt

    from repro.checking.protocols import GeneratorLike

__all__ = [
    "BatchTransientResult",
    "TransientPropagator",
    "uniformization_rate",
]

#: Safety factor applied on top of the maximal exit rate when choosing the
#: uniformisation rate.  A slightly larger rate guarantees that the
#: uniformised matrix has strictly positive diagonal entries, which makes the
#: iteration aperiodic and numerically benign.
RATE_SAFETY_FACTOR = 1.02


@dataclass
class BatchTransientResult:
    """Result of a batched (multi-initial-vector) uniformisation run.

    Attributes
    ----------
    times:
        The requested time points.
    values:
        Shape ``(K, len(times), n_states)`` without a projection; with a
        projection vector of shape ``(n_states,)`` the state dimension is
        contracted away and the shape is ``(K, len(times))``; a projection
        matrix ``(n_states, m)`` yields ``(K, len(times), m)``.
    rate:
        The uniformisation rate that was used.
    iterations:
        Number of block--matrix products that were performed.
    truncation_error:
        Upper bound on the neglected Poisson mass, per time point,
        cumulative over the segment chain up to each time point.
    n_segments:
        Number of distinct propagation segments (deduplicated time points).
    iterations_saved:
        Block--matrix products avoided by steady-state detection (a
        conservative estimate for segments skipped entirely).
    steady_state_time:
        Time point during whose segment convergence was detected, or
        ``None``.
    steady_state_iteration:
        Global product count at which convergence was detected, or ``None``.
    """

    times: FloatArray
    values: FloatArray
    rate: float
    iterations: int
    truncation_error: FloatArray
    n_segments: int = 0
    iterations_saved: int = 0
    steady_state_time: float | None = None
    steady_state_iteration: int | None = None


def uniformization_rate(
    generator: GeneratorLike, *, safety: float = RATE_SAFETY_FACTOR
) -> float:
    """Return a uniformisation rate for *generator*.

    The rate is the maximal exit rate multiplied by a small safety factor.
    A strictly positive lower bound is enforced so that generators of
    completely absorbing chains (all rates zero) still produce a valid,
    trivial uniformised matrix.
    """
    from repro.markov.generator import exit_rates

    max_exit = float(np.max(exit_rates(generator), initial=0.0))
    if max_exit <= 0.0:
        return 1.0
    return max_exit * safety


class TransientPropagator:
    """Reusable transient solver for one CTMC generator.

    The constructor performs all the per-chain work exactly once -- CSR
    conversion (the pipeline is sparse end-to-end; dense workload chains are
    converted at this boundary), validation, exit-rate extraction and
    uniformisation -- so that every subsequent :meth:`transient_batch` call
    only pays for the Poisson windows (which are memoised globally) and the
    vector--matrix products.

    Parameters
    ----------
    generator:
        CTMC generator matrix (dense ndarray or any scipy sparse format).
    rate:
        Optional uniformisation rate; must dominate every exit rate.  When
        omitted, the maximal exit rate times a small safety factor is used.
    validate:
        When ``True`` (default) the generator is validated once here, and
        initial distributions are checked in every solve call.
    """

    def __init__(
        self,
        generator: GeneratorLike,
        *,
        rate: float | None = None,
        validate: bool = True,
    ) -> None:
        self._matrix_free = isinstance(generator, KroneckerGenerator)
        if self._matrix_free:
            # Matrix-free chains stay operators end-to-end: validation is
            # the operator's cheap structural check, and the uniformised
            # matrix is the lazy map v -> v + (v Q)/rate instead of a CSR
            # copy of the (possibly un-materialisable) product generator.
            matrix = generator
            if validate:
                generator.validate()
        else:
            matrix = as_csr(generator)
            if matrix.shape[0] != matrix.shape[1]:
                raise ValueError(f"generator must be square, got shape {matrix.shape}")
            if validate:
                validate_generator(matrix)
        self._validate = bool(validate)
        self._generator = matrix
        exit = -matrix.diagonal()
        max_exit = float(np.max(exit, initial=0.0))
        if rate is None:
            self._rate = max_exit * RATE_SAFETY_FACTOR if max_exit > 0.0 else 1.0
        else:
            self._rate = float(rate)
            if self._rate <= 0:
                raise ValueError(f"uniformisation rate must be positive, got {rate}")
            if self._rate < max_exit * (1.0 - 1e-12):
                raise ValueError(
                    f"uniformisation rate {rate} is smaller than the maximal exit "
                    f"rate {max_exit}"
                )
        # REPRO_CHECKS contract hook: in "off" mode this is one dict
        # lookup; "warn"/"strict" run the full structural validator
        # (including uniformisation-rate dominance) on every propagator.
        check_generator(self._generator, rate=self._rate)
        if self._matrix_free:
            self._probability_matrix = UniformizedOperator(matrix, self._rate)
        else:
            # P is stored once, as the CSR transpose the kernel multiplies
            # with; ``probability_matrix`` is its zero-copy CSC view.
            n = matrix.shape[0]
            transposed = sp.identity(n, format="csr") + matrix.T.tocsr() / self._rate
            self._probability_matrix = transposed.T
        self._kernel = kernels.build_kernel(self._probability_matrix)

    # ------------------------------------------------------------------
    @property
    def generator(self) -> GeneratorLike:
        """The generator: the CSR matrix used internally, or the operator.

        Matrix-free chains (a
        :class:`~repro.markov.kronecker.KroneckerGenerator`) are kept as
        operators; everything else is the CSR conversion.
        """
        return self._generator

    @property
    def is_matrix_free(self) -> bool:
        """Whether the chain is propagated through a matrix-free operator."""
        return self._matrix_free

    @property
    def probability_matrix(self) -> sp.csc_matrix | UniformizedOperator:
        """The uniformised DTMC matrix ``P = I + Q/rate``.

        A CSC view of the stored CSR ``P^T`` (so ``probability_matrix.T``
        is that CSR matrix, without a copy), or the operator for
        matrix-free chains.
        """
        return self._probability_matrix

    @property
    def rate(self) -> float:
        """The uniformisation rate."""
        return self._rate

    @property
    def n_states(self) -> int:
        """Number of states of the chain."""
        return int(self._generator.shape[0])

    # ------------------------------------------------------------------
    def _check_initials(self, alphas: FloatArray) -> None:
        if alphas.shape[1] != self.n_states:
            raise ValueError(
                f"initial distribution has {alphas.shape[1]} entries but the "
                f"generator has {self.n_states} states"
            )
        if self._validate:
            totals = alphas.sum(axis=1)
            if not np.allclose(totals, 1.0, atol=1e-8):
                worst = float(totals[int(np.argmax(np.abs(totals - 1.0)))])
                raise ValueError(f"initial distribution sums to {worst}, expected 1")
            if np.any(alphas < -1e-12):
                raise ValueError("initial distribution has negative entries")

    @staticmethod
    def _store(
        results: FloatArray,
        index: int | FloatArray,
        block: FloatArray,
        proj: FloatArray | None,
    ) -> None:
        """Write the (projected) state-major *block* into the time slot(s) *index*."""
        rows = block.T
        results[:, index] = rows if proj is None else rows @ proj

    def transient_batch(
        self,
        initial_distributions: npt.ArrayLike,
        times: npt.ArrayLike,
        *,
        epsilon: float = 1e-10,
        projection: npt.ArrayLike | None = None,
        callback: Callable[[int, int], None] | None = None,
    ) -> BatchTransientResult:
        """Propagate a stack of initial distributions in one shared pass.

        The segments ``pi(t_{j-1}) -> pi(t_j)`` are chained with
        steady-state detection (see the module docstring).  The detector's
        per-step 1-norm threshold is derived from the remaining product
        budget so that the accumulated detection error stays below half of
        *epsilon* (the other half covers the window truncations): because
        ``P`` is row-stochastic the 1-norm of the per-step change never
        grows, so freezing after a step change below
        ``budget / products_remaining`` bounds the total drift by the
        budget.

        Parameters
        ----------
        initial_distributions:
            Array of shape ``(K, n_states)``; one initial probability vector
            per scenario.
        times:
            Scalar or sequence of non-negative time points, shared by all
            scenarios (callers merge their grids and slice the result).
            Duplicates and arbitrary order are allowed; internally the grid
            is sorted and deduplicated, and the results are returned in the
            caller's order.
        epsilon:
            Bound on the truncation error per time point (cumulative along
            the segment chain).
        projection:
            Optional vector ``(n_states,)`` or matrix ``(n_states, m)``.
            When given, only the projected quantities (for example the
            probability mass of the absorbing "battery empty" states) are
            accumulated, which reduces the memory footprint from
            ``K x T x n`` to ``K x T (x m)``.
        callback:
            Optional ``callback(iteration, total_iterations)`` hook, invoked
            every 1000 block products (``total_iterations`` is an estimate).

        Returns
        -------
        BatchTransientResult
        """
        times_array = np.atleast_1d(np.asarray(times, dtype=float))
        if times_array.ndim != 1:
            raise ValueError("time points must form a one-dimensional grid")
        if np.any(times_array < 0):
            raise ValueError("time points must be non-negative")
        alphas = np.atleast_2d(np.asarray(initial_distributions, dtype=float))
        self._check_initials(alphas)

        proj = None
        if projection is not None:
            proj = np.asarray(projection, dtype=float)
            if proj.shape[0] != self.n_states:
                raise ValueError(
                    f"projection has leading dimension {proj.shape[0]}, expected "
                    f"{self.n_states}"
                )

        # Deduplicate and sort once: repeated time points share one Poisson
        # window, and the segment chain requires ascending segments.
        unique_times, inverse = np.unique(times_array, return_inverse=True)
        n_times = unique_times.size
        # Half of the error budget goes to the window truncations (split
        # across the chained segments: every segment contributes at most one
        # window truncation to each later time point), the other half to the
        # steady-state detection drift, so the two mechanisms together stay
        # below the caller's epsilon.
        segment_epsilon = 0.5 * float(epsilon) / max(1, n_times)
        detection_budget = 0.5 * float(epsilon)

        gaps = np.diff(unique_times, prepend=0.0)
        # Upper bound on the products each segment can perform: the
        # Fox--Glynn right truncation point (the realised window can only be
        # trimmed smaller).  The suffix sums turn the detection threshold
        # into a per-segment budget that soundly covers every remaining
        # product of the whole horizon.
        planned_products = np.array(
            [
                truncation_points(self._rate * float(gap), segment_epsilon)[1]
                if gap > 0.0
                else 0
                for gap in gaps
            ],
            dtype=np.int64,
        )
        products_after = np.concatenate((np.cumsum(planned_products[::-1])[::-1][1:], [0]))

        tail = (self.n_states,) if proj is None else proj.shape[1:]
        results = np.zeros((alphas.shape[0], n_times, *tail))
        truncation_error = np.zeros(n_times)

        # The iterate is held state-major, (n, K), as the kernel wants it.
        current = alphas.T.copy()
        converged = False
        performed = 0
        saved = 0
        error_bound = 0.0
        steady_state_time: float | None = None
        steady_state_iteration: int | None = None
        # Callback totals are an estimate: the Poisson mean of the full
        # horizon (the exact per-segment right points are not known up
        # front, and may never be reached thanks to detection).
        estimated_total = int(math.ceil(self._rate * float(unique_times[-1]))) + 1

        for j in range(n_times):
            gap = float(gaps[j])
            if gap <= 0.0:
                # t = 0 (or a numerically identical neighbour): the
                # distribution is unchanged.
                self._store(results, j, current, proj)
                truncation_error[j] = error_bound
                continue
            if converged:
                # The distribution no longer changes; the whole segment is a
                # closed-form copy.  The skipped products are estimated by
                # the Poisson mean of the segment (a lower bound on the
                # window's right truncation point).
                saved += int(math.ceil(self._rate * gap))
                self._store(results, j, current, proj)
                truncation_error[j] = error_bound
                continue

            window = cached_poisson_weights(self._rate * gap, segment_epsilon)
            # Budgeted tolerance: once one step changes by less than
            # budget / products_remaining, freezing the distribution keeps
            # the accumulated drift below the detection budget over the
            # whole remaining horizon.
            products_remaining = window.right + int(products_after[j])
            tol = detection_budget / max(1.0, float(products_remaining))
            # The segment's products, weighted accumulation and
            # steady-state change tracking all run inside the kernel.
            progress: Callable[[int], None] | None = None
            if callback is not None:
                base = performed

                def progress(in_segment: int, _base: int = base) -> None:
                    count = _base + in_segment
                    if (count - 1) % 1000 == 0:
                        callback(count - 1, estimated_total)

            with obs.detail_span(
                "segment", index=j, left=window.left, right=window.right
            ):
                segment = self._kernel.run_segment(
                    current, window.weights, window.left, window.right, tol, progress
                )
            performed += segment.performed
            if segment.status == kernels.SEGMENT_START_INVARIANT:
                # The segment's *starting* vector is already invariant
                # under P, so the transient solution itself has reached
                # steady state (for the battery chains: the absorbing
                # empty states have soaked up all the mass).  This
                # segment and every later one collapse to a copy --
                # `current` stays as it is.
                saved += window.right - 1
                converged = True
                steady_state_time = float(unique_times[j])
                steady_state_iteration = performed
            else:
                if segment.status == kernels.SEGMENT_TAIL_COLLAPSED:
                    # The power iterates stopped changing mid-window: the
                    # kernel collapsed the window tail onto its remaining
                    # Poisson mass.  (This does *not* imply pi(t) is
                    # stationary -- later segments still run, and the
                    # start-invariant test above decides when the whole
                    # chain has converged.)
                    saved += window.right - (segment.break_index + 1)
                current = segment.accumulated
            error_bound += max(0.0, 1.0 - window.total)
            self._store(results, j, current, proj)
            truncation_error[j] = error_bound

        return BatchTransientResult(
            times=times_array,
            values=results[:, inverse],
            rate=self._rate,
            iterations=performed,
            truncation_error=truncation_error[inverse],
            n_segments=int(n_times),
            iterations_saved=saved,
            steady_state_time=steady_state_time,
            steady_state_iteration=steady_state_iteration,
        )

