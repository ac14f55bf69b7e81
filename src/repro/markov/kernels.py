"""The compute kernel of the uniformisation hot path.

Every transient solve in this library bottoms out in the same inner loop:
repeated vector--matrix products ``v @ P`` against the uniformised DTMC
matrix, interleaved with Poisson-weighted accumulation
``accumulated += w_n * v``.  :class:`ScipyKernel` runs that loop for
:class:`~repro.markov.uniformization.TransientPropagator`.

Iterates are held **state-major**, as ``(n, K)`` arrays: for a CSR matrix
the product ``v @ P`` is then ``P^T v``, one call of scipy's compiled
``csr_matvec`` (``K = 1``) or ``csr_matvecs`` (``K > 1``) on the
pre-transposed matrix, written into a preallocated output.  The segment
loop ping-pongs between two buffers allocated once per segment, so no
product allocates.  Matrix-free operators (whose ``__rmatmul__`` takes a
``(K, n)`` block) plug into the same loop through a one-line adapter.

The segment runner returns a :class:`SegmentResult` whose ``status``
encodes the steady-state detection outcome (see the constants below); the
caller owns the bookkeeping (saved-product accounting, convergence
collapse).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np
import scipy.sparse as sp

# scipy's compiled CSR products, from a private module (see pyproject.toml).
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

from repro.checking.protocols import FloatArray

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.checking.protocols import GeneratorLike

__all__ = [
    "ScipyKernel",
    "SegmentResult",
    "build_kernel",
]

#: ``run_segment`` ran the whole Poisson window without detection firing.
SEGMENT_COMPLETED = 0
#: The segment's *starting* vector is already invariant under ``P``: the
#: transient solution has reached steady state (the caller collapses this
#: segment and every later one to a copy).
SEGMENT_START_INVARIANT = 1
#: The power iterates stopped changing mid-window: the window tail was
#: collapsed onto the remaining Poisson mass (the transient solution is
#: *not* necessarily stationary -- later segments still run).
SEGMENT_TAIL_COLLAPSED = 2

#: ``apply_into(x, out)``: write the product ``x @ P`` of the state-major
#: iterate *x* into *out*, a C-contiguous array of the same shape that
#: never aliases *x*.
ApplyInto = Callable[[FloatArray, FloatArray], None]


@dataclass
class SegmentResult:
    """Outcome of one Poisson-window segment run.

    Attributes
    ----------
    accumulated:
        The Poisson-weighted mixture ``sum_n w_n * (v P^n)`` accumulated
        over the window (with the tail collapsed onto the remaining mass
        when ``status == SEGMENT_TAIL_COLLAPSED``).  Undefined (callers
        must substitute the segment's input) when
        ``status == SEGMENT_START_INVARIANT``.
    vector:
        The final power iterate.
    performed:
        Number of ``v @ P`` products the segment executed.
    status:
        One of the ``SEGMENT_*`` constants.
    break_index:
        The iteration index at which detection fired (the window's right
        truncation point when it never did).
    """

    accumulated: FloatArray
    vector: FloatArray
    performed: int
    status: int
    break_index: int


def segment_python(
    apply_into: ApplyInto,
    v: FloatArray,
    weights: FloatArray,
    left: int,
    right: int,
    tol: float,
    progress: Callable[[int], None] | None = None,
) -> SegmentResult:
    """The segment loop: one Poisson window of products and accumulation.

    *v* is the state-major ``(n, K)`` starting block; it is never written.
    *apply_into* evaluates one ``v @ P`` product into a given buffer.
    *progress* (when given) is invoked once per product with the count of
    products performed so far in this segment.
    """
    # The weighted copy of the iterate and the step difference share one
    # scratch buffer; the products ping-pong between two more.  All four
    # are C-contiguous and allocated here, once per segment, and never
    # per product.
    accumulated = np.zeros(v.shape)
    scaled = np.empty(v.shape)
    buffers = (np.empty(v.shape), np.empty(v.shape))
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
        v_next = buffers[performed % 2]
        apply_into(v, v_next)
        performed += 1
        if progress is not None:
            progress(performed)
        if tol > 0.0:
            np.subtract(v_next, v, out=scaled)
            np.abs(scaled, out=scaled)
            step_change = float(np.max(scaled.T.sum(axis=1)))
            v = v_next
            if step_change < tol:
                if n == 0:
                    status = SEGMENT_START_INVARIANT
                else:
                    status = SEGMENT_TAIL_COLLAPSED
                    np.multiply(v, max(0.0, remaining_mass), out=scaled)
                    accumulated += scaled
                break_index = n
                break
        else:
            v = v_next
    return SegmentResult(
        accumulated=accumulated,
        vector=v,
        performed=performed,
        status=status,
        break_index=break_index,
    )


class ScipyKernel:
    """Compiled CSR products on a pre-transposed ``P``, Python segment loop.

    *matrix* is ``P`` as a scipy sparse matrix -- ideally the CSC view
    ``P^T.T`` :class:`~repro.markov.uniformization.TransientPropagator`
    stores, whose transpose is the CSR ``P^T`` without a copy -- or a
    matrix-free operator, applied through its ``__rmatmul__``.  The kernel
    holds no per-solve state, so one instance serves concurrent solves.
    """

    def __init__(self, matrix: GeneratorLike) -> None:
        if sp.issparse(matrix):
            transposed = matrix.T.tocsr()  # zero-copy for a CSC view
            n_rows, n_cols = transposed.shape
            indptr, indices, data = transposed.indptr, transposed.indices, transposed.data

            def apply_into(x: FloatArray, out: FloatArray) -> None:
                out.fill(0.0)  # the compiled routines accumulate into out
                n_vecs = x.shape[1]
                if n_vecs == 1:
                    csr_matvec(n_rows, n_cols, indptr, indices, data, x.ravel(), out.ravel())
                else:
                    csr_matvecs(n_rows, n_cols, n_vecs, indptr, indices, data, x.ravel(), out.ravel())

        else:

            def apply_into(x: FloatArray, out: FloatArray) -> None:
                out.T[...] = x.T @ matrix  # type: ignore[operator]

        self.apply_into: ApplyInto = apply_into

    def spmm(self, block: FloatArray) -> FloatArray:
        """One ``block @ P`` product of a ``(K, n)`` block; *block* is not written."""
        x = np.ascontiguousarray(block.T)
        out = np.empty_like(x)
        self.apply_into(x, out)
        return out.T

    def run_segment(
        self,
        v: FloatArray,
        weights: FloatArray,
        left: int,
        right: int,
        tol: float,
        progress: Callable[[int], None] | None = None,
    ) -> SegmentResult:
        """Run one Poisson-window segment (see :func:`segment_python`)."""
        return segment_python(self.apply_into, v, weights, left, right, tol, progress)


def build_kernel(matrix: GeneratorLike) -> ScipyKernel:
    """Construct the kernel that applies the uniformised *matrix*."""
    return ScipyKernel(matrix)
