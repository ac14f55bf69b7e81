"""Matrix-free application of Kronecker-structured CTMC generators.

The multi-battery product chains of :mod:`repro.multibattery` have the form

.. math::

    Q \\;=\\; \\sum_t D_t \\, (F_{t,0} \\otimes F_{t,1} \\otimes \\cdots
        \\otimes F_{t,m-1}) \\;-\\; \\mathrm{diag}(\\text{row sums}),

where each summand touches only one or two *small* factors (the workload/
phase block, or one battery's charge grid) and every other factor is an
identity, while the diagonal left-scaling :math:`D_t` carries the
state-dependent pieces (routing weights, per-state currents, the k-of-N
absorption mask).  Assembling this sum as one CSR matrix costs memory and
time that grow with the *product* of the factor sizes; applying it to a
vector does not have to.  This module provides

* :class:`KroneckerTerm` -- one summand, stored as its non-identity factors
  plus broadcastable diagonal scalings,
* :class:`KroneckerGenerator` -- a ``LinearOperator``-style generator that
  evaluates ``v @ Q`` factor-wise: the vector is reshaped to the factor
  grid, each scaling is applied as an elementwise product and each factor
  as a small matrix product along its own axis (one
  ``reshape``/``moveaxis`` round-trip per factor, never an ``n x n``
  matrix), and
* :class:`UniformizedOperator` -- the uniformised DTMC map
  ``v @ P = v + (v @ Q) / rate`` built on top of a generator operator, so
  :class:`~repro.markov.uniformization.TransientPropagator` (including the
  incremental fast path and its steady-state detection) runs unchanged on
  matrix-free chains.

Both operator classes set ``__array_ufunc__ = None`` and implement
``__rmatmul__``, so the existing ``block @ matrix`` inner loops of the
uniformisation code dispatch to the factor-wise application without any
call-site changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.checking.protocols import FloatArray
from repro.markov.generator import GeneratorError, as_csr

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Iterable, Sequence

__all__ = [
    "KroneckerGenerator",
    "KroneckerTerm",
    "UniformizedOperator",
    "assembled_csr_bytes",
    "is_matrix_free",
]


def is_matrix_free(matrix: object) -> bool:
    """Return ``True`` when *matrix* is a matrix-free operator of this module."""
    return isinstance(matrix, (KroneckerGenerator, UniformizedOperator))


#: Factors up to this size are densified for the trailing-axis BLAS path
#: (the dense copy is at most 128 KiB; the matmul beats scipy's
#: dense-by-sparse dispatch by ~2x at these sizes).
_DENSE_FACTOR_LIMIT = 128


class _PreparedFactor:
    """One factor of a term, preprocessed for fast axis-wise contraction.

    Two contraction strategies, chosen by the position of the axis in the
    (C-ordered) product tensor:

    * a **non-trailing axis** reshapes the tensor to ``(left, f, right)``
      views -- no copy -- and contracts the factor's non-zeros grouped by
      diagonal offset: all entries with ``col - row == d`` collapse into a
      single broadcast update ``out[:, rows+d, :] += values * T[:, rows, :]``
      (a pure slice expression when the rows are contiguous, which they
      are for the shift-structured charge factors of the battery chains).
      The historical entry-by-entry loop issued ``nnz(F)`` separate numpy
      calls; the grouped form issues one per distinct offset;
    * the **trailing axis** is a contiguous ``(n/f, f)`` view, contracted
      in one matmul (dense BLAS for small factors, dense-by-sparse
      otherwise).
    """

    def __init__(self, axis: int, matrix: sp.csr_matrix) -> None:
        self.axis = axis
        self.matrix = matrix
        coo = matrix.tocoo()
        size = matrix.shape[0]
        # Factor-local densification, bounded by _DENSE_FACTOR_LIMIT (128).
        self.dense = matrix.toarray() if size <= _DENSE_FACTOR_LIMIT else None  # repro-lint: allow RPR001
        self._offsets = self._group_by_offset(coo)

    @staticmethod
    def _group_by_offset(coo: sp.coo_matrix) -> tuple[Any, ...]:
        """Group the non-zeros by diagonal offset for vectorised updates.

        Returns ``(rows, cols, values)`` triples, one per distinct
        ``col - row`` offset; *rows*/*cols* are slices when the offset's
        row indices are contiguous (the common case: shift matrices), and
        index arrays otherwise.
        """
        by_offset: dict[int, list[tuple[int, float]]] = {}
        for row, col, value in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
            by_offset.setdefault(col - row, []).append((row, value))
        grouped = []
        for offset in sorted(by_offset):
            pairs = sorted(by_offset[offset])
            rows = np.array([row for row, _ in pairs], dtype=np.intp)
            values = np.array([value for _, value in pairs], dtype=float)
            if rows.size > 1 and np.all(np.diff(rows) == 1):
                row_index = slice(int(rows[0]), int(rows[-1]) + 1)
                col_index = slice(int(rows[0]) + offset, int(rows[-1]) + 1 + offset)
            elif rows.size == 1:
                row_index = slice(int(rows[0]), int(rows[0]) + 1)
                col_index = slice(int(rows[0]) + offset, int(rows[0]) + 1 + offset)
            else:
                row_index = rows
                col_index = rows + offset
            grouped.append((row_index, col_index, values))
        return tuple(grouped)

    def scaled(self, gain: float) -> "_PreparedFactor":
        """A copy of this factor with every entry multiplied by *gain*.

        Used by :class:`UniformizedOperator` to fold the ``1/rate`` of the
        uniformised map into one (small) factor per term, removing a
        full-space scaling pass per product.
        """
        return _PreparedFactor(self.axis, (self.matrix * float(gain)).tocsr())

    def operand(self) -> Any:
        """The trailing-axis matmul operand: dense for small factors, else CSR."""
        return self.dense if self.dense is not None else self.matrix

    def apply(self, tensor: Any) -> Any:
        """Contract *tensor*'s axis with the factor rows (``v -> v @ F``)."""
        shape = tensor.shape
        axis = self.axis
        size = shape[axis]
        right = int(np.prod(shape[axis + 1 :], dtype=np.int64))
        if right == 1:
            flat = tensor.reshape(-1, size)
            return np.asarray(flat @ self.operand()).reshape(shape)
        left = int(np.prod(shape[:axis], dtype=np.int64))
        flat = tensor.reshape(left, size, right)
        out = np.zeros_like(flat)
        for rows, cols, values in self._offsets:
            out[:, cols, :] += values[:, None] * flat[:, rows, :]
        return out.reshape(shape)

    def apply_into(self, tensor: Any, out: Any) -> None:
        """Accumulate the contraction into *out* (``out += tensor @ F``).

        The fused inner-loop form: no zero-initialised temporary and no
        separate full-space add -- the slice updates (or the trailing-axis
        matmul result) land directly in the caller's accumulator.  *out*
        must be C-contiguous and of *tensor*'s shape.
        """
        shape = tensor.shape
        axis = self.axis
        size = shape[axis]
        right = int(np.prod(shape[axis + 1 :], dtype=np.int64))
        if right == 1:
            flat = tensor.reshape(-1, size)
            out_flat = out.reshape(-1, size)
            out_flat += np.asarray(flat @ self.operand())
            return
        left = int(np.prod(shape[:axis], dtype=np.int64))
        flat = tensor.reshape(left, size, right)
        out_flat = out.reshape(left, size, right)
        for rows, cols, values in self._offsets:
            out_flat[:, cols, :] += values[:, None] * flat[:, rows, :]


@dataclass(frozen=True)
class KroneckerTerm:
    """One Kronecker-structured summand of a product-space generator.

    Attributes
    ----------
    factors:
        ``(axis, matrix)`` pairs for the non-identity factors; *axis*
        indexes the generator's ``dims`` and *matrix* is a small CSR
        matrix of that factor's size.  Axes not listed carry an implicit
        identity.
    scales:
        Diagonal left-scalings, each an array broadcastable to ``dims``
        (size-1 axes where the scaling is trivial).  Their product is the
        diagonal matrix ``D`` of the summand ``D (F_0 x ... x F_{m-1})``;
        state-dependent rates (routing weights, currents, absorption
        masks) live here without ever being expanded to the full space.
    """

    factors: tuple[tuple[int, sp.csr_matrix], ...]
    scales: tuple[FloatArray, ...] = ()


def _combine_scale_groups(scales: Sequence[FloatArray]) -> tuple[FloatArray, ...]:
    """Greedily multiply a term's scalings together where that saves memory.

    Each product of two scalings costs one full-tensor pass per operator
    application forever after, so pre-combining pays -- but only when the
    combined broadcast array is no larger than the arrays it replaces
    (combining a ``(n_aux, 1, ..., 1)`` current profile with a
    ``(1, c_1, ..., c_m)`` cell weight would materialise a full
    product-space array and blow the matrix-free memory budget).  Greedy
    first-fit keeps compatible shapes together and leaves the rest alone.
    """
    groups: list[FloatArray] = []
    for scale in scales:
        for index, group in enumerate(groups):
            shape = np.broadcast_shapes(group.shape, scale.shape)
            combined_bytes = int(np.prod(shape, dtype=np.int64)) * scale.dtype.itemsize
            if combined_bytes <= group.nbytes + scale.nbytes:
                groups[index] = group * scale
                break
        else:
            groups.append(scale)
    return tuple(groups)


def _apply_terms(
    rows: Any,
    dims: tuple[int, ...],
    diagonal: Any,
    terms: tuple[Any, ...],
) -> Any:
    """Shared fused evaluation core: ``rows @ (diag(diagonal) + sum terms)``.

    *terms* is a sequence of ``(scale_groups, prepared_factors, gain)``
    triples.  The evaluation makes exactly one output allocation (the
    diagonal product) and reuses two scratch buffers for every scaling
    chain; each term's last factor accumulates straight into the output
    (:meth:`_PreparedFactor.apply_into`), so no per-term temporaries or
    separate add passes remain.  *gain* is a scalar folded into factorless
    terms only (factor-carrying terms fold gains into the factor values).

    Terms whose scaling chain starts with the *same* array (by identity;
    the generator canonicalises equal-content scalings at construction)
    share the partial product ``rows * scale_groups[0]``: the bank chains
    scale every consumption term by the same per-workload-state current
    profile, so the shared prefix is computed once per product instead of
    once per battery.
    """
    out = rows * diagonal
    batch_dims = (rows.shape[0],) + tuple(dims)
    out_tensor = out.reshape(batch_dims)
    rows_tensor = rows.reshape(batch_dims)
    scratch = None
    prefix = None
    prefix_id = None
    for scale_groups, factors, gain in terms:
        tensor = rows_tensor
        if scale_groups:
            first = scale_groups[0]
            if id(first) != prefix_id:
                if prefix is None:
                    prefix = np.empty(batch_dims, dtype=out.dtype)
                np.multiply(rows_tensor, first, out=prefix)
                prefix_id = id(first)
            if len(scale_groups) == 1:
                tensor = prefix
            else:
                if scratch is None:
                    scratch = np.empty(batch_dims, dtype=out.dtype)
                np.multiply(prefix, scale_groups[1], out=scratch)
                for scale in scale_groups[2:]:
                    scratch *= scale
                tensor = scratch
        if factors:
            for factor in factors[:-1]:
                tensor = factor.apply(tensor)
            factors[-1].apply_into(tensor, out_tensor)
        elif gain == 1.0:
            out_tensor += tensor
        elif tensor is scratch:
            scratch *= gain
            out_tensor += scratch
        else:
            # ``tensor`` is the raw block or the memoised prefix -- both
            # must survive later terms unchanged.
            out_tensor += tensor * gain
    return out


class KroneckerGenerator:
    """Matrix-free CTMC generator over a Kronecker product space.

    The operator evaluates ``v @ Q`` (for a vector or a ``(K, n)`` block)
    without materialising ``Q``: per term, the block is reshaped to
    ``(K, *dims)``, multiplied by the term's diagonal scalings, and each
    small factor is contracted along its own axis.  The generator's
    diagonal (the negated off-diagonal row sums) is precomputed once as a
    plain length-``n`` vector -- the only full-space array the operator
    owns besides the scalings the caller provides.

    Parameters
    ----------
    dims:
        The factor sizes; the product space has ``n = prod(dims)`` states.
    terms:
        The off-diagonal summands (entries must be non-negative).
    validate:
        When ``True`` the scalings and factor entries are checked to be
        non-negative at construction.
    """

    __array_ufunc__: None = None  # make `ndarray @ operator` defer to __rmatmul__

    def __init__(
        self,
        dims: Iterable[int],
        terms: Iterable[KroneckerTerm],
        *,
        validate: bool = True,
    ) -> None:
        self._dims = tuple(int(dim) for dim in dims)
        if not self._dims or any(dim < 1 for dim in self._dims):
            raise GeneratorError(f"factor dimensions must be positive, got {dims}")
        self._n = int(np.prod(self._dims))
        prepared: list[KroneckerTerm] = []
        for term in terms:
            factors = []
            for axis, factor in term.factors:
                axis = int(axis)
                if not 0 <= axis < len(self._dims):
                    raise GeneratorError(
                        f"factor axis {axis} outside dims of length {len(self._dims)}"
                    )
                matrix = as_csr(factor)
                expected = (self._dims[axis], self._dims[axis])
                if matrix.shape != expected:
                    raise GeneratorError(
                        f"factor on axis {axis} has shape {matrix.shape}, "
                        f"expected {expected}"
                    )
                if validate and matrix.nnz and float(matrix.data.min(initial=0.0)) < 0.0:
                    raise GeneratorError(f"factor on axis {axis} has negative entries")
                factors.append((axis, matrix))
            scales = []
            for scale in term.scales:
                array = np.asarray(scale, dtype=float)
                try:
                    np.broadcast_shapes(array.shape, self._dims)
                except ValueError:
                    raise GeneratorError(
                        f"scale of shape {array.shape} does not broadcast to {self._dims}"
                    ) from None
                if validate and array.size and float(array.min()) < 0.0:
                    raise GeneratorError("diagonal scalings must be non-negative")
                scales.append(array)
            prepared.append(KroneckerTerm(factors=tuple(factors), scales=tuple(scales)))
        self._terms = tuple(prepared)
        # The batch axis of apply() blocks shifts every factor axis by one.
        self._prepared = [
            [_PreparedFactor(axis + 1, matrix) for axis, matrix in term.factors]
            for term in self._terms
        ]
        # The fused application form consumed by _apply_terms: per term the
        # pre-combined scale groups, the prepared factors and a scalar gain
        # (always 1 here; UniformizedOperator folds its 1/rate into these).
        # Equal-content scale arrays are canonicalised to one object so the
        # shared-prefix memo of _apply_terms (keyed by identity) fires for
        # the per-battery terms, which all lead with the same current
        # profile but are built from distinct array copies.
        canonical: dict[tuple[Any, ...], FloatArray] = {}

        def canonicalised(array: FloatArray) -> FloatArray:
            key = (array.shape, array.dtype.str, array.tobytes())
            return canonical.setdefault(key, array)

        self._fused_terms = tuple(
            (
                tuple(canonicalised(group) for group in _combine_scale_groups(term.scales)),
                tuple(factors),
                1.0,
            )
            for term, factors in zip(self._terms, self._prepared)
        )
        self._diagonal = -self._off_diagonal_row_sums()
        self._nnz = self._implied_nnz()

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        """The (square) shape of the represented generator."""
        return (self._n, self._n)

    @property
    def dims(self) -> tuple[int, ...]:
        """The factor sizes of the product space."""
        return self._dims

    @property
    def terms(self) -> tuple[KroneckerTerm, ...]:
        """The off-diagonal Kronecker summands."""
        return self._terms

    @property
    def nnz(self) -> int:
        """Non-zeros the *assembled* generator would hold (diagonal included).

        Computed factor-wise, exactly, under the assumption that distinct
        terms never target the same ``(row, column)`` pair -- true for the
        multi-battery chains, where every term shifts a different factor.
        Exposed under the CSR attribute name so size diagnostics and
        memory estimates treat assembled and matrix-free chains uniformly.
        """
        return self._nnz

    def diagonal(self) -> FloatArray:
        """The diagonal of the generator (negated off-diagonal row sums)."""
        return self._diagonal

    def storage_bytes(self) -> int:
        """Bytes this operator holds: diagonal, scalings, factor matrices.

        The honest counterpart of :func:`assembled_csr_bytes`: what the
        matrix-free representation costs instead of the assembled CSR
        (iteration vectors are excluded on both sides -- every backend
        needs those).  Arrays shared between the raw terms and the
        pre-combined scale groups are counted once.
        """
        seen: set[int] = set()
        total = 0

        def add(array: Any) -> None:
            nonlocal total
            if array is not None and id(array) not in seen:
                seen.add(id(array))
                total += array.nbytes

        add(self._diagonal)
        for term in self._terms:
            for scale in term.scales:
                add(scale)
        for scale_groups, factors, _ in self._fused_terms:
            for scale in scale_groups:
                add(scale)
            for prepared in factors:
                matrix = prepared.matrix
                add(matrix.data)
                add(matrix.indices)
                add(matrix.indptr)
                add(prepared.dense)
        return total

    # ------------------------------------------------------------------
    def _term_row_vector(
        self,
        term: KroneckerTerm,
        per_factor: Callable[[sp.csr_matrix], Any],
        per_scale: Callable[[FloatArray], FloatArray] | None = None,
    ) -> FloatArray:
        """Broadcast-evaluate ``scales * prod_axis per_factor(matrix)`` row-wise.

        *per_factor* maps each factor matrix to a per-row vector (its row
        sums, or its per-row non-zero counts); identity axes contribute
        ones.  *per_scale* optionally transforms each diagonal scaling
        first (non-zero indicators for entry counting; the default keeps
        the values, for row sums).  The result is the term's row-wise
        aggregate over the full product space, evaluated without leaving
        the factor grid until the final ravel.
        """
        full = np.ones((1,) * len(self._dims))
        for scale in term.scales:
            full = full * (scale if per_scale is None else per_scale(scale))
        for axis, matrix in term.factors:
            vector = np.asarray(per_factor(matrix), dtype=float).ravel()
            shape = [1] * len(self._dims)
            shape[axis] = self._dims[axis]
            full = full * vector.reshape(shape)
        return np.broadcast_to(full, self._dims).ravel()

    def _off_diagonal_row_sums(self) -> FloatArray:
        total = np.zeros(self._n)
        for term in self._terms:
            total += self._term_row_vector(
                term, lambda matrix: np.asarray(matrix.sum(axis=1)).ravel()
            )
        return total

    def _implied_nnz(self) -> int:
        entries = 0.0
        for term in self._terms:
            entries += self._term_row_vector(
                term,
                lambda matrix: np.diff(matrix.indptr).astype(float),
                per_scale=lambda scale: (scale != 0.0).astype(float),
            ).sum()
        return int(round(entries)) + int(np.count_nonzero(self._diagonal))

    # ------------------------------------------------------------------
    def apply(self, block: Any) -> Any:
        """Evaluate ``block @ Q`` for a vector ``(n,)`` or a block ``(K, n)``."""
        array = np.asarray(block, dtype=float)
        squeeze = array.ndim == 1
        rows = array[None, :] if squeeze else array
        if rows.ndim != 2 or rows.shape[1] != self._n:
            raise ValueError(
                f"operand has {rows.shape[-1]} columns but the generator has "
                f"{self._n} states"
            )
        rows = np.ascontiguousarray(rows)
        with obs.detail_span("kron_apply", rows=int(rows.shape[0])):
            out = _apply_terms(rows, self._dims, self._diagonal, self._fused_terms)
        return out[0] if squeeze else out

    def __rmatmul__(self, other: Any) -> Any:
        return self.apply(other)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Cheap structural validation (the Q-matrix laws hold by construction).

        Off-diagonal entries are products of non-negative factor entries
        and scalings (checked at construction), and the diagonal is the
        negated off-diagonal row sum by definition -- so rows sum to zero
        exactly.  This re-checks the diagonal sign as a guard against a
        caller mutating the scaling arrays in place.
        """
        if self._diagonal.size and float(self._diagonal.max(initial=0.0)) > 1e-12:
            raise GeneratorError("matrix-free generator has a positive diagonal entry")

    def to_csr(self, *, max_bytes: int | None = None) -> sp.csr_matrix:
        """Assemble the represented generator as CSR (for tests and small chains).

        Refuses when the estimated assembled size exceeds *max_bytes* --
        the whole point of the operator is not to build this matrix.
        """
        if max_bytes is not None and assembled_csr_bytes(self.nnz, self._n) > max_bytes:
            raise MemoryError(
                f"assembling ~{self.nnz} non-zeros would exceed the {max_bytes} "
                "byte budget"
            )
        off = sp.csr_matrix((self._n, self._n))
        for term in self._terms:
            factors = {axis: matrix for axis, matrix in term.factors}
            product = None
            for axis, dim in enumerate(self._dims):
                piece = factors.get(axis, sp.identity(dim, format="csr"))
                product = piece if product is None else sp.kron(product, piece, format="csr")
            scale = np.ones((1,) * len(self._dims))
            for entry in term.scales:
                scale = scale * entry
            row_scale = np.broadcast_to(scale, self._dims).ravel()
            off = off + sp.diags(row_scale) @ product
        generator = (off + sp.diags(self._diagonal)).tocsr()
        generator.eliminate_zeros()
        return generator


def assembled_csr_bytes(nnz: int, n_states: int) -> int:
    """Bytes one CSR copy of an ``n_states``-state generator with *nnz* entries needs.

    8 bytes of data plus 4 of column index per entry (scipy uses 32-bit
    indices below the 2^31 boundary), plus the row-pointer array.
    """
    index_bytes = 4 if nnz < 2**31 - 1 else 8
    return nnz * (8 + index_bytes) + (n_states + 1) * index_bytes


class UniformizedOperator:
    """The uniformised DTMC map ``P = I + Q / rate`` over a generator operator.

    Only the application ``v @ P`` is provided -- exactly what the
    uniformisation inner loops need.  ``P`` is row-stochastic whenever
    *rate* dominates every exit rate of ``Q``, which
    :class:`~repro.markov.uniformization.TransientPropagator` guarantees
    when it constructs this wrapper.

    Two evaluation forms:

    * ``fused=True`` (the default) pre-folds the uniformisation into the
      operator data: the diagonal becomes ``1 + diag(Q)/rate`` and each
      term's ``1/rate`` is multiplied into one *small* factor (or the
      scalar gain of a factorless term), so ``v @ P`` is a single
      :func:`_apply_terms` sweep -- no ``v + (v Q)/rate`` post-pass, no
      extra full-space temporaries.
    * ``fused=False`` keeps the literal two-step form
      ``v + (v @ Q) / rate`` on top of :meth:`KroneckerGenerator.apply`;
      it is retained as the cross-check baseline the fused path is
      benchmarked and tested against.

    Both forms agree to machine precision (the folding only reassociates
    scalar multiplications).
    """

    __array_ufunc__: None = None

    def __init__(
        self, generator: KroneckerGenerator, rate: float, *, fused: bool = True
    ) -> None:
        if rate <= 0.0:
            raise GeneratorError(f"uniformisation rate must be positive, got {rate}")
        self._generator = generator
        self._rate = float(rate)
        self._fused = bool(fused)
        if self._fused:
            gain = 1.0 / self._rate
            self._diag_p = 1.0 + generator.diagonal() * gain
            folded = []
            for scale_groups, factors, term_gain in generator._fused_terms:
                if factors:
                    factors = factors[:-1] + (factors[-1].scaled(gain),)
                    folded.append((scale_groups, factors, 1.0))
                else:
                    folded.append((scale_groups, factors, term_gain * gain))
            self._fused_terms = tuple(folded)

    @property
    def shape(self) -> tuple[int, int]:
        """The (square) shape of the represented DTMC matrix."""
        return self._generator.shape

    @property
    def rate(self) -> float:
        """The uniformisation rate."""
        return self._rate

    @property
    def fused(self) -> bool:
        """Whether the folded single-sweep evaluation form is active."""
        return self._fused

    @property
    def generator(self) -> KroneckerGenerator:
        """The wrapped matrix-free generator."""
        return self._generator

    def apply(self, block: Any) -> Any:
        """Evaluate ``block @ P`` for a vector ``(n,)`` or a block ``(K, n)``."""
        array = np.asarray(block, dtype=float)
        if not self._fused:
            return array + self._generator.apply(array) / self._rate
        squeeze = array.ndim == 1
        rows = array[None, :] if squeeze else array
        if rows.ndim != 2 or rows.shape[1] != self.shape[0]:
            raise ValueError(
                f"operand has {rows.shape[-1]} columns but the operator has "
                f"{self.shape[0]} states"
            )
        rows = np.ascontiguousarray(rows)
        out = _apply_terms(rows, self._generator.dims, self._diag_p, self._fused_terms)
        return out[0] if squeeze else out

    def __rmatmul__(self, other: Any) -> Any:
        return self.apply(other)
