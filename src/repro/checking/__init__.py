"""Machine-checked correctness contracts for the reproduction.

The library keeps three interchangeable chain representations (assembled
CSR, matrix-free Kronecker operator, lumped symmetry quotient)
numerically equivalent.  The invariants behind
that equivalence -- zero row sums, non-negative off-diagonals,
uniformisation-rate dominance, no silent dense escape, registered
fingerprint fields, schema'd diagnostics keys -- used to live in scattered
runtime asserts.  This package makes them first-class artifacts:

* :mod:`repro.checking.contracts` -- the ``REPRO_CHECKS=strict|warn|off``
  toggle that decides whether structural validators (see
  :mod:`repro.markov.validate`) raise, warn or stay out of the way.
* :mod:`repro.checking.dense` -- the single allowlisted, size-guarded
  sparse-to-dense boundary (:func:`dense_fallback`); lint rule RPR001
  forbids ``.toarray()`` everywhere else.
* :mod:`repro.checking.fingerprints` -- the central registry every
  dataclass field of :class:`~repro.engine.problem.LifetimeProblem` /
  :class:`~repro.engine.sweep.SweepSpec` subtypes must appear in, as
  either fingerprint-relevant or fingerprint-exempt (lint rule RPR003).
* :mod:`repro.checking.protocols` -- structural :class:`typing.Protocol`
  definitions of the plug points (generator operators, scheduler
  policies, discretised chains) so alternative
  implementations are checked by shape, not by inheritance.

The matching static passes live in ``tools/repro_lint.py`` (run as
``python -m tools.repro_lint src tests benchmarks``) and in the strict
mypy configuration of ``pyproject.toml``.
"""

from __future__ import annotations

from repro.checking.contracts import (
    CHECK_MODES,
    ContractViolationWarning,
    checks_mode,
    enforce,
    override_checks,
)
from repro.checking.dense import DEFAULT_DENSE_LIMIT, DenseFallbackError, dense_fallback
from repro.checking.fingerprints import (
    EXECUTION_POLICY_EXEMPT,
    FINGERPRINT_FIELDS,
    FingerprintRegistryError,
    audit_fingerprint_registry,
    registered_fields,
)
from repro.checking.protocols import (
    DiscretizedChain,
    FloatArray,
    GeneratorLike,
    GeneratorOperator,
    IntArray,
    SchedulerPolicy,
    SweepExecutor,
)

__all__ = [
    "CHECK_MODES",
    "DEFAULT_DENSE_LIMIT",
    "ContractViolationWarning",
    "DenseFallbackError",
    "DiscretizedChain",
    "EXECUTION_POLICY_EXEMPT",
    "FINGERPRINT_FIELDS",
    "FingerprintRegistryError",
    "FloatArray",
    "GeneratorLike",
    "GeneratorOperator",
    "IntArray",
    "SchedulerPolicy",
    "SweepExecutor",
    "audit_fingerprint_registry",
    "checks_mode",
    "dense_fallback",
    "enforce",
    "override_checks",
    "registered_fields",
]
