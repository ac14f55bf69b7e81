"""Continuous-time Markov chain (CTMC) substrate of the Markovian approximation.

The paper's algorithm (Section 5) reduces the battery-lifetime problem to
the transient solution of a large, sparse, absorbing CTMC; this
sub-package holds the machinery for exactly that:

* generator-matrix conversion and validation (:mod:`repro.markov.generator`),
* Poisson probability weights, including the Fox--Glynn algorithm
  (:mod:`repro.markov.poisson`),
* the transient solve by uniformisation -- one entry point,
  :meth:`TransientPropagator.transient_batch
  <repro.markov.uniformization.TransientPropagator.transient_batch>`,
  returning a :class:`~repro.markov.uniformization.BatchTransientResult`
  (:mod:`repro.markov.uniformization`), whose segment loop runs in the
  scipy kernel of :mod:`repro.markov.kernels`,
* matrix-free Kronecker operators for multi-battery product chains
  (:mod:`repro.markov.kronecker`),
* the reference solutions tests and benchmarks compare against -- the
  dense matrix exponential and the detection-free sweep
  (:mod:`repro.markov.transient`) -- and the steady-state solver
  (:mod:`repro.markov.steady_state`),
* structural chain validation -- generator laws, absorbing reachability,
  Kronecker-operator consistency, exact lumping quotients -- behind the
  ``REPRO_CHECKS`` toggle (:mod:`repro.markov.validate`).
"""

from repro.markov.generator import (
    as_csr,
    exit_rates,
    kron_chain,
    uniformized_matrix,
    validate_generator,
)
from repro.markov.kronecker import (
    KroneckerGenerator,
    KroneckerTerm,
    UniformizedOperator,
    assembled_csr_bytes,
)
from repro.markov.poisson import (
    PoissonWeights,
    cached_poisson_weights,
    fox_glynn,
    poisson_weights,
)
from repro.markov.steady_state import steady_state_distribution
from repro.markov.uniformization import (
    BatchTransientResult,
    TransientPropagator,
    uniformization_rate,
)
from repro.markov.validate import (
    ValidationError,
    check_chain,
    check_generator,
    validate_absorbing,
    validate_kronecker,
    validate_lumping,
)

__all__ = [
    "BatchTransientResult",
    "KroneckerGenerator",
    "KroneckerTerm",
    "PoissonWeights",
    "TransientPropagator",
    "UniformizedOperator",
    "ValidationError",
    "as_csr",
    "assembled_csr_bytes",
    "cached_poisson_weights",
    "check_chain",
    "check_generator",
    "exit_rates",
    "fox_glynn",
    "kron_chain",
    "poisson_weights",
    "steady_state_distribution",
    "uniformization_rate",
    "uniformized_matrix",
    "validate_absorbing",
    "validate_generator",
    "validate_kronecker",
    "validate_lumping",
]
