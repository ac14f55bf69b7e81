"""Tests of the :mod:`repro.checking` correctness layer.

Protocol conformance of the shipped plug-point implementations, the
fingerprint-registry audit, the diagnostics schema, the size-guarded
dense boundary and the ``REPRO_CHECKS`` mode semantics.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.battery.parameters import KiBaMParameters
from repro.checking import (
    CHECK_MODES,
    DEFAULT_DENSE_LIMIT,
    ContractViolationWarning,
    DenseFallbackError,
    DiscretizedChain,
    GeneratorOperator,
    SchedulerPolicy,
    SweepExecutor,
    audit_fingerprint_registry,
    checks_mode,
    dense_fallback,
    enforce,
    override_checks,
    registered_fields,
)
from repro.core.discretization import discretize
from repro.core.kibamrm import KiBaMRM
from repro.engine.diagnostics import DIAGNOSTIC_KEYS, validate_diagnostics
from repro.markov.kronecker import KroneckerGenerator, KroneckerTerm
from repro.multibattery.policies import (
    BestOfPolicy,
    RoundRobinPolicy,
    StaticSplitPolicy,
)
from repro.multibattery.system import MultiBatterySystem
from repro.workload.onoff import onoff_workload


def small_kronecker() -> KroneckerGenerator:
    up = sp.csr_matrix(np.triu(np.ones((3, 3)), k=1))
    return KroneckerGenerator((3, 2), [KroneckerTerm(factors=((0, up),), scales=())])


def small_chain():
    battery = KiBaMParameters(capacity=60.0, c=0.625, k=1e-3)
    return discretize(KiBaMRM(workload=onoff_workload(frequency=1.0), battery=battery), delta=6.0)


# ----------------------------------------------------------------------
# protocol conformance of the shipped implementations
# ----------------------------------------------------------------------


def test_kronecker_generator_satisfies_generator_operator() -> None:
    assert isinstance(small_kronecker(), GeneratorOperator)


def test_policies_satisfy_scheduler_policy() -> None:
    for policy in (StaticSplitPolicy(), RoundRobinPolicy(), BestOfPolicy()):
        assert isinstance(policy, SchedulerPolicy), policy


def test_discretized_chains_satisfy_discretized_chain() -> None:
    assert isinstance(small_chain(), DiscretizedChain)


def test_multibattery_chains_satisfy_discretized_chain() -> None:
    battery = KiBaMParameters(capacity=60.0, c=0.625, k=1e-3)
    system = MultiBatterySystem(
        workload=onoff_workload(frequency=1.0),
        batteries=(battery, battery),
        policy=StaticSplitPolicy(),
        failures_to_die=2,
    )
    for backend in ("assembled", "matrix-free", "lumped"):
        chain = system.discretize(12.0, backend=backend)
        assert isinstance(chain, DiscretizedChain), backend


def test_non_conforming_object_is_rejected() -> None:
    class NotAnOperator:
        shape = (1, 1)

    assert not isinstance(NotAnOperator(), GeneratorOperator)


def test_chunk_executors_satisfy_sweep_executor() -> None:
    from repro.engine.executor import ProcessChunkExecutor, SerialChunkExecutor

    def work(task):  # pragma: no cover - never invoked
        raise AssertionError

    assert isinstance(SerialChunkExecutor(work), SweepExecutor)
    process = ProcessChunkExecutor(work, max_workers=1)
    try:
        assert isinstance(process, SweepExecutor)
    finally:
        process.shutdown()


# ----------------------------------------------------------------------
# fingerprint registry
# ----------------------------------------------------------------------


def test_fingerprint_registry_matches_live_dataclasses() -> None:
    audit_fingerprint_registry()


def test_registered_fields_union() -> None:
    fields = registered_fields("LifetimeProblem")
    assert "workload" in fields and "label" in fields


def test_registered_fields_unknown_class() -> None:
    with pytest.raises(Exception, match="no fingerprint registry entry"):
        registered_fields("NotAProblem")


def test_execution_policy_fields_must_stay_exempt(monkeypatch) -> None:
    """Regression: moving an execution knob into the fingerprint fails the audit."""
    from repro.checking import fingerprints

    entry = fingerprints.FINGERPRINT_FIELDS["SweepSpec"]
    tampered = {
        "relevant": entry["relevant"] + ("execution",),
        "exempt": tuple(field for field in entry["exempt"] if field != "execution"),
    }
    monkeypatch.setitem(fingerprints.FINGERPRINT_FIELDS, "SweepSpec", tampered)
    with pytest.raises(
        fingerprints.FingerprintRegistryError, match="must stay fingerprint-exempt"
    ):
        audit_fingerprint_registry()


def test_execution_policy_exemptions_are_declared() -> None:
    from repro.checking import EXECUTION_POLICY_EXEMPT

    assert EXECUTION_POLICY_EXEMPT == {"SweepSpec": ("execution",)}


# ----------------------------------------------------------------------
# diagnostics schema
# ----------------------------------------------------------------------


def test_validate_diagnostics_accepts_schema_keys() -> None:
    validate_diagnostics({"delta": 0.1, "n_states": 10, "iterations": 15})


def test_validate_diagnostics_rejects_unknown_keys() -> None:
    with pytest.raises(KeyError, match="made_up_key"):
        validate_diagnostics({"made_up_key": 1})


def test_solver_diagnostics_stay_inside_the_schema(small_battery) -> None:
    from repro.engine import solve_lifetime
    from repro.engine.problem import LifetimeProblem

    problem = LifetimeProblem(
        workload=onoff_workload(frequency=1.0),
        battery=small_battery,
        times=np.linspace(60.0, 3600.0, 8),
    )
    result = solve_lifetime(problem, method="mrm-uniformization")
    assert set(result.diagnostics) <= DIAGNOSTIC_KEYS, (
        sorted(set(result.diagnostics) - DIAGNOSTIC_KEYS)
    )


# ----------------------------------------------------------------------
# the dense boundary
# ----------------------------------------------------------------------


def test_dense_fallback_densifies_small_matrices() -> None:
    q = np.array([[-1.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(dense_fallback(sp.csr_matrix(q)), q)
    np.testing.assert_allclose(dense_fallback(q), q)


def test_dense_fallback_assembles_matrix_free_operators() -> None:
    operator = small_kronecker()
    dense = dense_fallback(operator)
    np.testing.assert_allclose(dense, operator.to_csr().toarray())  # repro-lint: allow RPR001 (6-state test operator)


def test_dense_fallback_refuses_large_chains() -> None:
    large = sp.eye(DEFAULT_DENSE_LIMIT + 1, format="csr")
    with pytest.raises(DenseFallbackError, match="refusing dense fallback"):
        dense_fallback(large)


def test_dense_fallback_respects_an_explicit_limit() -> None:
    q = sp.eye(10, format="csr")
    with pytest.raises(DenseFallbackError):
        dense_fallback(q, limit=5)
    assert dense_fallback(q, limit=10).shape == (10, 10)


# ----------------------------------------------------------------------
# REPRO_CHECKS modes
# ----------------------------------------------------------------------


def test_check_modes_are_the_documented_triple() -> None:
    assert CHECK_MODES == ("strict", "warn", "off")


def test_override_checks_wins_over_environment(monkeypatch) -> None:
    monkeypatch.setenv("REPRO_CHECKS", "off")
    assert checks_mode() == "off"
    with override_checks("strict"):
        assert checks_mode() == "strict"
        with override_checks("warn"):
            assert checks_mode() == "warn"
        assert checks_mode() == "strict"
    assert checks_mode() == "off"


def test_invalid_environment_mode_raises(monkeypatch) -> None:
    monkeypatch.setenv("REPRO_CHECKS", "sometimes")
    with pytest.raises(ValueError, match="REPRO_CHECKS"):
        checks_mode()


def test_enforce_semantics() -> None:
    error = ValueError("broken contract")
    with pytest.raises(ValueError, match="broken contract"):
        enforce(error, mode="strict")
    with pytest.warns(ContractViolationWarning, match="broken contract"):
        enforce(error, mode="warn")
    enforce(error, mode="off")  # silent


def test_strict_checks_fixture_forces_strict(strict_checks) -> None:
    assert checks_mode() == "strict"
