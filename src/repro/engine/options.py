"""The :class:`RunOptions` execution configuration of sweeps and the service.

:func:`~repro.engine.sweep.run_sweep` and the lifetime-query service
(:mod:`repro.service`) share one set of execution concerns -- worker
count, cache object, cache directory, retry policy, failure mode, executor
backend, progress callback.  :class:`RunOptions` holds them in one frozen
config object that both entry points take: build it once, pass it
everywhere.

None of these knobs can change a solved curve, so none of them feeds the
scenario fingerprints (the same guarantee the
:data:`repro.checking.fingerprints.EXECUTION_POLICY_EXEMPT` audit makes for
the :class:`~repro.engine.executor.ExecutionPolicy` carried inside)::

    run_sweep(spec, options=RunOptions(max_workers=4, cache_dir="cache"))
"""

from __future__ import annotations

import dataclasses
import os
from typing import TYPE_CHECKING, Any

from repro.engine.executor import FAILURE_MODES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Callable

    from repro.engine.executor import ExecutionPolicy, SweepProgress
    from repro.engine.sweep import SweepCache

__all__ = ["RunOptions"]


@dataclasses.dataclass(frozen=True)
class RunOptions:
    """How to execute a sweep or serve queries -- never *what* to solve.

    Attributes
    ----------
    max_workers:
        Worker-process fan-out; ``None`` uses the CPUs available to the
        process, ``1`` keeps everything in-process (identical results).
    cache:
        A :class:`~repro.engine.sweep.SweepCache` shared across runs;
        solved scenarios are answered from it without re-solving.
    cache_dir:
        Convenience for a disk-backed cache, used only when *cache* is
        ``None`` (:meth:`resolve_cache` builds one on demand).
    execution:
        :class:`~repro.engine.executor.ExecutionPolicy` -- retries,
        per-chunk timeouts, backoff, failure mode.
    failure_mode:
        Shorthand override of ``execution.failure_mode`` (``"strict"`` or
        ``"degrade"``).
    executor:
        Execution backend: a registered name (``"serial"`` /
        ``"process"`` / anything added via
        :func:`repro.engine.executor.register_executor`), an executor
        instance, or ``None`` to choose by parallelism.
    progress:
        Callback receiving :class:`~repro.engine.executor.SweepProgress`
        events while a sweep runs.
    """

    max_workers: int | None = None
    cache: "SweepCache | None" = None
    cache_dir: str | os.PathLike[str] | None = None
    execution: "ExecutionPolicy | None" = None
    failure_mode: str | None = None
    executor: "str | Any | None" = None
    progress: "Callable[[SweepProgress], None] | None" = None

    def __post_init__(self) -> None:
        if self.max_workers is not None and int(self.max_workers) < 1:
            raise ValueError("max_workers must be at least 1")
        if self.failure_mode is not None and self.failure_mode not in FAILURE_MODES:
            raise ValueError(
                f"failure_mode {self.failure_mode!r} is not one of {FAILURE_MODES}"
            )

    # ------------------------------------------------------------------
    def resolve_cache(self) -> "SweepCache | None":
        """The cache to use: the explicit one, or one built from *cache_dir*."""
        if self.cache is not None:
            return self.cache
        if self.cache_dir is not None:
            from repro.engine.sweep import SweepCache

            return SweepCache(self.cache_dir)
        return None
