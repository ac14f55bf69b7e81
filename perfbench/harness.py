"""Harness pieces shared by the three workloads.

* :func:`quiet_environment` / :func:`assert_quiet` -- the program's own
  tracing, metrics, contract checks and fault injection stay off.
* :func:`environment_record` -- the machine and toolchain a result came from.
* :class:`SpanRecorder` -- the benchmark's own spans around calls into the
  program's layers, written as ``repro.obs``-style JSON lines so that
  ``tools/repro_trace.py`` and ``perfbench/delta.py`` read them.
* :class:`References` -- the committed reference CDFs and the check of
  every answer against them.
* small statistics helpers (median, nearest-rank percentile, peak RSS).
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
OUTPUT_DIR = HERE / "out"

#: Environment knobs of the program that would change what is measured.
#: Tracing and contract checks are forced off; fault injection and trace
#: or metrics export are removed.
QUIET_ENV = {"REPRO_TRACE": "off", "REPRO_CHECKS": "off"}
CLEARED_ENV = ("REPRO_FAULTS", "REPRO_TRACE_FILE", "REPRO_METRICS")


def quiet_environment() -> None:
    """Switch the program's own instrumentation off for this process tree."""
    os.environ.update(QUIET_ENV)
    for name in CLEARED_ENV:
        os.environ.pop(name, None)


def assert_quiet() -> None:
    """Fail unless the program reports tracing, metrics and checks off."""
    from repro import obs
    from repro.checking.contracts import checks_mode

    problems = []
    if obs.trace_mode() != "off" or obs.current_tracer() is not None:
        problems.append(f"tracing is {obs.trace_mode()!r}")
    if obs.metrics_registry() is not None:
        problems.append("a metrics registry is installed")
    if checks_mode() != "off":
        problems.append(f"REPRO_CHECKS is {checks_mode()!r}")
    if problems:
        raise RuntimeError("instrumentation must be off while measuring: " + "; ".join(problems))


# ---------------------------------------------------------------- machine
def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def llc_bytes() -> int | None:
    """Size of the last-level cache of CPU 0, from sysfs (None if unknown)."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best: tuple[int, int] | None = None
    for index in sorted(base.glob("index*")):
        with contextlib.suppress(OSError, ValueError):
            if (index / "type").read_text().strip() == "Instruction":
                continue
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip().upper()
            scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
            size = int(text.rstrip("KMG")) * scale
            if best is None or level > best[0]:
                best = (level, size)
    return None if best is None else best[1]


def environment_record(seed: int) -> dict[str, Any]:
    import numpy
    import scipy

    try:
        import numba  # noqa: F401
    except ImportError:
        numba_imports = False
    else:
        numba_imports = True
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "llc_bytes": llc_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": numba_imports,
        "seed": seed,
        **{name: os.environ.get(name) for name in QUIET_ENV},
    }


# ------------------------------------------------------------------ stats
def median(values: list[float]) -> float:
    return float(statistics.median(values))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile *q* (0-100) of *values*."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ spans
class SpanRecorder:
    """In-memory spans recorded around the benchmark's calls into the program.

    Records follow the ``repro.obs`` span schema (``name``, ``span_id``,
    ``parent_id``, ``start``, ``end``, ``pid``, ``attrs``).  Parents are
    tracked per thread.
    """

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []
        self._pid = os.getpid()
        self._ids = itertools.count(1)  # next() is atomic under the GIL
        self._local = threading.local()

    def span(self, name: str, **attrs: Any) -> "_Span":
        """Time a ``with`` body as span *name*; ``with`` yields its mutable attrs."""
        return _Span(self, name, attrs)

    def durations(self, name: str) -> list[float]:
        return [r["end"] - r["start"] for r in self.records if r["name"] == name]

    def export(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for entry in self.records:
                handle.write(json.dumps(entry) + "\n")


class _Span:
    """One open span of a :class:`SpanRecorder` (a plain class: cheaper than a generator)."""

    __slots__ = ("recorder", "name", "attrs", "span_id", "parent", "start")

    def __init__(self, recorder: SpanRecorder, name: str, attrs: dict[str, Any]) -> None:
        self.recorder, self.name, self.attrs = recorder, name, attrs

    def __enter__(self) -> dict[str, Any]:
        recorder = self.recorder
        stack = recorder._local.__dict__.setdefault("stack", [])
        self.span_id = f"{recorder._pid}-{next(recorder._ids)}"
        self.parent = stack[-1] if stack else None
        stack.append(self.span_id)
        self.start = time.perf_counter()
        return self.attrs

    def __exit__(self, *exc_info: Any) -> None:
        end = time.perf_counter()
        recorder = self.recorder
        recorder._local.stack.pop()
        recorder.records.append({
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent,
            "start": self.start,
            "end": end,
            "pid": recorder._pid,
            "attrs": self.attrs,
        })


def span_cost_seconds(samples: int = 20000) -> float:
    """Measured cost of recording one empty span."""
    recorder = SpanRecorder()
    start = time.perf_counter()
    for _ in range(samples):
        with recorder.span("probe"):
            pass
    return (time.perf_counter() - start) / samples


# ------------------------------------------------------------- references
class References:
    """Committed reference CDFs of one workload, keyed by problem identity.

    An answer is correct when every probability is within *tolerance* of
    the reference: one thousandth of the solve's epsilon, well below the
    truncation error the solver is allowed.
    """

    def __init__(self, workload: str) -> None:
        import numpy as np

        path = REFERENCE_DIR / f"{workload}.npz"
        with np.load(path) as data:
            keys, cdfs, lengths = data["keys"].tolist(), data["cdfs"], data["lengths"]
            self.tolerance = float(data["tolerance"])
        self._cdfs = {
            self._norm(key): cdfs[i, : lengths[i]] for i, key in enumerate(keys)
        }
        self.worst = 0.0

    @staticmethod
    def _norm(key: Any) -> tuple:
        return tuple(round(float(part), 6) for part in key)

    def check(self, key: Any, probabilities: Any) -> bool:
        import numpy as np

        expected = self._cdfs.get(self._norm(key))
        if expected is None:
            return False
        got = np.asarray(probabilities, dtype=float)
        if got.shape != expected.shape or not np.all(np.isfinite(got)):
            return False
        deviation = float(np.max(np.abs(got - expected)))
        self.worst = max(self.worst, deviation)
        return deviation <= self.tolerance


def write_references(workload: str, keys: list[tuple], cdfs: list[Any], tolerance: float) -> Path:
    """Store reference CDFs, zero-padded to the longest grid, with their lengths."""
    import numpy as np

    width = max(len(cdf) for cdf in cdfs)
    table = np.zeros((len(cdfs), width))
    for row, cdf in enumerate(cdfs):
        table[row, : len(cdf)] = cdf
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    path = REFERENCE_DIR / f"{workload}.npz"
    np.savez_compressed(
        path,
        keys=np.asarray(keys, dtype=float),
        cdfs=table,
        lengths=np.asarray([len(cdf) for cdf in cdfs]),
        tolerance=np.float64(tolerance),
    )
    return path


def emit(result: dict[str, Any]) -> None:
    """Print *result* as the last line of standard output (NaN is refused)."""
    sys.stdout.write(json.dumps(result, allow_nan=False) + "\n")
    sys.stdout.flush()
