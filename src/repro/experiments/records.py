"""Provenance-stamped benchmark trajectory records.

Every benchmark that tracks a performance trajectory writes a
``BENCH_*.json`` record at the repository root; CI uploads them as
artifacts and diffs them against the committed baselines
(``benchmarks/check_bench_regression.py``).  For those diffs to be
meaningful across builds, each record carries a ``provenance`` block with
the git commit SHA and an ISO-8601 UTC timestamp; :func:`write_bench_record`
is the single place that stamps and serialises them, and
:func:`merge_record_section` updates one section of a multi-gate record.
"""

from __future__ import annotations

import datetime
import json
import os
import subprocess
from pathlib import Path

__all__ = ["git_commit_sha", "merge_record_section", "stamp_record", "write_bench_record"]


def git_commit_sha(directory: str | os.PathLike | None = None) -> str:
    """Return the current commit SHA, or ``"unknown"`` outside a checkout."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=None if directory is None else os.fspath(directory),
            capture_output=True,
            text=True,
            timeout=10.0,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else "unknown"


def stamp_record(record: dict, *, directory: str | os.PathLike | None = None) -> dict:
    """Return *record* with a ``provenance`` block (commit SHA, timestamp)."""
    stamped = dict(record)
    stamped["provenance"] = {
        "git_commit": git_commit_sha(directory),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }
    return stamped


def write_bench_record(path: str | os.PathLike, record: dict) -> dict:
    """Stamp *record* with provenance and write it to *path* as JSON.

    Returns the stamped record.  The SHA is resolved relative to the
    record's destination directory, so benchmarks invoked from anywhere
    still report the repository they live in.
    """
    path = Path(path)
    stamped = stamp_record(record, directory=path.resolve().parent)
    path.write_text(json.dumps(stamped, indent=2) + "\n")
    return stamped


def merge_record_section(
    path: str | os.PathLike, section: str, payload: dict, *, benchmark: str
) -> dict:
    """Write *payload* under *section* of the record at *path*.

    The record's other sections are preserved, so each gate of a
    multi-gate benchmark writes its own section as it completes: a partial
    run (``-k``, test selection) never emits a record that silently
    dropped another gate's metrics.  A missing or corrupt file starts a
    fresh ``{"benchmark": benchmark}`` record.  Returns the stamped record.
    """
    path = Path(path)
    record: dict = {"benchmark": benchmark}
    if path.exists():
        try:
            record = json.loads(path.read_text())
        except json.JSONDecodeError:
            pass
    record[section] = payload
    return write_bench_record(path, record)
