"""Per-workload, per-layer deltas between the traced runs of two commits.

Usage, from the repository root::

    python3 perfbench/delta.py BASE_DIR CHANGED_DIR

Each directory holds the ``trace-<workload>-seed<n>.jsonl`` and
``layers-<workload>-seed<n>.json`` files a traced run
(``perfbench/run.py --trace 1``) writes to ``perfbench/out/``; copy that
directory aside after running each commit.  For every workload and seed
present in both, two tables are printed:

* span self time (a span's duration minus the part its child spans
  cover) and span count per span name, aggregated with
  ``tools.repro_trace.phase_breakdown``;
* every per-layer metric of the two results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tools.repro_trace import load_spans, phase_breakdown  # noqa: E402


def self_time_spans(spans: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Copies of *spans* whose duration is their self time."""
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span.get("parent_id") is not None:
            children.setdefault(span["parent_id"], []).append(
                (float(span["start"]), float(span["end"]))
            )
    adjusted = []
    for span in spans:
        start, end = float(span["start"]), float(span["end"])
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children.get(span["span_id"], [])):
            child_start, child_end = max(child_start, reach), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        adjusted.append({**span, "start": start, "end": end - covered})
    return adjusted


def self_times(path: Path) -> dict[str, dict[str, Any]]:
    return {entry["name"]: entry for entry in phase_breakdown(self_time_spans(load_spans(path)))}


def _change(base: float, new: float) -> str:
    return f"{(new - base) / base * 100.0:+8.1f}%" if base else "       -"


def compare(base_dir: Path, new_dir: Path) -> str:
    lines = []
    stems = sorted(
        path.name[len("trace-"):-len(".jsonl")]
        for path in base_dir.glob("trace-*.jsonl")
        if (new_dir / path.name).exists()
    )
    if not stems:
        return f"no traced run is present in both {base_dir} and {new_dir}"
    for stem in stems:
        lines.append(f"== {stem} ==")
        base = self_times(base_dir / f"trace-{stem}.jsonl")
        new = self_times(new_dir / f"trace-{stem}.jsonl")
        lines.append(
            f"  {'span (self time)':<28} {'base s':>10} {'new s':>10} {'change':>9}"
            f" {'count':>13}"
        )
        for name in sorted(set(base) | set(new)):
            b = base.get(name, {"total": 0.0, "count": 0})
            n = new.get(name, {"total": 0.0, "count": 0})
            lines.append(
                f"  {name:<28} {b['total']:>10.4f} {n['total']:>10.4f}"
                f" {_change(b['total'], n['total'])} {b['count']:>6}->{n['count']:<6}"
            )
        base_metrics = _metrics(base_dir / f"layers-{stem}.json")
        new_metrics = _metrics(new_dir / f"layers-{stem}.json")
        if base_metrics and new_metrics:
            lines.append(f"  {'metric':<28} {'base':>12} {'new':>12} {'change':>9}  unit")
            for name in sorted(set(base_metrics) | set(new_metrics)):
                b = base_metrics.get(name, {}).get("value", float("nan"))
                n = new_metrics.get(name, {}).get("value", float("nan"))
                unit = (new_metrics.get(name) or base_metrics.get(name))["unit"]
                lines.append(f"  {name:<28} {b:>12.5g} {n:>12.5g} {_change(b, n)}  {unit}")
        lines.append("")
    return "\n".join(lines)


def _metrics(path: Path) -> dict[str, Any]:
    if not path.exists():
        return {}
    return json.loads(path.read_text())["result"]["metrics"]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print(compare(Path(argv[0]), Path(argv[1])))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
