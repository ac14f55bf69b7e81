"""Regenerate the committed reference CDFs of the benchmark workloads.

Run from the repository root::

    python3 perfbench/make_reference.py [cold-reference|service-mix|paper-campaign ...]

Each universe member is solved once through ``repro.api`` exactly as the
workload asks for it: single queries through ``repro.api.solve`` on their
own time grid, the campaign through one ``repro.api.sweep``.  The
references pin the answers of the commit they were produced at; a later
change that moves any CDF by more than a thousandth of its epsilon makes
the benchmark report the answer as failed.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import scenarios  # noqa: E402


def cold_reference() -> None:
    import repro.api as api

    workload = scenarios.busy_idle_workload()
    keys, cdfs = [], []
    for capacity in scenarios.COLD_CAPACITIES:
        problem = scenarios.kibam_problem(
            workload, capacity, scenarios.COLD_TIMES, scenarios.COLD_DELTA, scenarios.COLD_EPSILON
        )
        keys.append((capacity,))
        cdfs.append(api.solve(problem, "mrm-uniformization").probabilities)
    harness.write_references("cold-reference", keys, cdfs, scenarios.COLD_EPSILON * 1e-3)


def service_mix() -> None:
    import repro.api as api

    workspace = api.SolveWorkspace(horizon_caps=False)
    keys, cdfs = [], []
    for key in scenarios.mix_universe():
        result = api.solve(scenarios.mix_problem(key), "mrm-uniformization", workspace=workspace)
        keys.append(key)
        cdfs.append(result.probabilities)
    harness.write_references("service-mix", keys, cdfs, scenarios.MIX_EPSILON * 1e-3)


def paper_campaign() -> None:
    import repro.api as api

    problems = scenarios.campaign_scenarios()
    result = api.sweep(problems, "mrm-uniformization", options=api.RunOptions(max_workers=2))
    if result.failed_indices:
        raise SystemExit(f"campaign scenarios failed: {result.failed_indices}")
    keys = [(index,) for index in range(len(problems))]
    cdfs = [item.probabilities for item in result.results]
    harness.write_references("paper-campaign", keys, cdfs, scenarios.CAMPAIGN_EPSILON * 1e-3)


GENERATORS = {
    "cold-reference": cold_reference,
    "service-mix": service_mix,
    "paper-campaign": paper_campaign,
}


def main(argv: list[str]) -> int:
    harness.quiet_environment()
    for name in argv or list(GENERATORS):
        started = time.perf_counter()
        GENERATORS[name]()
        print(f"{name}: {time.perf_counter() - started:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
