"""End-to-end lifetime-query benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-reference --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the workload with all instrumentation off and
reports the end-to-end metrics; ``--trace 1`` runs the per-layer probes
(see ``layers.py``) and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it, prefixed
``# detail``, holds the environment record, every metric's sample count,
and the run's notes.  Traced runs also write their spans and result to
``perfbench/out/``.

The benchmark imports the program from ``src/`` next to this directory
and exits with status 2, printing no result, when it is not there.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import harness  # noqa: E402  (stdlib-only at import time)

WORKLOADS = ("cold-reference", "service-mix", "paper-campaign")
#: Set-ups per run: this process, then fresh interpreters.
SETUP_SAMPLES = 3


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="time one set-up, print it and exit"
    )
    return parser.parse_args(argv)


def timed_setup(workload: str, seed: int) -> tuple[object, float]:
    """Import ``repro.api`` and build the workload's inputs, timed."""
    started = time.perf_counter()
    import workloads

    inputs = workloads.SETUPS[workload](seed)
    return inputs, time.perf_counter() - started


def setup_in_fresh_interpreter(workload: str, seed: int) -> float:
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


def determinism_ok(workload: str, seed: int) -> bool:
    """Same seed: identical query fingerprints; another seed: different ones."""
    import scenarios

    first = scenarios.schedule_digest(workload, seed)
    return first == scenarios.schedule_digest(workload, seed) and first != (
        scenarios.schedule_digest(workload, seed + 1)
    )


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "api.py").is_file():
        print(f"error: the program's sources are missing ({SOURCE})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    harness.quiet_environment()

    inputs, setup_s = timed_setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    harness.assert_quiet()
    env = harness.environment_record(args.seed)
    deterministic = determinism_ok(args.workload, args.seed)

    import workloads

    detail: dict = {"workload": args.workload, "trace": args.trace, "env": env,
                    "deterministic_schedule": deterministic}
    if args.trace:
        import layers

        recorder = harness.SpanRecorder()
        values, attempted, failed, notes = layers.traced_run(
            args.workload, inputs, args.seconds, recorder
        )
        harness.assert_quiet()
        metrics = {name: (value, layers.LAYER_UNITS[name]) for name, value in values.items()}
        detail["notes"] = notes
        stem = f"{args.workload}-seed{args.seed}"
        recorder.export(harness.OUTPUT_DIR / f"trace-{stem}.jsonl")
    else:
        outcome = workloads.RUNS[args.workload](inputs, args.seconds)
        harness.assert_quiet()
        setups = [setup_s] + [
            setup_in_fresh_interpreter(args.workload, args.seed)
            for _ in range(SETUP_SAMPLES - 1)
        ]
        measured = outcome.metrics(harness.median(setups), len(setups))
        metrics = {name: (value, unit) for name, (value, unit, _) in measured.items()}
        attempted, failed = outcome.attempted, outcome.failed
        detail["samples"] = {name: n for name, (_, _, n) in measured.items()}
        detail["notes"] = {
            "setup_samples_s": setups,
            "served_from": outcome.served,
            "worst_reference_deviation": outcome.worst_deviation,
            "workload": {k: v for k, v in outcome.extra.items() if k != "by_served"},
        }

    result = {
        "correct": bool(deterministic and failed == 0),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail["error_rate"] = failed / attempted
    detail["result"] = result
    if args.trace:
        harness.OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
        (harness.OUTPUT_DIR / f"layers-{stem}.json").write_text(json.dumps(detail, indent=1))
    print("# detail " + json.dumps(detail))
    harness.emit(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
