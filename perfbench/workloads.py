"""Set-up and the measured (untraced) loop of each workload.

Each ``setup_*`` builds what the workload sends -- the service or the
sweep inputs -- and is timed as ``setup_s``.  Each ``run_*`` drives the
program for the run's seconds and returns a :class:`Outcome`: every
latency sample, plus attempted and failed operation counts.  An operation
fails when it raises, when a sweep slot is a failure placeholder, or when
its CDF differs from the committed reference.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import harness
import scenarios
import repro.api as api

#: Queries in the cold-reference campaign (``campaign_s``).
COLD_CAMPAIGN_QUERIES = 8
#: Queries per service-mix block (``campaign_s`` is the median block time).
MIX_BLOCK_QUERIES = 1000
#: Sweeps per paper-campaign run, at least.
MIN_SWEEPS = 2
#: Longest a client waits for its partner at a duplicate burst.
BURST_TIMEOUT_S = 60.0
#: Untimed service-mix warm-up before the measured seconds.
MIX_WARMUP_S = 3.0


@dataclass
class Outcome:
    """What one measured loop observed."""

    latencies: list[float] = field(default_factory=list)  # seconds, every answer
    cold: list[float] = field(default_factory=list)  # seconds, solved answers (if not all)
    campaign_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    served: dict[str, int] = field(default_factory=dict)
    worst_deviation: float = 0.0
    extra: dict[str, Any] = field(default_factory=dict)

    def metrics(self, setup_s: float, setup_samples: int) -> dict[str, tuple[float, str, int]]:
        """End-to-end metrics as ``name -> (value, unit, samples)``."""
        latencies, cold = self.latencies, self.cold or self.latencies
        return {
            "setup_s": (setup_s, "s", setup_samples),
            "cold_query_s": (harness.median(cold), "s", len(cold)),
            "query_p50_ms": (harness.median(latencies) * 1e3, "ms", len(latencies)),
            "query_p99_ms": (harness.percentile(latencies, 99) * 1e3, "ms", len(latencies)),
            "throughput_qps": (len(latencies) / self.wall_s, "1/s", len(latencies)),
            "campaign_s": (harness.median(self.campaign_s), "s", len(self.campaign_s)),
            "peak_rss_mb": (harness.peak_rss_mb(), "MB", 1),
        }


# ------------------------------------------------------------ cold-reference
@dataclass
class ColdInputs:
    queries: list[Any]  # LifetimeQuery, in universe order
    order: list[int]
    service: Any


def setup_cold(seed: int) -> ColdInputs:
    workload = scenarios.busy_idle_workload()
    queries = [
        api.LifetimeQuery(
            problem=scenarios.kibam_problem(
                workload, capacity, scenarios.COLD_TIMES, scenarios.COLD_DELTA,
                scenarios.COLD_EPSILON,
            )
        )
        for capacity in scenarios.COLD_CAPACITIES
    ]
    return ColdInputs(queries=queries, order=scenarios.cold_order(seed), service=api.serve())


def run_cold(inputs: ColdInputs, seconds: float) -> Outcome:
    """Send never-seen reference-chain queries back to back to one service.

    After a full pass over the universe a fresh service starts the next
    pass, so every query stays cold.
    """
    refs = harness.References("cold-reference")
    out = Outcome()
    service = inputs.service
    started = time.perf_counter()
    deadline = started + seconds
    sent = 0
    while time.perf_counter() < deadline or sent < COLD_CAMPAIGN_QUERIES:
        if sent and sent % len(inputs.order) == 0:
            service = api.serve()
        index = inputs.order[sent % len(inputs.order)]
        sent += 1
        out.attempted += 1
        begin = time.perf_counter()
        try:
            response = service.submit(inputs.queries[index])
        except Exception:  # noqa: BLE001 - a failed query is a measured outcome
            out.failed += 1
        else:
            latency = time.perf_counter() - begin
            out.latencies.append(latency)
            out.served[response.served_from] = out.served.get(response.served_from, 0) + 1
            probabilities = response.result.probabilities
            if not refs.check((scenarios.COLD_CAPACITIES[index],), probabilities):
                out.failed += 1
        if sent == COLD_CAMPAIGN_QUERIES:
            out.campaign_s.append(time.perf_counter() - started)
    out.wall_s = time.perf_counter() - started
    out.worst_deviation = refs.worst
    return out


# ---------------------------------------------------------------- service-mix
@dataclass
class MixInputs:
    seed: int
    plan: scenarios.MixPlan
    hot: dict[tuple[float, float], Any]  # key -> LifetimeProblem
    service: Any


def setup_mix(seed: int) -> MixInputs:
    plan = scenarios.mix_plan(seed)
    keys = [(capacity, scenarios.MIX_BASE_STOP) for capacity in plan.hot]
    hot = {key: scenarios.mix_problem(key) for key in keys}
    service = api.serve(max_entries=scenarios.MIX_STORE_ENTRIES)
    return MixInputs(seed=seed, plan=plan, hot=hot, service=service)


def drive_mix(
    inputs: MixInputs,
    service: Any,
    seconds: float,
    *,
    warmup_s: float = MIX_WARMUP_S,
    make_query: Callable[[Any], Any] = lambda problem: api.LifetimeQuery(problem=problem),
    around: Callable[[], Any] | None = None,
) -> Outcome:
    """One closed-loop client against *service* for *warmup_s* + *seconds*.

    The client sends its next query when the previous one returns.  At a
    duplicate burst a second client thread, blocked until then, sends the
    same query at the same moment, and the client waits for both answers.
    The hot set is answered once first, so hot queries are store hits from
    then on.  Queries that start in the first *warmup_s* seconds are
    checked but not timed.  *make_query* builds each query from its
    problem; *around*, when given, returns a context manager wrapped
    around every ``submit`` (the traced run's per-query span).
    """
    refs = harness.References("service-mix")
    hot = {key: make_query(problem) for key, problem in inputs.hot.items()}
    for query in hot.values():
        service.submit(query)
    lock = threading.Lock()
    records: list[tuple[str, str, float, float, float, bool]] = []
    errors = [0]

    def ask(op: scenarios.MixOp, query: Any) -> None:
        begin = time.perf_counter()
        try:
            if around is None:
                response = service.submit(query)
            else:
                with around():
                    response = service.submit(query)
        except Exception:  # noqa: BLE001 - a failed query is a measured outcome
            with lock:
                errors[0] += 1
            return
        end = time.perf_counter()
        ok = refs.check(op.key, response.result.probabilities)
        with lock:
            records.append((op.kind, response.served_from, begin, end, end - begin, ok))

    bursts: queue.Queue = queue.Queue()

    def partner() -> None:
        while (item := bursts.get()) is not None:
            op, query, start_line = item
            try:
                start_line.wait(timeout=BURST_TIMEOUT_S)
                ask(op, query)
            except threading.BrokenBarrierError:
                pass  # the client gave up on this burst
            finally:
                bursts.task_done()

    second = threading.Thread(target=partner)
    second.start()
    stream = scenarios.mix_schedule(inputs.seed, inputs.plan)
    started = time.perf_counter() + warmup_s
    deadline = started + seconds
    try:
        timed = 0
        while time.perf_counter() < deadline or timed < MIX_BLOCK_QUERIES:
            op = next(stream)
            if time.perf_counter() >= started:
                timed += 2 if op.kind == "burst" else 1
            query = hot.get(op.key) if op.kind == "hot" else None
            if query is None:
                query = make_query(scenarios.mix_problem(op.key))
            if op.kind == "burst":
                start_line = threading.Barrier(2)
                bursts.put((op, query, start_line))
                start_line.wait(timeout=BURST_TIMEOUT_S)
                ask(op, query)
                bursts.join()
            else:
                ask(op, query)
    finally:
        bursts.put(None)
        second.join()

    out = Outcome()
    out.attempted = len(records) + errors[0]
    out.failed = errors[0] + sum(1 for *_, ok in records if not ok)
    records = [record for record in records if record[2] >= started]
    out.wall_s = max(end for _, _, _, end, _, _ in records) - started
    out.latencies = [latency for *_, latency, _ in records]
    out.cold = [latency for _, served, _, _, latency, _ in records if served == "solve"]
    finished = sorted(end for _, _, _, end, _, _ in records)
    marks = [started] + finished[MIX_BLOCK_QUERIES - 1 :: MIX_BLOCK_QUERIES]
    out.campaign_s = [later - earlier for earlier, later in zip(marks, marks[1:])]
    for kind, served, *_ in records:
        out.served[served] = out.served.get(served, 0) + 1
        out.extra[kind] = out.extra.get(kind, 0) + 1
    out.extra["by_served"] = {
        served: [latency for _, s, _, _, latency, _ in records if s == served]
        for served in ("solve", "cache")
    }
    out.extra["by_served"]["duplicate"] = [
        latency for kind, s, _, _, latency, _ in records if kind == "burst" and s != "solve"
    ]
    out.worst_deviation = refs.worst
    return out


def run_mix(inputs: MixInputs, seconds: float) -> Outcome:
    return drive_mix(inputs, inputs.service, seconds)


# ------------------------------------------------------------- paper-campaign
@dataclass
class CampaignInputs:
    seed: int
    problems: list[Any]
    options: Any


def setup_campaign(seed: int) -> CampaignInputs:
    return CampaignInputs(
        seed=seed,
        problems=scenarios.campaign_scenarios(),
        options=api.RunOptions(max_workers=2),
    )


def sweep_checked(
    problems: list[Any],
    order: list[int],
    options: Any,
    check: Callable[[int, Any], bool],
    out: Outcome,
) -> tuple[Any, float]:
    """One sweep over *problems* in *order*; ``check(index, cdf)`` judges each slot.

    A sweep hands every answer back when it returns, so the latency of
    each answered scenario is the sweep's wall time.  Returns the sweep
    result (``None`` if it raised) and that wall time.
    """
    out.attempted += len(order)
    begin = time.perf_counter()
    try:
        result = api.sweep([problems[i] for i in order], "mrm-uniformization", options=options)
    except Exception:  # noqa: BLE001 - a failed sweep is a measured outcome
        out.failed += len(order)
        return None, time.perf_counter() - begin
    wall = time.perf_counter() - begin
    failed = set(result.failed_indices)
    for position, index in enumerate(order):
        if position in failed or not check(index, result.results[position].probabilities):
            out.failed += 1
        else:
            out.latencies.append(wall)
    return result, wall


def run_campaign(inputs: CampaignInputs, seconds: float) -> Outcome:
    """Repeat the campaign sweep, each time in a new seeded order."""
    refs = harness.References("paper-campaign")
    out = Outcome()
    orders = scenarios.campaign_orders(inputs.seed)
    deadline = time.perf_counter() + seconds
    solve_s = []
    while time.perf_counter() < deadline or len(out.campaign_s) < MIN_SWEEPS:
        result, wall = sweep_checked(
            inputs.problems, next(orders), inputs.options,
            lambda index, cdf: refs.check((index,), cdf), out,
        )
        out.campaign_s.append(wall)
        if result is not None:
            solve_s += [float(item.diagnostics["wall_seconds"]) for item in result.results]
    out.wall_s = sum(out.campaign_s)
    out.extra["median_scenario_solve_s"] = harness.median(solve_s) if solve_s else None
    out.worst_deviation = refs.worst
    return out


SETUPS = {"cold-reference": setup_cold, "service-mix": setup_mix, "paper-campaign": setup_campaign}
RUNS = {"cold-reference": run_cold, "service-mix": run_mix, "paper-campaign": run_campaign}
