"""The traced run: per-layer metrics from spans around calls into each layer.

Spans come from the benchmark's own :class:`harness.SpanRecorder`; the
program's ``repro.obs`` spans stay off.  Every workload reports every
layer metric, measured on that workload's own problems:

* **MRM split** (``repro.core`` / ``repro.markov`` / ``repro.engine``):
  one query's problem solved as the public calls the MRM solver makes --
  ``discretize``, ``TransientPropagator(...)``, ``transient_batch`` --
  alternating with an undecomposed ``repro.api.solve`` of the same
  problem.
* **Kernel against the floor** (``repro.markov``): one
  ``build_kernel(P).spmm(v)`` product, then right after it a bare CSR SpMV
  on a Pᵀ built once in this process.  Both read a working set that sits
  in the last-level cache, so the floor is an *in-cache* floor and
  ``markov.computed_gbps`` is computed from array sizes, not measured
  DRAM traffic.
* **Service** (``repro.service`` / ``repro.engine``): a service whose
  store, workspace and queries are wrapped so that fingerprint, store
  get/put, chain build, propagator build and transient get their own
  spans under each ``service.submit``.  On ``service-mix`` this replays
  the workload's own traffic; elsewhere it is one miss, repeated hits and
  one coalesced pair on the workload's problems.
* **Executor** (``repro.engine``): the workload's sweep (the campaign
  itself on ``paper-campaign``, a few of the workload's problems
  elsewhere) at ``max_workers=2`` and at ``max_workers=1``.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Any, Callable

import numpy as np

import harness
import scenarios
import workloads
import repro.api as api
from repro.core.discretization import discretize
from repro.engine.batch import chain_merge_key
from repro.markov.kernels import build_kernel
from repro.markov.poisson import cached_poisson_weights, clear_poisson_caches
from repro.markov.uniformization import TransientPropagator

#: Every per-layer metric and its unit, in report order.
LAYER_UNITS = {
    "core.chain_build_ms": "ms",
    "core.chain_states": "count",
    "core.chain_nnz": "count",
    "markov.propagator_build_ms": "ms",
    "markov.poisson_ms": "ms",
    "markov.transient_s": "s",
    "markov.products": "count",
    "markov.products_saved": "count",
    "markov.ns_per_product": "ns",
    "markov.spmm_ns": "ns",
    "markov.loop_ns_per_product": "ns",
    "markov.spmv_floor_ns": "ns",
    "markov.floor_ratio": "ratio",
    "markov.computed_gbps": "GB/s",
    "markov.working_set_mb": "MB",
    "markov.llc_mb": "MB",
    "engine.solve_s": "s",
    "engine.overhead_ms": "ms",
    "engine.fingerprint_us": "us",
    "engine.store_get_us": "us",
    "engine.store_put_us": "us",
    "engine.store_hit_ratio": "ratio",
    "engine.store_evictions": "count",
    "engine.chain_groups": "count",
    "executor.parallel_sweep_s": "s",
    "executor.serial_sweep_s": "s",
    "executor.parallel_efficiency": "ratio",
    "executor.chunks": "count",
    "executor.retries": "count",
    "service.hit_us": "us",
    "service.miss_ms": "ms",
    "service.coalesced_ms": "ms",
    "service.respond_us": "us",
    "service.served_solve": "count",
    "service.served_cache": "count",
    "service.served_coalesced": "count",
    "service.coalesce_ratio": "ratio",
    "bench.trace_overhead_pct": "%",
    "bench.spans": "count",
}

#: Hits timed on the probe service of workloads without their own store traffic.
PROBE_HITS = 200


# --------------------------------------------------------------- wrappers
class TracedStore:
    """Store proxy timing ``get`` and ``put`` of the wrapped result store."""

    def __init__(self, store: Any, recorder: harness.SpanRecorder) -> None:
        self._store = store
        self._recorder = recorder

    def get(self, fingerprint: str) -> Any:
        with self._recorder.span("engine.store_get"):
            return self._store.get(fingerprint)

    def put(self, fingerprint: str, result: Any, **kwargs: Any) -> None:
        with self._recorder.span("engine.store_put"):
            self._store.put(fingerprint, result, **kwargs)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._store, name)


class TracedPropagator:
    """Propagator proxy timing ``transient_batch``."""

    def __init__(self, propagator: Any, recorder: harness.SpanRecorder) -> None:
        self._propagator = propagator
        self._recorder = recorder

    def transient_batch(self, *args: Any, **kwargs: Any) -> Any:
        with self._recorder.span("markov.transient") as attrs:
            result = self._propagator.transient_batch(*args, **kwargs)
            attrs["products"] = int(result.iterations)
        return result

    def __getattr__(self, name: str) -> Any:
        return getattr(self._propagator, name)


def traced_workspace(recorder: harness.SpanRecorder) -> Any:
    """A service workspace whose chain and propagator builds are spans."""

    class TracedWorkspace(api.SolveWorkspace):
        def discretized(self, model: Any, delta: float, key: Any, backend: Any = None) -> Any:
            built = key not in self.chains
            with recorder.span("core.chain_build" if built else "engine.chain_lookup"):
                return super().discretized(model, delta, key, backend=backend)

        def propagator(self, chain: Any, key: Any, **kwargs: Any) -> Any:
            built = key not in self.propagators
            with recorder.span("markov.propagator_build" if built else "engine.propagator_lookup"):
                return TracedPropagator(super().propagator(chain, key, **kwargs), recorder)

    return TracedWorkspace(horizon_caps=False)


def traced_query_factory(recorder: harness.SpanRecorder) -> Callable[[Any], Any]:
    """Build queries whose ``fingerprint()`` is a span."""

    @dataclasses.dataclass(frozen=True)
    class TracedQuery(api.LifetimeQuery):
        def fingerprint(self) -> str:
            with recorder.span("engine.fingerprint"):
                return super().fingerprint()

    return lambda problem: TracedQuery(problem=problem)


def traced_service(recorder: harness.SpanRecorder, max_entries: int) -> Any:
    store = TracedStore(api.SweepCache(max_entries=max_entries), recorder)
    return api.serve(store=store, workspace=traced_workspace(recorder))


# ------------------------------------------------------------- MRM split
def mrm_split(
    problem: Any, repeats: int, recorder: harness.SpanRecorder, check: Callable[[Any], bool]
) -> tuple[dict[str, float], Any, int]:
    """Alternate split and undecomposed solves; return medians, a propagator, failures."""
    failed = 0
    for _ in range(repeats):
        clear_poisson_caches()
        with recorder.span("mrm.split"):
            with recorder.span("core.discretize"):
                chain = discretize(problem.model(), problem.effective_delta)
            with recorder.span("markov.propagator"):
                propagator = TransientPropagator(chain.generator, validate=False)
            projection = np.zeros(chain.n_states)
            projection[chain.empty_states] = 1.0
            with recorder.span("markov.transient_batch") as attrs:
                transient = propagator.transient_batch(
                    chain.initial_distribution[None, :],
                    problem.times,
                    epsilon=problem.epsilon,
                    projection=projection,
                )
                attrs["products"] = int(transient.iterations)
        failed += not check(np.clip(transient.values[0], 0.0, 1.0))
        clear_poisson_caches()
        with recorder.span("engine.solve"):
            result = api.solve(problem, "mrm-uniformization")
        failed += not check(result.probabilities)
    builds = recorder.durations("core.discretize")
    props = recorder.durations("markov.propagator")
    transients = recorder.durations("markov.transient_batch")
    solves = recorder.durations("engine.solve")
    build, prop = harness.median(builds), harness.median(props)
    trans, solve = harness.median(transients), harness.median(solves)
    # Paired: each solve against the split run just before it, so slow
    # phases of a shared machine cancel out of the difference.
    overhead = harness.median(
        [s - b - p - t for b, p, t, s in zip(builds, props, transients, solves)]
    )
    metrics = {
        "core.chain_build_ms": build * 1e3,
        "core.chain_states": float(chain.n_states),
        "core.chain_nnz": float(chain.generator.nnz),
        "markov.propagator_build_ms": prop * 1e3,
        "markov.transient_s": trans,
        "markov.products": float(transient.iterations),
        "markov.products_saved": float(transient.iterations_saved),
        "markov.ns_per_product": trans / max(1, transient.iterations) * 1e9,
        "engine.solve_s": solve,
        "engine.overhead_ms": overhead * 1e3,
    }
    return metrics, propagator, failed


def poisson_ms(propagator: Any, problem: Any, recorder: harness.SpanRecorder) -> float:
    rate = propagator.rate * float(np.max(problem.times))
    for _ in range(5):
        clear_poisson_caches()
        with recorder.span("markov.poisson"):
            cached_poisson_weights(rate, problem.epsilon)
    return harness.median(recorder.durations("markov.poisson")) * 1e3


def _floor_product(transposed: Any) -> tuple[Callable[[Any, Any], None], str]:
    """The barest CSR SpMV available: scipy's compiled routine, else ``@``."""
    try:
        from scipy.sparse._sparsetools import csr_matvec
    except ImportError:  # a scipy without the private module
        def product(x: Any, y: Any) -> None:
            y[:] = transposed @ x
        return product, "scipy @"
    n_rows, n_cols = transposed.shape
    indptr, indices, data = transposed.indptr, transposed.indices, transposed.data

    def product(x: Any, y: Any) -> None:
        y.fill(0.0)
        csr_matvec(n_rows, n_cols, indptr, indices, data, x, y)

    return product, "csr_matvec"


def kernel_vs_floor(
    propagator: Any, ns_per_product: float, recorder: harness.SpanRecorder, budget_s: float = 0.6
) -> tuple[dict[str, float], dict[str, Any]]:
    """Time ``spmm`` and, right after each, the bare SpMV floor."""
    matrix = propagator.probability_matrix
    n = matrix.shape[0]
    kernel = build_kernel(matrix)
    block = np.full((1, n), 1.0 / n)
    transposed = matrix.T.tocsr()
    floor, floor_impl = _floor_product(transposed)
    x, y = block[0].copy(), np.empty(n)
    # Each sample times a block of products long enough (about 1 ms) that
    # the clock and span costs vanish; blocks of the two alternate.
    begin = time.perf_counter()
    kernel.spmm(block)
    floor(x, y)
    reps = max(1, int(1e-3 / max(time.perf_counter() - begin, 1e-9)))
    stop = time.perf_counter() + budget_s
    samples = 0
    while time.perf_counter() < stop or samples < 20:
        with recorder.span("markov.spmm", products=reps):
            for _ in range(reps):
                kernel.spmm(block)
        with recorder.span("markov.spmv_floor", products=reps):
            for _ in range(reps):
                floor(x, y)
        samples += 1
    spmm_ns = harness.median(recorder.durations("markov.spmm")) / reps * 1e9
    floor_ns = harness.median(recorder.durations("markov.spmv_floor")) / reps * 1e9
    working_set = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes + 2 * n * 8
    llc = harness.llc_bytes()
    metrics = {
        "markov.spmm_ns": spmm_ns,
        "markov.loop_ns_per_product": ns_per_product - spmm_ns,
        "markov.spmv_floor_ns": floor_ns,
        "markov.floor_ratio": ns_per_product / floor_ns,
        "markov.computed_gbps": working_set / ns_per_product,
        "markov.working_set_mb": working_set / 1e6,
        "markov.llc_mb": (llc or 0) / 1e6,
    }
    notes = {
        "spmv_floor_impl": floor_impl,
        "spmv_floor_samples": samples,
        "products_per_sample": reps,
        "floor_label": "in-cache" if llc and working_set < llc else "working set exceeds LLC",
        "computed_gbps_label": "computed from array sizes / ns_per_product",
    }
    return metrics, notes


# ---------------------------------------------------------------- service
def service_metrics(
    recorder: harness.SpanRecorder, service: Any, by_served: dict[str, list[float]], bursts: int
) -> dict[str, float]:
    stats = service.stats()
    served = stats["served"]
    store = stats["store"]
    fingerprint = harness.median(recorder.durations("engine.fingerprint"))
    get = harness.median(recorder.durations("engine.store_get"))
    put = recorder.durations("engine.store_put")
    hit = harness.median(by_served["cache"])
    lookups = store["hits"] + store["misses"]

    return {
        "engine.fingerprint_us": fingerprint * 1e6,
        "engine.store_get_us": get * 1e6,
        "engine.store_put_us": harness.median(put) * 1e6,
        "engine.store_hit_ratio": store["hits"] / lookups if lookups else 0.0,
        "engine.store_evictions": float(store["evictions"]),
        "service.hit_us": hit * 1e6,
        "service.miss_ms": harness.median(by_served["solve"]) * 1e3,
        "service.coalesced_ms": harness.median(by_served["duplicate"]) * 1e3,
        "service.respond_us": (hit - fingerprint - get) * 1e6,
        "service.served_solve": float(served["solve"]),
        "service.served_cache": float(served["cache"]),
        "service.served_coalesced": float(served["coalesced"]),
        "service.coalesce_ratio": served["coalesced"] / bursts if bursts else 0.0,
    }


def service_probe(
    recorder: harness.SpanRecorder,
    miss: tuple[Any, Callable[[Any], bool]],
    pair: tuple[Any, Callable[[Any], bool]],
) -> tuple[dict[str, float], int, int]:
    """One miss, repeated hits, then two clients sending one unseen query together."""
    service = traced_service(recorder, scenarios.MIX_STORE_ENTRIES)
    make = traced_query_factory(recorder)
    by_served: dict[str, list[float]] = {"solve": [], "cache": [], "duplicate": []}
    attempted = failed = 0

    def submit(query: Any, check: Callable[[Any], bool], duplicate: bool = False) -> None:
        nonlocal attempted, failed
        begin = time.perf_counter()
        with recorder.span("service.submit"):
            response = service.submit(query)
        latency = time.perf_counter() - begin
        served = response.served_from
        kind = "duplicate" if duplicate and served != "solve" else served
        with lock:
            attempted += 1
            failed += not check(response.result.probabilities)
            by_served[kind].append(latency)

    lock = threading.Lock()
    query = make(miss[0])
    for _ in range(PROBE_HITS + 1):
        submit(query, miss[1])
    barrier = threading.Barrier(2)
    shared = make(pair[0])

    def client() -> None:
        barrier.wait(timeout=workloads.BURST_TIMEOUT_S)
        submit(shared, pair[1], duplicate=True)

    threads = [threading.Thread(target=client) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return service_metrics(recorder, service, by_served, 1), attempted, failed


def service_replay(
    recorder: harness.SpanRecorder, inputs: workloads.MixInputs, seconds: float
) -> tuple[dict[str, float], int, int]:
    """The service-mix traffic against a traced service."""
    service = traced_service(recorder, scenarios.MIX_STORE_ENTRIES)
    out = workloads.drive_mix(
        inputs,
        service,
        seconds,
        warmup_s=0.0,
        make_query=traced_query_factory(recorder),
        around=lambda: recorder.span("service.submit"),
    )
    bursts = out.extra.get("burst", 0) // 2  # each burst is answered twice
    return service_metrics(recorder, service, out.extra["by_served"], bursts), out.attempted, out.failed


# --------------------------------------------------------------- executor
def executor_probe(
    recorder: harness.SpanRecorder, problems: list[Any], refs: harness.References, keys: list[Any]
) -> tuple[dict[str, float], int, int]:
    """The same sweep at two workers and at one, every slot checked."""
    out = workloads.Outcome()
    order = list(range(len(problems)))
    sweeps = {}
    for workers, name in ((2, "executor.sweep"), (1, "executor.serial_sweep")):
        with recorder.span(name, workers=workers):
            sweeps[workers], _ = workloads.sweep_checked(
                problems, order, api.RunOptions(max_workers=workers),
                lambda index, cdf: refs.check(keys[index], cdf), out,
            )
    parallel = recorder.durations("executor.sweep")[0]
    serial = recorder.durations("executor.serial_sweep")[0]
    diagnostics = sweeps[2].diagnostics if sweeps[2] is not None else {}
    workers = max(1, int(diagnostics.get("n_workers", 2)))
    metrics = {
        "engine.chain_groups": float(len({chain_merge_key(p) for p in problems})),
        "executor.parallel_sweep_s": parallel,
        "executor.serial_sweep_s": serial,
        "executor.parallel_efficiency": serial / (workers * parallel),
        "executor.chunks": float(diagnostics.get("n_chunks", 0)),
        "executor.retries": float(diagnostics.get("n_retries", 0)),
    }
    return metrics, out.attempted, out.failed


# ------------------------------------------------------------------ plans
@dataclasses.dataclass
class Probes:
    """The problems one workload's layer probes run on, and their reference keys."""

    refs: harness.References
    split: tuple[Any, Any]  # (problem, key) split into layer calls
    repeats: int  # split / undecomposed solve pairs
    sweep: list[tuple[Any, Any]]  # executor probe scenarios
    miss: tuple[Any, Any] | None = None  # service probe: one miss, then hits
    pair: tuple[Any, Any] | None = None  # service probe: the coalesced pair

    def check(self, key: Any) -> Callable[[Any], bool]:
        return lambda probabilities: self.refs.check(key, probabilities)


def cold_probes(inputs: workloads.ColdInputs) -> Probes:
    def item(position: int) -> tuple[Any, Any]:
        index = inputs.order[position]
        return inputs.queries[index].problem, (scenarios.COLD_CAPACITIES[index],)

    return Probes(
        refs=harness.References("cold-reference"),
        split=item(0),
        repeats=3,
        sweep=[item(2), item(3)],
        miss=item(0),
        pair=item(1),
    )


def mix_probes(inputs: workloads.MixInputs) -> Probes:
    keys = [(capacity, scenarios.MIX_BASE_STOP) for capacity in inputs.plan.bursts[-12:]]
    items = [(scenarios.mix_problem(key), key) for key in keys]
    return Probes(
        refs=harness.References("service-mix"), split=items[0], repeats=9, sweep=items
    )


def campaign_probes(inputs: workloads.CampaignInputs) -> Probes:
    labels = [problem.label for problem in inputs.problems]

    def item(label: str) -> tuple[Any, Any]:
        index = labels.index(label)
        return inputs.problems[index], (index,)

    return Probes(
        refs=harness.References("paper-campaign"),
        split=item(scenarios.CAMPAIGN_PROBE_LABEL),
        repeats=1,
        sweep=[item(label) for label in labels],
        miss=item("fig10 800mAh KiBaM D=25mAh"),
        pair=item("fig10 500mAh c=1 D=2mAh"),
    )


PROBES = {"cold-reference": cold_probes, "service-mix": mix_probes, "paper-campaign": campaign_probes}


def traced_run(workload: str, inputs: Any, seconds: float, recorder: harness.SpanRecorder):
    """Run every layer probe for *workload*; return metrics, counts and notes."""
    started = time.perf_counter()
    probes = PROBES[workload](inputs)
    problem, key = probes.split
    metrics, propagator, failed = mrm_split(problem, probes.repeats, recorder, probes.check(key))
    attempted = 2 * probes.repeats
    metrics["markov.poisson_ms"] = poisson_ms(propagator, problem, recorder)
    kernel_metrics, notes = kernel_vs_floor(propagator, metrics["markov.ns_per_product"], recorder)
    metrics.update(kernel_metrics)

    sweep_problems = [problem for problem, _ in probes.sweep]
    sweep_keys = [key for _, key in probes.sweep]
    executor_metrics, n, bad = executor_probe(recorder, sweep_problems, probes.refs, sweep_keys)
    metrics.update(executor_metrics)
    attempted, failed = attempted + n, failed + bad

    if probes.miss is None:
        remaining = max(5.0, seconds - (time.perf_counter() - started))
        service, n, bad = service_replay(recorder, inputs, remaining)
    else:
        service, n, bad = service_probe(
            recorder,
            (probes.miss[0], probes.check(probes.miss[1])),
            (probes.pair[0], probes.check(probes.pair[1])),
        )
    metrics.update(service)
    attempted, failed = attempted + n, failed + bad

    wall = time.perf_counter() - started
    cost = harness.span_cost_seconds()
    metrics["bench.spans"] = float(len(recorder.records))
    metrics["bench.trace_overhead_pct"] = 100.0 * cost * len(recorder.records) / wall
    split_sum = (
        metrics["core.chain_build_ms"] + metrics["markov.propagator_build_ms"]
    ) / 1e3 + metrics["markov.transient_s"]
    notes.update({
        "span_cost_ns": cost * 1e9,
        "transient_share_of_solve": metrics["markov.transient_s"] / metrics["engine.solve_s"],
        "split_sum_over_solve": split_sum / metrics["engine.solve_s"],
        "span_samples": {
            name: len(recorder.durations(name)) for name in sorted(
                {record["name"] for record in recorder.records}
            )
        },
        "worst_reference_deviation": probes.refs.worst,
    })
    return {name: metrics[name] for name in LAYER_UNITS}, attempted, failed, notes
