"""Seeded inputs of the three benchmark workloads.

Everything a run sends to the program is built here from ``--seed`` and
nothing else, so the same seed always produces the same queries.  Each
workload draws from a finite *universe* of problems; the committed
reference CDFs (``reference/*.npz``, written by ``make_reference.py``)
cover every universe member, so every answer of every seed is checked.

Workloads
---------
``cold-reference``
    Queries on the reference chain (busy/idle workload, C ~ 300 As,
    c = 0.625, k = 1e-3/s, Delta = 0.9, eps = 1e-6, 33 points on
    0-3000 s).  The capacity of each query comes from a 0.125 As grid
    within +-1 % of 300 As, in a seeded order without repeats, so every
    query is a new fingerprint and a new chain of about 52k states.
``service-mix``
    Small chains (C in 60-160 As, Delta = 2, 16 points on 0-300 s).  One
    closed-loop client draws repeats of an 8-scenario hot set, unseen
    capacities and same-chain queries on a new grid; every
    ``BURST_EVERY`` queries it sends an unseen query together with a
    second, otherwise idle client thread.
``paper-campaign``
    The 15 Markovian-approximation scenarios of Figures 7-11 at their
    quick settings, in a seeded order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

# ---------------------------------------------------------------- shared
#: Busy/idle switching rate (1/s) and currents (A) of the reference workload.
SWITCH_RATE = 0.02
CURRENTS = (1.0, 0.05)
#: KiBaM parameters of the reference chain family.
C_FRACTION = 0.625
K_RATE = 1e-3


def rng_for(workload: str, seed: int, stream: str = "") -> random.Random:
    """A deterministic RNG for one stream of one workload and seed."""
    return random.Random(f"perfbench:{workload}:{seed}:{stream}")


def busy_idle_workload():
    from repro.api import WorkloadModel

    return WorkloadModel(
        state_names=("busy", "idle"),
        generator=np.array([[-SWITCH_RATE, SWITCH_RATE], [SWITCH_RATE, -SWITCH_RATE]]),
        currents=np.array(CURRENTS),
        initial_distribution=np.array([1.0, 0.0]),
    )


def kibam_problem(workload, capacity: float, times: np.ndarray, delta: float, epsilon: float):
    from repro.api import KiBaMParameters, LifetimeProblem

    return LifetimeProblem(
        workload=workload,
        battery=KiBaMParameters(capacity=float(capacity), c=C_FRACTION, k=K_RATE),
        times=times,
        delta=delta,
        epsilon=epsilon,
    )


# -------------------------------------------------------- cold-reference
COLD_TIMES = np.linspace(0.0, 3000.0, 33)
COLD_DELTA = 0.9
COLD_EPSILON = 1e-6
#: 49 capacities, 297-303 As: about +-1 % around the reference 300 As.
COLD_CAPACITIES = tuple(297.0 + 0.125 * i for i in range(49))


def cold_order(seed: int) -> list[int]:
    """Seeded order in which the cold-reference universe is queried."""
    order = list(range(len(COLD_CAPACITIES)))
    rng_for("cold-reference", seed).shuffle(order)
    return order


# ----------------------------------------------------------- service-mix
MIX_DELTA = 2.0
MIX_EPSILON = 1e-6
MIX_BASE_STOP = 300.0
MIX_POINTS = 16
#: Hot capacities: one per 12.5 As stratum of 60-160 As, drawn from three
#: candidates each, so every seed's hot set spans the same chain sizes.
MIX_HOT_STRATA = tuple(
    tuple(60.0 + 12.5 * stratum + 4.0 * j for j in range(3)) for stratum in range(8)
)
MIX_HOT_UNIVERSE = tuple(capacity for stratum in MIX_HOT_STRATA for capacity in stratum)
#: Unseen capacities: the 0.1 As grid on 60-160 As without the hot candidates.
MIX_UNSEEN_UNIVERSE = tuple(
    capacity
    for capacity in (round(60.0 + 0.1 * i, 1) for i in range(1001))
    if capacity not in MIX_HOT_UNIVERSE
)
#: Grid stops of the same-chain, new-grid queries (300 s is the base grid).
MIX_REGRID_STOPS = tuple(150.0 + 2.5 * g for g in range(128) if g != 60)
#: Store bound.
MIX_STORE_ENTRIES = 64
#: Every block of BURST_EVERY queries holds, in a seeded order, this many
#: unseen and regrid queries, hot repeats for the rest, and in its middle
#: one unseen query sent by both client threads (the duplicate burst).
BURST_EVERY = 50
MIX_UNSEEN_PER_BLOCK = 2
MIX_REGRID_PER_BLOCK = 2
#: Size strata of the unseen capacities and of the regrid stops: every
#: run of this many consecutive draws takes one value from each stratum,
#: so each seed's misses cost the same on average.
MIX_SIZE_STRATA = 8


def mix_times(stop: float = MIX_BASE_STOP) -> np.ndarray:
    return np.linspace(0.0, stop, MIX_POINTS)


@dataclass(frozen=True)
class MixOp:
    """One scheduled service-mix query.

    ``kind`` is ``hot``, ``unseen``, ``regrid`` or ``burst``; ``key`` is
    ``(capacity, grid stop)``, which names its reference CDF.
    """

    kind: str
    key: tuple[float, float]


@dataclass(frozen=True)
class MixPlan:
    hot: tuple[float, ...]
    unseen: tuple[float, ...]
    bursts: tuple[float, ...]
    regrid: dict[float, tuple[float, ...]]  # hot capacity -> new grid stops


def stratified(values, rng: random.Random, strata: int = MIX_SIZE_STRATA) -> tuple:
    """*values* in a seeded order in which every run of *strata* consecutive
    items holds one value from each of *strata* equal-count size strata.

    Values beyond the smallest stratum's share are left out.
    """
    ordered = sorted(values)
    buckets = [
        ordered[len(ordered) * s // strata : len(ordered) * (s + 1) // strata]
        for s in range(strata)
    ]
    for bucket in buckets:
        rng.shuffle(bucket)
    order: list = []
    for rank in range(min(len(bucket) for bucket in buckets)):
        picks = list(range(strata))
        rng.shuffle(picks)
        order += [buckets[s][rank] for s in picks]
    return tuple(order)


def mix_plan(seed: int) -> MixPlan:
    """Seeded hot set, disjoint unseen and burst pools, and regrid stops."""
    rng = rng_for("service-mix", seed, "plan")
    hot = tuple(rng.choice(stratum) for stratum in MIX_HOT_STRATA)
    pool = list(MIX_UNSEEN_UNIVERSE)
    rng.shuffle(pool)
    return MixPlan(
        hot=hot,
        unseen=stratified([capacity for i, capacity in enumerate(pool) if i % 3], rng),
        bursts=stratified(pool[::3], rng),
        regrid={capacity: stratified(MIX_REGRID_STOPS, rng) for capacity in hot},
    )


def mix_schedule(seed: int, plan: MixPlan) -> Iterator[MixOp]:
    """The endless, seeded query stream of the closed-loop client.

    Pools are used without repeats; a pool that runs out starts over, at
    which point its queries are store misses again (the store bound is far
    below each pool) but find their chain in the warm workspace.  Regrid
    queries take the hot capacities in turn, in a seeded order.
    """
    rng = rng_for("service-mix", seed, "client")
    used = {"unseen": 0, "burst": 0}
    regrid_used = {capacity: 0 for capacity in plan.hot}
    regrid_turns = list(plan.hot)
    rng.shuffle(regrid_turns)
    turn = 0
    others = BURST_EVERY - 1 - MIX_UNSEEN_PER_BLOCK - MIX_REGRID_PER_BLOCK
    while True:
        block = (
            ["unseen"] * MIX_UNSEEN_PER_BLOCK + ["regrid"] * MIX_REGRID_PER_BLOCK
            + ["hot"] * others
        )
        rng.shuffle(block)
        block.insert(BURST_EVERY // 2, "burst")
        for kind in block:
            if kind == "burst" or kind == "unseen":
                pool = plan.bursts if kind == "burst" else plan.unseen
                yield MixOp(kind, (pool[used[kind] % len(pool)], MIX_BASE_STOP))
                used[kind] += 1
            elif kind == "regrid":
                capacity = regrid_turns[turn % len(regrid_turns)]
                turn += 1
                stops = plan.regrid[capacity]
                yield MixOp(kind, (capacity, stops[regrid_used[capacity] % len(stops)]))
                regrid_used[capacity] += 1
            else:
                yield MixOp(kind, (rng.choice(plan.hot), MIX_BASE_STOP))


def mix_problem(key: tuple[float, float]):
    capacity, stop = key
    return kibam_problem(busy_idle_workload(), capacity, mix_times(stop), MIX_DELTA, MIX_EPSILON)


def mix_universe() -> list[tuple[float, float]]:
    """Every service-mix key any seed can send."""
    keys = [(capacity, MIX_BASE_STOP) for capacity in MIX_HOT_UNIVERSE]
    keys += [(capacity, MIX_BASE_STOP) for capacity in MIX_UNSEEN_UNIVERSE]
    keys += [(capacity, stop) for capacity in MIX_HOT_UNIVERSE for stop in MIX_REGRID_STOPS]
    return keys


# -------------------------------------------------------- paper-campaign
CAMPAIGN_EPSILON = 1e-8
CAMPAIGN_SCENARIOS = 15
PAPER_K = 4.5e-5


def campaign_scenarios() -> list:
    """The 15 MRM scenarios of Figures 7-11 at their quick settings."""
    from repro.api import KiBaMParameters, LifetimeProblem
    from repro.battery.parameters import rao_battery_parameters
    from repro.battery.units import coulombs_from_milliamp_hours as mah
    from repro.workload.burst import burst_workload
    from repro.workload.onoff import onoff_workload
    from repro.workload.simple import simple_workload

    onoff = onoff_workload(frequency=1.0, erlang_k=1)
    simple = simple_workload()
    seconds = np.linspace(6000.0, 20000.0, 29)
    hours = np.linspace(1.0, 30.0, 30) * 3600.0
    single_7200 = KiBaMParameters(capacity=7200.0, c=1.0, k=0.0)
    kibam_7200 = KiBaMParameters(capacity=7200.0, c=0.625, k=PAPER_K)
    kibam_800 = KiBaMParameters(capacity=mah(800.0), c=0.625, k=PAPER_K)
    rows = [
        ("fig7 C=7200 c=1 D=100", onoff, single_7200, seconds, 100.0),
        ("fig7 C=7200 c=1 D=50", onoff, single_7200, seconds, 50.0),
        ("fig7 C=7200 c=1 D=25", onoff, single_7200, seconds, 25.0),
        ("fig8 C=7200 c=0.625 D=100", onoff, kibam_7200, seconds, 100.0),
        ("fig8 C=7200 c=0.625 D=50", onoff, kibam_7200, seconds, 50.0),
        ("fig9 C=4500 c=1 D=25", onoff,
         KiBaMParameters(capacity=4500.0, c=1.0, k=0.0), seconds, 25.0),
        ("fig9 Rao D=50", onoff, rao_battery_parameters(), seconds, 50.0),
        ("fig9 C=7200 c=1 D=25", onoff, single_7200, seconds, 25.0),
        ("fig10 500mAh c=1 D=25mAh", simple,
         KiBaMParameters(capacity=mah(500.0), c=1.0, k=0.0), hours, mah(25.0)),
        ("fig10 500mAh c=1 D=2mAh", simple,
         KiBaMParameters(capacity=mah(500.0), c=1.0, k=0.0), hours, mah(2.0)),
        ("fig10 800mAh KiBaM D=25mAh", simple, kibam_800, hours, mah(25.0)),
        ("fig10 800mAh KiBaM D=10mAh", simple, kibam_800, hours, mah(10.0)),
        ("fig10 800mAh c=1 D=0.5mAh", simple,
         KiBaMParameters(capacity=mah(800.0), c=1.0, k=0.0), hours, mah(0.5)),
        ("fig11 simple D=10mAh", simple, kibam_800, hours, mah(10.0)),
        ("fig11 burst D=10mAh", burst_workload(), kibam_800, hours, mah(10.0)),
    ]
    return [
        LifetimeProblem(
            workload=workload,
            battery=battery,
            times=times,
            delta=float(delta),
            epsilon=CAMPAIGN_EPSILON,
            label=label,
        )
        for label, workload, battery, times, delta in rows
    ]


#: The campaign scenario the traced run splits into layer calls: a
#: 2,576-state chain whose ~48k products are dispatch-bound.
CAMPAIGN_PROBE_LABEL = "fig8 C=7200 c=0.625 D=100"


def campaign_orders(seed: int) -> Iterator[list[int]]:
    """Endless seeded scenario orders, one per sweep."""
    rng = rng_for("paper-campaign", seed)
    while True:
        order = list(range(CAMPAIGN_SCENARIOS))
        rng.shuffle(order)
        yield order


# ---------------------------------------------------------- determinism
def schedule_digest(workload: str, seed: int, length: int = 600) -> list[str]:
    """The fingerprints of the first *length* queries *seed* sends.

    Used by the determinism check: equal for equal seeds, different for
    different seeds.
    """
    from repro.api import LifetimeQuery

    if workload == "cold-reference":
        workload_model = busy_idle_workload()
        problems = [
            kibam_problem(workload_model, COLD_CAPACITIES[i], COLD_TIMES, COLD_DELTA, COLD_EPSILON)
            for i in cold_order(seed)
        ]
    elif workload == "service-mix":
        stream = mix_schedule(seed, mix_plan(seed))
        problems = [mix_problem(next(stream).key) for _ in range(length)]
    else:
        scenarios = campaign_scenarios()
        orders = campaign_orders(seed)
        problems = [scenarios[i] for _ in range(2) for i in next(orders)]
    return [
        LifetimeQuery(problem=problem, method="mrm-uniformization").fingerprint()
        for problem in problems
    ]
