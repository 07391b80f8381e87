"""Seeded inputs for the benchmark workloads.

Every generator takes its seed as an argument and returns the same
systems for the same seed. The generators live here, not in the test
suite, so that the benchmark's inputs do not change when test helpers do.

Periods are divisors of 1 s. Any lcm of them divides 1 s, which bounds
both the denominators of the Fraction loads that first-fit accumulates
and the hyperperiod the simulator has to cover.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from tcsizer import (
    MS,
    AllocationFailed,
    Analytic,
    Cluster,
    Core,
    Leaf,
    ScenarioId,
    Stage,
    System,
    allocate_first_fit,
    assign_priorities_dm,
    builtin_system,
    homogeneous_cluster,
    min_cores,
    par,
    retime_system,
    seq,
    solve_system,
    total_utilization,
    with_allocation,
    with_priorities,
)

DIVISOR_PERIODS_MS = (1, 2, 4, 5, 8, 10, 20, 25, 40, 50, 100, 125, 200,
                      250, 500, 1000)


class Draws:
    """Counts generator draws, so a workload can report how many were
    accepted out of how many were attempted."""

    def __init__(self):
        self.attempted = 0
        self.accepted = 0

    @property
    def ratio(self) -> float:
        return self.accepted / self.attempted if self.attempted else 1.0


def _sp_topology(rng: random.Random, ids: list[str]):
    """A random series-parallel expression covering ``ids`` once each: a
    chain of steps, each a single stage or a fork-join of 2-3 stages."""
    steps = []
    i = 0
    while i < len(ids):
        width = rng.choice((1, 1, 2, 3))
        group = ids[i:i + width]
        steps.append(par(*group) if len(group) > 1 else Leaf(group[0]))
        i += width
    return seq(*steps)


# --- plan-wide ----------------------------------------------------------------

def plan_system(seed: int, n_stages: int) -> System:
    """A multi-analytic series-parallel system of exactly ``n_stages``
    stages in the utilization bound's regime (T + B = D, B up to T/10).

    Each analytic has one period drawn from 5-100 ms, and stage
    utilizations are uniform in [0.2, 1.8] x 0.085, so the bound asks for
    about ``n_stages * 0.085`` cores whatever the seed.
    """
    mean_util = 0.085
    rng = random.Random(seed)
    periods = [p * MS for p in DIVISOR_PERIODS_MS if 5 <= p <= 100]
    analytics = []
    made = 0
    while made < n_stages:
        a = len(analytics)
        size = min(rng.randint(3, 17), n_stages - made)
        t = rng.choice(periods)
        stages = []
        for i in range(size):
            u = mean_util * rng.uniform(0.2, 1.8)
            b = rng.choice((0, t // 20, t // 10))
            stages.append(Stage(id=f"p{a:03d}.{i:02d}",
                                cost=max(1, math.floor(u * t)),
                                inter_arrival=t, deadline=t + b, blocking=b))
        analytics.append(Analytic(
            id=f"p{a:03d}", stages=tuple(stages),
            topology=_sp_topology(rng, [s.id for s in stages]),
            end_to_end_deadline=sum(s.deadline for s in stages)))
        made += size
    return System(tuple(analytics))


def placeable_plan(seed: int, draws: Draws, n_stages: int) -> System:
    """The first plan-wide system of a seeded stream that first-fit
    places on the cores the bound asks for."""
    rng = random.Random(seed)
    while True:
        draws.attempted += 1
        system = plan_system(rng.getrandbits(32), n_stages)
        m = min_cores(total_utilization(system).total, 1)
        prioritized = with_priorities(system, assign_priorities_dm(system))
        try:
            allocate_first_fit(prioritized, homogeneous_cluster(m))
        except AllocationFailed:
            continue
        draws.accepted += 1
        return system


# --- validate -----------------------------------------------------------------

_SHAPES = ("single", "chain", "fork", "join")


def _pipelined_analytic(rng: random.Random, aid: str, period: int) -> Analytic:
    shape = rng.choice(_SHAPES)
    n = 1 if shape == "single" else rng.randint(2, 3) if shape == "chain" else 3
    stages = []
    for i in range(n):
        b = 3 * rng.choice((0, period // 20, period // 10))
        stages.append(Stage(
            id=f"{aid}.{i}",
            cost=max(1, math.floor(rng.uniform(0.05, 0.25) * period)),
            inter_arrival=period, deadline=period + b, blocking=b))
    ids = [s.id for s in stages]
    if shape == "fork":
        topo = seq(ids[0], par(ids[1], ids[2]))
    elif shape == "join":
        topo = seq(par(ids[0], ids[1]), ids[2])
    else:
        topo = seq(*ids)
    return Analytic(id=aid, stages=tuple(stages), topology=topo,
                    end_to_end_deadline=sum(s.deadline for s in stages))


def pipelined_system(seed: int):
    """(system, allocation, cluster, hyperperiod) for one small pipelined
    system, or None when the draw is not placeable or leaves some stage
    with R > T + B (the no-backlog regime the bounds claim)."""
    rng = random.Random(seed)
    periods = []
    analytics = []
    for a in range(rng.randint(1, 3)):
        period = rng.choice(DIVISOR_PERIODS_MS[4:]) * MS  # >= 8 ms
        periods.append(period)
        analytics.append(_pipelined_analytic(rng, f"a{a}", period))
    system = System(tuple(analytics))
    system = with_priorities(system, assign_priorities_dm(system))
    platform = rng.choice((0, 0, 0, min(periods) // 50))
    cluster = Cluster(tuple(Core(f"c{i}", Fraction(1), platform)
                            for i in range(rng.randint(2, 3))))
    try:
        allocation = allocate_first_fit(system, cluster)
    except AllocationFailed:
        return None
    system = with_allocation(system, allocation)
    report = solve_system(system, allocation, cluster)
    if not report.system_feasible:
        return None
    for s in system.stages():
        r = report.per_stage[s.id]
        if not isinstance(r, int) or r > s.inter_arrival + max(s.blocking,
                                                               platform):
            return None
    return system, allocation, cluster, math.lcm(*periods)


def validate_pool(seed: int, count: int, draws: Draws) -> list[tuple]:
    """The first ``count`` accepted draws of a seeded stream."""
    rng = random.Random(seed)
    pool = []
    while len(pool) < count:
        draws.attempted += 1
        got = pipelined_system(rng.getrandbits(32))
        if got is not None:
            draws.accepted += 1
            pool.append(got)
    return pool


# --- cli ----------------------------------------------------------------------

def dense_tasks(seed: int, n_tasks: int) -> System:
    """``n_tasks`` independent one-stage analytics (D = T, B = 0) whose
    total utilization, 7.1, fills 11 cores of capacity 0.69 under the
    bound."""
    total_util = 7.1
    rng = random.Random(seed)
    periods = [p * MS for p in DIVISOR_PERIODS_MS if p >= 4]
    weights = [rng.uniform(0.2, 1.8) for _ in range(n_tasks)]
    scale = total_util / sum(weights)
    analytics = []
    for i, w in enumerate(weights):
        t = rng.choice(periods)
        sid = f"t{i:04d}"
        stage = Stage(id=sid, cost=max(1, math.floor(w * scale * t)),
                      inter_arrival=t, deadline=t)
        analytics.append(Analytic(id=sid, stages=(stage,),
                                  topology=Leaf(sid), end_to_end_deadline=t))
    return System(tuple(analytics))


def microblog_template() -> System:
    """The microblog online scenario at 1 Hz, the sweeps' template."""
    return builtin_system(ScenarioId.MICROBLOG_ONLINE, frequency_hz=1)


def microblog_headline() -> System:
    """The microblog scenario retimed to 4 kHz: 7 stages after round-robin
    replication of the splitter and the counter."""
    return retime_system(microblog_template(), 4000)


def sweep_arguments(seed: int) -> dict:
    """Seeded arguments for the size and decimate commands."""
    rng = random.Random(seed)
    freqs = sorted(rng.sample(range(2, 4000), 6))
    factors = sorted(rng.sample(range(2, 1001), 4))
    return {"freqs": [1, *freqs, 4000], "factors": [1, *factors],
            "freq": rng.choice((250, 500, 1000, 2000))}

