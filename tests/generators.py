"""Seeded system generators for the property and acceptance harnesses.

Each generator targets the regime its property is a theorem in:

* independent_taskset: single-core sets of independent one-stage
  analytics with B = 0, D = T, distinct deadline-monotonic priorities and
  periods drawn from divisors of 1e9 ns, so one synchronous hyperperiod
  (<= 1e9 ns) both realizes the critical instant and bounds the run.
* bound_regime_system: systems where the strict (m - 1/2) * U_max bound
  genuinely guarantees first-fit + per-core schedulability: stage
  utilizations capped at u_max / (2 (m_cap + 1)) (first-fit can then
  never fail below the bound), with either harmonic periods at u_max = 1
  or arbitrary periods at u_max = 0.69 (under ln 2, so any per-core
  packing is schedulable). B = 0 keeps T + B = D with D = T, which
  regime_problem_per_pass checks.
* pipelined_system: multi-core, multi-analytic systems with one period
  per analytic (rate-consistent pipelines), ADVERSARIAL-style blocking
  terms and series-parallel shapes, for conservativeness runs.

SubStr, a str subclass, stands where a leaf would: a topology leaf is a
str itself, so every walker reads it as a non-node.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from tcsizer import (
    INFINITE,
    Analytic,
    Cluster,
    Core,
    Stage,
    System,
    allocate_first_fit,
    assign_priorities_dm,
    homogeneous_cluster,
    min_cores,
    par,
    seq,
    solve_system,
    with_allocation,
    with_priorities,
)
from tcsizer.model import AllocationFailed

# all divide 1e9, so any subset's lcm divides 1e9
DIVISOR_PERIODS = [
    4_000_000, 5_000_000, 8_000_000, 10_000_000, 20_000_000, 25_000_000,
    40_000_000, 50_000_000, 100_000_000, 125_000_000, 200_000_000,
    250_000_000, 500_000_000, 1_000_000_000,
]

HARMONIC_PERIODS = [1_000_000 * (1 << k) for k in range(8)]

# pairwise coprime, so their lcm is their product (about 1.4e18 with the
# two primes near 1e6 and 1e9) and any capacity denominator of 3 or 100
# takes it past 2**64; INFINITE makes one-shot stages
COPRIME_PERIODS = (7, 11, 13, 1_000_003, 999_999_937, INFINITE)


class SubStr(str):
    __slots__ = ()


def _single_stage_analytic(aid: str, cost: int, period: int,
                           blocking: int = 0) -> Analytic:
    stage = Stage(id=aid, cost=cost, inter_arrival=period,
                  deadline=period + blocking, blocking=blocking)
    return Analytic(id=aid, stages=(stage,), topology=aid,
                    end_to_end_deadline=period + blocking)


def _uunifast(rng: random.Random, total: float, n: int) -> list[float]:
    """``n`` utilizations summing to ``total``, uniform over the simplex
    (UUniFast, Bini and Buttazzo 2005)."""
    remaining = total
    utils = []
    for i in range(n - 1):
        nxt = remaining * rng.random() ** (1.0 / (n - i - 1))
        utils.append(remaining - nxt)
        remaining = nxt
    utils.append(remaining)
    return utils


def independent_taskset(seed: int, max_stages: int = 6, u_cap: float = 0.9):
    """(system, allocation, cluster, hyperperiod) on one unit core."""
    rng = random.Random(seed)
    n = rng.randint(2, max_stages)
    utils = _uunifast(rng, rng.uniform(0.3, u_cap), n)
    analytics = []
    periods = []
    for i, u in enumerate(utils):
        t = rng.choice(DIVISOR_PERIODS)
        periods.append(t)
        analytics.append(_single_stage_analytic(
            f"t{i}", max(1, math.floor(u * t)), t))
    system = System(tuple(analytics))
    system = with_priorities(system, assign_priorities_dm(system))
    allocation = {s.id: "c0" for s in system.stages()}
    system = with_allocation(system, allocation)
    return system, allocation, homogeneous_cluster(1), math.lcm(*periods)


def bound_regime_system(seed: int, harmonic: bool):
    """(system, u_max) in the utilization bound's validity regime."""
    rng = random.Random(seed)
    if harmonic:
        u_max = Fraction(1)
        u_target = rng.uniform(1.0, 2.5)
        periods = HARMONIC_PERIODS
    else:
        u_max = Fraction(69, 100)  # below ln 2
        u_target = rng.uniform(0.8, 2.0)
        periods = DIVISOR_PERIODS
    m_cap = min_cores(Fraction(3, 2) * Fraction(u_target), u_max)
    alpha = u_max / (2 * (m_cap + 1))
    n = math.ceil(1.5 * u_target / float(alpha))
    analytics = []
    for i in range(n):
        u = (u_target / n) * (0.5 + rng.random())
        t = rng.choice(periods)
        analytics.append(_single_stage_analytic(
            f"t{i:03d}", max(1, math.floor(u * t)), t))
    system = System(tuple(analytics))
    return with_priorities(system, assign_priorities_dm(system)), u_max


def regime_problem_per_pass(system):
    """The first stage that breaks the utilization bound's regime, as
    (stage id, message), or None: one pass per rule (T + B = D for every
    finite-rate stage, every priority assigned), then deadline groups as
    lists of priorities, each strictly above the next longer deadline's."""
    stages = list(system.stages())
    for s in stages:
        if s.inter_arrival is not INFINITE:
            if s.inter_arrival + s.blocking != s.deadline:
                return s.id, "inter-arrival + blocking != deadline"
    for s in stages:
        if s.priority is None:
            return s.id, "priority unassigned"
    by_deadline, rep = {}, {}
    for s in stages:
        by_deadline.setdefault(s.deadline, []).append(s.priority)
        rep.setdefault(s.deadline, s.id)
    prev_min = prev_d = None
    for d in sorted(by_deadline):
        cur = by_deadline[d]
        if prev_min is not None and max(cur) >= prev_min:
            return rep[d], (f"priorities not deadline-monotonic "
                            f"(deadline {d} vs {prev_d})")
        prev_min, prev_d = min(cur), d
    return None


_SHAPES = ("single", "chain2", "chain3", "fork", "join")


def _analytic_with_shape(rng: random.Random, aid: str, period: int,
                         blocking_scale: int) -> Analytic:
    shape = rng.choice(_SHAPES)
    n = {"single": 1, "chain2": 2, "chain3": 3, "fork": 3, "join": 3}[shape]
    stages = []
    for i in range(n):
        u = rng.uniform(0.05, 0.25)
        b = rng.choice([0, period // 20, period // 10]) * blocking_scale
        stages.append(Stage(
            id=f"{aid}.s{i}", cost=max(1, math.floor(u * period)),
            inter_arrival=period, deadline=period + b, blocking=b))
    ids = [s.id for s in stages]
    if shape == "single":
        topo = ids[0]
    elif shape == "chain2":
        topo = seq(ids[0], ids[1])
    elif shape == "chain3":
        topo = seq(ids[0], ids[1], ids[2])
    elif shape == "fork":
        topo = seq(ids[0], par(ids[1], ids[2]))
    else:
        topo = seq(par(ids[0], ids[1]), ids[2])
    deadline = sum(s.deadline for s in stages)
    return Analytic(id=aid, stages=tuple(stages), topology=topo,
                    end_to_end_deadline=deadline)


def pipelined_system(seed: int, blocking_scale: int = 1):
    """(system, allocation, cluster, hyperperiod) or None when the draw
    is not allocatable/schedulable in the no-backlog regime (per-stage
    R <= T + effective B), which the conservativeness claim needs."""
    rng = random.Random(seed)
    n_analytics = rng.randint(1, 3)
    analytics = []
    periods = []
    for a in range(n_analytics):
        period = rng.choice(DIVISOR_PERIODS[2:])  # >= 8 ms keeps runs short
        periods.append(period)
        analytics.append(_analytic_with_shape(
            rng, f"a{a}", period, blocking_scale))
    system = System(tuple(analytics))
    system = with_priorities(system, assign_priorities_dm(system))
    n_cores = rng.randint(2, 3)
    platform = rng.choice([0, 0, 0, min(periods) // 50])
    cluster = Cluster(tuple(
        Core(f"c{i}", Fraction(1), platform) for i in range(n_cores)))
    try:
        allocation = allocate_first_fit(system, cluster)
    except AllocationFailed:
        return None
    system = with_allocation(system, allocation)
    report = solve_system(system, allocation, cluster)
    if not report.system_feasible:
        return None
    platform = {c.id: c.platform_blocking for c in cluster.cores}
    for s in system.stages():
        b_eff = max(s.blocking, platform[allocation[s.id]])
        r = report.per_stage[s.id]
        if not isinstance(r, int) or r > s.inter_arrival + b_eff:
            return None
    return system, allocation, cluster, math.lcm(*periods)


def accepted_stream(make, first_seed: int, count: int):
    """Deterministically walk seeds until `count` accepted draws."""
    out = []
    seed = first_seed
    while len(out) < count:
        item = make(seed)
        if item is not None:
            out.append((seed, item))
        seed += 1
    return out
