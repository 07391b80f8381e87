"""Worst-case response times and utilization-based sizing.

The per-stage bound is the classic fixed-priority preemptive recurrence
with a blocking term,

    R = B + C + sum_z ceil(R / T_z) * C_z

over the same-core cotenants z with higher (or equal - mutual
interference) priority. A one-shot cotenant contributes its cost exactly
once, so it joins B + C in the constant term, the base. Cotenants that
share a period T share one ceiling, ceil(R / T) times their summed cost,
so a round costs one term per distinct period. ``solve_system`` walks
each core's stages once, sorted from the highest priority down, adding
each level to running totals (summed cost per period and in all, and
one sum of one-shot costs) and solving each of its stages against them less its
own cost.

Each fixed point starts from one job of every cotenant in its load,
base + sum_z C_z (Audsley et al., 1993), or from 0 when the base is 0,
its own fixed point. With f the right-hand side above, the one premise
is base >= 1: the least fixed point R >= base then makes every
ceil(R / T_z) >= 1, so R = f(R) >= base + sum_z C_z. From any lower
bound the iteration reaches the same least fixed point, or DIVERGED, as
from the base, in no more rounds.

All arithmetic is exact: times are integer nanoseconds, and
utilizations are summed as integers over the lcm of the periods
(``model.scaled_utilizations``) and reported as Fraction.

End-to-end response times compose per the topology: sequential stages
add; parallel branches and round-robin replicas take the maximum.

The sizing side is the linear-time utilization bound: a system whose
total utilization U satisfies U < (m - 1/2) * U_max fits on m cores of
capacity U_max, valid in the regime T + B = D with deadline-monotonic
priorities. The inequality is strict, which matters at exact boundaries.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import attrgetter
from typing import Mapping, NamedTuple, Union

from .model import (
    INFINITE,
    Cluster,
    Duration,
    Expr,
    Leaf,
    Marker,
    Par,
    RoundRobin,
    Seq,
    Stage,
    System,
    effective_blocking,
    scaled_utilizations,
)

#: Returned when the response-time iteration climbs past its cap.
DIVERGED = Marker.DIVERGED

ResponseTime = Union[int, Marker]

_priority = attrgetter("priority")


class MissingStage(ValueError):
    """A topology leaf names a stage the system does not declare."""

    def __init__(self, stage_id: str):
        super().__init__(f"topology references unknown stage {stage_id!r}")
        self.stage_id = stage_id


class PreconditionViolated(ValueError):
    """The utilization bound's validity regime does not hold."""

    def __init__(self, stage_id: str, message: str):
        super().__init__(f"stage {stage_id!r}: {message}")
        self.stage_id = stage_id


class AnalyticVerdict(NamedTuple):
    end_to_end: ResponseTime
    feasible: bool


class ResponseReport(NamedTuple):
    """Per-stage worst-case response times plus per-analytic verdicts."""

    per_stage: dict[str, ResponseTime]
    per_analytic: dict[str, AnalyticVerdict]
    system_feasible: bool


class UtilizationSummary(NamedTuple):
    total: Fraction


def _fixed_point(base: Duration, start: Duration,
                 load: list[tuple[int, Duration]],
                 cap: Duration) -> ResponseTime:
    """Least R >= ``base`` with R = base + sum ceil(R / T) * C over the
    (period T, summed cost C) pairs of ``load``, or DIVERGED as soon as
    an iterate exceeds ``cap``. The iteration starts from ``start``, with
    base <= start <= R (``solve_system`` passes base + sum C, or 0 when
    base is 0): every iterate then stays at or below R and climbs to it,
    so it returns what a start from ``base`` returns."""
    r = start
    rounds = 0
    while True:
        if r > cap:
            return DIVERGED
        nxt = base
        for t, c in load:
            nxt += -(-r // t) * c
        if nxt == r:
            return r
        r = nxt
        rounds += 1
        # base > 0 now (0 is its own fixed point); once the periodic load
        # fills the core (U >= 1), R >= base + U*R > R has no fixed point
        # and the loop would only crawl up to the cap
        if rounds == 64 and sum(Fraction(c, t) for t, c in load) >= 1:
            return DIVERGED


def end_to_end_response(expr: Expr,
                        per_stage: Mapping[str, Duration]) -> Duration:
    """Compose per-stage response times over the topology: Seq sums,
    Par and RoundRobin take the maximum."""
    if isinstance(expr, Leaf):
        try:
            return per_stage[expr.stage]
        except KeyError:
            raise MissingStage(expr.stage) from None
    if isinstance(expr, Seq):
        return sum(map(end_to_end_response, expr.children, repeat(per_stage)))
    if isinstance(expr, (Par, RoundRobin)):
        return max(map(end_to_end_response, expr.children, repeat(per_stage)))
    raise TypeError(f"not a composition expression: {expr!r}")


def solve_system(system: System, allocation: Mapping[str, str],
                 cluster: Cluster) -> ResponseReport:
    """Bound every stage against its same-core higher/equal-priority
    cotenants and compose the analytic verdicts.

    The effective blocking of a stage is max(stage blocking, platform
    blocking of its host core). The iteration cap is the largest
    end-to-end deadline in the system, so a stage that converges above
    its own analytic's deadline is still reported (and judged
    infeasible) rather than clipped to DIVERGED. A stage without a
    priority raises ValueError; one without a known core raises
    InvalidAllocation.

    Each core's stages are walked once, sorted by priority (stable), one
    level at a time. A stage with base > 0 starts its fixed point from
    base + sum C over its load, a lower bound on the answer (see the
    module docstring), so the reports equal those of a start from the
    base.
    """
    blocking = effective_blocking(system, allocation, cluster)
    stages = list(system.stages())
    cap = max((a.end_to_end_deadline for a in system.analytics), default=0)

    by_core: dict[str, list[Stage]] = {}
    for s in stages:
        by_core.setdefault(allocation[s.id], []).append(s)

    # keyed in the system's stage order, filled in core by core below
    per_stage: dict[str, ResponseTime] = dict.fromkeys(s.id for s in stages)
    for core in by_core.values():
        core.sort(key=_priority, reverse=True)
        # summed cost per period of the periodic stages, their sum, and
        # summed cost of the one-shot stages, at or above the current
        # priority level
        totals: dict[int, Duration] = {}
        level_sum = once = 0
        i = 0
        while i < len(core):
            # add the level core[i:j] to the totals, then solve each of
            # its stages against them less its own cost
            priority = core[i].priority
            j = i
            while j < len(core) and core[j].priority == priority:
                s = core[j]
                if s.inter_arrival is INFINITE:
                    once += s.cost
                else:
                    totals[s.inter_arrival] = (
                        totals.get(s.inter_arrival, 0) + s.cost)
                    level_sum += s.cost
                j += 1
            while i < j:
                s = core[i]
                i += 1
                b = blocking[s.id]
                t = s.inter_arrival
                if t is INFINITE:
                    base = b + once
                    load = list(totals.items())
                else:
                    base = b + s.cost + once
                    totals[t] -= s.cost
                    load = list(totals.items())
                    totals[t] += s.cost
                # base + sum C over the load, whichever kind s is
                start = b + once + level_sum if base else 0
                per_stage[s.id] = _fixed_point(base, start, load, cap)

    per_analytic: dict[str, AnalyticVerdict] = {}
    for analytic in system.analytics:
        # a leaf naming another analytic's stage is MissingStage too,
        # whether or not a stage diverged
        own = {s.id: per_stage[s.id] for s in analytic.stages}
        if DIVERGED in own.values():
            end_to_end_response(analytic.topology, dict.fromkeys(own, 0))
            per_analytic[analytic.id] = AnalyticVerdict(DIVERGED, False)
            continue
        e2e = end_to_end_response(analytic.topology, own)
        per_analytic[analytic.id] = AnalyticVerdict(
            e2e, e2e <= analytic.end_to_end_deadline)

    return ResponseReport(
        per_stage=per_stage,
        per_analytic=per_analytic,
        system_feasible=all(v.feasible for v in per_analytic.values()),
    )


def total_utilization(system: System) -> UtilizationSummary:
    """The exact sum of every stage's ``Stage.utilization()`` (C/T, 0 for
    a one-shot stage), added as integers over the common denominator of
    ``scaled_utilizations``."""
    lcm, weights = scaled_utilizations(list(system.stages()))
    return UtilizationSummary(total=Fraction(sum(weights), lcm))


def min_cores(total_utilization, u_max) -> int:
    """Least m >= 1 with total_utilization < (m - 1/2) * u_max."""
    u = Fraction(total_utilization)
    umax = Fraction(u_max)
    if not 0 < umax <= 1:
        raise ValueError("u_max must be in (0, 1]")
    if u < 0:
        raise ValueError("utilization must be non-negative")
    q = u / umax + Fraction(1, 2)
    # least integer strictly greater than q
    return q.numerator // q.denominator + 1


def require_bound_regime(system: System) -> None:
    """Raise PreconditionViolated unless T + B = D for every finite-rate
    stage and assigned priorities are deadline-monotonic."""
    stages = list(system.stages())
    for sid, _, period, deadline, blocking, _, _ in stages:
        if period is not INFINITE and period + blocking != deadline:
            raise PreconditionViolated(
                sid, "inter-arrival + blocking != deadline")
    # each deadline's first stage id, least and greatest priority
    by_deadline: dict[int, list] = {}
    for sid, _, _, deadline, _, priority, _ in stages:
        if priority is None:
            raise PreconditionViolated(sid, "priority unassigned")
        group = by_deadline.get(deadline)
        if group is None:
            by_deadline[deadline] = [sid, priority, priority]
        elif priority < group[1]:
            group[1] = priority
        elif priority > group[2]:
            group[2] = priority
    # a shorter deadline's priorities must all be strictly higher
    prev_min = prev_d = None
    for d in sorted(by_deadline):
        first, least, greatest = by_deadline[d]
        if prev_min is not None and greatest >= prev_min:
            raise PreconditionViolated(
                first,
                f"priorities not deadline-monotonic (deadline {d} vs {prev_d})")
        prev_min, prev_d = least, d
