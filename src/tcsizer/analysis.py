"""Worst-case response times: the fixed-priority recurrence.

The per-stage bound is the classic fixed-priority preemptive recurrence
with a blocking term,

    R = B + C + sum_z ceil(R / T_z) * C_z

over the same-core cotenants z with higher (or equal - mutual
interference) priority. A one-shot cotenant contributes its cost exactly
once, so it joins B + C in the constant term, the base. Cotenants that
share a period T share one ceiling, ceil(R / T) times their summed cost,
so a round costs one term per distinct period. ``solve_system`` reads
each stage once into a plain record on its core's list, then walks each
core's records once, sorted from the highest priority down, adding each
level to running totals (summed cost per period and in all, and one sum
of one-shot costs) and solving each of its stages against them less its
own cost.

Each fixed point starts from one job of every cotenant in its load,
top = base + sum_z C_z (Audsley et al., 1993), or from 0 when the base
is 0, its own fixed point. With f the right-hand side above, the one
premise is base >= 1: the least fixed point R >= base then makes every
ceil(R / T_z) >= 1, so R = f(R) >= top. From any lower bound the
iteration reaches the same least fixed point, or DIVERGED, as from the
base, in no more rounds. Since ceil(R / T) = floor((R - 1) / T) + 1 for
every integer R and T >= 1, a round evaluates f(R) as
top + sum_z floor((R - 1) / T_z) * C_z: one division and one product
per distinct period.

All arithmetic is exact: times are integer nanoseconds. Each analytic's
end-to-end response composes its stages' bounds over its topology
(``model.end_to_end_response``).
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter, itemgetter
from typing import Iterable, Mapping, NamedTuple, Union

from .model import (
    INFINITE,
    Cluster,
    Duration,
    Marker,
    System,
    effective_blocking,
    end_to_end_response,
)

#: Returned when the response-time iteration climbs past its cap.
DIVERGED = Marker.DIVERGED

ResponseTime = Union[int, Marker]

_priority = itemgetter(0)
_deadline = attrgetter("end_to_end_deadline")


class AnalyticVerdict(NamedTuple):
    end_to_end: ResponseTime
    feasible: bool


class ResponseReport(NamedTuple):
    """Per-stage worst-case response times plus per-analytic verdicts."""

    per_stage: dict[str, ResponseTime]
    per_analytic: dict[str, AnalyticVerdict]
    system_feasible: bool


def _fixed_point(base: Duration, top: Duration,
                 load: Iterable[tuple[int, Duration]],
                 cap: Duration) -> ResponseTime:
    """Least R >= ``base`` with R = base + sum ceil(R / T) * C over the
    (period T, summed cost C) pairs of ``load``, or DIVERGED as soon as
    an iterate exceeds ``cap``. ``top`` is base + sum C, where the
    iteration starts (at 0 when base is 0), each round evaluating
    top + sum floor((R - 1) / T) * C (see the module docstring)."""
    r = top if base else 0
    rounds = 0
    while True:
        if r > cap:
            return DIVERGED
        nxt = top
        below = r - 1
        for t, c in load:
            nxt += below // t * c
        if nxt == r:
            return r
        r = nxt
        rounds += 1
        # base > 0 now (0 is its own fixed point); once the periodic load
        # fills the core (U >= 1), R >= base + U*R > R has no fixed point
        # and the loop would only crawl up to the cap
        if rounds == 64 and sum(Fraction(c, t) for t, c in load) >= 1:
            return DIVERGED


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
    InvalidAllocation (both from ``model.effective_blocking``).

    One pass reads each stage once, unpacked, into a record (priority,
    id, cost, period, effective blocking) on its core's list. Each
    core's records are sorted by priority (stable) and walked once: each
    record first adds every record at or above its level to the totals,
    then solves against them less its own cost, from one job of each
    cotenant (see the module docstring).
    """
    blocking = effective_blocking(system, allocation, cluster)
    cap = max(map(_deadline, system.analytics), default=0)

    by_core: dict[str, list[tuple]] = {}
    for sid, cost, period, _, _, priority, _ in system.stages():
        by_core.setdefault(allocation[sid], []).append(
            (priority, sid, cost, period, blocking[sid]))

    # keyed in the system's stage order, filled in core by core below
    per_stage: dict[str, ResponseTime] = dict.fromkeys(blocking)
    for core in by_core.values():
        core.sort(key=_priority, reverse=True)
        n = len(core)
        # summed cost per period of the periodic records, their sum, and
        # summed cost of the one-shot records, at or above the current
        # level; the fixed point reads the totals through a live view
        totals: dict[int, Duration] = {}
        load = totals.items()
        level_sum = once = added = 0
        for priority, sid, c, t, b in core:
            while added < n and core[added][0] >= priority:
                _, _, cost, period, _ = core[added]
                added += 1
                if period is INFINITE:
                    once += cost
                else:
                    totals[period] = totals.get(period, 0) + cost
                    level_sum += cost
            top = b + once + level_sum
            if t is INFINITE:
                per_stage[sid] = _fixed_point(b + once, top, load, cap)
            else:
                totals[t] -= c
                per_stage[sid] = _fixed_point(b + c + once, top, load, cap)
                totals[t] += c

    per_analytic: dict[str, AnalyticVerdict] = {}
    feasible = True
    for aid, stages, topology, deadline in system.analytics:
        # a leaf naming another analytic's stage is MissingStage too,
        # whether or not a stage diverged
        own = {s.id: per_stage[s.id] for s in stages}
        if DIVERGED in own.values():
            end_to_end_response(topology, dict.fromkeys(own, 0))
            e2e, ok = DIVERGED, False
        else:
            e2e = end_to_end_response(topology, own)
            ok = e2e <= deadline
        per_analytic[aid] = AnalyticVerdict(e2e, ok)
        feasible = feasible and ok
    return ResponseReport(per_stage, per_analytic, feasible)
