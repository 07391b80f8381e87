"""Worst-case response times: the fixed-priority recurrence.

The per-stage bound is the classic fixed-priority preemptive recurrence
with a blocking term,

    R = B + C + sum_z ceil(R / T_z) * C_z

over the same-core cotenants z with higher (or equal - mutual
interference) priority. A one-shot cotenant contributes its cost exactly
once, so it joins B + C in the constant term, the base. Cotenants that
share a period T share one ceiling, ceil(R / T) times their summed cost.

One rule, in integers, decides DIVERGED before any iteration. A
periodic stage weighs C * (L // T), L the lcm of its core's finite
periods (``model.period_scales``), and a one-shot stage weighs 0. A
level (a stage and its cotenants) that weighs more than L has no finite
busy period (Lehoczky, 1990; Tindell, Burns and Wellings, 1994); one
that weighs L while the stage weighs 0 leaves a load that fills the
core, so the stage never runs, whatever its base. Any other recurrence
has a least fixed point, which reads DIVERGED past the cap.

Each fixed point starts from one job of every cotenant in its load,
top = base + sum_z C_z (Audsley et al., 1993). With f the right-hand
side above and a positive cost, the base is at least 1: the least fixed
point R >= base then makes every ceil(R / T_z) >= 1, so R = f(R) >= top,
and from any lower bound the iteration reaches the least fixed point in
no more rounds. Since ceil(R / T) = floor((R - 1) / T) + 1 for all
integer R and T >= 1, each round evaluates f(R) in one division and one
product per distinct period, as top + sum_z floor((R - 1) / T_z) * C_z.

A stage of zero cost completes only when it is dispatched, and at any
instant the simulator makes its releases before it dispatches, so a
cotenant job released at the instant its window would close runs
first. Its window is closed: it counts floor(R / T_z) + 1 jobs of each
cotenant where a positive cost counts ceil(R / T_z), the limit of a
positive cost, and each round evaluates top + sum_z floor(R / T_z) *
C_z. Below h1 = (5, 10) and h2 = (5, 20) us on one core, a zero-cost
stage gets 15 us, which the simulator observes.

All arithmetic is exact: times are integer nanoseconds. Each analytic's
end-to-end response composes its stages' bounds over its topology
(``model.end_to_end_response``).
"""

from __future__ import annotations

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
    period_scales,
)

#: A stage whose level overloads its core, or whose bound passes the cap.
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


def _fixed_point(top: Duration, load: Iterable[tuple[int, Duration]],
                 cap: Duration, s: int) -> ResponseTime:
    """Least R with R = top + sum floor((R - s) / T) * C over the (period
    T, summed cost C) pairs of ``load``, iterated from ``top``, or
    DIVERGED once an iterate exceeds ``cap``. s is 1 for a stage of
    positive cost and 0 for one of zero cost, whose window is closed
    (see the module docstring)."""
    r = top
    while r <= cap:
        nxt = top
        below = r - s
        for t, c in load:
            nxt += below // t * c
        if nxt == r:
            return r
        r = nxt
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
    then is DIVERGED by their weight or solves against them less its own
    cost (see the module docstring).
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
        lcm, scale = period_scales({r[3] for r in core})
        core.sort(key=_priority, reverse=True)
        n = len(core)
        # at or above the current level: the periodic records' cost per
        # period, in all and in weight, and the one-shot records' cost;
        # the fixed point reads the totals through a live view
        totals: dict[int, Duration] = {}
        load = totals.items()
        level_sum = level_weight = once = added = 0
        for priority, sid, c, t, b in core:
            while added < n and core[added][0] >= priority:
                _, _, cost, period, _ = core[added]
                added += 1
                if period is INFINITE:
                    once += cost
                else:
                    totals[period] = totals.get(period, 0) + cost
                    level_sum += cost
                    level_weight += cost * scale[period]
            top = b + once + level_sum
            s = 1 if c else 0
            # the DIVERGED rule: a full level leaves a stage of weight 0
            # no time at all
            if level_weight >= lcm and (level_weight > lcm
                                        or not c * scale[t]):
                per_stage[sid] = DIVERGED
            elif t is INFINITE:
                per_stage[sid] = _fixed_point(top, load, cap, s)
            else:
                totals[t] -= c
                per_stage[sid] = _fixed_point(top, load, cap, s)
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
