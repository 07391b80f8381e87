"""Capacity-planning sweeps: utilization and minimum cores versus input
frequency, decimation trade-offs, and the blocking-model comparison.

All rows are exact rationals; core counts come from the strict
utilization bound in :mod:`tcsizer.analysis`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple, Sequence

from .analysis import (
    end_to_end_response,
    min_cores,
    require_bound_regime,
)
from .model import (
    INFINITE,
    Analytic,
    Duration,
    Expr,
    Leaf,
    RoundRobin,
    Stage,
    System,
    item_flow,
    nodes,
    period_from_frequency,
    replica_count,
    replicate_for_rate,
    scaled_utilizations,
)


@dataclass
class SweepRow:
    frequency_hz: Fraction
    total_utilization: Fraction
    min_cores: int


@dataclass
class DecimationRow:
    factor: int
    end_to_end: Duration
    aggregator_utilization: Fraction
    cores_saved: int


class ComparisonResult(NamedTuple):
    ours: int
    baseline: int


def retime_system(template: System, frequency_hz, *,
                  replication_limit: int = 4096) -> System:
    """Re-time a template (costs and blockings are kept) for one input
    frequency: every periodic stage gets T = floor(1s / f) and D = T + B;
    one with C > T becomes the k = ceil(C/T) replicas of
    replicate_for_rate (D = kT + B) under a RoundRobin node, which sends
    item n to replica n mod k. One-shot stages are kept as they are. A
    template that already holds a RoundRobin node raises ValueError."""
    _require_template(template)
    t_in = period_from_frequency(frequency_hz)
    analytics = []
    for analytic in template.analytics:
        stage_map = {s.id: [s] if s.inter_arrival is INFINITE else [
            replace(r, deadline=r.inter_arrival + r.blocking)
            for r in replicate_for_rate(replace(s, inter_arrival=t_in),
                                        replication_limit)
        ] for s in analytic.stages}
        topo = _expand_topology(analytic.topology, stage_map)
        analytics.append(replace(
            analytic, stages=tuple(r for rs in stage_map.values() for r in rs),
            topology=topo))
    return System(tuple(analytics))


def _expand_topology(expr: Expr, stage_map: dict[str, list[Stage]]) -> Expr:
    if isinstance(expr, Leaf):
        replicas = stage_map[expr.stage]
        if len(replicas) == 1:
            return Leaf(replicas[0].id)
        return RoundRobin(tuple(Leaf(r.id) for r in replicas))
    return type(expr)(tuple(_expand_topology(c, stage_map)
                            for c in expr.children))


def _require_template(template: System) -> None:
    """ValueError for a RoundRobin node, whose replicas would each be
    read as a template stage."""
    for a, analytic in enumerate(template.analytics):
        if any(isinstance(n, RoundRobin) for n in nodes(analytic.topology)):
            raise ValueError(f"/analytics/{a}/topology: analytic "
                             f"{analytic.id!r} is already replicated "
                             f"(round-robin node)")


def frequency_sweep(template: System, frequencies: Sequence, u_max, *,
                    replication_limit: int = 4096) -> list[SweepRow]:
    """One row per input frequency.

    The total is one fraction, the summed cost of the periodic stages
    over T_in: the sum of ``Stage.utilization(T_in)`` over the template
    (one-shot stages count 0) and the total of retime_system's result,
    whose replicas of a stage sum back to exactly C/T_in. Every periodic
    stage is held to the replication limit as retime_system would hold
    it (ReplicationExceeded propagates).
    """
    _require_template(template)
    periodic = [s for s in template.stages()
                if s.inter_arrival is not INFINITE]
    cost = sum(s.cost for s in periodic)
    costliest = max((s.cost for s in periodic), default=0)
    rows = []
    for f in frequencies:
        freq = Fraction(f)
        t_in = period_from_frequency(freq)
        # ceil(C / T_in) grows with C, so only a limit below 1 or one the
        # costliest stage passes needs the scan for the first offender
        if replication_limit < 1 or -(-costliest // t_in) > replication_limit:
            for s in periodic:
                replica_count(s, t_in, replication_limit)
        total = Fraction(cost, t_in)
        rows.append(SweepRow(
            frequency_hz=freq,
            total_utilization=total,
            min_cores=min_cores(total, u_max),
        ))
    return rows


def _unique_sink(analytic: Analytic) -> str:
    """The final stage of the only analytic, /analytics/0."""
    sinks = item_flow(analytic.topology).sinks
    if len(sinks) != 1:
        raise ValueError(
            f"/analytics/0/topology: analytic {analytic.id!r}: decimation "
            f"needs a unique final stage, found {sinks}")
    return sinks[0]


def decimation_sweep(template: System, input_frequency, factors: Sequence[int],
                     u_max) -> list[DecimationRow]:
    """Trade aggregator rate against end-to-end latency.

    The final stage of the (single) analytic is the aggregator. Factor F
    makes it activate once per F inputs: its inter-arrival becomes
    F * T_in (utilization divided by F) and the oldest item of a batch
    waits (F-1) * T_in in the buffer, charged as extra blocking on the
    aggregator. F = 1 is exactly the undecimated analysis.

    Responses use the isolated-stage model (R = B + C, no interference):
    the sweep sizes each phase onto its own cores, so cross-stage
    interference is a deployment concern, not a sizing one. One-shot
    stages count 0 utilization, as in frequency_sweep.
    """
    _require_template(template)
    if len(template.analytics) != 1:
        raise ValueError(
            "/analytics: decimation_sweep expects a single-analytic system")
    analytic = template.analytics[0]
    agg_id = _unique_sink(analytic)
    aggregator = next(s for s in analytic.stages if s.id == agg_id)
    t_in = period_from_frequency(input_frequency)

    def row(factor: int) -> tuple[Duration, Fraction, int]:
        if factor < 1:
            raise ValueError("decimation factors must be >= 1")
        per_stage_resp: dict[str, Duration] = {}
        util = Fraction(0)
        for s in analytic.stages:
            f = factor if s.id == agg_id else 1
            util += s.utilization(f * t_in)
            per_stage_resp[s.id] = s.blocking + (f - 1) * t_in + s.cost
        e2e = end_to_end_response(analytic.topology, per_stage_resp)
        return (e2e, aggregator.utilization(factor * t_in),
                min_cores(util, u_max))

    _, _, cores_undecimated = row(1)
    rows = []
    for factor in factors:
        e2e, agg_util, cores = row(factor)
        rows.append(DecimationRow(
            factor=factor,
            end_to_end=e2e,
            aggregator_utilization=agg_util,
            cores_saved=cores_undecimated - cores,
        ))
    return rows


def baseline_comparison(system: System, u_max) -> ComparisonResult:
    """Core counts under our blocking model versus a baseline that has no
    blocking term and must charge B as execution demand.

    Ours sizes with C/T (blocking only widens deadlines, T + B = D);
    the baseline sizes with (C + B)/T. baseline >= ours always, equal
    when every B is zero.
    """
    require_bound_regime(system)
    stages = list(system.stages())
    lcm, weights = scaled_utilizations(stages)
    ours = sum(weights)
    blocked = sum(s.blocking * (lcm // s.inter_arrival) for s in stages
                  if s.inter_arrival is not INFINITE)
    return ComparisonResult(
        ours=min_cores(Fraction(ours, lcm), u_max),
        baseline=min_cores(Fraction(ours + blocked, lcm), u_max),
    )
