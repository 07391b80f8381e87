"""Rate replication and capacity-planning sweeps: utilization and
minimum cores versus input frequency, decimation trade-offs, and the
blocking-model comparison.

Core counts come from the linear-time utilization bound: a system whose
total utilization U satisfies U < (m - 1/2) * U_max fits on m cores of
capacity U_max, valid in the regime T + B = D with deadline-monotonic
priorities. Every count here reads only each stage's C, T and B, so it is
the count of that regime whatever deadlines and priorities the system
holds. The inequality is strict, which matters at exact boundaries.
All rows are exact rationals: utilizations are summed as integers over
the lcm of the periods (``model.period_scales``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .model import (
    INFINITE,
    Duration,
    Expr,
    MissingStage,
    Par,
    RoundRobin,
    Seq,
    Stage,
    System,
    end_to_end_response,
    item_flow,
    not_a_node,
    period_from_frequency,
    period_scales,
)

#: Most replicas that rate replication gives one stage.
REPLICATION_LIMIT = 4096


class SweepRow(NamedTuple):
    frequency_hz: Fraction
    total_utilization: Fraction
    min_cores: int


class DecimationRow(NamedTuple):
    factor: int
    end_to_end: Duration
    aggregator_utilization: Fraction
    cores_saved: int


class ComparisonResult(NamedTuple):
    ours: int
    baseline: int


class UtilizationSummary(NamedTuple):
    total: Fraction


class ReplicationExceeded(ValueError):
    """Rate replication would need more than REPLICATION_LIMIT replicas."""

    def __init__(self, stage_id: str, needed: int):
        super().__init__(f"stage {stage_id!r} needs {needed} replicas, "
                         f"limit is {REPLICATION_LIMIT}")
        self.stage_id = stage_id
        self.needed = needed


def total_utilization(system: System) -> UtilizationSummary:
    """The exact sum of every stage's ``Stage.utilization()`` (C/T, 0 for
    a one-shot stage), added as integers C * (L // T) over the common
    denominator L of ``period_scales``."""
    stages = list(system.stages())
    lcm, scale = period_scales([s.inter_arrival for s in stages])
    return UtilizationSummary(total=Fraction(
        sum([s.cost * scale[s.inter_arrival] for s in stages]), lcm))


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


def replica_count(stage: Stage, inter_arrival: Duration) -> int:
    """k = ceil(C/T) replicas for ``stage`` arriving every
    ``inter_arrival`` ns (at most 1 when C <= T); raises
    ReplicationExceeded when k > REPLICATION_LIMIT."""
    k = -(-stage.cost // inter_arrival)
    if k > REPLICATION_LIMIT:
        raise ReplicationExceeded(stage.id, k)
    return k


def retime_system(template: System, frequency_hz) -> System:
    """Re-time a template (costs and blockings are kept) for one input
    frequency, T_in = floor(1s / f): a periodic stage that needs k =
    ceil(C/T_in) replicas (``replica_count``, at most REPLICATION_LIMIT)
    gets T = max(k, 1) * T_in and D = T + B, and with k > 1 becomes
    ``<id>#1`` .. ``<id>#k`` under a RoundRobin node, which sends item n
    to replica n mod k. One-shot stages are kept as they are. A template
    that already holds a RoundRobin node raises ValueError."""
    _require_template(template)
    t_in = period_from_frequency(frequency_hz)
    analytics = []
    for analytic in template.analytics:
        stage_map = {s.id: [s] for s in analytic.stages}
        for s in analytic.stages:
            if s.inter_arrival is not INFINITE:
                k = replica_count(s, t_in)
                t = max(k, 1) * t_in
                ids = ([f"{s.id}#{j}" for j in range(1, k + 1)] if k > 1
                       else [s.id])
                stage_map[s.id] = [s._replace(id=sid, inter_arrival=t,
                                              deadline=t + s.blocking)
                                   for sid in ids]
        topo = _expand_topology(analytic.topology, stage_map)
        analytics.append(analytic._replace(
            stages=tuple(r for rs in stage_map.values() for r in rs),
            topology=topo))
    return System(tuple(analytics))


def _expand_topology(expr: Expr, stage_map: dict[str, list[Stage]]) -> Expr:
    cls = expr.__class__
    if cls is str:
        try:
            replicas = stage_map[expr]
        except KeyError:
            raise MissingStage(expr) from None
        if len(replicas) == 1:
            return replicas[0].id
        return RoundRobin(tuple(r.id for r in replicas))
    return cls(tuple(_expand_topology(c, stage_map) for c in expr.children))


def _require_template(template: System) -> None:
    """ValueError for a RoundRobin node, whose replicas would each be
    read as a template stage, once one walk over the topology finds no
    non-node (TypeError, from ``not_a_node``)."""
    for a, (aid, _, topology, _) in enumerate(template.analytics):
        todo, replicated = [topology], False
        while todo:
            node = todo.pop()
            cls = node.__class__
            if cls is str:
                continue
            if cls is not Seq and cls is not Par and cls is not RoundRobin \
                    or isinstance(node.children, str):
                raise not_a_node(node)
            replicated = replicated or cls is RoundRobin
            todo += reversed(node.children)
        if replicated:
            raise ValueError(f"/analytics/{a}/topology: analytic {aid!r} "
                             f"is already replicated (round-robin node)")


def frequency_sweep(template: System, frequencies: Sequence,
                    u_max) -> list[SweepRow]:
    """One row per input frequency.

    The total is one fraction, the summed cost of the periodic stages
    over T_in: the sum of C/T_in over the template (one-shot stages
    count 0) and the total of retime_system's result, whose k replicas
    of a stage, each C/(k T_in), sum back to exactly C/T_in. Every
    periodic stage is held to REPLICATION_LIMIT by ``replica_count``, as
    in retime_system (ReplicationExceeded propagates).
    """
    _require_template(template)
    periodic = [s for s in template.stages()
                if s.inter_arrival is not INFINITE]
    costs = [s.cost for s in periodic]
    cost, costliest = sum(costs), max(costs, default=0)
    rows = []
    for f in frequencies:
        freq = Fraction(f)
        t_in = period_from_frequency(freq)
        # ceil(C / T_in) grows with C, so only a limit that the costliest
        # stage passes needs the scan for the first offender
        if -(-costliest // t_in) > REPLICATION_LIMIT:
            for s in periodic:
                replica_count(s, t_in)
        total = Fraction(cost, t_in)
        rows.append(SweepRow(
            frequency_hz=freq,
            total_utilization=total,
            min_cores=min_cores(total, u_max),
        ))
    return rows


def decimation_sweep(template: System, input_frequency, factors: Sequence[int],
                     u_max) -> list[DecimationRow]:
    """Trade aggregator rate against end-to-end latency.

    The final stage of the (single) analytic is the aggregator. Factor F
    makes it activate once per F inputs: its inter-arrival becomes
    F * T_in (utilization divided by F) and the oldest item of a batch
    waits (F-1) * T_in in the buffer, charged as extra blocking on the
    aggregator.

    Responses use the isolated-stage model (R = B + C, no interference),
    so ``end_to_end`` is the sum of B + C over the topology, not
    solve_system's bound: the sweep sizes each phase onto its own cores,
    so cross-stage interference is a deployment concern, not a sizing
    one. Only the core count of F = 1 is the undecimated one: it is
    frequency_sweep's row at the same rate, REPLICATION_LIMIT included.
    One-shot stages count 0 utilization, as there.
    """
    _require_template(template)
    if len(template.analytics) != 1:
        raise ValueError(
            "/analytics: decimation_sweep expects a single-analytic system")
    analytic = template.analytics[0]
    sinks = item_flow(analytic.topology).sinks
    if len(sinks) != 1:
        raise ValueError(
            f"/analytics/0/topology: analytic {analytic.id!r}: decimation "
            f"needs a unique final stage, found {sinks}")
    agg_id = sinks[0]
    t_in = period_from_frequency(input_frequency)
    # the unique sink ends every path, so a row adds its buffer wait
    # (F - 1) * T_in once to the end-to-end response of R = B + C stages;
    # a leaf the analytic does not declare raises MissingStage here
    e2e = end_to_end_response(
        analytic.topology, {s.id: s.blocking + s.cost for s in analytic.stages})
    # costs over T_in, summed once as in frequency_sweep (one-shot: 0)
    periodic = {s.id: 0 if s.inter_arrival is INFINITE else s.cost
                for s in analytic.stages}
    agg_cost = periodic[agg_id]
    others = Fraction(sum(periodic.values()) - agg_cost, t_in)
    (base,) = frequency_sweep(template, [input_frequency], u_max)
    rows = []
    for factor in factors:
        if factor < 1:
            raise ValueError("decimation factors must be >= 1")
        agg_util = Fraction(agg_cost, factor * t_in)
        rows.append(DecimationRow(
            factor=factor,
            end_to_end=e2e + (factor - 1) * t_in,
            aggregator_utilization=agg_util,
            cores_saved=base.min_cores - min_cores(others + agg_util, u_max),
        ))
    return rows


def baseline_comparison(system: System, u_max) -> ComparisonResult:
    """Core counts under our blocking model versus a baseline that has no
    blocking term and must charge B as execution demand.

    Ours sizes with C/T (blocking only widens deadlines, T + B = D);
    the baseline sizes with (C + B)/T. Both read only C, T and B, so they
    size under the bound's regime whatever deadlines and priorities
    ``system`` holds. baseline >= ours always, equal when every B is zero.
    """
    stages = list(system.stages())
    lcm, scale = period_scales([s.inter_arrival for s in stages])
    ours = sum([s.cost * scale[s.inter_arrival] for s in stages])
    blocked = sum([s.blocking * scale[s.inter_arrival] for s in stages])
    return ComparisonResult(
        ours=min_cores(Fraction(ours, lcm), u_max),
        baseline=min_cores(Fraction(ours + blocked, lcm), u_max),
    )
