"""Deterministic discrete-event simulation of partitioned fixed-priority
preemptive scheduling with blocking and pipelined item flow.

Semantics:

* Each core runs its highest-priority ready job, preemptively. Equal
  priorities do not preempt each other; they queue FIFO by release time,
  then stage id (then job index).
* A job suffers a blocking delay at release (the full B under
  ADVERSARIAL, uniform in [0, B] under UNIFORM, B being
  max(stage blocking, platform blocking of the host core)). The delay
  suspends the job without occupying the core; the core stays available
  to ready jobs.
* Source stages of an analytic release periodically from one phase per
  analytic: t = 0 under SYNCHRONOUS (the critical instant), a
  pseudo-random offset within one input period under JITTERED. A
  one-shot stage releases exactly one job, at t = 0.
* Items flow through the topology; job indices are item numbers. A
  round-robin node of k replicas admits item n at child j = n mod k only:
  source replica j releases items j, j + k, ... from j input periods
  after the phase. The job of a downstream stage for item n is released
  when its predecessors that admit item n complete it (parallel branches
  join on the latest completion), throttled so consecutive releases of
  one stage stay at least its inter-arrival apart.
* End-to-end response of item n runs from its earliest source release to
  its last sink completion.

Identical inputs produce bit-identical traces: the seed fully determines
UNIFORM/JITTERED draws, and simultaneous events are ordered by
(time, {COMPLETE, BLOCK_END, RELEASE}, stage id, job index), followed by
the scheduler's PREEMPT/START/RESUME decisions in core-id order.

Each fact of a job has one home. A ready job is the entry (neg_prio,
release, stage, job, remaining, started); a core's running record
appends (dispatched_at, token). Heap events are (time, rank, stage, job,
last): last is the token of a completion, the release time of a blocking
end. One function, release(), makes every release and holds the
throttle, the one-shot rule and the horizon test. A completion counts
down each join target it admits; the sinks' target is the analytic's
end, where the item's end-to-end response is taken.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, NamedTuple

from .analysis import DIVERGED, ResponseReport
from .model import (
    INFINITE,
    Cluster,
    Duration,
    System,
    effective_blocking,
    item_flow,
)


class BlockingPolicy(Enum):
    ADVERSARIAL = "ADVERSARIAL"
    UNIFORM = "UNIFORM"


class ReleasePolicy(Enum):
    SYNCHRONOUS = "SYNCHRONOUS"
    JITTERED = "JITTERED"


class HorizonTooShort(Exception):
    """No item completed end-to-end within the horizon."""


@dataclass(frozen=True)
class SimConfig:
    horizon: Duration
    seed: int = 0
    blocking_policy: BlockingPolicy = BlockingPolicy.ADVERSARIAL
    release_policy: ReleasePolicy = ReleasePolicy.SYNCHRONOUS

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")


class SimEvent(NamedTuple):
    time: Duration
    core: str
    kind: str
    stage: str
    job: int


@dataclass
class SimTrace:
    events: list[SimEvent] = field(default_factory=list)
    job_responses: dict[tuple[str, int], Duration] = field(default_factory=dict)
    end_to_end_responses: dict[tuple[str, int], Duration] = field(
        default_factory=dict)


class WorstObserved(NamedTuple):
    per_stage: dict[str, Duration]
    per_analytic: dict[str, Duration]


class Violation(NamedTuple):
    kind: str  # "stage" | "analytic"
    id: str
    observed: Duration
    bound: Duration


@dataclass(slots=True)
class _StageRt:
    core: str
    prio: int
    cost: Duration
    period: Duration | None  # None for one-shot
    b_eff: Duration
    analytic: str
    is_source: bool
    k: int  # admits the items n with n % k == lane
    lane: int


# event ranks: completions first, then blocking ends, then releases
_COMPLETE, _READY, _RELEASE = 0, 1, 2


def simulate(system: System, allocation: Mapping[str, str], cluster: Cluster,
             config: SimConfig) -> SimTrace:
    """Run the system until the horizon and return the trace.

    Requires an allocated, prioritized system (priorities and a host
    core for every stage; see model.effective_blocking for the errors).
    Raises HorizonTooShort when not a single item completes end-to-end.
    """
    blocking = effective_blocking(system, allocation, cluster)
    info: dict[str, _StageRt] = {}
    # each stage's join targets as (id, k, lane, predecessors that admit
    # an item the target admits); the sinks' target is the analytic's
    # end, keyed (analytic id,) so that no stage id equals it
    routes: dict[str, list[tuple]] = {}
    for analytic in system.analytics:
        flow = item_flow(analytic.topology)
        for s in analytic.stages:
            period = (None if s.inter_arrival is INFINITE
                      else s.inter_arrival)
            k, lane = flow.lanes.get(s.id, (1, 0))
            info[s.id] = _StageRt(
                core=allocation[s.id], prio=s.priority, cost=s.cost,
                period=period, b_eff=blocking[s.id], analytic=analytic.id,
                is_source=s.id not in flow.preds, k=k, lane=lane)
        # one child of a round-robin node admits each item, so joins
        # leave its children past lane 0 out
        extra = {sid for sid, (_, lane) in flow.lanes.items() if lane}
        for target, ups in (*flow.preds.items(),
                            ((analytic.id,), flow.sinks)):
            route = (target, *flow.lanes.get(target, (1, 0)),
                     sum(up not in extra for up in ups))
            for up in ups:
                routes.setdefault(up, []).append(route)

    rng = random.Random(config.seed)
    horizon = config.horizon
    trace = SimTrace()
    emit = trace.events.append
    heap: list[tuple] = []
    ready: dict[str, list] = {c.id: [] for c in cluster.cores}
    running: dict[str, tuple | None] = {c.id: None for c in cluster.cores}
    token_seq = 0
    last_release: dict[str, Duration] = {}
    join_pending: dict[tuple, int] = {}
    item_start: dict[tuple[str, int], Duration] = {}

    def release(sid: str, item: int, at: Duration) -> None:
        st = info[sid]
        if st.period is None:
            if item:
                return  # a one-shot stage runs item 0 only
        elif sid in last_release:  # items may arrive out of order
            at = max(at, last_release[sid] + st.period)
        last_release[sid] = at
        if at < horizon:
            heapq.heappush(heap, (at, _RELEASE, sid, item, 0))

    # first releases of source stages, from one phase per analytic
    phase: dict[str, Duration] = {}
    jittered = config.release_policy is ReleasePolicy.JITTERED
    adversarial = config.blocking_policy is BlockingPolicy.ADVERSARIAL
    for sid in sorted(info):
        st = info[sid]
        if not st.is_source:
            continue
        offset = 0
        if st.period is not None:
            t_in = max(1, st.period // st.k)
            if st.analytic not in phase:
                phase[st.analytic] = rng.randrange(t_in) if jittered else 0
            offset = phase[st.analytic] + st.lane * t_in
        release(sid, st.lane, offset)

    while heap and heap[0][0] <= horizon:
        t = heap[0][0]
        dirty: set[str] = set()
        while heap and heap[0][0] == t:
            _, rank, sid, job, last = heapq.heappop(heap)
            st = info[sid]
            if rank == _COMPLETE:
                run = running[st.core]
                if run is None or run[7] != last:
                    continue  # stale completion of a preempted dispatch
                running[st.core] = None
                dirty.add(st.core)
                emit(SimEvent(t, st.core, "COMPLETE", sid, job))
                trace.job_responses[(sid, job)] = t - run[1]
                for target, k, lane, joins in routes.get(sid, ()):
                    if job % k != lane:
                        continue  # another replica of a round-robin node
                    jkey = (target, job)  # join on the admitting preds
                    left = join_pending.pop(jkey, joins) - 1
                    if left:
                        join_pending[jkey] = left
                    elif isinstance(target, str):
                        release(target, job, t)
                    else:  # the analytic's end: the item is done
                        key = (st.analytic, job)
                        trace.end_to_end_responses[key] = (
                            t - item_start.pop(key))
            elif rank == _READY:
                emit(SimEvent(t, st.core, "BLOCK_END", sid, job))
                heapq.heappush(ready[st.core],
                               (-st.prio, last, sid, job, st.cost, False))
                dirty.add(st.core)
            else:  # _RELEASE
                emit(SimEvent(t, st.core, "RELEASE", sid, job))
                if st.is_source:
                    key = (st.analytic, job)
                    if key not in item_start or t < item_start[key]:
                        item_start[key] = t
                    if st.period is not None:
                        release(sid, job + st.k, t + st.period)
                delay = st.b_eff
                if delay and not adversarial:
                    delay = rng.randint(0, delay)
                if delay == 0:
                    heapq.heappush(ready[st.core],
                                   (-st.prio, t, sid, job, st.cost, False))
                    dirty.add(st.core)
                elif t + delay <= horizon:
                    heapq.heappush(heap, (t + delay, _READY, sid, job, t))

        for cid in sorted(dirty):
            rq = ready[cid]
            if not rq:
                continue
            run = running[cid]
            if run is not None:
                if rq[0][0] >= run[0]:
                    continue  # equal priority never preempts (FIFO)
                neg, rel, rsid, rjob, remaining, _, disp_at, _ = run
                emit(SimEvent(t, cid, "PREEMPT", rsid, rjob))
                heapq.heappush(
                    rq, (neg, rel, rsid, rjob, remaining - (t - disp_at), True))
            entry = heapq.heappop(rq)
            _, _, sid, job, remaining, started = entry
            emit(SimEvent(t, cid, "RESUME" if started else "START", sid, job))
            token_seq += 1
            running[cid] = (*entry, t, token_seq)
            heapq.heappush(heap, (t + remaining, _COMPLETE, sid, job, token_seq))

    if not trace.end_to_end_responses:
        raise HorizonTooShort(
            f"no item completed end-to-end within {config.horizon} ns")
    return trace


def worst_observed(trace: SimTrace) -> WorstObserved:
    """Maximum observed response per stage and per analytic; entries with
    no completed job/item are absent."""
    per_stage: dict[str, Duration] = {}
    for (sid, _job), resp in trace.job_responses.items():
        if resp > per_stage.get(sid, -1):
            per_stage[sid] = resp
    per_analytic: dict[str, Duration] = {}
    for (aid, _item), resp in trace.end_to_end_responses.items():
        if resp > per_analytic.get(aid, -1):
            per_analytic[aid] = resp
    return WorstObserved(per_stage=per_stage, per_analytic=per_analytic)


def verify_conservative(report: ResponseReport,
                        observed: WorstObserved) -> list[Violation]:
    """Empirical soundness check: every observed maximum must stay at or
    below its analytic bound. DIVERGED bounds assert nothing."""
    violations: list[Violation] = []
    for sid in sorted(observed.per_stage):
        bound = report.per_stage.get(sid)
        if bound is None or bound is DIVERGED:
            continue
        obs = observed.per_stage[sid]
        if obs > bound:
            violations.append(Violation("stage", sid, obs, bound))
    for aid in sorted(observed.per_analytic):
        verdict = report.per_analytic.get(aid)
        if verdict is None or verdict.end_to_end is DIVERGED:
            continue
        obs = observed.per_analytic[aid]
        if obs > verdict.end_to_end:
            violations.append(Violation("analytic", aid, obs,
                                        verdict.end_to_end))
    return violations


def trace_to_csv(trace: SimTrace) -> str:
    """Export as CSV with the exact header time_ns,core,kind,stage,job."""
    lines = ["time_ns,core,kind,stage,job"]
    for ev in trace.events:
        lines.append(f"{ev.time},{ev.core},{ev.kind},{ev.stage},{ev.job}")
    return "\n".join(lines) + "\n"
