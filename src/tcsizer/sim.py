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
    is_sink: bool
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
    # each stage's successors as (id, k, lane, predecessors that admit
    # an item the successor admits), sorted by id
    successors: dict[str, list[tuple[str, int, int, int]]] = {}
    analytic_sinks: dict[str, int] = {}

    for analytic in system.analytics:
        flow = item_flow(analytic.topology)
        sinks = set(flow.sinks)
        # one child of a round-robin node admits each item, so joins and
        # sinks leave its children past lane 0 out
        extra = {sid for sid, (_, lane) in flow.lanes.items() if lane}
        analytic_sinks[analytic.id] = len(sinks - extra)
        for s in analytic.stages:
            period = (None if s.inter_arrival is INFINITE
                      else s.inter_arrival)
            k, lane = flow.lanes.get(s.id, (1, 0))
            info[s.id] = _StageRt(
                core=allocation[s.id], prio=s.priority, cost=s.cost,
                period=period, b_eff=blocking[s.id], analytic=analytic.id,
                is_source=s.id not in flow.preds, is_sink=s.id in sinks,
                k=k, lane=lane)
        for sid, ups in flow.preds.items():
            dropped = len(extra.intersection(ups)) if extra else 0
            route = (sid, info[sid].k, info[sid].lane, len(ups) - dropped)
            for up in ups:
                successors.setdefault(up, []).append(route)
    for lst in successors.values():
        lst.sort()

    rng = random.Random(config.seed)
    horizon = config.horizon
    trace = SimTrace()
    emit = trace.events.append

    # first releases of source stages, from one phase per analytic
    heap: list[tuple] = []
    phase: dict[str, Duration] = {}
    jittered = config.release_policy is ReleasePolicy.JITTERED
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
        if offset < horizon:
            heapq.heappush(heap, (offset, _RELEASE, sid, st.lane, 0))

    # per-core scheduler state
    ready: dict[str, list] = {c.id: [] for c in cluster.cores}
    running: dict[str, list | None] = {c.id: None for c in cluster.cores}
    # running record: [neg_prio, release, stage, job, dispatched_at, token]
    token_seq = 0

    # job state: (stage, job) -> [release, remaining, started]
    jobs: dict[tuple[str, int], list] = {}
    last_release: dict[str, Duration] = {}
    join_pending: dict[tuple[str, int], int] = {}
    item_start: dict[tuple[str, int], Duration] = {}
    sink_pending: dict[tuple[str, int], int] = {}

    def draw_blocking(st: _StageRt) -> Duration:
        if st.b_eff == 0:
            return 0
        if config.blocking_policy is BlockingPolicy.ADVERSARIAL:
            return st.b_eff
        return rng.randint(0, st.b_eff)

    def push_pipeline_release(sid: str, item: int, avail: Duration) -> None:
        st = info[sid]
        if st.period is None:
            if item != 0:
                return  # one-shot downstream: items past the first are dropped
            rel = avail
        else:  # items may arrive out of order, so item 0 need not be first
            prev = last_release.get(sid)
            rel = avail if prev is None else max(avail, prev + st.period)
        last_release[sid] = rel
        if rel < horizon:
            heapq.heappush(heap, (rel, _RELEASE, sid, item, 0))

    def complete_item_at(sid: str, item: int, t: Duration) -> None:
        st = info[sid]
        if st.is_sink:
            key = (st.analytic, item)
            left = sink_pending.get(key, analytic_sinks[st.analytic]) - 1
            if left == 0:
                sink_pending.pop(key, None)
                trace.end_to_end_responses[key] = t - item_start.pop(key)
            else:
                sink_pending[key] = left
        for succ, k, lane, joins in successors.get(sid, ()):
            if item % k != lane:
                continue  # another replica of a round-robin node takes it
            jkey = (succ, item)  # join on the predecessors admitting it
            left = join_pending.get(jkey, joins) - 1
            if left == 0:
                join_pending.pop(jkey, None)
                push_pipeline_release(succ, item, t)
            else:
                join_pending[jkey] = left

    while heap and heap[0][0] <= horizon:
        t = heap[0][0]
        dirty: set[str] = set()
        while heap and heap[0][0] == t:
            _, rank, sid, job, token = heapq.heappop(heap)
            st = info[sid]
            if rank == _COMPLETE:
                run = running[st.core]
                if run is None or run[5] != token:
                    continue  # stale completion of a preempted dispatch
                running[st.core] = None
                dirty.add(st.core)
                emit(SimEvent(t, st.core, "COMPLETE", sid, job))
                rel = jobs[(sid, job)][0]
                trace.job_responses[(sid, job)] = t - rel
                complete_item_at(sid, job, t)
            elif rank == _READY:
                emit(SimEvent(t, st.core, "BLOCK_END", sid, job))
                heapq.heappush(ready[st.core],
                               (-st.prio, jobs[(sid, job)][0], sid, job))
                dirty.add(st.core)
            else:  # _RELEASE
                emit(SimEvent(t, st.core, "RELEASE", sid, job))
                jobs[(sid, job)] = [t, st.cost, False]
                if st.is_source:
                    key = (st.analytic, job)
                    if key not in item_start or t < item_start[key]:
                        item_start[key] = t
                    if st.period is not None:
                        nxt = t + st.period
                        if nxt < horizon:
                            heapq.heappush(
                                heap, (nxt, _RELEASE, sid, job + st.k, 0))
                delay = draw_blocking(st)
                if delay == 0:
                    heapq.heappush(ready[st.core], (-st.prio, t, sid, job))
                    dirty.add(st.core)
                elif t + delay <= horizon:
                    heapq.heappush(heap, (t + delay, _READY, sid, job, 0))

        for cid in sorted(dirty):
            rq = ready[cid]
            if not rq:
                continue
            run = running[cid]
            if run is not None:
                if rq[0][0] >= run[0]:
                    continue  # equal priority never preempts (FIFO)
                neg, rel, rsid, rjob, disp_at, _ = run
                jobs[(rsid, rjob)][1] -= t - disp_at
                emit(SimEvent(t, cid, "PREEMPT", rsid, rjob))
                heapq.heappush(rq, (neg, rel, rsid, rjob))
                running[cid] = None
            neg, rel, sid, job = heapq.heappop(rq)
            state = jobs[(sid, job)]
            emit(SimEvent(t, cid, "START" if not state[2] else "RESUME",
                          sid, job))
            state[2] = True
            token_seq += 1
            running[cid] = [neg, rel, sid, job, t, token_seq]
            heapq.heappush(heap, (t + state[1], _COMPLETE, sid, job, token_seq))

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
