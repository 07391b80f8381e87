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
the scheduler's PREEMPT/START/RESUME decisions in core-id order. The
generator is seeded only for a run that can draw: under JITTERED, or
under UNIFORM when some stage's effective blocking is non-zero; any
other run reads no random number, so its trace does not depend on the
seed.

Each fact of a job has one home. Stages and cores are numbered in
stage-id and core-id order, so integer indices order everything below
exactly as the ids would. A ready job is the entry (neg_prio, release,
stage index, job, remaining, started). A core's running job is held in
two lists indexed by core: its ready entry and when it was dispatched.
Heap events are (time, rank, stage index, job, last): last is the
dispatched entry of a completion, stale once its core runs another (a
preempted job goes back as a new entry, so none is dispatched twice),
the release time of a blocking end. Per-stage constants live in lists
indexed by stage index, all filled in one setup pass. The cores to
dispatch at an instant are the set bits of an int, walked lowest bit
first. One function, release(), makes every release and holds the
throttle (the earliest time of each stage's next release), the one-shot
rule and the horizon test. A completion counts down each join target it
admits; a target with one admitting predecessor is released at once.
The sinks' target is the analytic's end, where the item's end-to-end
response is taken from the item's first source release, kept per
analytic by item number. Each event is logged as a plain (time, core id,
kind, stage id, job) tuple; SimEvents are built only when
``SimTrace.events`` is read.

SimConfig is an immutable named tuple that checks its horizon when
built, by _replace too; SimTrace is a plain object that one run fills.
"""

from __future__ import annotations

import heapq
import random
from functools import cached_property
from typing import Mapping, NamedTuple

from .analysis import DIVERGED, ResponseReport
from .model import (
    INFINITE,
    BlockingPolicy,
    Cluster,
    Duration,
    MissingStage,
    ReleasePolicy,
    System,
    effective_blocking,
    item_flow,
)


class HorizonTooShort(ValueError):
    """No item completed end-to-end within the horizon."""


class _SimConfig(NamedTuple):
    horizon: Duration
    seed: int = 0
    blocking_policy: BlockingPolicy = BlockingPolicy.ADVERSARIAL
    release_policy: ReleasePolicy = ReleasePolicy.SYNCHRONOUS


class SimConfig(_SimConfig):
    """A run's horizon in ns (positive), its seed and its two policies."""

    __slots__ = ()

    def __new__(cls, horizon: Duration, *rest, **fields):
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        return super().__new__(cls, horizon, *rest, **fields)

    @classmethod
    def _make(cls, iterable) -> SimConfig:
        return cls(*iterable)


class SimEvent(NamedTuple):
    time: Duration
    core: str
    kind: str
    stage: str
    job: int


class SimTrace:
    """What one run observed. ``log`` holds every event as a plain
    (time, core, kind, stage, job) tuple in trace order; ``events`` reads
    the same log as SimEvents, built on first access. Job responses are
    keyed (stage id, job index), end-to-end responses (analytic id, item
    index)."""

    def __init__(self):
        self.log: list[tuple[Duration, str, str, str, int]] = []
        self.job_responses: dict[tuple[str, int], Duration] = {}
        self.end_to_end_responses: dict[tuple[str, int], Duration] = {}

    @cached_property
    def events(self) -> list[SimEvent]:
        return list(map(SimEvent._make, self.log))


class WorstObserved(NamedTuple):
    per_stage: dict[str, Duration]
    per_analytic: dict[str, Duration]


class Violation(NamedTuple):
    kind: str  # "stage" | "analytic"
    id: str
    observed: Duration
    bound: Duration


# event ranks: completions first, then blocking ends, then releases
_COMPLETE, _READY, _RELEASE = 0, 1, 2


def simulate(system: System, allocation: Mapping[str, str], cluster: Cluster,
             config: SimConfig) -> SimTrace:
    """Run the system until the horizon and return the trace.

    Requires an allocated, prioritized system (priorities and a host
    core for every stage; see model.effective_blocking for the errors)
    whose topologies name only declared stages (else MissingStage).
    Raises HorizonTooShort when not a single item completes end-to-end.
    """
    blocking = effective_blocking(system, allocation, cluster)
    # stages and cores are numbered in id order, so that integers order
    # heap and ready entries, and dispatches, exactly as the ids would
    sids = sorted(s.id for s in system.stages())
    index = {sid: i for i, sid in enumerate(sids)}
    n = len(sids)
    core_ids = sorted({c.id for c in cluster.cores})
    core_index = {cid: ci for ci, cid in enumerate(core_ids)}
    host = [0] * n  # core index
    host_bit = [0] * n  # 1 << host, the host's bit in a dirty mask
    host_id = [""] * n
    neg_prio = [0] * n
    cost = [0] * n
    period: list[Duration | None] = [None] * n  # None for one-shot
    b_eff = [0] * n
    a_of = [0] * n  # analytic index
    is_source = [False] * n
    k_of = [1] * n  # stage i admits the items m with m % k_of[i] == lane[i]
    lane = [0] * n
    # each stage's join targets as (target, k, lane, predecessors that
    # admit an item the target admits); a target below n is a stage
    # index, n + a is the end of analytic a, where sinks join
    routes: list[list[tuple]] = [[] for _ in range(n)]
    aids: list[str] = []  # analytic index -> id
    for a, analytic in enumerate(system.analytics):
        aids.append(analytic.id)
        flow = item_flow(analytic.topology)
        local = {}  # the analytic's own stages, so a foreign leaf is missing
        for s in analytic.stages:
            i = local[s.id] = index[s.id]
            host_id[i] = allocation[s.id]
            host[i] = core_index[host_id[i]]
            host_bit[i] = 1 << host[i]
            neg_prio[i] = -s.priority
            cost[i] = s.cost
            if s.inter_arrival is not INFINITE:
                period[i] = s.inter_arrival
            b_eff[i] = blocking[s.id]
            a_of[i] = a
            is_source[i] = s.id not in flow.preds
            k_of[i], lane[i] = flow.lanes.get(s.id, (1, 0))
        # one child of a round-robin node admits each item, so joins
        # leave its children past lane 0 out
        extra = {sid for sid, (_, j) in flow.lanes.items() if j}
        try:
            for target, ups in (*flow.preds.items(), (None, flow.sinks)):
                route = (n + a if target is None else local[target],
                         *flow.lanes.get(target, (1, 0)),
                         sum(up not in extra for up in ups))
                for up in ups:
                    routes[local[up]].append(route)
        except KeyError as exc:  # every leaf is a sink or a predecessor
            raise MissingStage(exc.args[0]) from None

    jittered = config.release_policy is ReleasePolicy.JITTERED
    uniform = (config.blocking_policy is BlockingPolicy.UNIFORM
               and any(b_eff))
    rng = random.Random(config.seed) if jittered or uniform else None
    horizon = config.horizon
    trace = SimTrace()
    emit = trace.log.append
    job_responses = trace.job_responses
    end_to_end = trace.end_to_end_responses
    heap: list[tuple] = []
    push, pop, pushpop = heapq.heappush, heapq.heappop, heapq.heappushpop
    ready: list[list] = [[] for _ in core_ids]
    # the running job of each core: its ready entry, which its
    # completion event carries, and when it was dispatched
    run_entry: list[tuple | None] = [None] * len(core_ids)
    run_at = [0] * len(core_ids)
    next_release = [0] * n  # the throttle: earliest time of the next one
    join_pending: dict[tuple[int, int], int] = {}
    # each analytic's open items: item -> its earliest source release
    item_start: list[dict[int, Duration]] = [{} for _ in aids]

    def release(i: int, item: int, at: Duration) -> None:
        p = period[i]
        if p is None:
            if item:
                return  # a one-shot stage runs item 0 only
        else:  # items may arrive out of order
            if at < next_release[i]:
                at = next_release[i]
            next_release[i] = at + p
        if at < horizon:
            push(heap, (at, _RELEASE, i, item, 0))

    # first releases of source stages, from one phase per analytic
    phase: dict[int, Duration] = {}
    for i in range(n):
        if not is_source[i]:
            continue
        offset = 0
        if period[i] is not None:
            t_in = max(1, period[i] // k_of[i])
            if a_of[i] not in phase:
                phase[a_of[i]] = rng.randrange(t_in) if jittered else 0
            offset = phase[a_of[i]] + lane[i] * t_in
        release(i, lane[i], offset)

    while heap and heap[0][0] <= horizon:
        t = heap[0][0]
        dirty = 0  # bit ci set: core ci must dispatch at t
        while heap and heap[0][0] == t:
            _, rank, i, job, last = pop(heap)
            if rank == _COMPLETE:
                ci = host[i]
                if run_entry[ci] is not last:
                    continue  # stale completion of a preempted dispatch
                run_entry[ci] = None
                dirty |= host_bit[i]
                sid = sids[i]
                emit((t, host_id[i], "COMPLETE", sid, job))
                job_responses[(sid, job)] = t - last[1]
                for target, k, j, joins in routes[i]:
                    if k != 1 and job % k != j:
                        continue  # another replica of a round-robin node
                    if joins != 1:  # join on the admitting preds
                        jkey = (target, job)
                        left = join_pending.pop(jkey, joins) - 1
                        if left:
                            join_pending[jkey] = left
                            continue
                    if target < n:
                        release(target, job, t)
                    else:  # the analytic's end: the item is done
                        end_to_end[(aids[target - n], job)] = (
                            t - item_start[target - n].pop(job))
            elif rank == _READY:
                emit((t, host_id[i], "BLOCK_END", sids[i], job))
                push(ready[host[i]],
                     (neg_prio[i], last, i, job, cost[i], False))
                dirty |= host_bit[i]
            else:  # _RELEASE
                emit((t, host_id[i], "RELEASE", sids[i], job))
                if is_source[i]:
                    starts = item_start[a_of[i]]
                    if job not in starts:  # releases pop in time order
                        starts[job] = t
                    if period[i] is not None:
                        release(i, job + k_of[i], t + period[i])
                delay = b_eff[i]
                if delay and uniform:
                    delay = rng.randint(0, delay)
                if delay == 0:
                    push(ready[host[i]],
                         (neg_prio[i], t, i, job, cost[i], False))
                    dirty |= host_bit[i]
                elif t + delay <= horizon:
                    push(heap, (t + delay, _READY, i, job, t))

        while dirty:  # lowest bit first: core-id order
            bit = dirty & -dirty
            dirty ^= bit
            ci = bit.bit_length() - 1
            rq = ready[ci]
            if not rq:
                continue
            entry = run_entry[ci]
            if entry is None:
                entry = pop(rq)
            elif rq[0][0] >= entry[0]:
                continue  # equal priority never preempts (FIFO)
            else:
                neg, rel, ri, rjob, remaining, _ = entry
                emit((t, core_ids[ci], "PREEMPT", sids[ri], rjob))
                entry = pushpop(rq, (neg, rel, ri, rjob,
                                     remaining - (t - run_at[ci]), True))
            _, _, i, job, remaining, started = entry
            emit((t, core_ids[ci], "RESUME" if started else "START", sids[i],
                  job))
            run_entry[ci] = entry
            run_at[ci] = t
            push(heap, (t + remaining, _COMPLETE, i, job, entry))

    if not end_to_end:
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
    return "time_ns,core,kind,stage,job\n" + "".join([
        f"{t},{core},{kind},{stage},{job}\n"
        for t, core, kind, stage, job in trace.log])
