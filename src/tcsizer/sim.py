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

Every draw goes through one sampler, below(n), uniform in [0, n): it
draws getrandbits(k), k = n.bit_length(), and draws again while the
result is at least n. A JITTERED phase is below(T_in) and a UNIFORM
delay below(B + 1), in the order the run makes them. So a seed's trace
depends only on ``random.Random(seed).getrandbits``; the draws consume
the same bits in the same order as ``randrange(T_in)`` and
``randint(0, B)`` on CPython 3.10-3.12.

Each fact of a job has one home. Stages and cores are numbered in
stage-id and core-id order, so integer indices order everything below
exactly as the ids would. A ready job is the entry (neg_prio, release,
stage index, job, remaining, started). A core's running job is held in
two lists indexed by core: its ready entry and when it was dispatched.
Heap events are (time, rank, stage index, job, last): last is the
dispatched entry of a completion, stale once its core runs another (a
preempted job goes back as a new entry, so none is dispatched twice),
the release time of a blocking end. Per-stage constants live in lists
indexed by stage index, all filled in one setup pass that unpacks each
analytic, stage and item flow once. The cores to
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

A deterministic run replays its steady state instead of simulating it.
A run may replay when it draws no random number after its phases
(ADVERSARIAL blocking, or no non-zero effective blocking; either release
policy), its horizon spans at least 6 H (H the lcm of the finite
periods), and every round-robin degree of an analytic divides the items
its periodic sources release per H. Such a run keys its state at the
boundaries 2H, 4H, 8H, ..., as long as half the boundary still fits
between it and the horizon. The key holds the pending events less stale
completions, the ready and running entries (a running one with the cost
it has left), the throttle offsets clamped at 0, the join counters and
the open items, each part sorted, with times relative to the boundary
and job indices less the items the analytic has released by then. A
fixed-priority schedule with periodic releases repeats from a boundary
at which its state repeats (Leung and Merrill, 1980). So when the key at
2bH equals the key at bH, the run shortens its horizon by the c whole
spans of bH that fit between 2bH and it, drops its pending releases at
or past the new horizon, and simulates on from its own state: the
schedule does not depend on when it starts, so this is the rest of the
run, c * bH earlier and c * b * items earlier in job index. Once the
event loop ends, the events and responses of [bH, 2bH), shifted by m
spans (times + m * bH, jobs + m * b * items) for m = 1, ..., c, go
between those logged before 2bH and the rest, which is shifted by c
spans. Its log, its responses and their insertion order are
byte-identical to those of the simulation. The key alone rules out what
a shift cannot copy: a periodic source always has one pending release,
whose job index moves by its own count per H, so a source whose count
differs from its analytic's never keys equal; and a one-shot stage only
ever holds item 0, open from t = 0, which no later key holds alike. The
key and the copy are module functions, so that the event loop's locals
stay plain locals; only simulate and the key read the run's state.

SimConfig is an immutable named tuple that checks its horizon when
built, by _replace too; SimTrace is a plain object that one run fills.
"""

from __future__ import annotations

import heapq
import math
import random
from functools import cached_property
from itertools import islice
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
    seed: int
    blocking_policy: BlockingPolicy
    release_policy: ReleasePolicy


class SimConfig(_SimConfig):
    """A run's horizon in ns (positive), its seed and its two policies.
    The defaults live in ``__new__`` alone, which builds the tuple once
    the horizon is checked."""

    __slots__ = ()

    def __new__(cls, horizon: Duration, seed: int = 0,
                blocking_policy: BlockingPolicy = BlockingPolicy.ADVERSARIAL,
                release_policy: ReleasePolicy = ReleasePolicy.SYNCHRONOUS):
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        return tuple.__new__(
            cls, (horizon, seed, blocking_policy, release_policy))

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
    horizon, seed, blocking_policy, release_policy = config
    blocking = effective_blocking(system, allocation, cluster)
    # stages and cores are numbered in id order, so that integers order
    # heap and ready entries, and dispatches, exactly as the ids would
    sids = sorted(blocking)
    n = len(sids)
    index = dict(zip(sids, range(n)))
    core_ids = sorted([c.id for c in cluster.cores])
    core_index = dict(zip(core_ids, range(len(core_ids))))
    host = [0] * n  # core index
    host_bit = [0] * n  # 1 << host, the host's bit in a dirty mask
    host_id = [""] * n
    neg_prio = [0] * n
    cost = [0] * n
    period: list[Duration | None] = [None] * n  # None for one-shot
    b_eff = [blocking[sid] for sid in sids]
    a_of = [0] * n  # analytic index
    is_source = [False] * n
    k_of = [1] * n  # stage i admits the items m with m % k_of[i] == lane[i]
    lane = [0] * n
    # each stage's join targets as (target, k, lane, predecessors that
    # admit an item the target admits); a target below n is a stage
    # index, n + a is the end of analytic a, where sinks join
    routes: list[list[tuple]] = [[] for _ in sids]
    aids: list[str] = []  # analytic index -> id
    for a, (aid, stages, topology, _) in enumerate(system.analytics):
        aids.append(aid)
        _, sinks, preds, lanes = item_flow(topology)
        local = {}  # the analytic's own stages, so a foreign leaf is missing
        for sid, c, t, _, _, priority, _ in stages:
            i = local[sid] = index[sid]
            hid = host_id[i] = allocation[sid]
            ci = host[i] = core_index[hid]
            host_bit[i] = 1 << ci
            neg_prio[i] = -priority
            cost[i] = c
            if t is not INFINITE:
                period[i] = t
            a_of[i] = a
            is_source[i] = sid not in preds
        # one child of a round-robin node admits each item, so joins
        # leave its children past lane 0 out
        extra = set()
        for sid, (k, j) in lanes.items():
            if sid in local:
                k_of[local[sid]], lane[local[sid]] = k, j
            if j:
                extra.add(sid)
        try:
            for target, ups in (*preds.items(), (None, sinks)):
                i = n + a if target is None else local[target]
                route = (i, *lanes.get(target, (1, 0)),
                         sum(up not in extra for up in ups) if extra
                         else len(ups))
                for up in ups:
                    routes[local[up]].append(route)
        except KeyError as exc:  # every leaf is a sink or a predecessor
            raise MissingStage(exc.args[0]) from None

    jittered = release_policy is ReleasePolicy.JITTERED
    uniform = blocking_policy is BlockingPolicy.UNIFORM and any(b_eff)
    getrandbits = (random.Random(seed).getrandbits if jittered or uniform
                   else None)

    def below(bound: int) -> int:
        """The one sampler (see the module docstring): uniform in
        [0, bound)."""
        k = bound.bit_length()
        r = getrandbits(k)
        while r >= bound:
            r = getrandbits(k)
        return r

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
                phase[a_of[i]] = below(t_in) if jittered else 0
            offset = phase[a_of[i]] + lane[i] * t_in
        release(i, lane[i], offset)

    # a run that may replay keys its state at boundaries 2H, 4H, 8H, ...
    # (see the module docstring); the event loop runs to the next
    # boundary, and past the last one to the horizon
    steady = None if uniform else _replay_span(period, is_source, k_of,
                                               a_of, len(aids), horizon)
    limit = horizon + 1
    copy = None  # what _replay copies and shifts once the loop ends
    if steady is not None:
        hyper, items = steady
        state = (heap, ready, run_entry, run_at, next_release, join_pending,
                 item_start)
        seen = None  # the last boundary's key, where it was, and its marks
        limit = 2 * hyper
    while True:
        while heap and heap[0][0] < limit:
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
                        delay = below(delay + 1)
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
                emit((t, core_ids[ci], "RESUME" if started else "START",
                      sids[i], job))
                run_entry[ci] = entry
                run_at[ci] = t
                push(heap, (t + remaining, _COMPLETE, i, job, entry))

        if limit > horizon:
            break
        key = _state_key(limit, limit // hyper, items, state, a_of, host, n)
        marks = (len(trace.log), len(job_responses), len(end_to_end))
        if seen is not None and seen[0] == key:
            # the rest of the run is the run from here to a horizon whole
            # spans earlier, whose releases there or later are not pushed
            span = seen[1]
            copies = (horizon - limit) // span
            horizon -= copies * span
            heap[:] = [e for e in heap if e[1] != _RELEASE or e[0] < horizon]
            heapq.heapify(heap)
            copy = (seen[2], marks, span, span // hyper, copies)
            limit = horizon + 1
            continue
        seen = (key, limit, marks)
        limit = 2 * limit if 3 * limit <= horizon else horizon + 1

    if copy is not None:
        _replay(trace, *copy, items, sids, aids, a_of)
    if not end_to_end:
        raise HorizonTooShort(
            f"no item completed end-to-end within {config.horizon} ns")
    return trace


def _replay_span(period: list, is_source: list, k_of: list, a_of: list,
                 analytics: int, horizon: Duration):
    """(H, items per H of each analytic) for a run that may replay, else
    None. The caller has already ruled out draws after the phases. 6 H
    is at least 6 times the longest period, which rules most short runs
    out before the lcm."""
    finite = [p for p in period if p is not None]
    if not finite or 6 * max(finite) > horizon:
        return None
    hyper = math.lcm(*finite)
    if 6 * hyper > horizon:
        return None
    items = [0] * analytics  # the last periodic source's count decides
    for i, p in enumerate(period):
        if is_source[i] and p is not None:
            items[a_of[i]] = hyper // p * k_of[i]
    if any(items[a] % k for a, k in zip(a_of, k_of)):
        return None  # a shift of items would change replicas
    return hyper, items


def _state_key(at: Duration, b: int, items: list, state: tuple, a_of: list,
               host: list, n: int) -> tuple:
    """The run's state at boundary ``at`` = bH, relative to it: times less
    ``at``, job indices less the b * items its analytic has released,
    each part sorted. Equal keys make equal futures, shifted."""
    heap, ready, run_entry, run_at, next_release, join_pending, \
        item_start = state
    offsets = [b * c for c in items]
    off = [offsets[a] for a in a_of]
    return (
        sorted([(t - at, rank, i, job - off[i],
                 last - at if rank == _READY else 0)
                for t, rank, i, job, last in heap
                if rank != _COMPLETE or run_entry[host[i]] is last]),
        [sorted([(neg, rel - at, i, job - off[i], remaining, started)
                 for neg, rel, i, job, remaining, started in rq])
         for rq in ready],
        [None if e is None else  # with the cost left at ``at``
         (e[0], e[1] - at, e[2], e[3] - off[e[2]], e[4] - (at - since))
         for e, since in zip(run_entry, run_at)],
        [r - at if r > at else 0 for r in next_release],
        sorted([(target, job - (off[target] if target < n
                                else offsets[target - n]), left)
                for (target, job), left in join_pending.items()]),
        [sorted([(item - offsets[a], start - at)
                 for item, start in starts.items()])
         for a, starts in enumerate(item_start)],
    )


def _replay(trace: SimTrace, start: tuple, end: tuple, span: Duration,
            b: int, copies: int, items: list, sids: list, aids: list,
            a_of: list) -> None:
    """Copies the events and responses logged from marks ``start`` to
    ``end``, the span bH, shifted by m spans (times + m * span, jobs +
    m * b * items of their analytic) for m = 1, ..., copies, in between
    those logged before ``end`` and the rest, which it shifts by
    ``copies`` spans. Each shifted instant and job is one int, shared as
    the simulated path shares it."""
    log, job_responses, end_to_end = (
        trace.log, trace.job_responses, trace.end_to_end_responses)
    jumps = [b * c for c in items]
    stage_jump = dict(zip(sids, [jumps[a] for a in a_of]))
    item_jump = dict(zip(aids, jumps))
    parts = []
    for lo, hi, shifts in (
            (start, end, range(1, copies + 1)),
            (end, (len(log), len(job_responses), len(end_to_end)),
             (copies,))):
        # the part's distinct instants and (job, jump) pairs, and the
        # position of each event's in them
        instants: dict = {}
        pairs: dict = {}
        times, cores, kinds, stages, jobs = [], [], [], [], []
        for t, core, kind, sid, job in log[lo[0]:hi[0]]:
            times.append(instants.setdefault(t, len(instants)))
            cores.append(core)
            kinds.append(kind)
            stages.append(sid)
            jobs.append(pairs.setdefault((job, stage_jump[sid]), len(pairs)))
        # a stage's job and an analytic's item completed in the part
        # completed in a logged event, so their pairs are known
        parts.append((
            shifts, instants, pairs, times, cores, kinds, stages, jobs,
            [(sid, pairs[job, stage_jump[sid]], r) for (sid, job), r
             in islice(job_responses.items(), lo[1], hi[1])],
            [(aid, pairs[item, item_jump[aid]], r) for (aid, item), r
             in islice(end_to_end.items(), lo[2], hi[2])]))
    del log[end[0]:]  # the rest goes after the copies
    for _ in range(len(job_responses) - end[1]):
        job_responses.popitem()
    for _ in range(len(end_to_end) - end[2]):
        end_to_end.popitem()
    for (shifts, instants, pairs, times, cores, kinds, stages, jobs,
         stage_done, item_done) in parts:
        for m in shifts:
            d = m * span
            ts = [t + d for t in instants]
            js = [job + m * jump for job, jump in pairs]
            log.extend(zip(map(ts.__getitem__, times), cores, kinds, stages,
                           map(js.__getitem__, jobs)))
            job_responses.update([((sid, js[j]), r)
                                  for sid, j, r in stage_done])
            end_to_end.update([((aid, js[j]), r) for aid, j, r in item_done])


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
