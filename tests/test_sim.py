import hashlib
from collections import Counter

import pytest

from tcsizer import (
    DIVERGED,
    HOUR,
    INFINITE,
    MS,
    SEC,
    US,
    AllocationFailed,
    Analytic,
    AnalyticVerdict,
    BlockingPolicy,
    Cluster,
    Core,
    HorizonTooShort,
    InvalidAllocation,
    MissingStage,
    ReleasePolicy,
    ResponseReport,
    RoundRobin,
    SimConfig,
    SimTrace,
    Stage,
    System,
    Violation,
    WorstObserved,
    allocate_first_fit,
    assign_priorities_dm,
    homogeneous_cluster,
    min_cores,
    par,
    retime_system,
    seq,
    simulate,
    solve_system,
    total_utilization,
    trace_to_csv,
    verify_conservative,
    with_allocation,
    with_priorities,
    worst_observed,
)
from tcsizer.model import item_flow
from tcsizer.workloads import ScenarioId, builtin_system

from generators import accepted_stream, independent_taskset, pipelined_system


def single(sid, c, t, d=None, b=0, prio=1):
    d = t if d is None else d
    s = Stage(id=sid, cost=c, inter_arrival=t, deadline=d, blocking=b,
              priority=prio)
    return Analytic(id=sid, stages=(s,), topology=sid,
                    end_to_end_deadline=d)


def run(system, allocation, cluster, **cfg):
    return simulate(system, allocation, cluster, SimConfig(**cfg))


class TestBasics:
    def test_uncontended_periodic_stage(self):
        system = System((single("s", 2 * MS, 10 * MS),))
        trace = run(system, {"s": "c0"}, homogeneous_cluster(1),
                    horizon=100 * MS)
        assert len(trace.job_responses) == 10
        assert set(trace.job_responses.values()) == {2 * MS}
        assert len(trace.end_to_end_responses) == 10

    def test_equal_priorities_do_not_preempt(self):
        # b turns ready at 2 ms while a, of equal priority and released
        # first, runs: a keeps the core, with no PREEMPT/RESUME pair
        system = System((single("a", 5 * MS, 100 * MS),
                         single("b", 1 * MS, 100 * MS, b=2 * MS)))
        trace = run(system, {"a": "c0", "b": "c0"}, homogeneous_cluster(1),
                    horizon=20 * MS)
        assert trace.log == [
            (0, "c0", "RELEASE", "a", 0),
            (0, "c0", "RELEASE", "b", 0),
            (0, "c0", "START", "a", 0),
            (2 * MS, "c0", "BLOCK_END", "b", 0),
            (5 * MS, "c0", "COMPLETE", "a", 0),
            (5 * MS, "c0", "START", "b", 0),
            (6 * MS, "c0", "COMPLETE", "b", 0),
        ]

    def test_two_tasks_reach_the_analytic_bound(self):
        system = System((single("hp", 2 * MS, 5 * MS, prio=2),
                         single("lp", 3 * MS, 15 * MS, prio=1)))
        allocation = {"hp": "c0", "lp": "c0"}
        trace = run(system, allocation, homogeneous_cluster(1),
                    horizon=15 * MS)
        observed = worst_observed(trace)
        assert observed.per_stage == {"hp": 2 * MS, "lp": 5 * MS}
        report = solve_system(system, allocation, homogeneous_cluster(1))
        assert verify_conservative(report, observed) == []

    def test_one_shot_releases_exactly_once(self):
        system = System((single("batch", 2 * MS, INFINITE, 10 * MS),
                         single("tick", 1 * MS, 5 * MS, prio=2)))
        trace = run(system, {"batch": "c0", "tick": "c0"},
                    homogeneous_cluster(1), horizon=50 * MS)
        batch_jobs = [k for k in trace.job_responses if k[0] == "batch"]
        assert batch_jobs == [("batch", 0)]

    def test_fifo_tie_order_by_stage_id(self):
        system = with_priorities(builtin_system(ScenarioId.TABLE_VI),
                                 {"TC1": 1, "TC2": 1})
        allocation = {"TC1": "c0", "TC2": "c0"}
        trace = run(system, allocation, homogeneous_cluster(1),
                    horizon=8 * HOUR)
        assert worst_observed(trace).per_stage == {
            "TC1": HOUR, "TC2": 2 * HOUR}

    def test_equal_priority_worst_case_over_both_orders(self):
        # renaming flips the FIFO tie; each task's worst over the two
        # orderings is the mutual-interference bound
        worst = {}
        for ids in (("TC1", "TC2"), ("TC2", "TC1")):
            long_id, short_id = ids
            stages = {
                long_id: Stage(id=long_id, cost=HOUR, inter_arrival=INFINITE,
                               deadline=2 * HOUR, priority=1),
                short_id: Stage(id=short_id, cost=HOUR, inter_arrival=INFINITE,
                                deadline=HOUR, priority=1),
            }
            system = System(tuple(
                Analytic(sid, (st,), sid, st.deadline)
                for sid, st in stages.items()))
            trace = run(system, {sid: "c0" for sid in stages},
                        homogeneous_cluster(1), horizon=8 * HOUR)
            for (sid, _), resp in trace.job_responses.items():
                role = "long" if sid == long_id else "short"
                worst[role] = max(worst.get(role, 0), resp)
        assert worst == {"long": 2 * HOUR, "short": 2 * HOUR}

    def test_completion_beats_simultaneous_release(self):
        # completion exactly at a cotenant's period boundary is not
        # preempted: the ceil-compatible tie order
        system = System((single("hp", 2 * MS, 5 * MS, prio=2),
                         single("me", 3 * MS, 50 * MS, prio=1)))
        trace = run(system, {"hp": "c0", "me": "c0"},
                    homogeneous_cluster(1), horizon=50 * MS)
        assert trace.job_responses[("me", 0)] == 5 * MS
        at_5ms = [e.kind for e in trace.events if e.time == 5 * MS]
        assert at_5ms.index("COMPLETE") < at_5ms.index("RELEASE")

    def test_job_preempted_as_dispatched_resumes(self):
        # l is dispatched at 0; the zero-cost a completes at 0 on c1 and
        # releases b, which preempts l at that same instant
        a = Stage(id="a", cost=0, inter_arrival=10 * MS, deadline=10 * MS,
                  priority=3)
        b = Stage(id="b", cost=1 * MS, inter_arrival=10 * MS,
                  deadline=10 * MS, priority=2)
        system = System((Analytic("ab", (a, b), seq("a", "b"), 10 * MS),
                         single("l", 2 * MS, 10 * MS)))
        trace = run(system, {"a": "c1", "b": "c0", "l": "c0"},
                    homogeneous_cluster(2), horizon=10 * MS)
        assert [(e.time, e.kind) for e in trace.events
                if e.stage == "l"] == [
            (0, "RELEASE"), (0, "START"), (0, "PREEMPT"),
            (1 * MS, "RESUME"), (3 * MS, "COMPLETE")]

    def test_horizon_too_short(self):
        system = System((single("s", 2 * MS, 10 * MS),))
        with pytest.raises(HorizonTooShort):
            run(system, {"s": "c0"}, homogeneous_cluster(1), horizon=1 * MS)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(horizon=0)

    def test_placement_is_checked(self):
        prioritized = System((single("s", 2 * MS, 10 * MS),))
        with pytest.raises(InvalidAllocation):
            run(prioritized, {}, homogeneous_cluster(1), horizon=SEC)
        with pytest.raises(InvalidAllocation):
            run(prioritized, {"s": "nope"}, homogeneous_cluster(1),
                horizon=SEC)
        unprioritized = System((single("s", 2 * MS, 10 * MS, prio=None),))
        with pytest.raises(ValueError):
            run(unprioritized, {"s": "c0"}, homogeneous_cluster(1),
                horizon=SEC)


class TestBlocking:
    def test_adversarial_blocking_delays_start(self):
        system = System((single("s", 2 * MS, 10 * MS, d=12 * MS, b=3 * MS),))
        trace = run(system, {"s": "c0"}, homogeneous_cluster(1),
                    horizon=30 * MS)
        assert set(trace.job_responses.values()) == {5 * MS}
        kinds = [e.kind for e in trace.events if e.stage == "s" and e.job == 0]
        assert kinds == ["RELEASE", "BLOCK_END", "START", "COMPLETE"]

    def test_blocked_job_leaves_the_core_free(self):
        blocked = single("blocked", 2 * MS, 20 * MS, d=25 * MS, b=5 * MS,
                         prio=2)
        eager = single("eager", 8 * MS, 20 * MS, prio=1)
        system = System((blocked, eager))
        trace = run(system, {"blocked": "c0", "eager": "c0"},
                    homogeneous_cluster(1), horizon=20 * MS)
        # eager runs inside blocked's blocking window, then is preempted
        starts = {(e.stage, e.kind): e.time for e in trace.events
                  if e.kind in ("START", "PREEMPT")}
        assert starts[("eager", "START")] == 0
        assert starts[("blocked", "START")] == 5 * MS
        assert starts[("eager", "PREEMPT")] == 5 * MS
        assert trace.job_responses[("eager", 0)] == 10 * MS

    def test_uniform_blocking_within_bounds(self):
        system = System((single("s", 1 * MS, 10 * MS, d=15 * MS, b=4 * MS),))
        trace = run(system, {"s": "c0"}, homogeneous_cluster(1),
                    horizon=200 * MS, seed=11,
                    blocking_policy=BlockingPolicy.UNIFORM)
        delays = {}
        for e in trace.events:
            if e.kind == "RELEASE":
                delays[e.job] = -e.time
            elif e.kind == "BLOCK_END":
                delays[e.job] += e.time
        assert delays and all(0 < d <= 4 * MS for d in delays.values())
        # at B = 1 ns each delay is 0 or 1, so a sampler that could
        # return its bound shows as a response of C + 2
        system = System((single("s", 1, 10, d=11, b=1),))
        trace = run(system, {"s": "c0"}, homogeneous_cluster(1),
                    horizon=10_000, seed=11,
                    blocking_policy=BlockingPolicy.UNIFORM)
        assert sorted(set(trace.job_responses.values())) == [1, 2]

    def test_platform_blocking_applies(self):
        system = System((single("s", 1 * MS, 10 * MS, d=15 * MS),))
        cluster = Cluster((Core("c0", platform_blocking=2 * MS),))
        trace = run(system, {"s": "c0"}, cluster, horizon=30 * MS)
        assert set(trace.job_responses.values()) == {3 * MS}

    def test_blocked_job_keeps_its_fifo_place(self):
        # x is ready at 5 ms but was released at 0, so it queues ahead of
        # the equal-priority y released at 3 ms while z holds the core
        w = Stage(id="w", cost=3 * MS, inter_arrival=20 * MS,
                  deadline=20 * MS, priority=1)
        y = Stage(id="y", cost=1 * MS, inter_arrival=20 * MS,
                  deadline=20 * MS, priority=1)
        system = System((
            single("z", 6 * MS, 20 * MS, prio=3),
            single("x", 1 * MS, 20 * MS, d=20 * MS, b=5 * MS),
            Analytic("wy", (w, y), seq("w", "y"), 20 * MS)))
        trace = run(system, {"w": "c1", "x": "c0", "y": "c0", "z": "c0"},
                    homogeneous_cluster(2), horizon=20 * MS)
        at = {(e.stage, e.kind): e.time for e in trace.events}
        assert (at[("x", "BLOCK_END")], at[("y", "RELEASE")]) == (5 * MS,
                                                                  3 * MS)
        assert (at[("x", "START")], at[("y", "START")]) == (6 * MS, 7 * MS)


class TestReleasePolicies:
    def test_jittered_offsets_stay_within_one_period(self):
        system = System((single("a", 1 * MS, 10 * MS),
                         single("b", 1 * MS, 20 * MS, prio=2)))
        trace = run(system, {"a": "c0", "b": "c0"}, homogeneous_cluster(1),
                    horizon=100 * MS, seed=3,
                    release_policy=ReleasePolicy.JITTERED)
        first = {}
        for e in trace.events:
            if e.kind == "RELEASE" and e.job == 0:
                first[e.stage] = e.time
        assert 0 <= first["a"] < 10 * MS
        assert 0 <= first["b"] < 20 * MS
        assert first != {"a": 0, "b": 0}  # seed 3 actually jitters
        # at T = 1 ns the one phase within a period is 0, so a sampler
        # that could return its bound shows as a first release at 1
        ids = [f"t{i}" for i in range(8)]
        system = System(tuple(single(sid, 0, 1) for sid in ids))
        trace = run(system, dict.fromkeys(ids, "c0"), homogeneous_cluster(1),
                    horizon=4, seed=3, release_policy=ReleasePolicy.JITTERED)
        assert {e.time for e in trace.events
                if e.kind == "RELEASE" and e.job == 0} == {0}

    def test_one_shot_jitter_is_zero(self):
        system = System((single("batch", 1 * MS, INFINITE, 10 * MS),))
        trace = run(system, {"batch": "c0"}, homogeneous_cluster(1),
                    horizon=20 * MS, seed=9,
                    release_policy=ReleasePolicy.JITTERED)
        release = next(e for e in trace.events if e.kind == "RELEASE")
        assert release.time == 0

    def test_end_to_end_runs_from_the_earliest_source_release(self):
        # the one-shot source releases item 0 at 0, the periodic one at
        # its jittered phase; out joins both
        once = Stage(id="once", cost=1 * MS, inter_arrival=INFINITE,
                     deadline=10 * MS, priority=1)
        tick, out = (Stage(id=sid, cost=1 * MS, inter_arrival=10 * MS,
                           deadline=10 * MS, priority=1)
                     for sid in ("tick", "out"))
        system = System((Analytic("a", (once, tick, out),
                                  seq(par("once", "tick"), "out"), 30 * MS),))
        trace = run(system, {"once": "c0", "tick": "c1", "out": "c2"},
                    homogeneous_cluster(3), horizon=30 * MS, seed=3,
                    release_policy=ReleasePolicy.JITTERED)
        phase = next(e.time for e in trace.events
                     if e.kind == "RELEASE" and e.stage == "tick")
        assert phase > 0
        assert trace.end_to_end_responses == {("a", 0): phase + 2 * MS}


class TestPipelining:
    def chain(self, *costs, period=10 * MS, deadline=None):
        stages = tuple(
            Stage(id=f"s{i}", cost=c, inter_arrival=period,
                  deadline=period, priority=len(costs) - i)
            for i, c in enumerate(costs))
        topo = seq(*(s.id for s in stages))
        deadline = deadline or period * len(costs)
        return System((Analytic("chain", stages, topo, deadline),))

    def test_downstream_released_at_predecessor_completion(self):
        system = self.chain(1 * MS, 2 * MS)
        trace = run(system, {"s0": "c0", "s1": "c0"}, homogeneous_cluster(1),
                    horizon=40 * MS)
        rel = [e.time for e in trace.events
               if e.kind == "RELEASE" and e.stage == "s1"]
        assert rel == [1 * MS, 11 * MS, 21 * MS, 31 * MS]
        assert set(trace.end_to_end_responses.values()) == {3 * MS}

    def test_min_inter_arrival_throttles_bursts(self):
        # upstream completions land 6 ms apart; downstream period is 10 ms
        hp = single("hp", 4 * MS, 20 * MS, prio=3)
        src = Stage(id="src", cost=2 * MS, inter_arrival=10 * MS,
                    deadline=10 * MS, priority=2)
        dst = Stage(id="dst", cost=1 * MS, inter_arrival=10 * MS,
                    deadline=10 * MS, priority=1)
        chain = Analytic("chain", (src, dst), seq("src", "dst"), 40 * MS)
        system = System((hp, chain))
        trace = run(system, {"hp": "c0", "src": "c0", "dst": "c1"},
                    homogeneous_cluster(2), horizon=20 * MS)
        rel = [e.time for e in trace.events
               if e.kind == "RELEASE" and e.stage == "dst"]
        assert rel == [6 * MS, 16 * MS]  # 12 ms arrival throttled to 16

    def test_parallel_fork_joins_on_latest(self):
        g = Stage(id="g", cost=1 * MS, inter_arrival=20 * MS,
                  deadline=20 * MS, priority=4)
        b1 = Stage(id="b1", cost=2 * MS, inter_arrival=20 * MS,
                   deadline=20 * MS, priority=3)
        b2 = Stage(id="b2", cost=5 * MS, inter_arrival=20 * MS,
                   deadline=20 * MS, priority=2)
        sink = Stage(id="sink", cost=1 * MS, inter_arrival=20 * MS,
                     deadline=20 * MS, priority=1)
        analytic = Analytic("fan", (g, b1, b2, sink),
                            seq("g", par("b1", "b2"), "sink"), 80 * MS)
        system = System((analytic,))
        allocation = {"g": "c0", "b1": "c1", "b2": "c2", "sink": "c0"}
        trace = run(system, allocation, homogeneous_cluster(3),
                    horizon=20 * MS)
        # branches release together at g's completion; sink at the join
        rel = {e.stage: e.time for e in trace.events if e.kind == "RELEASE"}
        assert rel["b1"] == rel["b2"] == 1 * MS
        assert rel["sink"] == 6 * MS  # b2 finishes at 6 ms
        assert trace.end_to_end_responses[("fan", 0)] == 7 * MS

    def test_items_overtaking_each_other_are_throttled(self):
        # blocking longer than the period lets item 1 overtake item 0
        src = Stage(id="src", cost=1 * MS, inter_arrival=10 * MS,
                    deadline=50 * MS, blocking=30 * MS, priority=2)
        dst = Stage(id="dst", cost=1 * MS, inter_arrival=10 * MS,
                    deadline=10 * MS, priority=1)
        system = System((Analytic("a", (src, dst), seq("src", "dst"), SEC),))
        trace = run(system, {"src": "c0", "dst": "c1"},
                    homogeneous_cluster(2), horizon=200 * MS, seed=0,
                    blocking_policy=BlockingPolicy.UNIFORM)
        rel = [(e.time, e.job) for e in trace.events
               if e.kind == "RELEASE" and e.stage == "dst"]
        assert [job for _, job in rel] != sorted(job for _, job in rel)
        assert all(b - a >= 10 * MS for (a, _), (b, _) in zip(rel, rel[1:]))

    def test_one_shot_downstream_processes_first_item_only(self):
        src = Stage(id="src", cost=1 * MS, inter_arrival=10 * MS,
                    deadline=10 * MS, priority=2)
        once = Stage(id="once", cost=1 * MS, inter_arrival=INFINITE,
                     deadline=SEC, priority=1)
        system = System((Analytic("a", (src, once), seq("src", "once"), SEC),))
        trace = run(system, {"src": "c0", "once": "c0"},
                    homogeneous_cluster(1), horizon=50 * MS)
        assert [k for k in trace.job_responses if k[0] == "once"] == [
            ("once", 0)]
        assert list(trace.end_to_end_responses) == [("a", 0)]


class TestDeterminism:
    @pytest.mark.parametrize("blocking", list(BlockingPolicy))
    @pytest.mark.parametrize("release", list(ReleasePolicy))
    def test_identical_traces(self, blocking, release):
        (_seed, got), = accepted_stream(pipelined_system, 17, 1)
        system, allocation, cluster, _h = got
        cfg = dict(horizon=SEC // 2, seed=99, blocking_policy=blocking,
                   release_policy=release)
        t1 = run(system, allocation, cluster, **cfg)
        t2 = run(system, allocation, cluster, **cfg)
        assert (t1.log, t1.job_responses, t1.end_to_end_responses) == (
            t2.log, t2.job_responses, t2.end_to_end_responses)

    def test_no_draws_without_blocking_or_jitter(self):
        # with zero blocking everywhere UNIFORM draws nothing, and
        # SYNCHRONOUS never draws, so the seed cannot matter
        (_seed, got), = accepted_stream(pipelined_system, 17, 1)
        system, allocation, cluster, hyper = got
        system = System(tuple(
            a._replace(stages=tuple(s._replace(blocking=0) for s in a.stages))
            for a in system.analytics))
        cluster = Cluster(tuple(c._replace(platform_blocking=0)
                                for c in cluster.cores))
        traces = [run(system, allocation, cluster, horizon=3 * hyper,
                      seed=seed, blocking_policy=blocking)
                  for seed in (0, 12345) for blocking in BlockingPolicy]
        assert len({trace_digest([t]) for t in traces}) == 1

    def test_seed_changes_uniform_draws(self):
        system = System((single("s", 1 * MS, 10 * MS, d=15 * MS, b=4 * MS),))
        t1 = run(system, {"s": "c0"}, homogeneous_cluster(1),
                 horizon=100 * MS, seed=1,
                 blocking_policy=BlockingPolicy.UNIFORM)
        t2 = run(system, {"s": "c0"}, homogeneous_cluster(1),
                 horizon=100 * MS, seed=2,
                 blocking_policy=BlockingPolicy.UNIFORM)
        assert t1.log != t2.log


def audit_trace(trace, system, allocation, cluster, horizon):
    """Replay the event stream and check scheduler invariants between
    event timestamps. Assumes B = 0 or ADVERSARIAL blocking (a BLOCK_END
    is then emitted exactly when effective blocking is nonzero)."""
    prio = {s.id: s.priority for s in system.stages()}
    platform = {c.id: c.platform_blocking for c in cluster.cores}
    b_eff = {s.id: max(s.blocking, platform[allocation[s.id]])
             for s in system.stages()}
    ready: dict[str, set] = {c.id: set() for c in cluster.cores}
    running: dict[str, tuple | None] = {c.id: None for c in cluster.cores}
    busy: dict[str, int] = {c.id: 0 for c in cluster.cores}

    times = sorted({e.time for e in trace.events} | {horizon})
    by_time: dict[int, list] = {}
    for e in trace.events:
        by_time.setdefault(e.time, []).append(e)

    for t, t_next in zip(times, times[1:] + [horizon]):
        for e in by_time.get(t, ()):
            key = (e.stage, e.job)
            if e.kind == "RELEASE":
                if b_eff[e.stage] == 0:
                    ready[e.core].add(key)
            elif e.kind == "BLOCK_END":
                ready[e.core].add(key)
            elif e.kind in ("START", "RESUME"):
                assert running[e.core] is None, "two jobs on one core"
                assert key in ready[e.core]
                ready[e.core].remove(key)
                running[e.core] = (key, t)
            elif e.kind == "PREEMPT":
                assert running[e.core] is not None
                assert running[e.core][0] == key
                busy[e.core] += t - running[e.core][1]
                running[e.core] = None
                ready[e.core].add(key)
            elif e.kind == "COMPLETE":
                assert running[e.core] is not None
                assert running[e.core][0] == key
                busy[e.core] += t - running[e.core][1]
                running[e.core] = None
        if t >= horizon:
            break
        for cid in ready:
            if running[cid] is None:
                assert not ready[cid], (
                    f"core {cid} idle at {t} with ready jobs {ready[cid]}")
            else:
                run_prio = prio[running[cid][0][0]]
                for sid, _job in ready[cid]:
                    assert prio[sid] <= run_prio, (
                        f"priority inversion on {cid} at {t}")
    for cid, record in running.items():
        if record is not None:
            busy[cid] += horizon - record[1]
    return busy


class TestSchedulerInvariants:
    def test_work_conservation_and_priority_compliance(self):
        for seed, got in accepted_stream(pipelined_system, 100, 12):
            system, allocation, cluster, hyper = got
            trace = run(system, allocation, cluster, horizon=hyper)
            audit_trace(trace, system, allocation, cluster, hyper)

    def test_busy_time_respects_capacity(self):
        for seed in range(6):
            system, allocation, cluster, hyper = independent_taskset(
                seed, max_stages=5, u_cap=0.55)
            cap_cluster = homogeneous_cluster(2, capacity=0.6)
            placement = allocate_first_fit(system, cap_cluster)
            system = with_allocation(system, placement)
            trace = run(system, placement, cap_cluster, horizon=hyper)
            busy = audit_trace(trace, system, placement, cap_cluster, hyper)
            max_cost = max(s.cost for s in system.stages())
            for used in busy.values():
                assert used <= 0.6 * hyper + max_cost


class TestConservativeness:
    def test_bounds_dominate_observation(self):
        for seed, got in accepted_stream(pipelined_system, 300, 25):
            system, allocation, cluster, hyper = got
            report = solve_system(system, allocation, cluster)
            trace = run(system, allocation, cluster, horizon=hyper)
            observed = worst_observed(trace)
            assert verify_conservative(report, observed) == []

    def test_equal_priorities_mutual_interference_bound_holds(self):
        # three equal-priority stages on one core: the FIFO-last job waits
        # for both others, exactly the mutual-interference bound
        system = System((
            single("a", 2 * MS, 20 * MS, prio=5),
            single("b", 3 * MS, 20 * MS, prio=5),
            single("c", 4 * MS, 20 * MS, prio=5),
        ))
        allocation = {"a": "c0", "b": "c0", "c": "c0"}
        report = solve_system(system, allocation, homogeneous_cluster(1))
        assert report.per_stage == {"a": 9 * MS, "b": 9 * MS, "c": 9 * MS}
        trace = run(system, allocation, homogeneous_cluster(1),
                    horizon=20 * MS)
        observed = worst_observed(trace)
        assert verify_conservative(report, observed) == []
        assert observed.per_stage == {"a": 2 * MS, "b": 5 * MS, "c": 9 * MS}

    def test_forced_violation_is_reported(self):
        system = System((single("s", 2 * MS, 10 * MS),))
        allocation = {"s": "c0"}
        report = solve_system(system, allocation, homogeneous_cluster(1))
        fake = WorstObserved(per_stage={"s": report.per_stage["s"] + 1},
                             per_analytic={})
        violations = verify_conservative(report, fake)
        assert len(violations) == 1
        assert violations[0].kind == "stage"
        assert violations[0].id == "s"


def first_fit_on_fewest(system):
    """The system with deadline-monotonic priorities, placed by first-fit
    on the least m >= min_cores that places it."""
    system = with_priorities(system, assign_priorities_dm(system))
    m = min_cores(total_utilization(system).total, 1)
    while True:
        cluster = homogeneous_cluster(m)
        try:
            allocation = allocate_first_fit(system, cluster)
        except AllocationFailed:
            m += 1
            continue
        return with_allocation(system, allocation), allocation, cluster


def join_shaped_system(seed):
    """pipelined_system's draw when one of its analytics has more than
    one source stage, else None."""
    got = pipelined_system(seed)
    if got is not None and any(len(item_flow(a.topology).sources) > 1
                               for a in got[0].analytics):
        return got
    return None


class TestRoundRobin:
    def rr_source(self):
        """A 2-way round-robin source at 5 ms input period (10 ms per
        replica) feeding one sink, each on its own core."""
        a1, a2 = (Stage(id=f"a#{i}", cost=6 * MS, inter_arrival=10 * MS,
                        deadline=10 * MS, priority=2) for i in (1, 2))
        z = Stage(id="z", cost=1 * MS, inter_arrival=5 * MS,
                  deadline=5 * MS, priority=1)
        topo = seq(RoundRobin(("a#1", "a#2")), "z")
        system = System((Analytic("rr", (a1, a2, z), topo, 20 * MS),))
        return system, {"a#1": "c0", "a#2": "c1", "z": "c2"}

    def test_source_replicas_release_their_own_items(self):
        system, allocation = self.rr_source()
        trace = run(system, allocation, homogeneous_cluster(3),
                    horizon=30 * MS)
        releases = [(e.time // MS, e.stage, e.job) for e in trace.events
                    if e.kind == "RELEASE"]
        assert releases == [
            (0, "a#1", 0), (5, "a#2", 1), (6, "z", 0), (10, "a#1", 2),
            (11, "z", 1), (15, "a#2", 3), (16, "z", 2), (20, "a#1", 4),
            (21, "z", 3), (25, "a#2", 5), (26, "z", 4)]
        assert set(trace.end_to_end_responses.values()) == {7 * MS}
        report = solve_system(system, allocation, homogeneous_cluster(3))
        assert report.per_analytic["rr"].end_to_end == 7 * MS

    def test_jittered_sources_share_the_analytic_phase(self):
        system, allocation = self.rr_source()
        for seed in range(5):
            trace = run(system, allocation, homogeneous_cluster(3),
                        horizon=30 * MS, seed=seed,
                        release_policy=ReleasePolicy.JITTERED)
            first = {e.stage: e.time for e in reversed(trace.events)
                     if e.kind == "RELEASE"}
            assert 0 <= first["a#1"] < 5 * MS
            assert first["a#2"] == first["a#1"] + 5 * MS
        # a join-shaped analytic: all sources release each item together
        (_seed, got), = accepted_stream(join_shaped_system, 40, 1)
        system, allocation, cluster, hyper = got
        trace = run(system, allocation, cluster, horizon=hyper, seed=3,
                    release_policy=ReleasePolicy.JITTERED)
        for analytic in system.analytics:
            sources = item_flow(analytic.topology).sources
            at = {e.stage: e.time for e in trace.events
                  if e.kind == "RELEASE" and e.job == 0
                  and e.stage in sources}
            assert len(set(at.values())) == 1

    def test_join_counts_a_round_robin_node_once(self):
        # c joins the replica that takes each item and x, not both replicas
        replicas = tuple(Stage(id=f"a#{i}", cost=3 * MS, inter_arrival=10 * MS,
                               deadline=10 * MS, priority=2) for i in (1, 2))
        x = Stage(id="x", cost=1 * MS, inter_arrival=5 * MS, deadline=5 * MS,
                  priority=3)
        c = Stage(id="c", cost=1 * MS, inter_arrival=5 * MS, deadline=5 * MS,
                  priority=1)
        topo = seq(par(RoundRobin(("a#1", "a#2")), "x"), "c")
        system = System((Analytic("j", (*replicas, x, c), topo, 20 * MS),))
        allocation = {"a#1": "c0", "a#2": "c1", "x": "c2", "c": "c2"}
        trace = run(system, allocation, homogeneous_cluster(3),
                    horizon=40 * MS)
        c_jobs = sorted(job for sid, job in trace.job_responses if sid == "c")
        assert c_jobs == list(range(8))
        assert set(trace.end_to_end_responses.values()) == {4 * MS}
        report = solve_system(system, allocation, homogeneous_cluster(3))
        assert verify_conservative(report, worst_observed(trace)) == []

    @pytest.mark.parametrize("blocking", list(BlockingPolicy))
    @pytest.mark.parametrize("release", list(ReleasePolicy))
    @pytest.mark.parametrize("scenario, frequency", [
        (ScenarioId.MICROBLOG_ONLINE, 4000),
        (ScenarioId.MICROBLOG_ONLINE, 8000),  # round-robin source too
        (ScenarioId.BOOK_ONLINE, 1000),
    ])
    def test_replicated_scenarios_meet_their_bounds(
            self, scenario, frequency, blocking, release):
        template = builtin_system(scenario, frequency_hz=1)
        system, allocation, cluster = first_fit_on_fewest(
            retime_system(template, frequency))
        trace = run(system, allocation, cluster, horizon=250 * MS, seed=7,
                    blocking_policy=blocking, release_policy=release)
        report = solve_system(system, allocation, cluster)
        assert verify_conservative(report, worst_observed(trace)) == []
        (analytic,) = system.analytics
        lanes = item_flow(analytic.topology).lanes
        assert lanes  # something was replicated
        released = Counter(e.stage for e in trace.events
                           if e.kind == "RELEASE")
        completed = Counter(sid for sid, _job in trace.job_responses)
        for s in system.stages():
            k, lane = lanes.get(s.id, (1, 0))
            assert all(job % k == lane for sid, job in trace.job_responses
                       if sid == s.id)
            assert (released[s.id] - len(analytic.stages) <= completed[s.id]
                    <= released[s.id])

    def test_jittered_join_shaped_systems_meet_their_bounds(self):
        for seed, got in accepted_stream(join_shaped_system, 500, 15):
            system, allocation, cluster, hyper = got
            report = solve_system(system, allocation, cluster)
            trace = run(system, allocation, cluster, horizon=3 * hyper,
                        seed=seed, release_policy=ReleasePolicy.JITTERED)
            assert verify_conservative(report, worst_observed(trace)) == []


class TestObservation:
    def test_worst_observed_examples(self):
        system = System((single("s", 2 * MS, 10 * MS),))
        trace = run(system, {"s": "c0"}, homogeneous_cluster(1),
                    horizon=100 * MS)
        observed = worst_observed(trace)
        assert observed.per_stage == {"s": 2 * MS}
        assert observed.per_analytic == {"s": 2 * MS}

    def test_verify_reports_analytic_violations_and_skips_no_bound(self):
        report = ResponseReport(
            per_stage={"a": 10, "b": DIVERGED},
            per_analytic={"x": AnalyticVerdict(20, True),
                          "y": AnalyticVerdict(DIVERGED, False)},
            system_feasible=False)
        observed = WorstObserved(per_stage={"a": 10, "b": 99, "c": 5},
                                 per_analytic={"x": 21, "y": 99, "z": 1})
        assert verify_conservative(report, observed) == [
            Violation("analytic", "x", 21, 20)]

    def test_undeclared_topology_stage_is_missing_stage(self):
        s = Stage(id="a", cost=MS, inter_arrival=10 * MS, deadline=10 * MS,
                  priority=1)
        for topology in (seq("a", "ghost"), seq("ghost", "a"), "ghost"):
            system = System((Analytic("x", (s,), topology, SEC),))
            with pytest.raises(MissingStage) as exc:
                run(system, {"a": "c0"}, homogeneous_cluster(1), horizon=SEC)
            assert str(exc.value) == (
                "topology references unknown stage 'ghost'")

    def test_replace_checks_the_horizon(self):
        config = SimConfig(horizon=SEC)
        with pytest.raises(ValueError, match="^horizon must be positive$"):
            config._replace(horizon=0)
        assert config._replace(seed=3) == SimConfig(SEC, 3)

    def test_empty_trace(self):
        observed = worst_observed(SimTrace())
        assert observed.per_stage == {}
        assert observed.per_analytic == {}

    def test_trace_csv_format(self):
        system = System((single("s", 2 * MS, 10 * MS),))
        trace = run(system, {"s": "c0"}, homogeneous_cluster(1),
                    horizon=25 * MS)
        text = trace_to_csv(trace)
        lines = text.split("\n")
        assert lines[0] == "time_ns,core,kind,stage,job"
        assert lines[1] == "0,c0,RELEASE,s,0"
        assert text.endswith("\n")
        assert "\r" not in text

    def test_events_strictly_ordered(self):
        (_seed, got), = accepted_stream(pipelined_system, 23, 1)
        system, allocation, cluster, hyper = got
        trace = run(system, allocation, cluster, horizon=hyper)
        assert all(a.time <= b.time
                   for a, b in zip(trace.events, trace.events[1:]))
        assert len(set(trace.events)) == len(trace.events)


def trace_digest(traces):
    """sha256 over each trace's CSV export and its sorted job and
    end-to-end responses, in order."""
    h = hashlib.sha256()
    for trace in traces:
        h.update(trace_to_csv(trace).encode())
        h.update(repr(sorted(trace.job_responses.items())).encode())
        h.update(repr(sorted(trace.end_to_end_responses.items())).encode())
    return h.hexdigest()


ALL_POLICIES = [(b, r) for b in BlockingPolicy for r in ReleasePolicy]


def every_path_system():
    """Three cores running four analytics that reach every branch of the
    event loop: a one-shot analytic and a one-shot downstream stage, a
    3-replica round-robin node joined with x, a plain two-branch join,
    stage blocking on x and platform blocking on c1 (so UNIFORM draws),
    preemptions on every core and dispatches on several cores at one
    instant."""
    def stage(sid, cost_us, period_us, prio, blocking_us=0):
        return Stage(id=sid, cost=cost_us * US,
                     inter_arrival=(INFINITE if period_us is None
                                    else period_us * US),
                     deadline=20 * MS, blocking=blocking_us * US,
                     priority=prio)
    replicas = tuple(f"w#{i}" for i in (1, 2, 3))
    system = System((
        Analytic("fan", (stage("src", 200, 1000, 9),
                         *(stage(r, 1200, 3000, 3) for r in replicas),
                         stage("x", 200, 1000, 8, blocking_us=100),
                         stage("sink", 100, 1000, 5)),
                 seq("src", par(RoundRobin(replicas), "x"), "sink"), 20 * MS),
        Analytic("join", (stage("j0", 200, 2000, 7), stage("j1", 300, 2000, 6),
                          stage("j2", 300, 2000, 6), stage("j3", 200, 2000, 4)),
                 seq("j0", par("j1", "j2"), "j3"), 20 * MS),
        Analytic("once", (stage("once", 1500, None, 1),), "once", 20 * MS),
        Analytic("tail", (stage("t0", 400, 5000, 2), stage("t1", 500, None, 1)),
                 seq("t0", "t1"), 20 * MS)))
    allocation = {"src": "c0", "x": "c0", "j0": "c0", "once": "c0",
                  "w#3": "c0", "w#1": "c1", "j1": "c1", "sink": "c1",
                  "t0": "c1", "w#2": "c2", "j2": "c2", "j3": "c2", "t1": "c2"}
    cluster = Cluster((Core("c0"), Core("c1", platform_blocking=50 * US),
                       Core("c2")))
    return system, allocation, cluster


class TestPinnedTraces:
    """Traces pinned to the bytes the simulator has always produced; a
    faster simulator must reproduce them exactly."""

    @pytest.mark.parametrize("blocking,release", ALL_POLICIES)
    def test_headline(self, blocking, release):
        # microblog at 4 kHz, deadline-monotonic first-fit on 8 cores
        system = retime_system(
            builtin_system(ScenarioId.MICROBLOG_ONLINE, frequency_hz=1), 4000)
        system = with_priorities(system, assign_priorities_dm(system))
        cluster = homogeneous_cluster(8)
        allocation = allocate_first_fit(system, cluster)
        trace = run(system, allocation, cluster, horizon=250 * MS, seed=11,
                    blocking_policy=blocking, release_policy=release)
        assert trace_digest([trace]) == HEADLINE_DIGESTS[blocking, release]

    def test_pipelined_pool(self):
        traces = [
            run(system, allocation, cluster, horizon=3 * hyper, seed=seed,
                blocking_policy=blocking, release_policy=release)
            for seed, (system, allocation, cluster, hyper)
            in accepted_stream(pipelined_system, 0, 40)
            for blocking, release in ALL_POLICIES]
        assert trace_digest(traces) == POOL_DIGEST

    @pytest.mark.parametrize("blocking,release", ALL_POLICIES)
    def test_every_path(self, blocking, release):
        system, allocation, cluster = every_path_system()
        trace = run(system, allocation, cluster, horizon=30 * MS, seed=11,
                    blocking_policy=blocking, release_policy=release)
        assert trace_digest([trace]) == EVERY_PATH_DIGESTS[blocking, release]
        # the paths the digest is meant to cover are reached
        kinds = Counter(kind for _t, _c, kind, _s, _j in trace.log)
        assert kinds["PREEMPT"] and kinds["BLOCK_END"]
        dispatches = Counter(t for t, _c, kind, _s, _j in trace.log
                             if kind in ("START", "RESUME"))
        assert max(dispatches.values()) >= 2
        assert [job for sid, job in trace.job_responses
                if sid in ("once", "t1")] == [0, 0]
        assert {aid for aid, _item in trace.end_to_end_responses} == {
            "fan", "join", "once", "tail"}

    def test_tie_break_follows_id_order_not_declaration_order(self):
        # as strings c10 < c2 and s10 < s2 < s9, against the declared
        # order c2, c10 and s9, s10, s2
        system = System((single("s9", 1 * MS, 10 * MS),
                         single("s10", 1 * MS, 10 * MS),
                         single("s2", 1 * MS, 10 * MS)))
        cluster = Cluster((Core("c2"), Core("c10")))
        trace = run(system, {"s9": "c10", "s10": "c10", "s2": "c2"}, cluster,
                    horizon=10 * MS)
        assert [tuple(e) for e in trace.events if e.time <= 1 * MS] == [
            (0, "c10", "RELEASE", "s10", 0),
            (0, "c2", "RELEASE", "s2", 0),
            (0, "c10", "RELEASE", "s9", 0),
            (0, "c10", "START", "s10", 0),
            (0, "c2", "START", "s2", 0),
            (1 * MS, "c10", "COMPLETE", "s10", 0),
            (1 * MS, "c2", "COMPLETE", "s2", 0),
            (1 * MS, "c10", "START", "s9", 0),
        ]


# the microblog stages carry no blocking, so UNIFORM draws nothing
HEADLINE_DIGESTS = {
    (BlockingPolicy.ADVERSARIAL, ReleasePolicy.SYNCHRONOUS):
        "38c0f461f53dcc35245d43721c9a1636f9d0fe97ff684a2971a7ea5da1ec94a5",
    (BlockingPolicy.ADVERSARIAL, ReleasePolicy.JITTERED):
        "7d7e3c514ca4f93cb34af11c281db4edfd08c49c9f3e60b20643a31cd98c35da",
    (BlockingPolicy.UNIFORM, ReleasePolicy.SYNCHRONOUS):
        "38c0f461f53dcc35245d43721c9a1636f9d0fe97ff684a2971a7ea5da1ec94a5",
    (BlockingPolicy.UNIFORM, ReleasePolicy.JITTERED):
        "7d7e3c514ca4f93cb34af11c281db4edfd08c49c9f3e60b20643a31cd98c35da",
}
POOL_DIGEST = (
    "f21acd98d497a0957616a59caffe295709a202f4611a786225b4729243ff19ef")
EVERY_PATH_DIGESTS = {
    (BlockingPolicy.ADVERSARIAL, ReleasePolicy.SYNCHRONOUS):
        "b353ae850443e482fc6fd074234064aed7a90a8afbc937a82f27ded8089f6678",
    (BlockingPolicy.ADVERSARIAL, ReleasePolicy.JITTERED):
        "c1954b00c3c84068a86cb5adebb2509f234a1c7f1384d02cbf6f7980d728b12a",
    (BlockingPolicy.UNIFORM, ReleasePolicy.SYNCHRONOUS):
        "eb36d777e7e95795c57e857f585e7beefb740e81ea1c90e2dee56423607844b0",
    (BlockingPolicy.UNIFORM, ReleasePolicy.JITTERED):
        "b2307caebb94ab966002814d51f3a139eb50562c1bf5668f8d0e63d43ca11cd5",
}
