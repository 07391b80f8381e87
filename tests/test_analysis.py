from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcsizer import (
    DIVERGED,
    HOUR,
    INFINITE,
    MS,
    SEC,
    US,
    Analytic,
    InvalidAllocation,
    Leaf,
    MissingStage,
    PreconditionViolated,
    Stage,
    System,
    assign_priorities_dm,
    check_utilization_bound,
    end_to_end_response,
    homogeneous_cluster,
    min_cores,
    par,
    seq,
    solve_system,
    stage_response_time,
    total_utilization,
    with_priorities,
)
from tcsizer.workloads import ScenarioId, builtin_system


def stage(sid, c, t, d=None, b=0, prio=None):
    return Stage(id=sid, cost=c, inter_arrival=t,
                 deadline=t if d is None else d, blocking=b, priority=prio)


def single(sid, c, t, d=None, b=0, prio=None):
    s = stage(sid, c, t, d, b, prio)
    return Analytic(id=sid, stages=(s,), topology=Leaf(sid),
                    end_to_end_deadline=s.deadline)


class TestStageResponseTime:
    def test_no_contention(self):
        assert stage_response_time(stage("s", 100 * US, SEC), [], SEC) == 100 * US

    def test_two_task_fixed_point(self):
        lp = stage("lp", 3 * MS, 15 * MS)
        hp = stage("hp", 2 * MS, 5 * MS)
        assert stage_response_time(lp, [hp], SEC) == 5 * MS

    def test_one_shot_cotenant_charged_once(self):
        me = stage("me", HOUR, INFINITE, 2 * HOUR)
        other = stage("other", HOUR, INFINITE, HOUR)
        assert stage_response_time(me, [other], 2 * HOUR) == 2 * HOUR

    def test_blocking_term(self):
        lp = stage("lp", 3 * MS, 15 * MS, b=1 * MS)
        hp = stage("hp", 2 * MS, 5 * MS)
        assert stage_response_time(lp, [hp], SEC) == 8 * MS

    def test_blocking_override(self):
        lp = stage("lp", 3 * MS, 15 * MS)
        hp = stage("hp", 2 * MS, 5 * MS)
        assert stage_response_time(lp, [hp], SEC, blocking=1 * MS) == 8 * MS

    def test_diverges_past_cap(self):
        lp = stage("lp", 6 * MS, 10 * MS)
        hp = stage("hp", 5 * MS, 5 * MS)  # saturates the core
        assert stage_response_time(lp, [hp], 100 * MS) is DIVERGED

    def test_full_core_leaves_no_fixed_point_above_zero(self):
        tick = stage("tick", 10 * US, 10 * US)  # U = 1
        batch = stage("batch", 10 * US, INFINITE, HOUR)
        assert stage_response_time(batch, [tick], 100 * MS) is DIVERGED
        idle = stage("idle", 0, INFINITE, HOUR)
        assert stage_response_time(idle, [tick], 100 * MS) == 0

    def test_cap_boundary_is_inclusive(self):
        me = stage("me", HOUR, INFINITE, 2 * HOUR)
        other = stage("other", HOUR, INFINITE, HOUR)
        assert stage_response_time(me, [other], 2 * HOUR) == 2 * HOUR
        assert stage_response_time(me, [other], 2 * HOUR - 1) is DIVERGED

    @given(st.data())
    @settings(max_examples=300)
    def test_fixed_point_and_monotonicity(self, data):
        n = data.draw(st.integers(0, 4))
        cotenants = [
            stage(f"z{i}",
                  data.draw(st.integers(1, 50)),
                  data.draw(st.integers(50, 400)))
            for i in range(n)
        ]
        me = stage("me", data.draw(st.integers(1, 60)), 10**6,
                   b=data.draw(st.integers(0, 30)))
        # small cap: at cotenant utilization ~1 the climb to the cap is
        # one cost-term per period crossing
        cap = 10**5
        r = stage_response_time(me, cotenants, cap)
        if r is DIVERGED:
            return
        # substituting R back into the recurrence reproduces it exactly
        rhs = me.blocking + me.cost + sum(
            -(-r // z.inter_arrival) * z.cost for z in cotenants)
        assert rhs == r
        # adding demand never helps
        bigger = stage_response_time(
            stage("me", me.cost + 1, 10**6, b=me.blocking), cotenants, cap)
        assert bigger is DIVERGED or bigger >= r
        more_blocking = stage_response_time(me, cotenants, cap,
                                            blocking=me.blocking + 7)
        assert more_blocking is DIVERGED or more_blocking >= r
        extra = cotenants + [stage("extra", 5, 100)]
        with_extra = stage_response_time(me, extra, cap)
        assert with_extra is DIVERGED or with_extra >= r
        if cotenants:
            z0 = cotenants[0]
            faster = [stage(z0.id, z0.cost, max(1, z0.inter_arrival // 2))]
            faster += cotenants[1:]
            r_faster = stage_response_time(me, faster, cap)
            assert r_faster is DIVERGED or r_faster >= r


class TestEndToEnd:
    def test_leaf(self):
        assert end_to_end_response(Leaf("s"), {"s": 5 * MS}) == 5 * MS

    def test_seq_and_par(self):
        rts = {"a": 3 * MS, "b": 5 * MS}
        assert end_to_end_response(seq("a", "b"), rts) == 8 * MS
        assert end_to_end_response(par("a", "b"), rts) == 5 * MS

    def test_nested(self):
        rts = {"g": 1 * MS, "s1": 2 * MS, "s2": 3 * MS, "c": 4 * MS}
        expr = seq("g", par("s1", "s2"), "c")
        assert end_to_end_response(expr, rts) == 8 * MS

    def test_missing_stage(self):
        with pytest.raises(MissingStage):
            end_to_end_response(seq("a", "b"), {"a": 1})

    @given(st.data())
    @settings(max_examples=200)
    def test_composition_properties(self, data):
        names = [f"s{i}" for i in range(data.draw(st.integers(1, 6)))]
        rts = {n: data.draw(st.integers(0, 10**6)) for n in names}

        def build(avail):
            if len(avail) == 1:
                return Leaf(avail[0])
            k = data.draw(st.integers(1, len(avail) - 1))
            left, right = avail[:k], avail[k:]
            ctor = data.draw(st.sampled_from([seq, par]))
            return ctor(build(left), build(right))

        expr = build(names)
        value = end_to_end_response(expr, rts)
        assert value >= max(rts[n] for n in names)
        # a Seq/Par of one child is that child
        assert end_to_end_response(seq(expr), rts) == value
        assert end_to_end_response(par(expr), rts) == value


class TestSolveSystem:
    def priority_pair(self, gp: bool):
        system = builtin_system(ScenarioId.TABLE_VI)
        if gp:
            system = with_priorities(system, {"TC1": 1, "TC2": 1})
        else:
            system = with_priorities(system, assign_priorities_dm(system))
        allocation = {"TC1": "c0", "TC2": "c0"}
        return solve_system(system, allocation, homogeneous_cluster(1))

    def test_equal_priority_pair(self):
        report = self.priority_pair(gp=True)
        assert report.per_stage == {"TC1": 2 * HOUR, "TC2": 2 * HOUR}
        assert report.per_analytic["TC1"].feasible
        assert not report.per_analytic["TC2"].feasible
        assert not report.system_feasible

    def test_deadline_monotonic_pair(self):
        report = self.priority_pair(gp=False)
        assert report.per_stage == {"TC1": 2 * HOUR, "TC2": HOUR}
        assert report.system_feasible

    def test_microblog_end_to_end(self):
        system = builtin_system(ScenarioId.MICROBLOG_ONLINE, frequency_hz=1)
        system = with_priorities(system, {
            "microblog-gen": 3, "microblog-split": 2, "microblog-count": 1})
        allocation = {s.id: "c0" for s in system.stages()}
        report = solve_system(system, allocation, homogeneous_cluster(1))
        assert report.per_stage == {
            "microblog-gen": 127 * US,
            "microblog-split": 634 * US,
            "microblog-count": 1145 * US,
        }
        verdict = report.per_analytic["microblog"]
        assert verdict.end_to_end == 1906 * US
        assert verdict.feasible

    def test_platform_blocking_is_folded_in(self):
        system = System((single("s", 1 * MS, 10 * MS, prio=1),))
        cluster = homogeneous_cluster(1, platform_blocking=2 * MS)
        report = solve_system(system, {"s": "c0"}, cluster)
        assert report.per_stage["s"] == 3 * MS

    def test_missing_core_raises(self):
        system = System((single("s", 1, 10, prio=1),))
        with pytest.raises(InvalidAllocation):
            solve_system(system, {}, homogeneous_cluster(1))
        with pytest.raises(InvalidAllocation):
            solve_system(system, {"s": "nope"}, homogeneous_cluster(1))

    def test_missing_priority_raises(self):
        system = System((single("s", 1, 10),))
        with pytest.raises(ValueError):
            solve_system(system, {"s": "c0"}, homogeneous_cluster(1))

    def test_diverged_stage_sinks_the_analytic(self):
        a = single("a", 6 * MS, 10 * MS, prio=1)
        b = single("b", 6 * MS, 10 * MS, prio=2)
        report = solve_system(System((a, b)), {"a": "c0", "b": "c0"},
                              homogeneous_cluster(1))
        assert report.per_stage["a"] is DIVERGED
        assert report.per_analytic["a"].end_to_end is DIVERGED
        assert not report.per_analytic["a"].feasible
        assert not report.system_feasible


class TestUtilization:
    def test_empty_system(self):
        assert total_utilization(System(())).total == 0

    def test_microblog_4khz(self):
        system = builtin_system(ScenarioId.MICROBLOG_ONLINE, frequency_hz=4000)
        summary = total_utilization(system)
        assert summary.total == Fraction(1145, 250)
        assert summary.total == sum(summary.per_stage.values(), Fraction(0))

    def test_one_shot_contributes_zero(self):
        system = builtin_system(ScenarioId.TABLE_VI)
        assert total_utilization(system).total == 0


class TestMinCores:
    @pytest.mark.parametrize("u, umax, m", [
        (Fraction(0), 1, 1),
        (Fraction(229, 50), 1, 6),       # 4.58
        (Fraction(1, 2), 1, 2),          # strictness at the boundary
        (Fraction(1145, 10**9), 1, 1),
        (Fraction(698, 100), 1, 8),
    ])
    def test_examples(self, u, umax, m):
        assert min_cores(u, umax) == m

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            min_cores(Fraction(1), 0)
        with pytest.raises(ValueError):
            min_cores(-1, 1)

    @given(u=st.fractions(min_value=0, max_value=50),
           umax=st.fractions(min_value=Fraction(1, 100), max_value=1))
    @settings(max_examples=300)
    def test_defining_property(self, u, umax):
        m = min_cores(u, umax)
        assert m >= 1
        assert u < (m - Fraction(1, 2)) * umax
        if m > 1:
            assert not u < (m - 1 - Fraction(1, 2)) * umax
        # monotone in both arguments
        assert min_cores(u + 1, umax) >= m
        smaller = umax / 2
        assert min_cores(u, smaller) >= m


class TestUtilizationBound:
    def microblog_regime(self):
        # 4 kHz, T+B=D via retiming by hand: T=250us, D=T, priorities DM
        system = builtin_system(ScenarioId.MICROBLOG_ONLINE, frequency_hz=4000)
        retimed = System(tuple(
            Analytic(
                id=a.id,
                stages=tuple(
                    Stage(id=s.id, cost=s.cost, inter_arrival=s.inter_arrival,
                          deadline=s.inter_arrival, blocking=0)
                    for s in a.stages),
                topology=a.topology,
                end_to_end_deadline=a.end_to_end_deadline)
            for a in system.analytics))
        return with_priorities(retimed, assign_priorities_dm(retimed))

    def test_accepts_and_rejects_by_m(self):
        system = self.microblog_regime()
        assert check_utilization_bound(system, 6, 1) is True
        assert check_utilization_bound(system, 5, 1) is False

    def test_regime_violation_names_stage(self):
        system = System((single("s", 1 * MS, 10 * MS, d=9 * MS, prio=1),))
        with pytest.raises(PreconditionViolated) as exc:
            check_utilization_bound(system, 1, 1)
        assert exc.value.stage_id == "s"

    def test_non_dm_priorities_rejected(self):
        a = single("a", 1 * MS, 10 * MS, prio=1)   # shorter D, lower prio
        b = single("b", 1 * MS, 20 * MS, prio=2)
        with pytest.raises(PreconditionViolated):
            check_utilization_bound(System((a, b)), 1, 1)

    def test_unassigned_priorities_rejected(self):
        system = System((single("s", 1 * MS, 10 * MS),))
        with pytest.raises(PreconditionViolated):
            check_utilization_bound(system, 1, 1)
