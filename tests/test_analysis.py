import copy
import pickle
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
    AnalyticVerdict,
    Cluster,
    Core,
    InvalidAllocation,
    MissingStage,
    Par,
    ReleasePolicy,
    ResponseReport,
    Seq,
    SimConfig,
    Stage,
    System,
    assign_priorities_dm,
    decimation_sweep,
    end_to_end_response,
    homogeneous_cluster,
    min_cores,
    par,
    retime_system,
    seq,
    simulate,
    solve_system,
    total_utilization,
    validate_system,
    verify_conservative,
    with_priorities,
    worst_observed,
)
from tcsizer import analysis
from tcsizer.model import effective_blocking
from tcsizer.workloads import ScenarioId, builtin_system

from generators import SubStr, regime_problem_per_pass


def stage(sid, c, t, d=None, b=0, prio=None):
    return Stage(id=sid, cost=c, inter_arrival=t,
                 deadline=t if d is None else d, blocking=b, priority=prio)


def single(sid, c, t, d=None, b=0, prio=None):
    s = stage(sid, c, t, d, b, prio)
    return Analytic(id=sid, stages=(s,), topology=sid,
                    end_to_end_deadline=s.deadline)


def bound_below(me, cotenants, cap, platform_blocking=0):
    """``me``'s bound from solve_system on one core c0, below all of
    ``cotenants``: ``me`` at priority 1, each cotenant at priority 2, and
    each stage in an analytic of its own with end-to-end deadline
    ``cap``, which makes ``cap`` the solve's cap."""
    ranked = [me._replace(priority=1)]
    ranked += [z._replace(priority=2) for z in cotenants]
    system = System(tuple(
        Analytic(id=s.id, stages=(s,), topology=s.id,
                 end_to_end_deadline=cap)
        for s in ranked))
    cluster = Cluster((Core("c0", platform_blocking=platform_blocking),))
    report = solve_system(system, {s.id: "c0" for s in ranked}, cluster)
    return report.per_stage[me.id]


class TestStageResponseTime:
    def test_no_contention(self):
        assert bound_below(stage("s", 100 * US, SEC), [], SEC) == 100 * US

    def test_two_task_fixed_point(self):
        lp = stage("lp", 3 * MS, 15 * MS)
        hp = stage("hp", 2 * MS, 5 * MS)
        assert bound_below(lp, [hp], SEC) == 5 * MS

    def test_one_shot_cotenant_charged_once(self):
        me = stage("me", HOUR, INFINITE, 2 * HOUR)
        other = stage("other", HOUR, INFINITE, HOUR)
        assert bound_below(me, [other], 2 * HOUR) == 2 * HOUR

    def test_blocking_term(self):
        lp = stage("lp", 3 * MS, 15 * MS, b=1 * MS)
        hp = stage("hp", 2 * MS, 5 * MS)
        assert bound_below(lp, [hp], SEC) == 8 * MS

    def test_blocking_override(self):
        # the core's platform blocking overrides the stage's own 0
        lp = stage("lp", 3 * MS, 15 * MS)
        hp = stage("hp", 2 * MS, 5 * MS)
        assert bound_below(lp, [hp], SEC, platform_blocking=1 * MS) == 8 * MS

    def test_diverges_past_cap(self):
        lp = stage("lp", 6 * MS, 10 * MS)
        hp = stage("hp", 5 * MS, 5 * MS)  # saturates the core
        assert bound_below(lp, [hp], 100 * MS) is DIVERGED

    def test_full_core_leaves_no_fixed_point_above_zero(self):
        tick = stage("tick", 10 * US, 10 * US)  # U = 1
        batch = stage("batch", 10 * US, INFINITE, HOUR)
        assert bound_below(batch, [tick], 100 * MS) is DIVERGED
        # a zero-cost stage completes only when it is dispatched, and
        # the tick fills every instant, so idle never runs: the rule
        # makes it DIVERGED. A simulation makes no release at its
        # horizon, and only there does idle run
        idle = stage("idle", 0, INFINITE, HOUR)
        assert bound_below(idle, [tick], 100 * MS) is DIVERGED
        system = System((
            Analytic("tick", (tick._replace(priority=2),), "tick", HOUR),
            Analytic("idle", (idle._replace(priority=1),), "idle", HOUR)))
        trace = simulate(system, {"tick": "c0", "idle": "c0"},
                         homogeneous_cluster(1), SimConfig(horizon=MS))
        assert ("tick", 99) in trace.job_responses
        assert trace.job_responses[("idle", 0)] == MS

    def test_cap_boundary_is_inclusive(self):
        me = stage("me", HOUR, INFINITE, 2 * HOUR)
        other = stage("other", HOUR, INFINITE, HOUR)
        assert bound_below(me, [other], 2 * HOUR) == 2 * HOUR
        assert bound_below(me, [other], 2 * HOUR - 1) is DIVERGED

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
        r = bound_below(me, cotenants, cap)
        if r is DIVERGED:
            return
        # substituting R back into the recurrence reproduces it exactly
        rhs = me.blocking + me.cost + sum(
            -(-r // z.inter_arrival) * z.cost for z in cotenants)
        assert rhs == r
        # adding demand never helps
        bigger = bound_below(
            stage("me", me.cost + 1, 10**6, b=me.blocking), cotenants, cap)
        assert bigger is DIVERGED or bigger >= r
        more_blocking = bound_below(
            stage("me", me.cost, 10**6, b=me.blocking + 7), cotenants, cap)
        assert more_blocking is DIVERGED or more_blocking >= r
        extra = cotenants + [stage("extra", 5, 100)]
        with_extra = bound_below(me, extra, cap)
        assert with_extra is DIVERGED or with_extra >= r
        if cotenants:
            z0 = cotenants[0]
            faster = [stage(z0.id, z0.cost, max(1, z0.inter_arrival // 2))]
            faster += cotenants[1:]
            r_faster = bound_below(me, faster, cap)
            assert r_faster is DIVERGED or r_faster >= r


class TestEndToEnd:
    def test_leaf(self):
        assert end_to_end_response("s", {"s": 5 * MS}) == 5 * MS

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

    @pytest.mark.parametrize("node", [SubStr("a"), ("a",), None])
    def test_not_a_composition_node(self, node):
        # at the top and below a Seq: a leaf is a str itself, not an
        # instance of a subclass
        for expr in (node, Seq(("a", node))):
            with pytest.raises(TypeError) as exc:
                end_to_end_response(expr, {"a": 1})
            assert str(exc.value) == (
                f"not a composition expression: {node!r}")

    @pytest.mark.parametrize("node", [Seq("ab"), Par("ab")])
    def test_string_children_are_no_leaves(self, node):
        # "ab" as children would read as the leaves "a" and "b", 1 + 2
        for expr in (node, Seq(("a", node))):
            with pytest.raises(TypeError) as exc:
                end_to_end_response(expr, {"a": 1, "b": 2})
            assert str(exc.value) == (
                f"not a composition expression: {node!r}")

    def test_missing_stage_is_a_value_error_naming_the_stage(self):
        system = System((Analytic("x", (stage("a", MS, 10 * MS, prio=1),),
                                  seq("a", "ghost"), SEC),))
        with pytest.raises(ValueError) as exc:
            solve_system(system, {"a": "c0"}, homogeneous_cluster(1))
        assert type(exc.value) is MissingStage
        assert exc.value.stage_id == "ghost"
        assert str(exc.value) == "topology references unknown stage 'ghost'"

    @given(st.data())
    @settings(max_examples=200)
    def test_composition_properties(self, data):
        names = [f"s{i}" for i in range(data.draw(st.integers(1, 6)))]
        rts = {n: data.draw(st.integers(0, 10**6)) for n in names}

        def build(avail):
            if len(avail) == 1:
                return avail[0]
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


class TestLeafOutsideItsAnalytic:
    """A leaf naming a stage its own analytic does not declare raises
    MissingStage, naming the leaf, in every library entry point that
    reads leaves: whether no analytic declares it ("ghost") or another
    one does ("b")."""

    @staticmethod
    def system(leaf, b_cost=3 * MS):
        """Analytic A of stage a with topology a -> ``leaf``, and
        analytic B of stage b alone, b above a on one core."""
        a = stage("a", 1 * MS, 10 * MS, prio=1)
        b = stage("b", b_cost, 10 * MS, prio=2)
        return System((Analytic("A", (a,), seq("a", leaf), SEC),
                       Analytic("B", (b,), "b", SEC)))

    ENTRY_POINTS = {
        "solve_system": lambda system: solve_system(
            system, {"a": "c0", "b": "c0"}, homogeneous_cluster(1)),
        "simulate": lambda system: simulate(
            system, {"a": "c0", "b": "c0"}, homogeneous_cluster(1),
            SimConfig(horizon=SEC)),
        "retime_system": lambda system: retime_system(system, 1),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("leaf", ["ghost", "b"])
    def test_raises_missing_stage(self, entry, leaf):
        with pytest.raises(MissingStage) as exc:
            self.ENTRY_POINTS[entry](self.system(leaf))
        assert exc.value.stage_id == leaf
        assert str(exc.value) == (
            f"topology references unknown stage {leaf!r}")

    @pytest.mark.parametrize("leaf", ["ghost", "b"])
    def test_solve_system_with_a_diverged_stage(self, leaf):
        # b fills the core, so a diverges; the leaf is still refused
        with pytest.raises(MissingStage) as exc:
            self.ENTRY_POINTS["solve_system"](self.system(leaf, 10 * MS))
        assert exc.value.stage_id == leaf

    def test_the_leaf_is_declared_elsewhere(self):
        system = self.system("b")
        assert [f for _, f in validate_system(system).findings] == [
            "topology references unknown stage 'b'"]
        assert {s.id for s in system.stages()} == {"a", "b"}

    @pytest.mark.parametrize("topology", [seq("a", "ghost"),
                                          seq("ghost", "a")])
    def test_decimation_sweep(self, topology):
        # decimation_sweep reads one analytic only, so no leaf of it can
        # be another's; the undeclared leaf is the sink, then a source
        a = stage("a", 1 * MS, 10 * MS)
        system = System((Analytic("A", (a,), topology, SEC),))
        with pytest.raises(MissingStage) as exc:
            decimation_sweep(system, 100, [1, 2], 1)
        assert exc.value.stage_id == "ghost"


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
        cluster = Cluster((Core("c0", platform_blocking=2 * MS),))
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

    def test_equal_priority_group_drops_only_its_own_cost(self):
        # hp shares the group's period; a and b tie, b is one-shot
        hp = single("hp", 2 * MS, 10 * MS, d=100 * MS, prio=3)
        a = single("a", 3 * MS, 10 * MS, d=100 * MS, b=1 * MS, prio=1)
        b = single("b", 4 * MS, INFINITE, d=100 * MS, prio=1)
        system = System((hp, a, b))
        report = solve_system(system, {"hp": "c0", "a": "c0", "b": "c0"},
                              homogeneous_cluster(1))
        # a: 1 + 3 + 4 (b, once) + ceil(R/10)*2 (hp); b: 4 + ceil(R/10)*5
        assert list(report.per_stage.items()) == [
            ("hp", 2 * MS), ("a", 10 * MS), ("b", 9 * MS)]

    def test_same_period_on_two_cores_does_not_interfere(self):
        hp = single("hp", 2 * MS, 10 * MS, prio=2)
        lp = single("lp", 3 * MS, 10 * MS, prio=1)
        x = single("x", 5 * MS, 10 * MS, prio=3)
        y = single("y", 1 * MS, 10 * MS, prio=1)
        allocation = {"hp": "c0", "lp": "c0", "x": "c1", "y": "c1"}
        report = solve_system(System((hp, lp, x, y)), allocation,
                              homogeneous_cluster(2))
        assert report.per_stage == {
            "hp": 2 * MS, "lp": 5 * MS, "x": 5 * MS, "y": 6 * MS}

    def test_full_core_diverges_without_crawling_to_the_cap(self):
        tick = single("tick", 10 * US, 10 * US, prio=2)  # U = 1
        batch = single("batch", 10 * US, INFINITE, d=2 * HOUR, prio=1)
        report = solve_system(System((tick, batch)),
                              {"tick": "c0", "batch": "c0"},
                              homogeneous_cluster(1))
        assert report.per_stage == {"tick": 10 * US, "batch": DIVERGED}
        assert report.per_analytic["batch"].end_to_end is DIVERGED

    def solve_on_one_core(self, *analytics):
        system = System(analytics)
        allocation = {s.id: "c0" for s in system.stages()}
        return solve_system(system, allocation, homogeneous_cluster(1))

    def test_zero_base_stage_is_not_seeded(self):
        # idle's base B + C is 0, but a zero-cost job still waits for
        # the hp job released with it: the closed window starts at
        # top = 0 + 10, and 10 + floor(10 / 40) * 10 = 10. A simulation
        # from the critical instant observes exactly 10
        hp = single("hp", 10, 40, prio=2)
        idle = single("idle", 0, 40, prio=1)
        report = self.solve_on_one_core(hp, idle)
        assert report.per_stage == {"hp": 10, "idle": 10}
        system = System((hp, idle))
        trace = simulate(system, {"hp": "c0", "idle": "c0"},
                         homogeneous_cluster(1), SimConfig(horizon=400))
        assert worst_observed(trace).per_stage == {"hp": 10, "idle": 10}

    def test_less_blocking_than_the_level_above_is_not_seeded(self):
        # a: 5 + 1 + 5*ceil(R/10) = 16 (start 6 + 5). j: 1 + 5*ceil(R/10)
        # + ceil(R/1000) has fixed points 7 and 12; the start 1 + 5 + 1
        # is the lesser one
        hp = single("hp", 5, 10, prio=3)
        a = single("a", 1, 1000, b=5, prio=2)
        j = single("j", 1, 1000, prio=1)
        report = self.solve_on_one_core(hp, a, j)
        assert report.per_stage == {"hp": 5, "a": 16, "j": 7}

    @pytest.mark.parametrize("a_cost, a_blocking, j_response", [
        # a's base 201 is past the cap of 100; j still converges, at
        # 1 + 5*ceil(R/10) + ceil(R/1000) = 7
        (1, 200, 7),
        # a's base 200 is past the cap too, and j carries a's cost, so
        # j's start 1 + 5 + 200 is past it as well
        (200, 0, DIVERGED),
    ])
    def test_a_diverged_level_gives_no_seed(self, a_cost, a_blocking,
                                            j_response):
        hp = single("hp", 5, 10, d=100, prio=3)
        a = single("a", a_cost, 1000, d=100, b=a_blocking, prio=2)
        j = single("j", 1, 1000, d=100, prio=1)
        report = self.solve_on_one_core(hp, a, j)
        assert report.per_stage == {"hp": 5, "a": DIVERGED, "j": j_response}

    def test_one_shot_stages_above_and_below(self):
        # a: 3 + 2*ceil(R/10) = 5 (start 3 + 2); j: 1 + 1 + 3
        # + 2*ceil(R/10) = 7 (start 5 + 2); k: 3 + 4 + 2*ceil(R/10)
        # + ceil(R/100) = 10 (start 7 + 2 + 1)
        hp = single("hp", 2, 10, d=100, prio=4)
        a = single("a", 3, INFINITE, d=100, prio=3)
        j = single("j", 1, 100, b=1, prio=2)
        k = single("k", 4, INFINITE, d=100, prio=1)
        report = self.solve_on_one_core(hp, a, j, k)
        assert report.per_stage == {"hp": 2, "a": 5, "j": 7, "k": 10}

    @pytest.mark.parametrize("reverse", [False, True])
    def test_tied_levels_seed_the_level_below(self, reverse):
        # x: 2 + 3*ceil(R/20) = 5; y: 4 + 3 + 2*ceil(R/10) = 9; z: 1
        # + 2*ceil(R/10) + 3*ceil(R/20) + 2*ceil(R/100) = 8; w (start
        # 5 + 6 = 11): 3 + 2 + 2*ceil(R/10) + 3*ceil(R/20) + ceil(R/100)
        # = 13, in either declaration order
        analytics = [single("x", 2, 10, prio=2),
                     single("y", 3, 20, b=4, prio=2),
                     single("z", 1, 100, prio=1),
                     single("w", 2, 100, b=3, prio=1)]
        if reverse:
            analytics.reverse()
        report = self.solve_on_one_core(*analytics)
        assert report.per_stage == {"x": 5, "y": 9, "z": 8, "w": 13}

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_per_interferer_solve(self, data):
        system, allocation, cluster = data.draw(placed_systems())
        report = solve_system(system, allocation, cluster)
        per_stage, per_analytic, feasible = reference_solve(
            system, allocation, cluster)
        assert list(report.per_stage.items()) == list(per_stage.items())
        assert report.per_analytic == per_analytic
        assert report.system_feasible == feasible

    def test_diverged_stage_sinks_the_analytic(self):
        a = single("a", 6 * MS, 10 * MS, prio=1)
        b = single("b", 6 * MS, 10 * MS, prio=2)
        report = solve_system(System((a, b)), {"a": "c0", "b": "c0"},
                              homogeneous_cluster(1))
        assert report.per_stage["a"] is DIVERGED
        assert report.per_analytic["a"].end_to_end is DIVERGED
        assert not report.per_analytic["a"].feasible
        assert not report.system_feasible


class TestOverloadedLevels:
    """A level whose utilization exceeds 1, the stage's own included, has
    no finite busy period: its stage is DIVERGED whatever the cap."""

    @staticmethod
    def solve_on_c0(*analytics):
        system = System(analytics)
        allocation = {s.id: "c0" for s in system.stages()}
        cluster = homogeneous_cluster(1)
        return system, allocation, cluster, solve_system(
            system, allocation, cluster)

    @pytest.mark.parametrize("cap", [20 * MS, HOUR])
    def test_two_stages_of_60_percent(self, cap):
        # b's recurrence 6 + 6 * ceil(R / 10) meets 18 ms, but b's own
        # jobs pile up behind a's without end
        _, _, _, report = self.solve_on_c0(
            single("a", 6 * MS, 10 * MS, d=cap, prio=2),
            single("b", 6 * MS, 10 * MS, d=cap, prio=1))
        assert report.per_stage == {"a": 6 * MS, "b": DIVERGED}
        assert report.per_analytic == {
            "a": AnalyticVerdict(6 * MS, True),
            "b": AnalyticVerdict(DIVERGED, False)}

    def test_a_lone_stage_longer_than_its_period(self):
        _, _, _, report = self.solve_on_c0(single("s0", 11, 10, d=HOUR,
                                                  prio=1))
        assert report.per_stage == {"s0": DIVERGED}

    @pytest.mark.parametrize("me", [
        single("me", 0, 20 * US, d=HOUR, prio=1),
        single("me", 10 * US, INFINITE, d=HOUR, prio=1),
        single("me", 0, INFINITE, d=HOUR, prio=1),
    ], ids=["zero-cost", "one-shot", "zero-cost-one-shot"])
    def test_a_full_level_leaves_a_weightless_stage_no_time(
            self, me, monkeypatch):
        # me weighs 0 below a tick of U = 1, so it never runs. Levels are
        # solved highest first, so the fixed point may answer only for
        # tick; me must be DIVERGED by the rule alone
        solved = []

        def tick_only(*args):
            solved.append(args)
            assert len(solved) == 1, "me was left to the fixed point"
            return fixed_point(*args)

        fixed_point = analysis._fixed_point
        monkeypatch.setattr(analysis, "_fixed_point", tick_only)
        _, _, _, report = self.solve_on_c0(
            single("tick", 10 * US, 10 * US, d=HOUR, prio=2), me)
        assert report.per_stage == {"tick": 10 * US, "me": DIVERGED}

    @pytest.mark.parametrize("release", list(ReleasePolicy))
    def test_a_full_core_keeps_its_bound(self, release):
        # U = 1 exactly is no overload: b waits one job of a
        system, allocation, cluster, report = self.solve_on_c0(
            single("a", 5 * MS, 10 * MS, prio=2),
            single("b", 5 * MS, 10 * MS, prio=1))
        assert report.per_stage == {"a": 5 * MS, "b": 10 * MS}
        assert report.system_feasible
        trace = simulate(system, allocation, cluster,
                         SimConfig(horizon=SEC, release_policy=release))
        assert verify_conservative(report, worst_observed(trace)) == []


# what is wrong with a stage, and the error it raises when it is the first
# bad stage: (class, message with the stage id in place of {})
BAD_STAGES = {
    "no priority": (ValueError, "stage {!r} has no priority"),
    "no core": (InvalidAllocation, "stage {!r} has no core"),
    "unknown core": (InvalidAllocation,
                     "stage {!r} mapped to unknown core 'nope'"),
    # the priority is checked first
    "no priority, no core": (ValueError, "stage {!r} has no priority"),
}


class TestBadStages:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_bad_stages_raise_as_effective_blocking(self, data):
        # two or more bad stages among good ones, in any order, spread
        # over one to three analytics
        bad = data.draw(st.lists(st.sampled_from(sorted(BAD_STAGES)),
                                 min_size=2, max_size=5))
        kinds = data.draw(st.permutations(
            bad + ["good"] * data.draw(st.integers(0, 4))))
        stages, allocation = [], {}
        for i, kind in enumerate(kinds):
            sid = f"s{i}"
            stages.append(stage(sid, 1, 10, prio=(
                None if kind.startswith("no priority") else i + 1)))
            if kind == "unknown core":
                allocation[sid] = "nope"
            elif not kind.endswith("no core"):
                allocation[sid] = "c0"
        cuts = sorted(data.draw(st.sets(st.integers(1, len(stages) - 1),
                                        max_size=2)))
        parts = [stages[i:j] for i, j in zip([0, *cuts], [*cuts, None])]
        system = System(tuple(
            Analytic(f"a{k}", tuple(part), seq(*(s.id for s in part)), 100)
            for k, part in enumerate(parts)))
        cluster = homogeneous_cluster(1)
        first = next(i for i, kind in enumerate(kinds) if kind != "good")
        cls, message = BAD_STAGES[kinds[first]]
        message = message.format(f"s{first}")
        calls = [
            lambda: effective_blocking(system, allocation, cluster),
            lambda: solve_system(system, allocation, cluster),
            lambda: simulate(system, allocation, cluster,
                             SimConfig(horizon=100)),
        ]
        for call in calls:
            with pytest.raises(ValueError) as raised:
                call()
            assert type(raised.value) is cls
            assert str(raised.value) == message


def reference_response_time(stage, interferers, cap, blocking):
    """The recurrence charged one term per interferer per round, or
    DIVERGED when the stage and its interferers together need more than
    the core, or all of it while the stage needs none of it: no busy
    period at that level ends, or the stage never runs. A positive cost
    charges each periodic interferer ceil(R / T) jobs; a zero cost
    closes the window and charges floor(R / T) + 1."""
    level = stage.utilization() + sum(z.utilization() for z in interferers)
    if level > 1 or level == 1 and stage.utilization() == 0:
        return DIVERGED
    base = blocking + stage.cost
    r = base
    while True:
        if r > cap:
            return DIVERGED
        nxt = base
        for z in interferers:
            if z.inter_arrival is INFINITE:
                nxt += z.cost
            elif stage.cost:
                nxt += -(-r // z.inter_arrival) * z.cost
            else:
                nxt += (r // z.inter_arrival + 1) * z.cost
        if nxt == r:
            return r
        r = nxt


def reference_solve(system, allocation, cluster):
    """solve_system in its direct form: every stage filters its own
    interferers out of its core's stages."""
    blocking = effective_blocking(system, allocation, cluster)
    stages = list(system.stages())
    cap = max((a.end_to_end_deadline for a in system.analytics), default=0)
    by_core = {}
    for s in stages:
        by_core.setdefault(allocation[s.id], []).append(s)
    per_stage = {}
    for s in stages:
        interferers = [z for z in by_core[allocation[s.id]]
                       if z.id != s.id and z.priority >= s.priority]
        per_stage[s.id] = reference_response_time(
            s, interferers, cap, blocking[s.id])
    per_analytic = {}
    for a in system.analytics:
        if any(per_stage[s.id] is DIVERGED for s in a.stages):
            per_analytic[a.id] = AnalyticVerdict(DIVERGED, False)
        else:
            e2e = end_to_end_response(a.topology, per_stage)
            per_analytic[a.id] = AnalyticVerdict(
                e2e, e2e <= a.end_to_end_deadline)
    feasible = all(v.feasible for v in per_analytic.values())
    return per_stage, per_analytic, feasible


@st.composite
def placed_systems(draw):
    """1-3 cores and 1-16 stages at priorities 1-8 (tied ones too), with
    repeated periods, one-shot and zero-cost stages, stage blocking up to
    30 and platform blocking, and caps low enough to diverge (or high
    enough to meet a full core). Zero-base stages below busy levels and
    one-job starts past the cap reach both edges of the solve's start."""
    n_cores = draw(st.integers(1, 3))
    cluster = Cluster(tuple(
        Core(f"c{j}", platform_blocking=draw(st.integers(0, 4)))
        for j in range(n_cores)))
    stages = [
        stage(f"s{i}", draw(st.integers(0, 12)),
              draw(st.sampled_from([10, 20, 30, INFINITE])), d=1000,
              b=draw(st.integers(0, 6) | st.integers(0, 30)),
              prio=draw(st.integers(1, 8)))
        for i in range(draw(st.integers(1, 16)))]
    analytics = []
    while stages:
        k = draw(st.integers(1, len(stages)))
        part, stages = stages[:k], stages[k:]
        ctor = draw(st.sampled_from([seq, par]))
        analytics.append(Analytic(
            id=f"a{len(analytics)}", stages=tuple(part),
            topology=ctor(*(s.id for s in part)),
            end_to_end_deadline=draw(st.one_of(
                st.integers(0, 120), st.just(10**6)))))
    system = System(tuple(analytics))
    allocation = {s.id: f"c{draw(st.integers(0, n_cores - 1))}"
                  for s in system.stages()}
    return system, allocation, cluster


class TestUtilization:
    def test_empty_system(self):
        assert total_utilization(System(())).total == 0

    def test_microblog_4khz(self):
        system = builtin_system(ScenarioId.MICROBLOG_ONLINE, frequency_hz=4000)
        summary = total_utilization(system)
        assert summary.total == Fraction(1145, 250)
        assert summary.total == sum(
            (s.utilization() for s in system.stages()), Fraction(0))

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
        assert regime_problem_per_pass(system) is None
        assert min_cores(total_utilization(system).total, 1) == 6

    @pytest.mark.parametrize("u_max", [0, Fraction(-1, 2), Fraction(3, 2)])
    def test_u_max_outside_the_unit_interval_refused(self, u_max):
        system = System((single("s", 1 * MS, 10 * MS, prio=1),))
        with pytest.raises(ValueError, match=r"^u_max must be in \(0, 1\]$"):
            min_cores(total_utilization(system).total, u_max)

    @given(m=st.integers(1, 12),
           u_max=st.fractions(Fraction(1, 100), 1, max_denominator=100))
    @settings(max_examples=200)
    def test_matches_the_strict_inequality(self, m, u_max):
        total = total_utilization(self.microblog_regime()).total
        assert (m >= min_cores(total, u_max)) == (
            total < (m - Fraction(1, 2)) * u_max)


class TestSentinels:
    """INFINITE and DIVERGED keep their identity through copies and
    pickles, so ``is`` tests on a copied record still hold."""

    CLONES = [copy.copy, copy.deepcopy,
              lambda value: pickle.loads(pickle.dumps(value))]

    @pytest.mark.parametrize("clone", CLONES, ids=["copy", "deepcopy",
                                                   "pickle"])
    def test_one_shot_stage_stays_one_shot(self, clone):
        stage = clone(Stage("batch", HOUR, INFINITE, 2 * HOUR))
        assert stage.inter_arrival is INFINITE
        assert stage.utilization() == 0

    @pytest.mark.parametrize("clone", CLONES, ids=["copy", "deepcopy",
                                                   "pickle"])
    def test_diverged_report_stays_diverged(self, clone):
        report = clone(ResponseReport({"s": DIVERGED},
                                      {"a": AnalyticVerdict(DIVERGED, False)},
                                      False))
        assert report.per_stage["s"] is DIVERGED
        assert report.per_analytic["a"].end_to_end is DIVERGED

    def test_repr_str_and_hash(self):
        assert [repr(INFINITE), str(DIVERGED)] == ["INFINITE", "DIVERGED"]
        # the solve keys dicts on INFINITE: an identity hash, not Enum's
        assert hash(INFINITE) == object.__hash__(INFINITE)
