import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcsizer import (
    INFINITE,
    MS,
    SEC,
    US,
    AllocationFailed,
    Analytic,
    Cluster,
    Core,
    Leaf,
    Par,
    ReplicationExceeded,
    RoundRobin,
    Seq,
    Stage,
    System,
    ValidationReport,
    allocate_first_fit,
    assign_priorities_dm,
    end_to_end_response,
    homogeneous_cluster,
    par,
    retime_system,
    seq,
    validate_system,
    with_allocation,
    with_priorities,
)
from tcsizer.model import item_flow, period_scales
from tcsizer.sim import SimConfig, simulate
from tcsizer.workloads import ScenarioId, builtin_system

from generators import (
    COPRIME_PERIODS,
    SubStr,
    accepted_stream,
    pipelined_system,
)


def stage(sid, c, t, d, **kw):
    return Stage(id=sid, cost=c, inter_arrival=t, deadline=d, **kw)


def single(sid, c, t, d=None, **kw):
    d = t if d is None else d
    s = stage(sid, c, t, d, **kw)
    return Analytic(id=sid, stages=(s,), topology=sid,
                    end_to_end_deadline=d)


MIXED = "one-shot and periodic stages in one analytic"


class TestValidation:
    def test_builtin_microblog_ok(self):
        system = builtin_system(ScenarioId.MICROBLOG_ONLINE, frequency_hz=1)
        report = validate_system(system)
        assert report.ok
        assert report.findings == []

    def test_cost_exceeding_deadline_is_rejected(self):
        system = System((single("s", 2 * SEC, 10 * SEC, 1 * SEC),))
        report = validate_system(system)
        assert not report.ok
        assert any("cost exceeds deadline" in msg
                   for _, msg in report.findings)

    def test_stage_covered_twice(self):
        s = stage("S", 1 * MS, 10 * MS, 10 * MS)
        analytic = Analytic(id="a", stages=(s,),
                            topology=Seq_of("S", "S"),
                            end_to_end_deadline=20 * MS)
        report = validate_system(System((analytic,)))
        assert any("covered twice" in msg for _, msg in report.findings)

    def test_uncovered_and_unknown_stages(self):
        s1 = stage("x", 1, 10, 10)
        s2 = stage("y", 1, 10, 10)
        analytic = Analytic(id="a", stages=(s1, s2), topology="x",
                            end_to_end_deadline=10)
        findings = validate_system(System((analytic,))).findings
        assert any("not covered" in msg for _, msg in findings)
        analytic2 = Analytic(id="b", stages=(s1,), topology="zz",
                             end_to_end_deadline=10)
        findings2 = validate_system(System((analytic2,))).findings
        assert any("unknown stage" in msg for _, msg in findings2)

    def test_duplicate_ids_and_bad_values(self):
        sys_dup = System((single("s", 1, 10), single("s", 1, 10)))
        findings = validate_system(sys_dup).findings
        assert any("duplicate analytic id" in m for _, m in findings)
        assert any("duplicate stage id" in m for _, m in findings)

        bad = System((single("n", 1, 10, blocking=-1),))
        assert any("negative blocking" in m
                   for _, m in validate_system(bad).findings)

    @pytest.mark.parametrize("sid", ["a,b", 'a"b', "a\rb", "a\nb"])
    def test_stage_ids_must_fit_a_trace_field(self, sid):
        system = System((single("ok", 1, 10), single(sid, 1, 10)))
        assert validate_system(system).findings == [(
            "/analytics/1/stages/0/id",
            f"stage id {sid!r} holds a comma, quote or line break")]

    def test_finding_paths_point_at_fields(self):
        system = System((single("s", 2 * SEC, 10 * SEC, 1 * SEC),))
        (path, _msg), = validate_system(system).findings
        assert path == "/analytics/0/stages/0/cost"

    def test_deadline_beyond_period_is_not_a_validation_error(self):
        # only the utilization-bound path refuses D > T + B
        system = System((single("s", 1 * MS, 10 * MS, 50 * MS),))
        assert validate_system(system).ok

    def test_infinite_outside_inter_arrival_is_reported_not_raised(self):
        s = Stage(id="s", cost=INFINITE, inter_arrival=10, deadline=10)
        analytic = Analytic(id="a", stages=(s,), topology="s",
                            end_to_end_deadline=10)
        report = validate_system(System((analytic,)))
        assert [(p, m) for p, m in report.findings] == [
            ("/analytics/0/stages/0/cost", "cost must be integer nanoseconds")]

    def test_round_robin_replicas_share_one_finite_inter_arrival(self):
        def rr_system(*periods):
            stages = tuple(stage(f"r#{i}", 1, t, 10)
                           for i, t in enumerate(periods, 1))
            topo = RoundRobin(tuple(s.id for s in stages))
            return System((Analytic("a", stages, topo, 10),))

        assert validate_system(rr_system(10, 10, 10)).ok
        for periods in ((10, 20), (INFINITE, INFINITE), (10, INFINITE)):
            findings = validate_system(rr_system(*periods)).findings
            ids = ", ".join(f"r#{i}" for i in range(1, len(periods) + 1))
            mixed = ([("/analytics/0/stages", MIXED)]
                     if periods == (10, INFINITE) else [])
            assert findings == [*mixed, (
                "/analytics/0/topology",
                f"round-robin replicas {ids} do not share one finite "
                f"inter-arrival")]

    def test_one_shot_and_periodic_stages_in_one_analytic(self):
        once = stage("once", 1, INFINITE, 10)
        tick = stage("tick", 1, 10, 10)
        out = stage("out", 1, 10, 10)
        for stages, topo in (((once, tick, out), seq(par("once", "tick"),
                                                      "out")),
                             ((tick, once), seq("tick", "once")),
                             ((once, tick), seq("once", "tick"))):
            system = System((single("ok", 1, 10),
                             Analytic("a", stages, topo, 10)))
            assert validate_system(system).findings == [
                ("/analytics/1/stages", MIXED)]
        # analytics of either kind may share a system
        system = System((single("batch", 1, INFINITE, 10),
                         single("hot", 1, 10)))
        assert validate_system(system).ok

    def test_round_robin_children_must_be_leaves(self):
        stages = (stage("a", 1, 10, 10), stage("b", 1, 10, 10))
        topo = RoundRobin(("a", seq("b")))
        assert validate_system(System((Analytic("x", stages, topo, 10),))).ok
        topo = RoundRobin(("a", par("b", "b")))
        findings = validate_system(System((Analytic("x", stages, topo, 10),)))
        assert ("/analytics/0/topology",
                "round-robin children must be stage ids") in findings.findings
        empty = Analytic("x", (), RoundRobin(()), 10)
        assert validate_system(System((empty,))).findings == [
            ("/analytics/0/topology", "empty composition node")]

    def test_idempotent(self):
        system = builtin_system(ScenarioId.TABLE_VI)
        assert validate_system(system).ok
        assert validate_system(system).ok

    @pytest.mark.parametrize("bad", [5, ["s"], None])
    def test_a_stage_id_that_is_not_a_string_is_a_finding(self, bad):
        # no duplicate, trace-field or coverage finding for the bad id:
        # it is not declared, so the leaf "s" is unknown
        stages = (stage(bad, 1, 10, 10), stage(bad, 1, 10, 10))
        system = System((Analytic("a", stages, "s", 10),))
        assert validate_system(system).findings == [
            ("/analytics/0/stages/0/id", "stage id must be a string"),
            ("/analytics/0/stages/1/id", "stage id must be a string"),
            ("/analytics/0/topology", "topology references unknown stage 's'")]

    @pytest.mark.parametrize("bad", [5, ["a"], None])
    def test_an_analytic_id_that_is_not_a_string_is_a_finding(self, bad):
        system = System((single("s", 1, 10)._replace(id=bad),
                         single("t", 1, 10)._replace(id=bad)))
        assert validate_system(system).findings == [
            ("/analytics/0/id", "analytic id must be a string"),
            ("/analytics/1/id", "analytic id must be a string")]

    @pytest.mark.parametrize("bad", [None, INFINITE, "10", Fraction(1, 2)])
    def test_an_end_to_end_deadline_that_is_not_an_int_is_a_finding(self,
                                                                    bad):
        system = System((single("s", 1, 10)._replace(end_to_end_deadline=bad),))
        assert validate_system(system).findings == [
            ("/analytics/0/end_to_end_deadline",
             "end-to-end deadline must be integer nanoseconds")]

    def test_an_unhashable_inter_arrival_is_a_finding(self):
        stages = (stage("r#1", 1, [10], 10), stage("r#2", 1, [10], 10))
        topo = RoundRobin(("r#1", "r#2"))
        system = System((Analytic("a", stages, topo, 10),))
        assert validate_system(system).findings == [
            (f"/analytics/0/stages/{si}/inter_arrival",
             "inter-arrival must be integer ns or INFINITE")
            for si in (0, 1)] + [
            ("/analytics/0/topology", "round-robin replicas r#1, r#2 do "
             "not share one finite inter-arrival")]

    @pytest.mark.parametrize("bad", [5, ["s"], None, SubStr("s")])
    def test_a_leaf_that_is_not_a_str_is_malformed(self, bad):
        # a value of another type, or of a str subclass, in a leaf's
        # place is a non-node
        stages = (stage("s", 1, 10, 10),)
        for topo in (bad, seq("s", bad), RoundRobin(("s", bad))):
            system = System((Analytic("a", stages, topo, 10),))
            assert validate_system(system).findings == [
                ("/analytics/0/topology", "malformed composition expression")]

    def test_topology_findings_keep_their_order(self):
        # every topology message at once: the empty node first, then
        # the leaves left to right, the uncovered ids sorted, and the
        # round-robin nodes left to right, wherever each node stands
        stages = (stage("a", 1, 10, 10), stage("b", 1, 10, 10),
                  stage("r1", 1, 10, 10), stage("r2", 1, 20, 20),
                  stage("v", 1, 10, 10), stage("u", 1, 10, 10))
        topo = Seq((
            RoundRobin(("r1", "r2")),
            "a",
            "zz",
            RoundRobin((Seq(("b",)),)),
            Par(()),
            "a",
            "yy",
        ))
        system = System((Analytic("x", stages, topo, 100),))
        expected = [("/analytics/0/topology", message) for message in (
            "empty composition node",
            "topology references unknown stage 'zz'",
            "stage 'a' covered twice",
            "topology references unknown stage 'yy'",
            "stage 'u' not covered",
            "stage 'v' not covered",
            "round-robin replicas r1, r2 do not share one finite "
            "inter-arrival",
            "round-robin children must be stage ids",
        )]
        assert validate_system(system).findings == expected
        assert validate_system_reference(system).findings == expected

    def test_a_node_subclass_is_not_a_node(self):
        class Chain(Seq):
            __slots__ = ()

        node = Chain(("a",))
        stages = (stage("a", 1, 10, 10),)
        for topo in (node, Par(("b", node))):
            system = System((Analytic("x", stages, topo, 10),))
            expected = [
                ("/analytics/0/topology", "malformed composition expression")]
            assert validate_system(system).findings == expected
            assert validate_system_reference(system).findings == expected
            # the simulator reads the topology through item_flow
            for walk in (lambda: end_to_end_response(topo, {"a": 1, "b": 1}),
                         lambda: item_flow(topo)):
                with pytest.raises(TypeError) as exc:
                    walk()
                assert str(exc.value) == (
                    f"not a composition expression: {node!r}")

    def test_children_that_are_no_sequence_are_only_malformed(self):
        # the walk cannot reverse such children: whatever it found
        # before (an unknown leaf, an empty node) gives way to the one
        # finding
        stages = (stage("a", 1, 10, 10),)
        for bad in (Seq(5), Par(None), RoundRobin(3)):
            for topo in (bad, Seq(("zz", Par(()), bad))):
                system = System((Analytic("x", stages, topo, 10),))
                assert validate_system(system).findings == [
                    ("/analytics/0/topology",
                     "malformed composition expression")]

    def test_children_that_are_a_string_are_only_malformed(self):
        # a string of children would read as one-character leaves, so
        # Seq("ab") is not Seq(("a", "b"))
        stages = (stage("a", 1, 10, 10), stage("b", 1, 10, 10))
        for bad in (Seq("ab"), Par("ab"), RoundRobin("ab"), Seq(SubStr("ab"))):
            for topo in (bad, Seq(("zz", bad))):
                system = System((Analytic("x", stages, topo, 10),))
                expected = [("/analytics/0/topology",
                             "malformed composition expression")]
                assert validate_system(system).findings == expected
                assert validate_system_reference(system).findings == expected

    def test_a_deeply_nested_non_node_is_only_malformed(self):
        stages = (stage("a", 1, 10, 10),)
        for bad in (SubStr("a"), 5, None):
            topo = Seq(("zz", Par((Seq(("a", bad)),)), Par(())))
            system = System((Analytic("x", stages, topo, 10),))
            assert validate_system(system).findings == [
                ("/analytics/0/topology", "malformed composition expression")]


def Seq_of(*ids):
    return seq(*ids)


class TestPriorities:
    def test_deadline_pair(self):
        system = builtin_system(ScenarioId.TABLE_VI)
        prios = assign_priorities_dm(system)
        assert prios["TC2"] > prios["TC1"]  # 1h deadline above 2h

    def test_single_stage(self):
        system = System((single("only", 1, 10),))
        assert assign_priorities_dm(system) == {"only": 1}

    def test_tie_break_by_id(self):
        system = System((
            single("a", 1, 5 * MS), single("b", 1, 5 * MS),
            single("c", 1, 9 * MS)))
        prios = assign_priorities_dm(system)
        assert prios["a"] > prios["b"] > prios["c"]

    def test_order_independence(self):
        parts = [single("a", 1, 5 * MS), single("b", 1, 5 * MS),
                 single("c", 1, 9 * MS)]
        base = assign_priorities_dm(System(tuple(parts)))
        for perm in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
            shuffled = System(tuple(parts[i] for i in perm))
            assert assign_priorities_dm(shuffled) == base

    def test_total_strict_order(self):
        rng = random.Random(5)
        analytics = tuple(
            single(f"s{i}", 1, rng.choice([5, 7, 7, 9]) * MS)
            for i in range(8))
        prios = assign_priorities_dm(System(analytics))
        assert sorted(prios.values()) == list(range(1, 9))


def retimed(s):
    """The stages retime_system makes of ``s`` at the input rate 1/T of
    its own inter-arrival T."""
    template = System((single(s.id, s.cost, s.inter_arrival, s.deadline),))
    (analytic,) = retime_system(template,
                                Fraction(SEC, s.inter_arrival)).analytics
    return list(analytic.stages)


class TestReplication:
    def test_under_rate_unchanged(self):
        s = stage("s", 100 * US, 1 * SEC, 1 * SEC)
        assert retimed(s) == [s]

    def test_counter_at_4khz(self):
        s = stage("cnt", 507 * US, 250 * US, 1 * SEC)
        replicas = retimed(s)
        assert len(replicas) == 3
        assert all(r.inter_arrival == 750 * US for r in replicas)
        assert all(r.cost <= r.inter_arrival for r in replicas)
        assert {r.id for r in replicas} == {"cnt#1", "cnt#2", "cnt#3"}

    def test_boundary_cost_equals_new_period(self):
        s = stage("cnt", 5 * MS, 25 * US, 1 * SEC)
        replicas = retimed(s)
        assert len(replicas) == 200
        assert replicas[0].inter_arrival == 5 * MS  # cost == T'

    def test_limit(self):
        assert len(retimed(stage("cnt", 4096 * US, 1 * US, 1 * SEC))) == 4096
        with pytest.raises(ReplicationExceeded) as exc:
            retimed(stage("cnt", 4097 * US, 1 * US, 1 * SEC))
        assert exc.value.stage_id == "cnt"
        assert exc.value.needed == 4097

    @given(cost=st.integers(1, 5_000), period=st.integers(100, 10**6))
    @settings(max_examples=200)
    def test_utilization_preserved_exactly(self, cost, period):
        s = stage("s", cost, period, 10**9)
        replicas = retimed(s)
        total = sum((r.utilization() for r in replicas), Fraction(0))
        assert total == s.utilization()
        assert all(r.cost <= r.inter_arrival for r in replicas)


class TestAllocation:
    def test_single_choice(self):
        system = System((single("s", 5, 10),))
        assert allocate_first_fit(system, homogeneous_cluster(1)) == {"s": "c0"}

    def test_first_fit_decreasing_trace(self):
        system = System((single("a", 6, 10), single("b", 6, 10),
                         single("c", 3, 10)))
        placement = allocate_first_fit(system, homogeneous_cluster(2))
        assert placement == {"a": "c0", "b": "c1", "c": "c0"}

    def test_overload_fails_with_stage_id(self):
        system = System((single("a", 9, 10), single("b", 9, 10)))
        with pytest.raises(AllocationFailed) as exc:
            allocate_first_fit(system, homogeneous_cluster(1))
        assert exc.value.stage_id == "b"

    def test_one_shot_stage_has_zero_utilization(self):
        system = System((single("batch", 3600 * SEC, INFINITE, 7200 * SEC),
                         single("hot", 9, 10)))
        placement = allocate_first_fit(system, homogeneous_cluster(1))
        assert set(placement.values()) == {"c0"}

    @given(st.lists(st.tuples(st.integers(1, 99), st.integers(100, 1000)),
                    min_size=1, max_size=12),
           st.integers(1, 4))
    @settings(max_examples=150)
    def test_capacity_never_exceeded(self, specs, m):
        system = System(tuple(
            single(f"s{i}", c, t) for i, (c, t) in enumerate(specs)))
        cluster = homogeneous_cluster(m, Fraction(87, 100))
        try:
            placement = allocate_first_fit(system, cluster)
        except AllocationFailed:
            return
        loads = {}
        for s in system.stages():
            loads[placement[s.id]] = (loads.get(placement[s.id], Fraction(0))
                                      + s.utilization())
        assert all(load <= Fraction(87, 100) for load in loads.values())


def first_fit_by_scan(system, cluster):
    """Reference first-fit-decreasing: a linear scan of the cores for each
    stage, with exact Fraction loads."""
    order = sorted(system.stages(), key=lambda s: (-s.utilization(), s.id))
    load = {c.id: Fraction(0) for c in cluster.cores}
    placement = {}
    for stage in order:
        u = stage.utilization()
        for core in cluster.cores:
            if load[core.id] + u <= core.capacity:
                load[core.id] += u
                placement[stage.id] = core.id
                break
        else:
            raise AllocationFailed(stage.id)
    return placement


def placed_or_failed(fn, system, cluster):
    try:
        return list(fn(system, cluster).items())
    except AllocationFailed as exc:
        return ("failed", exc.stage_id)


CAPACITIES = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4),
              Fraction(87, 100), Fraction(1))

# (cost, inter-arrival): utilizations on a twelfths grid collide often
# and fill the capacities above exactly; INFINITE makes one-shot stages
STAGE_SHAPES = st.tuples(st.integers(1, 12),
                         st.sampled_from((12, 12, 24, 36, 48, INFINITE)))

# heavier (u averages 0.41), so that 200 stages can overfill a cluster of
# 33 cores and more
WIDE_SHAPES = st.tuples(st.integers(1, 12), st.sampled_from((12, 12, 12,
                                                              INFINITE)))


# one denominator per capacity (3, 7 or 100) besides 1
COPRIME_CAPACITIES = (Fraction(1, 3), Fraction(2, 3), Fraction(3, 7),
                      Fraction(5, 7), Fraction(69, 100), Fraction(1))


@st.composite
def coprime_shape(draw):
    """(cost, inter-arrival) with u <= 1; costs of a one-shot stage are
    free, since it counts 0."""
    t = draw(st.sampled_from(COPRIME_PERIODS))
    if t is INFINITE:
        return draw(st.integers(0, 10**12)), t
    return draw(st.integers(0, t)), t


class TestFirstFitOracle:
    @given(shapes=st.lists(STAGE_SHAPES, min_size=1, max_size=40),
           capacities=st.lists(st.sampled_from(CAPACITIES), min_size=1,
                               max_size=17),
           data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_linear_scan(self, shapes, capacities, data):
        # ids in an order unrelated to the stage order, so equal
        # utilizations are broken by id, not by position
        ids = data.draw(st.permutations(range(len(shapes))))
        system = System(tuple(
            single(f"s{k:02d}", c, t, 10**6 if t is INFINITE else t)
            for k, (c, t) in zip(ids, shapes)))
        cluster = Cluster(tuple(Core(f"c{i}", cap)
                                for i, cap in enumerate(capacities)))
        assert (placed_or_failed(allocate_first_fit, system, cluster)
                == placed_or_failed(first_fit_by_scan, system, cluster))

    @given(n_stages=st.integers(1, 200),
           n_cores=st.integers(33, 300).filter(lambda n: n & (n - 1)),
           data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_matches_linear_scan_on_wide_clusters(self, n_stages, n_cores,
                                                  data):
        # trees of depth 6 to 9 with padding leaves, where the refresh
        # after a placement can stop many levels below the root; sizes are
        # drawn first so that hypothesis spreads them over the whole range,
        # and about a fifth of the draws overfill the smaller clusters
        shapes = data.draw(st.lists(WIDE_SHAPES, min_size=n_stages,
                                    max_size=n_stages))
        capacities = data.draw(st.lists(st.sampled_from(CAPACITIES),
                                        min_size=n_cores, max_size=n_cores))
        ids = data.draw(st.permutations(range(n_stages)))
        system = System(tuple(
            single(f"s{k:03d}", c, t, 10**6 if t is INFINITE else t)
            for k, (c, t) in zip(ids, shapes)))
        cluster = Cluster(tuple(Core(f"c{i}", cap)
                                for i, cap in enumerate(capacities)))
        assert (placed_or_failed(allocate_first_fit, system, cluster)
                == placed_or_failed(first_fit_by_scan, system, cluster))

    @given(shapes=st.lists(coprime_shape(), min_size=1, max_size=40),
           capacities=st.lists(st.sampled_from(COPRIME_CAPACITIES),
                               min_size=1, max_size=9),
           data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_linear_scan_on_coprime_periods(self, shapes, capacities,
                                                    data):
        # the lcm of every period and capacity denominator is the product
        # of those present, past 2**64 once both large primes are
        ids = data.draw(st.permutations(range(len(shapes))))
        system = System(tuple(
            single(f"s{k:02d}", c, t, 10**12 if t is INFINITE else t)
            for k, (c, t) in zip(ids, shapes)))
        cluster = Cluster(tuple(Core(f"c{i}", cap)
                                for i, cap in enumerate(capacities)))
        assert (placed_or_failed(allocate_first_fit, system, cluster)
                == placed_or_failed(first_fit_by_scan, system, cluster))

    def test_exact_fills_past_64_bits(self):
        # u = 2/7 + 1/7 fills 3/7 exactly and u = 1 fills 1 exactly, with
        # L = 3 * 7 * 11 * 13 * 100 * 1_000_003 * 999_999_937 > 2**64
        stages = (single("a", 2, 7), single("b", 1, 7),
                  single("c", 999_999_937, 999_999_937),
                  single("d", 1, 1_000_003), single("e", 1, 11),
                  single("f", 1, 13))
        cluster = Cluster((Core("c0", Fraction(3, 7)), Core("c1", 1),
                           Core("c2", Fraction(1, 3)),
                           Core("c3", Fraction(1, 100))))
        system = System(stages)
        lcm, _ = period_scales(
            [*(s.inter_arrival for s in system.stages()),
             *(c.capacity.denominator for c in cluster.cores)])
        assert lcm > 2**64
        assert list(allocate_first_fit(system, cluster).items()) == [
            ("c", "c1"), ("a", "c0"), ("b", "c0"), ("e", "c2"), ("f", "c2"),
            ("d", "c2")]

    def test_empty_system_places_nothing(self):
        assert allocate_first_fit(System(()), homogeneous_cluster(2)) == {}

    def test_all_one_shot_system_takes_its_scale_from_the_capacities(self):
        stages = (single("x", 5, INFINITE, 10), single("y", 3, INFINITE, 10))
        system = System(stages)
        assert period_scales(
            [*(s.inter_arrival for s in system.stages()), 3, 100]) == (
                300, {3: 100, 100: 3, INFINITE: 0})
        cluster = Cluster((Core("c0", Fraction(1, 3)),
                           Core("c1", Fraction(69, 100))))
        assert list(allocate_first_fit(system, cluster).items()) == [
            ("x", "c0"), ("y", "c0")]

    def test_a_denominator_that_is_also_a_period_scales_both(self):
        # the capacity denominator 3 is a stage period too, and 100
        # repeats across cores: one scale serves weights and capacities
        stages = (single("a", 1, 3), single("b", 69, 100),
                  single("c", 1, 3), single("d", 30, 100),
                  single("e", 5, INFINITE, 10), single("f", 5, 100))
        system = System(stages)
        cluster = Cluster((Core("c0", Fraction(1, 3)),
                           Core("c1", Fraction(69, 100)),
                           Core("c2", Fraction(69, 100))))
        placement = placed_or_failed(allocate_first_fit, system, cluster)
        assert placement == placed_or_failed(first_fit_by_scan, system,
                                              cluster)
        assert placement == [("b", "c1"), ("a", "c0"), ("c", "c2"),
                             ("d", "c2"), ("f", "c2"), ("e", "c0")]

    @pytest.mark.parametrize("count", [0, 1, 5, 300])
    def test_period_scales_take_one_exact_lcm(self, count):
        # periods, INFINITE and each capacity's denominator in one
        # iterable, with repeats
        periods = [1000 + 7 * k for k in range(count)]
        lcm, scale = period_scales(
            [*periods, INFINITE, *periods[:3], 3, 100, 3, 100])
        assert lcm == math.lcm(*periods, 3, 100)
        assert scale == {INFINITE: 0, 3: lcm // 3, 100: lcm // 100,
                         **{t: lcm // t for t in periods}}

    def test_zero_utilization_after_full_cores_goes_to_first_core(self):
        system = System((single("a", 10, 10), single("b", 10, 10),
                         single("z", 5, INFINITE, 10), single("c", 10, 10)))
        placement = allocate_first_fit(system, homogeneous_cluster(3))
        assert list(placement.items()) == [
            ("a", "c0"), ("b", "c1"), ("c", "c2"), ("z", "c0")]

    def test_exact_fit_on_last_of_three_cores(self):
        cluster = Cluster((Core("c0", Fraction(1, 2)),
                           Core("c1", Fraction(1, 2)),
                           Core("c2", Fraction(1, 3))))
        stages = (single("a", 1, 2), single("b", 1, 2), single("c", 1, 3))
        placement = allocate_first_fit(System(stages), cluster)
        assert list(placement.items()) == [
            ("a", "c0"), ("b", "c1"), ("c", "c2")]
        with pytest.raises(AllocationFailed) as exc:
            allocate_first_fit(System((*stages, single("d", 1, 12))), cluster)
        assert exc.value.stage_id == "d"


class TestCoreAndCluster:
    def test_capacity_bounds(self):
        with pytest.raises(ValueError):
            Core("c", Fraction(0))
        with pytest.raises(ValueError):
            Core("c", Fraction(3, 2))
        assert Core("c", Fraction(1)).capacity == 1

    @pytest.mark.parametrize("cid", ["c,0", 'c"0', "c\r0", "c\n0"])
    def test_core_ids_must_fit_a_trace_field(self, cid):
        with pytest.raises(ValueError, match="comma, quote or line break"):
            Core(cid)

    def test_negative_platform_blocking(self):
        with pytest.raises(ValueError) as exc:
            Core("c0", 1, -1)
        assert str(exc.value) == "core 'c0': negative platform blocking"

    @pytest.mark.parametrize("capacity", [1, 0.5, "1/2", Fraction(1, 2)])
    def test_homogeneous_cluster_leaves_coercion_to_core(self, capacity):
        cluster = homogeneous_cluster(2, capacity)
        exact = Fraction(capacity)
        assert cluster == Cluster((Core("c0", exact), Core("c1", exact)))
        for core in (*cluster.cores, Core("c", capacity)):
            assert type(core) is Core
            assert type(core.capacity) is Fraction
        with pytest.raises(ValueError, match="capacity must be in"):
            homogeneous_cluster(2, 2)

    def test_cluster_invariants(self):
        with pytest.raises(ValueError):
            Cluster(())
        with pytest.raises(ValueError):
            Cluster((Core("c"), Core("c")))

    def test_replace_checks_as_the_constructor_does(self):
        core = Core("c", 1)
        assert core._replace(capacity=Fraction(1, 2)).capacity == Fraction(1, 2)
        assert isinstance(core._replace(capacity=1).capacity, Fraction)
        with pytest.raises(ValueError):
            core._replace(capacity=2)
        with pytest.raises(ValueError):
            Cluster((core,))._replace(cores=(core, core))


class TestStageUtilization:
    def test_cost_over_inter_arrival(self):
        assert stage("s", 3, 10, 10).utilization() == Fraction(3, 10)
        assert stage("once", 3, INFINITE, 10).utilization() == 0


class TestRecords:
    NODES = [Seq, Par, RoundRobin]

    @pytest.mark.parametrize("a", NODES)
    @pytest.mark.parametrize("b", NODES)
    def test_nodes_compare_by_class(self, a, b):
        children = ("x", "y")
        same = a is b
        assert (a(children) == b(children)) is same
        assert (a(children) != b(children)) is not same
        assert len({a(children), b(children)}) == (1 if same else 2)

    @pytest.mark.parametrize("kind", NODES)
    def test_a_leaf_is_no_node_that_holds_it(self, kind):
        assert kind(("a",)) != "a"
        assert "a" != kind(("a",))
        assert len({"a", kind(("a",))}) == 2

    def test_a_node_is_not_its_tuple(self):
        assert Seq(("a",)) != (("a",),)
        assert (("a",),) != Seq(("a",))
        assert not Seq(("a",)) == (("a",),)

    def test_a_leaf_is_its_stage_id(self):
        assert Leaf is str
        assert seq("a") == "a"
        assert par("a") == "a"
        assert seq("a", "b") == Seq(("a", "b"))

    def test_nested_nodes_compare_by_class(self):
        assert seq("a", par("b", "c")) == seq("a", par("b", "c"))
        assert seq("a", par("b", "c")) != seq("a", seq("b", "c"))
        assert par("a", seq("b", "c")) != seq("a", seq("b", "c"))

    @pytest.mark.parametrize("record, name", [
        (Stage("s", 1, 2, 3), "cost"),
        (Core("c"), "capacity"),
        (Analytic("a", (), "s", 1), "stages"),
        (SimConfig(horizon=SEC), "horizon"),
    ])
    def test_fields_cannot_be_assigned(self, record, name):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))

    def test_repr_names_every_field(self):
        assert repr(Stage("s", 1, 2, 3)) == (
            "Stage(id='s', cost=1, inter_arrival=2, deadline=3, blocking=0, "
            "priority=None, core=None)")
        assert repr(Core("c")) == (
            "Core(id='c', capacity=Fraction(1, 1), platform_blocking=0)")


def test_with_priorities_returns_new_system():
    system = builtin_system(ScenarioId.TABLE_VI)
    updated = with_priorities(system, {"TC1": 4})
    before = {s.id: s for s in system.stages()}
    after = {s.id: s for s in updated.stages()}
    assert before["TC1"].priority is None
    assert after["TC1"].priority == 4
    assert after["TC2"].priority is None


# Reference copies: with_priorities and with_allocation by _replace,
# where they call the constructors directly.
def map_stages_by_replace(system, fn):
    return System(tuple(
        a._replace(stages=tuple(fn(s) for s in a.stages))
        for a in system.analytics))


def with_priorities_by_replace(system, priorities):
    return map_stages_by_replace(
        system,
        lambda s: s._replace(priority=priorities[s.id])
        if s.id in priorities else s)


def with_allocation_by_replace(system, allocation):
    return map_stages_by_replace(
        system,
        lambda s: s._replace(core=allocation[s.id])
        if s.id in allocation else s)


STAGE_IDS = [f"s{i}" for i in range(9)]  # 3 analytics of up to 3 stages


@st.composite
def assigned_systems(draw):
    """Analytics over distinct stage ids whose fields, priority and core
    included, are drawn at random."""
    ids = iter(draw(st.permutations(STAGE_IDS)))
    analytics = []
    for ai, n in enumerate(draw(st.lists(st.integers(1, 3), max_size=3))):
        stages = tuple(Stage(
            id=next(ids), cost=draw(st.integers(0, 10)),
            inter_arrival=draw(st.sampled_from((5, 7, INFINITE))),
            deadline=draw(st.integers(1, 20)),
            blocking=draw(st.integers(0, 3)),
            priority=draw(st.none() | st.integers(1, 9)),
            core=draw(st.none() | st.sampled_from(("c0", "c1"))))
            for _ in range(n))
        analytics.append(Analytic(f"a{ai}", stages,
                                  Seq_of(*(s.id for s in stages)),
                                  draw(st.integers(1, 50))))
    return System(tuple(analytics))


class TestStageCopies:
    # partial mappings: ids of the system and ids of no stage, explicit
    # None values among the assigned ones
    @given(assigned_systems(),
           st.dictionaries(st.sampled_from([*STAGE_IDS, "absent"]),
                           st.none() | st.integers(1, 9)),
           st.dictionaries(st.sampled_from([*STAGE_IDS, "absent"]),
                           st.none() | st.sampled_from(("c0", "c2"))))
    @settings(max_examples=300)
    def test_match_the_replace_copies(self, system, priorities, allocation):
        copies = [
            (with_priorities(system, priorities),
             with_priorities_by_replace(system, priorities)),
            (with_allocation(system, allocation),
             with_allocation_by_replace(system, allocation)),
        ]
        for copied, expected in copies:
            assert copied == expected
            # == holds for a plain tuple of the same fields too
            assert type(copied) is System
            for analytic in copied.analytics:
                assert type(analytic) is Analytic
                assert all(type(s) is Stage for s in analytic.stages)

    def test_empty_system(self):
        assert with_priorities(System(()), {"s": 1}) == System(())
        assert with_allocation(System(()), {"s": "c0"}) == System(())

    def test_every_field_survives_the_copy(self):
        stage = Stage("s", 3, 7, 11, blocking=2, priority=5, core="c1")
        analytic = Analytic("a", (stage,), "s", 13)
        # every field differs from its default, so a field added later
        # fails here until it is set above (and copied)
        no_default = object()
        for record, cls in ((stage, Stage), (analytic, Analytic)):
            for name in cls._fields:
                assert (getattr(record, name)
                        != cls._field_defaults.get(name, no_default)), name
        system = System((analytic,))
        copies = [
            (with_priorities(system, {}), {}),
            (with_allocation(system, {}), {}),
            (with_priorities(system, {"s": 9}), {"priority": 9}),
            (with_allocation(system, {"s": "c4"}), {"core": "c4"}),
            (with_priorities(system, {"s": None}), {"priority": None}),
            (with_allocation(system, {"s": None}), {"core": None}),
        ]
        for copied, changed in copies:
            (copied_analytic,) = copied.analytics
            (copied_stage,) = copied_analytic.stages
            for name in Stage._fields:
                assert (getattr(copied_stage, name)
                        == changed.get(name, getattr(stage, name))), name
            for name in Analytic._fields:
                if name != "stages":
                    assert (getattr(copied_analytic, name)
                            == getattr(analytic, name)), name


# Reference walkers: the separate source, sink and edge walks that
# item_flow replaced, kept here as its oracle. They read a RoundRobin
# node as the Par node it used to be.
def sources_by_walk(expr):
    if isinstance(expr, str):
        return [expr]
    if isinstance(expr, Seq):
        return sources_by_walk(expr.children[0])
    out = []
    for c in expr.children:
        out.extend(sources_by_walk(c))
    return out


def sinks_by_walk(expr):
    if isinstance(expr, str):
        return [expr]
    if isinstance(expr, Seq):
        return sinks_by_walk(expr.children[-1])
    out = []
    for c in expr.children:
        out.extend(sinks_by_walk(c))
    return out


def edges_by_walk(expr, preds):
    if isinstance(expr, str):
        return
    if isinstance(expr, Seq):
        for a, b in zip(expr.children, expr.children[1:]):
            upstream = tuple(sorted(sinks_by_walk(a)))
            for src in sources_by_walk(b):
                preds[src] = upstream
    for c in expr.children:
        edges_by_walk(c, preds)


# Tree shapes: None is a leaf; (kind, children) a seq, par or rr node
# with one or more children, so Seq in Seq, Par in Par and one-child
# nodes all occur; rr nodes have leaves as children.
shapes = st.recursive(
    st.none() | st.tuples(st.just(RoundRobin),
                          st.lists(st.none(), min_size=1, max_size=4)),
    lambda inner: st.tuples(st.sampled_from([Seq, Par]),
                            st.lists(inner, min_size=1, max_size=4)),
    max_leaves=24)


def tree_of(shape, ids, lanes):
    """The topology of ``shape`` whose leaves take ids from ``ids``; the
    lane (k, j) of each child j of a k-way rr node goes into ``lanes``."""
    if shape is None:
        return next(ids)
    kind, children = shape
    nodes = tuple(tree_of(c, ids, lanes) for c in children)
    if kind is RoundRobin:
        lanes.update((sid, (len(nodes), j)) for j, sid in enumerate(nodes))
    return kind(nodes)


class TestItemFlow:
    @given(shapes, st.randoms(use_true_random=False))
    @settings(max_examples=300)
    def test_matches_the_separate_walks(self, shape, rnd):
        # unique stage ids, as validated topologies have, in an order
        # unrelated to the leaf order
        ids = [f"s{i:02d}" for i in range(96)]  # rr nodes hold up to 4
        rnd.shuffle(ids)
        lanes = {}
        expr = tree_of(shape, iter(ids), lanes)
        preds = {}
        edges_by_walk(expr, preds)
        flow = item_flow(expr)
        assert flow.sources == sources_by_walk(expr)
        assert flow.sinks == sinks_by_walk(expr)
        assert flow.preds == preds
        assert flow.lanes == lanes

    @given(shapes, st.randoms(use_true_random=False))
    @settings(max_examples=300)
    def test_end_to_end_response_is_the_longest_flow_path(self, shape, rnd):
        # the analysis composes a node as the simulator moves items
        # through it: an item leaves a stage R after its last
        # predecessor's, and the bound is its latest exit at a sink
        ids = [f"s{i:02d}" for i in range(96)]
        rnd.shuffle(ids)
        expr = tree_of(shape, iter(ids), {})
        flow = item_flow(expr)
        response = {n: rnd.randrange(10**6) for n in nodes(expr)
                    if isinstance(n, str)}
        finish = {}

        def finish_of(sid):
            if sid not in finish:
                finish[sid] = response[sid] + max(
                    map(finish_of, flow.preds.get(sid, ())), default=0)
            return finish[sid]

        assert end_to_end_response(expr, response) == max(
            map(finish_of, flow.sinks))

    def test_example(self):
        flow = item_flow(seq("a", par("b", seq("c", "d")), "e"))
        assert flow.sources == ["a"]
        assert flow.sinks == ["e"]
        assert flow.preds == {"b": ("a",), "c": ("a",), "d": ("c",),
                              "e": ("b", "d")}
        assert flow.lanes == {}

    def test_a_str_subclass_is_no_leaf(self):
        bad = SubStr("b")
        for topo in (bad, seq("a", bad)):
            with pytest.raises(TypeError) as exc:
                item_flow(topo)
            assert str(exc.value) == f"not a composition expression: {bad!r}"

    def test_string_children_are_no_leaves(self):
        # "ab" as children would read as the leaves "a" and "b"
        for bad in (Seq("ab"), Par("ab"), RoundRobin("ab"),
                    Seq(SubStr("ab"))):
            for topo in (bad, seq("a", bad)):
                with pytest.raises(TypeError) as exc:
                    item_flow(topo)
                assert str(exc.value) == (
                    f"not a composition expression: {bad!r}")

    def test_an_empty_node_is_no_node(self):
        # Seq(()) has no first child to start from; simulate reads the
        # topology through item_flow, so it refuses the node too
        stages = (stage("a", 1, 10, 10, priority=1),)
        for bad in (Seq(()), Par(()), RoundRobin(())):
            for topo in (bad, seq("a", bad)):
                with pytest.raises(TypeError) as exc:
                    item_flow(topo)
                assert str(exc.value) == (
                    f"not a composition expression: {bad!r}")
                system = System((Analytic("x", stages, topo, 10),))
                with pytest.raises(TypeError) as exc:
                    simulate(system, {"a": "c0"}, homogeneous_cluster(1),
                             SimConfig(100))
                assert str(exc.value) == (
                    f"not a composition expression: {bad!r}")

    def test_round_robin_example(self):
        replicas = RoundRobin(("b#1", "b#2", "b#3"))
        flow = item_flow(seq("a", replicas, "c"))
        assert flow.sources == ["a"]
        assert flow.sinks == ["c"]
        assert flow.preds == {"b#1": ("a",), "b#2": ("a",), "b#3": ("a",),
                              "c": ("b#1", "b#2", "b#3")}
        assert flow.lanes == {"b#1": (3, 0), "b#2": (3, 1), "b#3": (3, 2)}


# Reference copy: validate_system as it read when every finding's path
# was built up front, before each check ran.
def validate_system_reference(system):
    findings = []
    seen_analytics = set()
    seen_stages = set()

    for ai, analytic in enumerate(system.analytics):
        apath = f"/analytics/{ai}"
        if analytic.id in seen_analytics:
            findings.append((f"{apath}/id",
                             f"duplicate analytic id {analytic.id!r}"))
        seen_analytics.add(analytic.id)

        if analytic.end_to_end_deadline <= 0:
            findings.append((f"{apath}/end_to_end_deadline",
                             "end-to-end deadline must be positive"))

        kinds = set()
        for si, stage in enumerate(analytic.stages):
            spath = f"{apath}/stages/{si}"
            if stage.id in seen_stages:
                findings.append((f"{spath}/id",
                                 f"duplicate stage id {stage.id!r}"))
            seen_stages.add(stage.id)
            if not frozenset(',"\r\n').isdisjoint(stage.id):
                findings.append((f"{spath}/id", f"stage id {stage.id!r} "
                                 f"holds a comma, quote or line break"))
            finite_fields = True
            for field_name in ("cost", "deadline", "blocking"):
                value = getattr(stage, field_name)
                if not isinstance(value, int):
                    findings.append((f"{spath}/{field_name}", f"{field_name} "
                                     f"must be integer nanoseconds"))
                    finite_fields = False
                elif value < 0:
                    findings.append((f"{spath}/{field_name}",
                                     f"negative {field_name}"))
            if stage.inter_arrival is not INFINITE:
                if not isinstance(stage.inter_arrival, int):
                    findings.append((
                        f"{spath}/inter_arrival",
                        "inter-arrival must be integer ns or INFINITE"))
                elif stage.inter_arrival <= 0:
                    findings.append((f"{spath}/inter_arrival",
                                     "finite inter-arrival must be positive"))
            if finite_fields and stage.cost > stage.deadline:
                findings.append((f"{spath}/cost", "cost exceeds deadline"))
            kinds.add(stage.inter_arrival is INFINITE)
        if len(kinds) > 1:
            findings.append((f"{apath}/stages",
                             "one-shot and periodic stages in one analytic"))

        check_topology_reference(analytic, apath, findings)

    return ValidationReport(findings)


def nodes(expr):
    """Every node of a topology, each before its children, left to
    right; TypeError on anything that is not a composition node."""
    found, todo = [], [expr]
    while todo:
        node = todo.pop()
        found.append(node)
        if node.__class__ in (Seq, Par, RoundRobin):
            if isinstance(node.children, str):  # no one-character leaves
                raise TypeError(f"children are a string: {node!r}")
            todo += reversed(node.children)
        elif node.__class__ is not str:
            raise TypeError(f"not a composition expression: {node!r}")
    return found


def check_topology_reference(analytic, apath, findings):
    path = f"{apath}/topology"
    declared = {s.id: s for s in analytic.stages}
    covered = set()
    try:
        topology = nodes(analytic.topology)
    except TypeError:
        findings.append((path, "malformed composition expression"))
        return
    if any(not isinstance(n, str) and not n.children for n in topology):
        findings.append((path, "empty composition node"))
    for sid in (n for n in topology if isinstance(n, str)):
        if sid not in declared:
            findings.append(
                (path, f"topology references unknown stage {sid!r}"))
        elif sid in covered:
            findings.append((path, f"stage {sid!r} covered twice"))
        covered.add(sid)
    for sid in sorted(declared.keys() - covered):
        findings.append((path, f"stage {sid!r} not covered"))
    for rr in (n for n in topology if isinstance(n, RoundRobin)):
        if not all(isinstance(c, str) for c in rr.children):
            findings.append((path, "round-robin children must be stage ids"))
            continue
        periods = {declared[sid].inter_arrival for sid in rr.children
                   if sid in declared}
        if len(periods) > 1 or INFINITE in periods:
            ids = ", ".join(rr.children)
            findings.append((path, f"round-robin replicas {ids} do not "
                             f"share one finite inter-arrival"))


# few ids, so duplicates, unknown and uncovered stages are common; values
# of every kind validate_system tells apart
VALIDATION_IDS = st.sampled_from(["a", "b", "c", "a,b", 'q"', "x\ny"])
VALIDATION_TIMES = st.one_of(
    st.integers(-2, 12),
    st.sampled_from([INFINITE, Fraction(1, 2), "5", None, True]))


VALIDATION_TOPOLOGIES = st.one_of(
    st.recursive(
        VALIDATION_IDS,
        lambda kids: st.builds(lambda kind, children: kind(tuple(children)),
                               st.sampled_from([Seq, Par, RoundRobin]),
                               st.lists(kids, max_size=3)),
        max_leaves=6),
    st.sampled_from([SubStr("a"), 5]))  # not composition nodes: malformed
VALIDATION_STAGES = st.builds(
    Stage, id=VALIDATION_IDS, cost=VALIDATION_TIMES,
    inter_arrival=VALIDATION_TIMES, deadline=VALIDATION_TIMES,
    blocking=VALIDATION_TIMES)
VALIDATION_SYSTEMS = st.builds(System, st.lists(st.builds(
    Analytic, id=VALIDATION_IDS,
    stages=st.lists(VALIDATION_STAGES, max_size=4).map(tuple),
    topology=VALIDATION_TOPOLOGIES,
    end_to_end_deadline=st.integers(-2, 12)), max_size=4).map(tuple))


class TestValidationOracle:
    """validate_system gives the findings of the reference copy, in the
    same order."""

    @given(VALIDATION_SYSTEMS)
    @settings(max_examples=200, deadline=None)
    def test_random_systems(self, system):
        assert (validate_system(system).findings
                == validate_system_reference(system).findings)

    def test_generated_pipelines(self):
        for _, (system, *_) in accepted_stream(pipelined_system, 0, 20):
            assert validate_system(system).findings == []
            assert validate_system_reference(system).findings == []
