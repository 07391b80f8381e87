import random
from dataclasses import fields, replace
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
    homogeneous_cluster,
    leaves,
    par,
    replicate_for_rate,
    seq,
    validate_system,
    with_allocation,
    with_priorities,
)
from tcsizer.model import item_flow, nodes, scaled_utilizations
from tcsizer.workloads import ScenarioId, builtin_system

from generators import COPRIME_PERIODS, accepted_stream, pipelined_system


def stage(sid, c, t, d, **kw):
    return Stage(id=sid, cost=c, inter_arrival=t, deadline=d, **kw)


def single(sid, c, t, d=None, **kw):
    d = t if d is None else d
    s = stage(sid, c, t, d, **kw)
    return Analytic(id=sid, stages=(s,), topology=Leaf(sid),
                    end_to_end_deadline=d)


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
        analytic = Analytic(id="a", stages=(s1, s2), topology=Leaf("x"),
                            end_to_end_deadline=10)
        findings = validate_system(System((analytic,))).findings
        assert any("not covered" in msg for _, msg in findings)
        analytic2 = Analytic(id="b", stages=(s1,), topology=Leaf("zz"),
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
        analytic = Analytic(id="a", stages=(s,), topology=Leaf("s"),
                            end_to_end_deadline=10)
        report = validate_system(System((analytic,)))
        assert [(p, m) for p, m in report.findings] == [
            ("/analytics/0/stages/0/cost", "cost must be integer nanoseconds")]

    def test_round_robin_replicas_share_one_finite_inter_arrival(self):
        def rr_system(*periods):
            stages = tuple(stage(f"r#{i}", 1, t, 10)
                           for i, t in enumerate(periods, 1))
            topo = RoundRobin(tuple(Leaf(s.id) for s in stages))
            return System((Analytic("a", stages, topo, 10),))

        assert validate_system(rr_system(10, 10, 10)).ok
        for periods in ((10, 20), (INFINITE, INFINITE), (10, INFINITE)):
            findings = validate_system(rr_system(*periods)).findings
            ids = ", ".join(f"r#{i}" for i in range(1, len(periods) + 1))
            assert findings == [(
                "/analytics/0/topology",
                f"round-robin replicas {ids} do not share one finite "
                f"inter-arrival")]

    def test_round_robin_children_must_be_leaves(self):
        stages = (stage("a", 1, 10, 10), stage("b", 1, 10, 10))
        topo = RoundRobin((Leaf("a"), seq("b")))
        assert validate_system(System((Analytic("x", stages, topo, 10),))).ok
        topo = RoundRobin((Leaf("a"), par("b", "b")))
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


class TestReplication:
    def test_under_rate_unchanged(self):
        s = stage("s", 100 * US, 1 * SEC, 1 * SEC)
        assert replicate_for_rate(s, 8) == [s]

    def test_counter_at_4khz(self):
        s = stage("cnt", 507 * US, 250 * US, 1 * SEC)
        replicas = replicate_for_rate(s, 8)
        assert len(replicas) == 3
        assert all(r.inter_arrival == 750 * US for r in replicas)
        assert all(r.cost <= r.inter_arrival for r in replicas)
        assert {r.id for r in replicas} == {"cnt#1", "cnt#2", "cnt#3"}

    def test_boundary_cost_equals_new_period(self):
        s = stage("cnt", 5 * MS, 25 * US, 1 * SEC)
        replicas = replicate_for_rate(s, 200)
        assert len(replicas) == 200
        assert replicas[0].inter_arrival == 5 * MS  # cost == T'

    def test_limit(self):
        s = stage("cnt", 5 * MS, 25 * US, 1 * SEC)
        with pytest.raises(ReplicationExceeded) as exc:
            replicate_for_rate(s, 100)
        assert exc.value.stage_id == "cnt"
        assert exc.value.needed == 200

    def test_one_shot_rejected(self):
        s = stage("s", 1, INFINITE, 10)
        with pytest.raises(ValueError):
            replicate_for_rate(s, 4)

    @given(cost=st.integers(1, 5_000), period=st.integers(100, 10**6))
    @settings(max_examples=200)
    def test_utilization_preserved_exactly(self, cost, period):
        s = stage("s", cost, period, 10**9)
        replicas = replicate_for_rate(s, 100)
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

    @given(shapes=st.lists(coprime_shape(), min_size=1, max_size=40),
           capacities=st.lists(st.sampled_from(COPRIME_CAPACITIES),
                               min_size=1, max_size=9),
           data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_linear_scan_on_coprime_periods(self, shapes, capacities,
                                                    data):
        # the lcm of the periods and capacity denominators is the product
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
        denominators = [c.capacity.denominator for c in cluster.cores]
        lcm, _ = scaled_utilizations(list(system.stages()), denominators)
        assert lcm > 2**64
        assert list(allocate_first_fit(system, cluster).items()) == [
            ("c", "c1"), ("a", "c0"), ("b", "c0"), ("e", "c2"), ("f", "c2"),
            ("d", "c2")]

    def test_empty_system_places_nothing(self):
        assert allocate_first_fit(System(()), homogeneous_cluster(2)) == {}

    def test_all_one_shot_system_takes_its_scale_from_the_capacities(self):
        stages = (single("x", 5, INFINITE, 10), single("y", 3, INFINITE, 10))
        system = System(stages)
        assert scaled_utilizations(list(system.stages()), [3, 100]) == (
            300, [0, 0])
        cluster = Cluster((Core("c0", Fraction(1, 3)),
                           Core("c1", Fraction(69, 100))))
        assert list(allocate_first_fit(system, cluster).items()) == [
            ("x", "c0"), ("y", "c0")]

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

    def test_cluster_invariants(self):
        with pytest.raises(ValueError):
            Cluster(())
        with pytest.raises(ValueError):
            Cluster((Core("c"), Core("c")))


def test_with_priorities_returns_new_system():
    system = builtin_system(ScenarioId.TABLE_VI)
    updated = with_priorities(system, {"TC1": 4})
    before = {s.id: s for s in system.stages()}
    after = {s.id: s for s in updated.stages()}
    assert before["TC1"].priority is None
    assert after["TC1"].priority == 4
    assert after["TC2"].priority is None


# Reference copies: the dataclasses.replace code that with_priorities
# and with_allocation ran before they called the constructors directly.
def map_stages_by_replace(system, fn):
    return System(tuple(
        replace(a, stages=tuple(fn(s) for s in a.stages))
        for a in system.analytics))


def with_priorities_by_replace(system, priorities):
    return map_stages_by_replace(
        system,
        lambda s: replace(s, priority=priorities[s.id])
        if s.id in priorities else s)


def with_allocation_by_replace(system, allocation):
    return map_stages_by_replace(
        system,
        lambda s: replace(s, core=allocation[s.id])
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
        assert (with_priorities(system, priorities)
                == with_priorities_by_replace(system, priorities))
        assert (with_allocation(system, allocation)
                == with_allocation_by_replace(system, allocation))

    def test_empty_system(self):
        assert with_priorities(System(()), {"s": 1}) == System(())
        assert with_allocation(System(()), {"s": "c0"}) == System(())

    def test_every_field_survives_the_copy(self):
        stage = Stage("s", 3, 7, 11, blocking=2, priority=5, core="c1")
        analytic = Analytic("a", (stage,), Leaf("s"), 13)
        # every field differs from its default, so a field added later
        # fails here until it is set above (and copied)
        for record, cls in ((stage, Stage), (analytic, Analytic)):
            for f in fields(cls):
                assert getattr(record, f.name) != f.default, f.name
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
            for f in fields(Stage):
                assert (getattr(copied_stage, f.name)
                        == changed.get(f.name, getattr(stage, f.name))), f.name
            for f in fields(Analytic):
                if f.name != "stages":
                    assert (getattr(copied_analytic, f.name)
                            == getattr(analytic, f.name)), f.name


def test_leaves_order():
    expr = seq("a", par("b", "c"), "d")
    assert list(leaves(expr)) == ["a", "b", "c", "d"]


# Reference walkers: the separate source, sink and edge walks that
# item_flow replaced, kept here as its oracle. They read a RoundRobin
# node as the Par node it used to be.
def sources_by_walk(expr):
    if isinstance(expr, Leaf):
        return [expr.stage]
    if isinstance(expr, Seq):
        return sources_by_walk(expr.children[0])
    out = []
    for c in expr.children:
        out.extend(sources_by_walk(c))
    return out


def sinks_by_walk(expr):
    if isinstance(expr, Leaf):
        return [expr.stage]
    if isinstance(expr, Seq):
        return sinks_by_walk(expr.children[-1])
    out = []
    for c in expr.children:
        out.extend(sinks_by_walk(c))
    return out


def edges_by_walk(expr, preds):
    if isinstance(expr, Leaf):
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
        return Leaf(next(ids))
    kind, children = shape
    nodes = tuple(tree_of(c, ids, lanes) for c in children)
    if kind is RoundRobin:
        lanes.update((leaf.stage, (len(nodes), j))
                     for j, leaf in enumerate(nodes))
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

    def test_example(self):
        flow = item_flow(seq("a", par("b", seq("c", "d")), "e"))
        assert flow.sources == ["a"]
        assert flow.sinks == ["e"]
        assert flow.preds == {"b": ("a",), "c": ("a",), "d": ("c",),
                              "e": ("b", "d")}
        assert flow.lanes == {}

    def test_round_robin_example(self):
        replicas = RoundRobin((Leaf("b#1"), Leaf("b#2"), Leaf("b#3")))
        flow = item_flow(seq("a", replicas, "c"))
        assert flow.sources == ["a"]
        assert flow.sinks == ["c"]
        assert flow.preds == {"b#1": ("a",), "b#2": ("a",), "b#3": ("a",),
                              "c": ("b#1", "b#2", "b#3")}
        assert flow.lanes == {"b#1": (3, 0), "b#2": (3, 1), "b#3": (3, 2)}


# Reference copy: validate_system as it read when every finding's path
# was built up front, before each check ran.
def validate_system_reference(system):
    report = ValidationReport()
    seen_analytics = set()
    seen_stages = set()

    for ai, analytic in enumerate(system.analytics):
        apath = f"/analytics/{ai}"
        if analytic.id in seen_analytics:
            report.add(f"{apath}/id", f"duplicate analytic id {analytic.id!r}")
        seen_analytics.add(analytic.id)

        if analytic.end_to_end_deadline <= 0:
            report.add(f"{apath}/end_to_end_deadline",
                       "end-to-end deadline must be positive")

        for si, stage in enumerate(analytic.stages):
            spath = f"{apath}/stages/{si}"
            if stage.id in seen_stages:
                report.add(f"{spath}/id", f"duplicate stage id {stage.id!r}")
            seen_stages.add(stage.id)
            if not frozenset(',"\r\n').isdisjoint(stage.id):
                report.add(f"{spath}/id", f"stage id {stage.id!r} holds a "
                           f"comma, quote or line break")
            finite_fields = True
            for field_name in ("cost", "deadline", "blocking"):
                value = getattr(stage, field_name)
                if not isinstance(value, int):
                    report.add(f"{spath}/{field_name}",
                               f"{field_name} must be integer nanoseconds")
                    finite_fields = False
                elif value < 0:
                    report.add(f"{spath}/{field_name}",
                               f"negative {field_name}")
            if stage.inter_arrival is not INFINITE:
                if not isinstance(stage.inter_arrival, int):
                    report.add(f"{spath}/inter_arrival",
                               "inter-arrival must be integer ns or INFINITE")
                elif stage.inter_arrival <= 0:
                    report.add(f"{spath}/inter_arrival",
                               "finite inter-arrival must be positive")
            if finite_fields and stage.cost > stage.deadline:
                report.add(f"{spath}/cost", "cost exceeds deadline")

        check_topology_reference(analytic, apath, report)

    return report


def check_topology_reference(analytic, apath, report):
    declared = {s.id: s for s in analytic.stages}
    covered = set()
    try:
        topology = nodes(analytic.topology)
    except TypeError:
        report.add(f"{apath}/topology", "malformed composition expression")
        return
    if any(not isinstance(n, Leaf) and not n.children for n in topology):
        report.add(f"{apath}/topology", "empty composition node")
    for sid in (n.stage for n in topology if isinstance(n, Leaf)):
        if sid not in declared:
            report.add(f"{apath}/topology",
                       f"topology references unknown stage {sid!r}")
        elif sid in covered:
            report.add(f"{apath}/topology", f"stage {sid!r} covered twice")
        covered.add(sid)
    for sid in sorted(declared.keys() - covered):
        report.add(f"{apath}/topology", f"stage {sid!r} not covered")
    for rr in (n for n in topology if isinstance(n, RoundRobin)):
        if not all(isinstance(c, Leaf) for c in rr.children):
            report.add(f"{apath}/topology",
                       "round-robin children must be stage ids")
            continue
        periods = {declared[c.stage].inter_arrival for c in rr.children
                   if c.stage in declared}
        if len(periods) > 1 or INFINITE in periods:
            ids = ", ".join(c.stage for c in rr.children)
            report.add(f"{apath}/topology", f"round-robin replicas {ids} "
                       f"do not share one finite inter-arrival")


# few ids, so duplicates, unknown and uncovered stages are common; values
# of every kind validate_system tells apart
VALIDATION_IDS = st.sampled_from(["a", "b", "c", "a,b", 'q"', "x\ny"])
VALIDATION_TIMES = st.one_of(
    st.integers(-2, 12),
    st.sampled_from([INFINITE, Fraction(1, 2), "5", None, True]))


VALIDATION_TOPOLOGIES = st.one_of(
    st.recursive(
        st.builds(Leaf, VALIDATION_IDS),
        lambda kids: st.builds(lambda kind, children: kind(tuple(children)),
                               st.sampled_from([Seq, Par, RoundRobin]),
                               st.lists(kids, max_size=3)),
        max_leaves=6),
    st.sampled_from(["a", 5]))  # not composition nodes: malformed
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
