import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcsizer import (
    INFINITE,
    MS,
    SEC,
    US,
    Analytic,
    DecimationRow,
    Par,
    ReplicationExceeded,
    RoundRobin,
    Seq,
    Stage,
    SweepRow,
    System,
    assign_priorities_dm,
    baseline_comparison,
    decimation_sweep,
    end_to_end_response,
    frequency_sweep,
    homogeneous_cluster,
    min_cores,
    period_from_frequency,
    retime_system,
    solve_system,
    total_utilization,
    with_priorities,
)
from tcsizer.model import item_flow
from tcsizer.sizing import replica_count
from tcsizer.workloads import ScenarioId, builtin_system

from generators import COPRIME_PERIODS, SubStr


def utilization_at(stage, inter_arrival):
    """C/T with T re-timed to ``inter_arrival``; a one-shot stage counts
    0."""
    if stage.inter_arrival is INFINITE:
        return Fraction(0)
    return Fraction(stage.cost, inter_arrival)


@pytest.fixture
def microblog():
    return builtin_system(ScenarioId.MICROBLOG_ONLINE, frequency_hz=1)


class TestRetime:
    def test_replicates_over_rate_stages(self, microblog):
        retimed = retime_system(microblog, 4000)
        stages = {s.id: s for s in retimed.stages()}
        assert stages["microblog-gen"].inter_arrival == 250 * US
        assert stages["microblog-gen"].deadline == 250 * US
        assert "microblog-split#1" in stages
        assert stages["microblog-split#3"].inter_arrival == 750 * US
        assert stages["microblog-split#3"].deadline == 750 * US
        # utilization is preserved by replication
        assert (total_utilization(retimed).total
                == total_utilization(builtin_system(
                    ScenarioId.MICROBLOG_ONLINE, frequency_hz=4000)).total)

    def test_replicas_sit_under_a_round_robin_node(self, microblog):
        retimed = retime_system(microblog, 4000)
        split = RoundRobin(tuple(f"microblog-split#{i}" for i in (1, 2, 3)))
        count = RoundRobin(tuple(f"microblog-count#{i}" for i in (1, 2, 3)))
        assert retimed.analytics[0].topology == Seq(
            ("microblog-gen", split, count))

    def test_refuses_a_replicated_system(self, microblog):
        retimed = retime_system(microblog, 4000)
        for call in (lambda: retime_system(retimed, 1000),
                     lambda: frequency_sweep(retimed, [1000], u_max=1),
                     lambda: decimation_sweep(retimed, 1000, [1], u_max=1)):
            with pytest.raises(ValueError, match="already replicated"):
                call()

    def test_keeps_one_shot_stages(self):
        template = builtin_system(ScenarioId.TABLE_VI)
        assert retime_system(template, 100) == template

    def test_raises_past_the_replication_limit(self, microblog):
        # 507 us every 100 ns: 5070 replicas, past the limit of 4096
        with pytest.raises(ReplicationExceeded) as retimed:
            retime_system(microblog, 10**7)
        with pytest.raises(ReplicationExceeded) as swept:
            frequency_sweep(microblog, [1, 10**7], u_max=1)
        for exc in (retimed.value, swept.value):
            assert (exc.stage_id, exc.needed) == ("microblog-split", 5070)
            assert str(exc) == ("stage 'microblog-split' needs 5070 "
                                "replicas, limit is 4096")


class TestTemplateWalk:
    """Each sweep walks every template topology once before it reads
    it, refusing a round-robin node at any depth and a non-node."""

    SWEEPS = {
        "retime_system": lambda t: retime_system(t, 1000),
        "frequency_sweep": lambda t: frequency_sweep(t, [1000], u_max=1),
        "decimation_sweep": lambda t: decimation_sweep(t, 1000, [1], 1),
    }

    @staticmethod
    def template(deep, *extra):
        """Analytic p0 is plain; in p1, ``deep`` sits three levels down,
        under Seq, Par and Seq nodes, beside leaves ``extra``."""
        def periodic(*ids):
            return tuple(Stage(sid, 1 * MS, 10 * MS, 10 * MS) for sid in ids)

        plain = Analytic("p0", periodic("a", "b"), Seq(("a", "b")),
                         SEC)
        topology = Seq(("x", Par(("y", Seq(("z", deep))))))
        return plain, Analytic("p1", periodic("x", "y", "z", *extra),
                               topology, SEC)

    def each_sweep(self, deep, *extra):
        """(name, sweep, template, index of p1) for every sweep:
        decimation reads only a one-analytic template, p1 alone."""
        plain, deep_one = self.template(deep, *extra)
        for name, sweep in self.SWEEPS.items():
            if name == "decimation_sweep":
                yield name, sweep, System((deep_one,)), 0
            else:
                yield name, sweep, System((plain, deep_one)), 1

    def test_a_deep_round_robin_node_is_refused(self):
        rr = RoundRobin(("r#1", "r#2"))
        for name, sweep, template, index in self.each_sweep(
                rr, "r#1", "r#2"):
            with pytest.raises(ValueError) as raised:
                sweep(template)
            assert str(raised.value) == (
                f"/analytics/{index}/topology: analytic 'p1' is already "
                f"replicated (round-robin node)"), name

    @pytest.mark.parametrize("non_node", [SubStr("w"), 42, ("w",)])
    def test_a_non_node_below_a_seq_is_a_type_error(self, non_node):
        for name, sweep, template, _ in self.each_sweep(non_node):
            with pytest.raises(TypeError) as raised:
                sweep(template)
            assert str(raised.value) == (
                f"not a composition expression: {non_node!r}"), name

    @pytest.mark.parametrize("node", [Seq("ab"), Par("ab"),
                                      RoundRobin("ab")])
    def test_string_children_are_a_type_error(self, node):
        # "ab" as children would read as the leaves "a" and "b"
        for name, sweep, template, _ in self.each_sweep(node, "a", "b"):
            with pytest.raises(TypeError) as raised:
                sweep(template)
            assert str(raised.value) == (
                f"not a composition expression: {node!r}"), name

    @pytest.mark.parametrize("node", [Seq(()), Par(()), RoundRobin(())])
    def test_an_empty_node_is_a_type_error(self, node):
        for name, sweep, template, _ in self.each_sweep(node):
            with pytest.raises(TypeError) as raised:
                sweep(template)
            assert str(raised.value) == (
                f"not a composition expression: {node!r}"), name

    def test_the_walk_reads_past_a_round_robin_node(self):
        # a non-node after the round-robin node is still found
        rr = RoundRobin(("r#1", "r#2"))
        deep = Par((rr, 42))
        for name, sweep, template, _ in self.each_sweep(deep, "r#1", "r#2"):
            with pytest.raises(TypeError) as raised:
                sweep(template)
            assert str(raised.value) == (
                "not a composition expression: 42"), name


class TestFrequencySweep:
    def test_microblog_rows(self, microblog):
        rows = frequency_sweep(microblog, [1, 4000], u_max=1)
        one, four_k = rows
        assert one.total_utilization == Fraction(1145, 10**6)
        assert one.min_cores == 1
        assert four_k.total_utilization == Fraction(229, 50)  # 4.58
        assert four_k.min_cores == 6

    def test_formula_faithful_utilization(self, microblog):
        for f in (1, 10, 100, 1000, 4000, 8000):
            (row,) = frequency_sweep(microblog, [f], u_max=1)
            assert row.total_utilization == Fraction(1145 * US * f, SEC)

    def test_book_online_at_1hz(self):
        book = builtin_system(ScenarioId.BOOK_ONLINE, frequency_hz=1)
        (row,) = frequency_sweep(book, [1], u_max=1)
        assert row.total_utilization == Fraction(69, 10**4)  # 0.0069
        assert row.min_cores == 1

    def test_total_is_sum_over_template_stages(self, microblog):
        # split and count are replicated at 4 kHz; the template's stages
        # still sum to the total
        (row,) = frequency_sweep(microblog, [4000], u_max=1)
        t_in = period_from_frequency(4000)
        assert [s.id for s in microblog.stages()] == [
            "microblog-gen", "microblog-split", "microblog-count"]
        assert row.total_utilization == sum(
            (utilization_at(s, t_in) for s in microblog.stages()),
            Fraction(0))

    def test_monotone_in_frequency(self, microblog):
        rows = frequency_sweep(microblog, [1, 10, 100, 1000, 4000, 16000],
                               u_max=1)
        for a, b in zip(rows, rows[1:]):
            assert a.total_utilization <= b.total_utilization
            assert a.min_cores <= b.min_cores

    def test_total_is_sum_of_per_stage_with_one_shot_stages(self, microblog):
        batch = Stage(id="batch", cost=3 * MS, inter_arrival=INFINITE,
                      deadline=SEC)
        system = System((*microblog.analytics, Analytic(
            id="batch", stages=(batch,), topology="batch",
            end_to_end_deadline=SEC)))
        u_max = Fraction(3, 4)
        rows = frequency_sweep(system, [1, 3, 7, 777, 4000], u_max=u_max)
        for row in rows:
            t_in = period_from_frequency(row.frequency_hz)
            assert utilization_at(batch, t_in) == 0
            assert row.total_utilization == sum(
                (utilization_at(s, t_in) for s in system.stages()),
                Fraction(0))
            assert row.min_cores == min_cores(row.total_utilization, u_max)

    @pytest.mark.parametrize("frequency", [1, 3, 7, 777, 4000])
    def test_total_matches_the_retimed_system_with_one_shot_stages(
            self, microblog, frequency):
        batch = Stage(id="batch", cost=3 * MS, inter_arrival=INFINITE,
                      deadline=SEC)
        templates = [builtin_system(ScenarioId.TABLE_VI), System((
            *microblog.analytics, Analytic(
                id="batch", stages=(batch,), topology="batch",
                end_to_end_deadline=SEC)))]
        for template in templates:
            (row,) = frequency_sweep(template, [frequency], u_max=1)
            assert row.total_utilization == total_utilization(
                retime_system(template, frequency)).total

    def test_one_shot_stages_are_not_held_to_the_replica_limit(self):
        (row,) = frequency_sweep(builtin_system(ScenarioId.TABLE_VI), [100],
                                 u_max=1)
        assert (row.total_utilization, row.min_cores) == (0, 1)

    def test_row_invariant(self, microblog):
        for row in frequency_sweep(microblog, [7, 77, 777], u_max=Fraction(3, 4)):
            assert row.min_cores == min_cores(row.total_utilization,
                                              Fraction(3, 4))


def frequency_sweep_per_stage(template, frequencies, u_max):
    """frequency_sweep as it was written before it tested the limit
    against the costliest stage only: every periodic stage goes through
    replica_count at every frequency."""
    periodic = [s for s in template.stages()
                if s.inter_arrival is not INFINITE]
    cost = sum(s.cost for s in periodic)
    rows = []
    for f in frequencies:
        freq = Fraction(f)
        t_in = period_from_frequency(freq)
        for s in periodic:
            replica_count(s, t_in)
        total = Fraction(cost, t_in)
        rows.append(SweepRow(frequency_hz=freq, total_utilization=total,
                             min_cores=min_cores(total, u_max)))
    return rows


def sweep_outcome(sweep, *args, **kwargs):
    """The rows, or what the sweep raised: type, the ReplicationExceeded
    fields, and the message."""
    try:
        return sweep(*args, **kwargs)
    except ReplicationExceeded as exc:
        return (type(exc), exc.stage_id, exc.needed, str(exc))
    except ValueError as exc:
        return (type(exc), str(exc))


@st.composite
def sweep_templates(draw):
    """0-6 single-stage analytics, periodic or one-shot, costs from 0 up
    to 5 ms (5000 replicas at 1 MHz, past REPLICATION_LIMIT); zero and
    unit costs are drawn often."""
    costs = st.sampled_from([0, 1]) | st.integers(0, 5 * MS)
    stages = [
        Stage(id=f"s{i}", cost=draw(costs),
              inter_arrival=draw(st.sampled_from([MS, INFINITE])),
              deadline=SEC)
        for i in range(draw(st.integers(0, 6)))]
    return System(tuple(
        Analytic(s.id, (s,), s.id, SEC) for s in stages))


class TestReplicationLimit:
    @given(sweep_templates(),
           st.lists(st.integers(1, 10**6), min_size=1, max_size=3))
    # at 1 MHz the first stage needs 4096 replicas, the second 4097
    @example(System(tuple(Analytic(s.id, (s,), s.id, SEC) for s in (
        Stage("s0", 4096 * US, MS, SEC), Stage("s1", 4097 * US, MS, SEC),
    ))), [1, 10**6])
    @settings(max_examples=500, deadline=None)
    def test_costliest_stage_check_matches_the_per_stage_loop(
            self, template, frequencies):
        assert (sweep_outcome(frequency_sweep, template, frequencies, 1)
                == sweep_outcome(frequency_sweep_per_stage, template,
                                 frequencies, 1))


def decimation_sweep_per_stage(template, input_frequency, factors, u_max):
    """decimation_sweep as first written, kept as the reference for
    single-analytic templates with a unique sink: every row walks the
    stages and the topology again, with R = B + (f - 1) * T_in + C and
    f = F at the aggregator only."""
    (analytic,) = template.analytics
    (agg_id,) = item_flow(analytic.topology).sinks
    aggregator = next(s for s in analytic.stages if s.id == agg_id)
    t_in = period_from_frequency(input_frequency)

    def row(factor):
        if factor < 1:
            raise ValueError("decimation factors must be >= 1")
        per_stage_resp = {}
        util = Fraction(0)
        for s in analytic.stages:
            f = factor if s.id == agg_id else 1
            util += utilization_at(s, f * t_in)
            per_stage_resp[s.id] = s.blocking + (f - 1) * t_in + s.cost
        e2e = end_to_end_response(analytic.topology, per_stage_resp)
        return (e2e, utilization_at(aggregator, factor * t_in),
                min_cores(util, u_max))

    _, _, cores_undecimated = row(1)
    rows = []
    for factor in factors:
        e2e, agg_util, cores = row(factor)
        rows.append(DecimationRow(factor, e2e, agg_util,
                                  cores_undecimated - cores))
    return rows


@st.composite
def decimation_templates(draw):
    """One analytic of 1-7 stages, periodic or one-shot, with costs and
    blockings up to 5 ms: a random seq/par tree of all stages but the
    last, then the last, the aggregator; now and then wrapped in a
    one-child seq or par."""
    stages = [
        Stage(id=f"s{i}", cost=draw(st.integers(0, 5 * MS)),
              inter_arrival=draw(st.sampled_from([MS, INFINITE])),
              deadline=SEC, blocking=draw(st.sampled_from([0, 1, 5 * MS])))
        for i in range(draw(st.integers(1, 7)))]

    def tree(ids):
        if len(ids) == 1:
            return ids[0]
        cut = draw(st.integers(1, len(ids) - 1))
        return draw(st.sampled_from([Seq, Par]))(
            (tree(ids[:cut]), tree(ids[cut:])))

    ids = [s.id for s in stages]
    topology = ids[-1]
    if len(ids) > 1:
        topology = Seq((tree(ids[:-1]), topology))
    for kind in draw(st.lists(st.sampled_from([Seq, Par]), max_size=2)):
        topology = kind((topology,))
    return System((Analytic("a", tuple(stages), topology, SEC),))


class TestDecimationSweep:
    @given(decimation_templates(),
           st.sampled_from([1, 3, 1000, 4000, Fraction(1, 3)]),
           st.lists(st.integers(0, 2000), min_size=1, max_size=4),
           st.sampled_from([1, Fraction(1, 2), Fraction(9, 10)]))
    @settings(max_examples=500, deadline=None)
    def test_matches_the_per_stage_walk(self, template, frequency, factors,
                                        u_max):
        assert (sweep_outcome(decimation_sweep, template, frequency, factors,
                              u_max)
                == sweep_outcome(decimation_sweep_per_stage, template,
                                 frequency, factors, u_max))

    def test_identity_at_factor_one(self, microblog):
        (row,) = decimation_sweep(microblog, 1000, [1], u_max=1)
        assert row.factor == 1
        assert row.cores_saved == 0
        assert row.end_to_end == 1145 * US
        assert row.aggregator_utilization == Fraction(511, 1000)

    def test_factor_one_matches_solver_on_dedicated_cores(self, microblog):
        # independent oracle: one core per stage, no interference
        system = retime_system(microblog, 1000)
        system = with_priorities(system, assign_priorities_dm(system))
        names = [s.id for s in system.stages()]
        cluster = homogeneous_cluster(len(names))
        allocation = {sid: f"c{i}" for i, sid in enumerate(names)}
        report = solve_system(system, allocation, cluster)
        (row,) = decimation_sweep(microblog, 1000, [1], u_max=1)
        assert row.end_to_end == report.per_analytic["microblog"].end_to_end

    def test_buffering_latency_and_utilization_drop(self, microblog):
        rows = decimation_sweep(microblog, 1000, [1, 1000], u_max=1)
        base, decimated = rows
        assert decimated.end_to_end == base.end_to_end + 999 * MS
        assert decimated.aggregator_utilization == Fraction(511, 10**6)
        assert base.aggregator_utilization == Fraction(511, 1000)

    def test_monotone_in_factor(self, microblog):
        rows = decimation_sweep(microblog, 4000, [1, 2, 4, 8, 64, 512, 1024],
                                u_max=1)
        for a, b in zip(rows, rows[1:]):
            assert a.end_to_end <= b.end_to_end
            assert a.aggregator_utilization >= b.aggregator_utilization
            assert a.cores_saved <= b.cores_saved

    def test_saves_cores_at_high_rate(self, microblog):
        rows = decimation_sweep(microblog, 4000, [1, 1000], u_max=1)
        assert rows[1].cores_saved > 0

    def test_one_shot_stages_count_zero(self, microblog):
        batch = Stage(id="microblog-count", cost=511 * US,
                      inter_arrival=INFINITE, deadline=SEC)
        (analytic,) = microblog.analytics
        one_shot = System((Analytic(
            analytic.id, (*analytic.stages[:2], batch), analytic.topology,
            analytic.end_to_end_deadline),))
        rows = decimation_sweep(one_shot, 1000, [1, 10], u_max=1)
        assert [r.aggregator_utilization for r in rows] == [0, 0]
        assert [r.cores_saved for r in rows] == [0, 0]
        assert [r.end_to_end for r in rows] == [1145 * US, 1145 * US + 9 * MS]

    def test_replication_limit_as_in_frequency_sweep(self, microblog):
        # the undecimated count is frequency_sweep's row, limit included
        with pytest.raises(ReplicationExceeded) as exc:
            decimation_sweep(microblog, 10_000_000, [1, 10], 1)
        assert (exc.value.stage_id, exc.value.needed) == ("microblog-split",
                                                          5070)

    def test_needs_unique_aggregator(self):
        a = Stage(id="a", cost=MS, inter_arrival=10 * MS, deadline=10 * MS)
        b = Stage(id="b", cost=MS, inter_arrival=10 * MS, deadline=10 * MS)
        from tcsizer import par
        system = System((Analytic("x", (a, b), par("a", "b"), SEC),))
        with pytest.raises(ValueError):
            decimation_sweep(system, 100, [1], u_max=1)


class TestBaselineComparison:
    def regime_system(self, blocking=200 * US):
        template = builtin_system(ScenarioId.MICROBLOG_ONLINE, frequency_hz=1,
                                  blocking=blocking)
        system = retime_system(template, 4000)
        return with_priorities(system, assign_priorities_dm(system))

    def test_blocking_inflates_baseline_only(self):
        system = self.regime_system()
        result = baseline_comparison(system, u_max=1)
        assert result.ours == 6
        assert result.baseline == 8  # (1145 + 3*200)us x 4 kHz = 6.98

    def test_equal_when_no_blocking(self):
        system = self.regime_system(blocking=0)
        result = baseline_comparison(system, u_max=1)
        assert result.ours == result.baseline == 6

    def test_single_small_stage(self):
        s = Stage(id="s", cost=1 * MS, inter_arrival=10 * MS,
                  deadline=11 * MS, blocking=1 * MS, priority=1)
        system = System((Analytic("s", (s,), "s", 11 * MS),))
        assert baseline_comparison(system, u_max=1) == (1, 1)

    def test_deadline_off_the_regime_is_answered(self):
        s = Stage(id="s", cost=1 * MS, inter_arrival=10 * MS,
                  deadline=9 * MS, priority=1)
        system = System((Analytic("s", (s,), "s", 9 * MS),))
        assert baseline_comparison(system, u_max=1) == (1, 1)

    def test_direction_over_random_systems(self):
        rng = random.Random(2024)
        strict = 0
        for _ in range(60):
            stages = []
            for i in range(rng.randint(2, 8)):
                t = rng.choice([5, 10, 20, 40]) * MS
                b = rng.randrange(t // 10, t // 3)
                c = rng.randrange(1, t // 2)
                stages.append(Stage(id=f"s{i}", cost=c, inter_arrival=t,
                                    deadline=t + b, blocking=b))
            system = System(tuple(
                Analytic(s.id, (s,), s.id, s.deadline) for s in stages))
            system = with_priorities(system, assign_priorities_dm(system))
            ours, baseline = baseline_comparison(system, u_max=1)
            assert baseline >= ours
            if baseline > ours:
                strict += 1
        assert strict > 0


def baseline_by_fractions(system, u_max):
    """Reference: the per-stage Fraction sums baseline_comparison kept
    before it summed integers over one common denominator."""
    ours_u = Fraction(0)
    base_u = Fraction(0)
    for s in system.stages():
        if s.inter_arrival is INFINITE:
            continue
        ours_u += Fraction(s.cost, s.inter_arrival)
        base_u += Fraction(s.cost + s.blocking, s.inter_arrival)
    return (min_cores(ours_u, u_max), min_cores(base_u, u_max))


@st.composite
def coprime_systems(draw):
    """One-stage analytics with periods from COPRIME_PERIODS (one-shot
    stages included), any deadline >= C, and any priority or none: the
    counts read only C, T and B."""
    stages = []
    for i, t in enumerate(draw(st.lists(st.sampled_from(COPRIME_PERIODS),
                                        max_size=30))):
        if t is INFINITE:
            c, b = draw(st.integers(0, 10**12)), draw(st.integers(0, 10**6))
        else:
            c, b = draw(st.integers(0, t)), draw(st.integers(0, t))
        d = draw(st.integers(c, c + 2 * 10**9))
        stages.append(Stage(id=f"s{i:02d}", cost=c, inter_arrival=t,
                            deadline=d, blocking=b,
                            priority=draw(st.none() | st.integers())))
    return System(tuple(
        Analytic(s.id, (s,), s.id, max(1, s.deadline)) for s in stages))


class TestScaledSums:
    @given(coprime_systems())
    @settings(max_examples=200, deadline=None)
    def test_match_the_per_stage_fraction_sums(self, system):
        summary = total_utilization(system)
        assert summary.total == sum(
            (s.utilization() for s in system.stages()), Fraction(0))
        for u_max in (1, Fraction(69, 100), Fraction(1, 3)):
            assert (baseline_comparison(system, u_max)
                    == baseline_by_fractions(system, u_max))

    def test_empty_system_needs_one_core(self):
        assert baseline_comparison(System(()), u_max=1) == (1, 1)

    def test_all_one_shot_system(self):
        stages = (Stage(id="x", cost=5, inter_arrival=INFINITE, deadline=9,
                        blocking=4, priority=2),
                  Stage(id="y", cost=3, inter_arrival=INFINITE, deadline=10,
                        priority=1))
        system = System(tuple(
            Analytic(s.id, (s,), s.id, s.deadline) for s in stages))
        assert total_utilization(system).total == 0
        assert [s.utilization() for s in system.stages()] == [0, 0]
        assert baseline_comparison(system, Fraction(1, 3)) == (1, 1)
