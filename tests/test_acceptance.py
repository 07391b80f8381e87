"""Acceptance suite: one test per criterion, exact tolerances as stated.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import io
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from tcsizer import (
    HOUR,
    MS,
    SEC,
    US,
    Analytic,
    Leaf,
    ScenarioId,
    Stage,
    System,
    allocate_first_fit,
    assign_priorities_dm,
    baseline_comparison,
    builtin_system,
    decimation_sweep,
    frequency_sweep,
    homogeneous_cluster,
    min_cores,
    retime_system,
    simulate,
    solve_system,
    total_utilization,
    verify_conservative,
    with_allocation,
    with_priorities,
    worst_observed,
)
from tcsizer.sizing import require_bound_regime
from tcsizer.cli import emit_system_spec, run_command
from tcsizer.sim import SimConfig

from generators import (
    accepted_stream,
    bound_regime_system,
    independent_taskset,
    pipelined_system,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _ok(n, message):
    print(f"\n[criterion {n}] PASS  {message}")


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_criterion_1_priority_pair_exact(tmp_path):
    started = time.monotonic()
    gp = with_priorities(builtin_system(ScenarioId.TABLE_VI),
                         {"TC1": 1, "TC2": 1})
    gp_path = tmp_path / "table-vi-gp.json"
    gp_path.write_text(emit_system_spec(gp, homogeneous_cluster(1)))
    tc_path = tmp_path / "table-vi-tc.json"
    tc_path.write_text(emit_system_spec(builtin_system(ScenarioId.TABLE_VI),
                                        homogeneous_cluster(1)))

    code, out, _ = invoke(["analyze", str(gp_path)])
    doc = json.loads(out)
    assert code == 2
    assert doc["per_stage"] == {"TC1": 2 * HOUR, "TC2": 2 * HOUR}
    assert doc["per_analytic"]["TC1"]["feasible"] is True
    assert doc["per_analytic"]["TC2"]["feasible"] is False

    code, out, _ = invoke(["analyze", str(tc_path)])
    doc = json.loads(out)
    assert code == 0
    assert doc["per_stage"] == {"TC1": 2 * HOUR, "TC2": HOUR}
    assert all(v["feasible"] for v in doc["per_analytic"].values())

    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _ok(1, f"equal-priority pair: both 2h, short-deadline task infeasible "
           f"(exit 2); prioritized pair: 1h/2h all feasible (exit 0) "
           f"[{elapsed:.2f}s]")


def test_criterion_2_rta_equals_synchronous_simulation():
    started = time.monotonic()

    def make(seed):
        system, allocation, cluster, hyper = independent_taskset(seed)
        report = solve_system(system, allocation, cluster)
        if not report.system_feasible:
            return None
        return system, allocation, cluster, hyper, report

    mismatches = 0
    checked = 0
    for _seed, (system, allocation, cluster, hyper, report) in \
            accepted_stream(make, 0, 500):
        assert hyper <= 10**9
        trace = simulate(system, allocation, cluster,
                         SimConfig(horizon=hyper))
        observed = worst_observed(trace)
        for s in system.stages():
            checked += 1
            if observed.per_stage.get(s.id) != report.per_stage[s.id]:
                mismatches += 1
    elapsed = time.monotonic() - started
    assert mismatches == 0
    assert elapsed < 120
    _ok(2, f"fixed-point bound == max observed response for 500 "
           f"single-core systems ({checked} stages) over one synchronous "
           f"hyperperiod [{elapsed:.1f}s]")


def test_criterion_3_utilization_bound_soundness():
    started = time.monotonic()
    violations = 0
    batches = [(10_000, True), (20_000, False)]
    for base_seed, harmonic in batches:
        for i in range(500):
            system, u_max = bound_regime_system(base_seed + i, harmonic)
            require_bound_regime(system)  # the regime the bound needs
            m = min_cores(total_utilization(system).total, u_max)
            cluster = homogeneous_cluster(m, capacity=u_max)
            allocation = allocate_first_fit(system, cluster)  # must not raise
            allocated = with_allocation(system, allocation)
            report = solve_system(allocated, allocation, cluster)
            if not report.system_feasible:
                violations += 1
                continue
            for s in allocated.stages():
                if report.per_stage[s.id] > s.inter_arrival + s.blocking:
                    violations += 1
    elapsed = time.monotonic() - started
    assert violations == 0
    assert elapsed < 120
    _ok(3, f"1000 bound-accepted systems: first-fit onto min_cores "
           f"succeeded and every stage met T+B [{elapsed:.1f}s]")


def test_criterion_4_simulator_conservativeness():
    started = time.monotonic()
    violations = []
    for _seed, got in accepted_stream(pipelined_system, 1_000_000, 500):
        system, allocation, cluster, hyper = got
        report = solve_system(system, allocation, cluster)
        trace = simulate(system, allocation, cluster,
                         SimConfig(horizon=hyper))
        violations.extend(verify_conservative(report, worst_observed(trace)))
    elapsed = time.monotonic() - started
    assert violations == []
    assert elapsed < 180
    _ok(4, f"500 feasible pipelined systems under adversarial blocking and "
           f"synchronous release: zero bound violations [{elapsed:.1f}s]")


def test_criterion_5_microblog_sweep_formula_faithful():
    template = builtin_system(ScenarioId.MICROBLOG_ONLINE, frequency_hz=1)
    frequencies = [1, 10, 100, 1000, 4000]
    rows = frequency_sweep(template, frequencies, u_max=1)
    for f, row in zip(frequencies, rows):
        assert row.total_utilization == Fraction(1145 * US * f, SEC)
    assert rows[-1].min_cores == 6
    assert min_cores(Fraction(1145 * US * 4000, SEC), 1) == 6

    # the far larger published figure for this scenario is documented as
    # not derivable from the bound, not silently matched
    notes = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "4 kHz" in notes and "80" in notes and "6" in notes
    _ok(5, "U(f) = f x 1145us exactly across the sweep; 6 cores at 4 kHz; "
           "deviation from the published 80-core figure documented")


def test_criterion_6_decimation_properties():
    started = time.monotonic()
    template = builtin_system(ScenarioId.MICROBLOG_ONLINE, frequency_hz=1)
    factors = [1, 10, 100, 1000]
    rows = decimation_sweep(template, 1000, factors, u_max=1)
    assert [r.factor for r in rows] == factors
    for a, b in zip(rows, rows[1:]):
        assert a.end_to_end <= b.end_to_end
        assert a.aggregator_utilization >= b.aggregator_utilization
        assert a.cores_saved <= b.cores_saved

    # F=1 equals the plain analysis exactly: solver on dedicated cores
    system = retime_system(template, 1000)
    system = with_priorities(system, assign_priorities_dm(system))
    ids = [s.id for s in system.stages()]
    allocation = {sid: f"c{i}" for i, sid in enumerate(ids)}
    report = solve_system(system, allocation, homogeneous_cluster(len(ids)))
    base = rows[0]
    assert base.end_to_end == report.per_analytic["microblog"].end_to_end
    assert base.cores_saved == 0
    assert base.aggregator_utilization == Fraction(511, 1000)
    elapsed = time.monotonic() - started
    assert elapsed < 5
    _ok(6, f"decimation monotone in latency/utilization/savings; F=1 row "
           f"equals the plain analysis [{elapsed:.2f}s]")


def _blocking_regime_system(seed, zero_blocking=False):
    rng = random.Random(seed)
    stages = []
    for i in range(rng.randint(2, 8)):
        t = rng.choice([5, 10, 20, 40]) * MS
        b = 0 if zero_blocking else rng.randrange(t // 10, t // 3)
        c = rng.randrange(1, t // 2)
        stages.append(Stage(id=f"s{i}", cost=c, inter_arrival=t,
                            deadline=t + b, blocking=b))
    system = System(tuple(
        Analytic(s.id, (s,), Leaf(s.id), s.deadline) for s in stages))
    return with_priorities(system, assign_priorities_dm(system))


def test_criterion_7_baseline_direction():
    strict = 0
    for seed in range(200):
        system = _blocking_regime_system(30_000 + seed)
        ours, baseline = baseline_comparison(system, u_max=1)
        assert baseline >= ours
        if baseline > ours:
            strict += 1
    assert strict >= 1
    for seed in range(40):
        system = _blocking_regime_system(40_000 + seed, zero_blocking=True)
        ours, baseline = baseline_comparison(system, u_max=1)
        assert ours == baseline
    _ok(7, f"200 nonzero-blocking systems: baseline >= ours, {strict} "
           f"strictly larger; equality on all 40 zero-blocking systems")


def test_criterion_8_byte_identical_reruns(tmp_path):
    gp = with_priorities(builtin_system(ScenarioId.TABLE_VI),
                         {"TC1": 1, "TC2": 1})
    gp_path = tmp_path / "gp.json"
    gp_path.write_text(emit_system_spec(gp, homogeneous_cluster(1)))
    mb_path = tmp_path / "microblog.json"
    mb_path.write_text(emit_system_spec(
        builtin_system(ScenarioId.MICROBLOG_ONLINE, frequency_hz=1),
        homogeneous_cluster(8)))
    trace_path = tmp_path / "trace.csv"
    commands = [
        ["analyze", str(gp_path)],
        ["size", str(mb_path), "--freqs", "1,1000,4000", "--umax", "1"],
        ["decimate", str(mb_path), "--factors", "1,10,100", "--freq", "1000"],
        ["simulate", str(mb_path), "--seed", "42", "--horizon", "2s",
         "--release", "JITTERED", "--blocking", "UNIFORM",
         "--trace", str(trace_path)],
        ["compare", str(mb_path)],
    ]
    for argv in commands:
        runs = []
        for _ in range(2):
            code, out, err = invoke(argv)
            artifact = trace_path.read_bytes() if argv[0] == "simulate" else b""
            runs.append((code, out, err, artifact))
        assert runs[0] == runs[1], f"non-deterministic output for {argv[0]}"
    _ok(8, "analyze/size/decimate/simulate/compare reruns byte-identical "
           "(fixed seeds)")
