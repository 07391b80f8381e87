"""Tests of the benchmark's own arithmetic and tiny smoke runs of each
workload. Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # keep src/ free of bytecode caches
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import loads  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "plan-wide": {"n_stages": 60},
    "validate": {"systems": 8},
    "cli-analyze": {"n_tasks": 30},
    "cli-simulate": {"horizon": "20ms"},
    "cli-startup": {},
}


class TestPercentiles:
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        assert measure.percentile(samples, 50) == 50
        assert measure.percentile(samples, 90) == 90
        assert measure.percentile(samples, 99.9) == 100
        assert measure.percentile([7], 50) == 7

    @pytest.mark.parametrize("n, level", [
        (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
        (1000, 99.0), (10_000, 99.9),
    ])
    def test_tail_keeps_ten_samples_beyond(self, n, level):
        tail = measure.tail_percentile(range(n))
        if level is None:
            assert tail is None
            return
        got, value, count = tail
        assert (got, count) == (level, n)
        assert sum(1 for x in range(n) if x > value) >= 10

    def test_tail_sorts_its_input(self):
        assert measure.tail_percentile([5, 1, 4, 2, 3] * 4)[1] == 3


class TestSelfTime:
    def test_covered_merges_and_clips(self):
        assert measure.covered(0, 100, [(10, 30), (20, 40), (90, 120)]) == 40
        assert measure.covered(0, 100, []) == 0
        assert measure.covered(50, 60, [(0, 200)]) == 10

    def test_summary_subtracts_children(self):
        tr = measure.Tracer()
        for span_id, (parent, name, start, end) in enumerate([
                (None, "op", 0, 100), (0, "a", 10, 30), (0, "a", 50, 70),
                (2, "b", 55, 60)]):
            span = measure.Span(span_id, parent, 0, name, start)
            span.end = end
            tr.spans.append(span)
        summary = tr.summary()
        assert summary["op"]["self_s"] == pytest.approx(60e-9)
        assert summary["a"] == {"calls": 2, "busy_s": pytest.approx(40e-9),
                                "self_s": pytest.approx(35e-9)}
        assert tr.busy_ns("a", "b") == 45

    def test_call_records_nesting(self):
        tr = measure.Tracer()
        assert tr.call("outer", lambda: tr.call("inner", max, 1, 2)) == 2
        outer, inner = tr.spans
        assert inner.parent == outer.id and outer.parent is None
        assert outer.start <= inner.start <= inner.end <= outer.end


class _Flaky:
    """A workload whose single op changes its output after two calls and
    raises on the fourth."""

    distinct = 1

    def __init__(self):
        self.calls = 0

    def op(self, idx, tr):
        self.calls += 1
        if self.calls == 4:
            raise RuntimeError("boom")
        return self.calls > 2

    def check(self, idx, result):
        return loads.Outcome(repr(result), None, {"n": 1})


def test_failures_are_counted():
    res = run.loop(_Flaky(), 0.05, measure.NullTracer(), {})
    assert res.attempted >= 4
    assert len(res.errors) == res.attempted - 2
    assert len(res.latencies_ns) == res.attempted - 1
    assert any("differs from an earlier repetition" in e for e in res.errors)
    assert any("boom" in e for e in res.errors)


class _Probed:
    """A workload whose op reports a probe twice the reference time and
    2 ms of probing, as a CLI child does."""

    distinct = 1

    def op(self, idx, tr):
        time.sleep(0.004)

    def check(self, idx, result):
        return loads.Outcome("same", None, {},
                             (2 * measure.CALIB_REF_NS, 2_000_000))


def test_op_probe_scales_and_is_subtracted():
    res = run.loop(_Probed(), 0, measure.NullTracer(), {})
    (raw,), (scaled,) = res.latencies_ns, res.scaled_ns
    assert 2_000_000 <= raw < 40_000_000  # the 4 ms sleep minus 2 ms
    assert scaled == pytest.approx(raw / 2)


def test_probes_around_takes_the_median_in_the_window():
    probes = [10, 99, 30, 20, 1]
    times = [0.0, 0.5, 1.0, 1.5, 9.0]
    assert measure.probes_around(probes, times, 2, 0.6) == 30
    assert measure.probes_around(probes, times, 3, 0.1) == 10.5
    assert measure.probes_around(probes, times, 0, 0.0) == 54.5


def test_reference_speed():
    assert measure.at_reference_speed(10, measure.CALIB_REF_NS) == 10
    assert measure.at_reference_speed(10, 2 * measure.CALIB_REF_NS) == 5
    assert measure.machine_speed() > 0


class TestSimulatorChecks:
    """A simulator that stops early or runs jobs too fast fails the
    output checks."""

    @pytest.fixture(scope="class")
    def validate(self):
        w = loads.Validate(9002, Path("unused"), systems=8)
        w.setup()
        return w

    def test_accepts_the_real_simulator(self, validate):
        for idx in range(validate.distinct):
            result = validate.op(idx, measure.NullTracer())
            assert validate.check(idx, result).error is None

    def test_short_horizon_fails(self, validate):
        # a system where one hyperperiod holds more releases of some
        # stage than its analytic has stages, so losing one shows
        idx = next(i for i, (system, _, _, hyper) in enumerate(validate.pool)
                   if any(hyper // s.inter_arrival > len(a.stages)
                          for a in system.analytics for s in a.stages))
        report, _trace, _observed, _violations = validate.op(
            idx, measure.NullTracer())
        system, allocation, cluster, hyper = validate.pool[idx]
        trace = loads.simulate(system, allocation, cluster,
                               loads.SimConfig(horizon=2 * hyper))
        observed = loads.worst_observed(trace)
        error = validate.check(idx, (report, trace, observed, [])).error
        assert "completed" in error

    def test_job_faster_than_its_cost_fails(self, validate):
        report, trace, observed, violations = validate.op(
            0, measure.NullTracer())
        key = next(iter(trace.job_responses))
        trace.job_responses[key] = 0
        error = validate.check(0, (report, trace, observed,
                                   violations)).error
        assert "less than its cost" in error

    def test_sim_error_window(self):
        system = loads.inputs.microblog_headline()
        horizon = 3_000_000
        full = loads.Counter({s.id: -(-horizon // s.inter_arrival)
                              for s in system.stages()})
        shortest = {s.id: s.cost for s in system.stages()}
        assert loads.sim_error(system, horizon, full, shortest) is None
        dropped = full.copy()
        dropped["microblog-gen"] -= len(system.analytics[0].stages) + 1
        assert "completed" in loads.sim_error(system, horizon, dropped,
                                              shortest)


class TestCliSpans:
    def test_spans_come_from_the_cli_and_modules_are_restored(self):
        original = loads.analysis.solve_system
        tr, results = measure.Tracer(), {}
        spec = loads.emit_system_spec(loads.inputs.microblog_headline(),
                                      loads.homogeneous_cluster(8))
        with loads.spanned_cli_calls(tr, results):
            loads.cli.parse_system_spec(spec)
            assert loads.analysis.solve_system is not original
        assert loads.analysis.solve_system is original
        assert [s.name for s in tr.spans] == ["cli.parse_system_spec"]
        assert len(results["cli.parse_system_spec"]) == 1

    def test_counts_from_results(self):
        counts = loads.cli_counts({"model.allocate_first_fit": [{"a": "c0"},
                                                                {"b": "c1"}]})
        assert counts["model.stages_placed"] == 2
        assert counts["sim.jobs"] == 0


def test_children_skip_bytecode_caches(tmp_path):
    """A stale cache next to a module is ignored and none is written."""
    import os
    import py_compile

    module = tmp_path / "mod.py"
    module.write_text("X = 2\n")
    cached = Path(py_compile.compile(str(module)))
    stamp = module.stat().st_mtime_ns
    module.write_text("X = 1\n")  # same size and, below, same mtime
    os.utime(module, ns=(stamp, stamp))
    before = cached.stat().st_mtime_ns
    code = loads.source_only(str(tmp_path)) + "import mod\nprint(mod.X)\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout == "1\n"
    assert cached.stat().st_mtime_ns == before


def _names(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke(name, trace):
    result, info = run.run(name, 9000, 0, trace, TINY[name])
    assert result["correct"], info["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = _names("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert info["python"] and info["samples"] >= 1


def test_counts_repeat_exactly():
    def counts():
        result, _ = run.run("validate", 9001, 0, True, TINY["validate"])
        return {k: result["metrics"][k]["value"]
                for k in ("sim.jobs", "sim.violations", "sim.items",
                          "analysis.diverged_stages")}
    first = counts()
    assert first["sim.jobs"] > 0
    assert counts() == first


def test_workload_names_match_benchmark_json():
    assert sorted(loads.WORKLOADS) == sorted(
        w["name"] for w in BENCH["workloads"])


def test_refuses_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*BENCH["command"], "--workload", "plan-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
