import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tcsizer
from tcsizer import cli
from tcsizer import (
    DIVERGED,
    HOUR,
    INFINITE,
    MS,
    SEC,
    US,
    Analytic,
    AnalyticVerdict,
    Leaf,
    ResponseReport,
    ScenarioId,
    Stage,
    System,
    allocate_first_fit,
    assign_priorities_dm,
    builtin_system,
    homogeneous_cluster,
    par,
    retime_system,
    with_allocation,
    with_priorities,
)
from tcsizer.cli import (
    MAX_DURATION_DIGITS,
    MAX_TOPOLOGY_DEPTH,
    Options,
    ParseError,
    emit_system_spec,
    format_duration,
    parse_duration,
    parse_system_spec,
    run_command,
)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def invoke_child(argv, timeout):
    """``python -m tcsizer.cli argv`` in a child process, killed (and the
    test failed) after ``timeout`` seconds."""
    env = {**os.environ,
           "PYTHONPATH": str(Path(tcsizer.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, "-B", "-m", "tcsizer.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout)


@pytest.fixture
def table_vi_gp(tmp_path):
    system = with_priorities(builtin_system(ScenarioId.TABLE_VI),
                             {"TC1": 1, "TC2": 1})
    path = tmp_path / "table-vi-gp.json"
    path.write_text(emit_system_spec(system, homogeneous_cluster(1)))
    return path


@pytest.fixture
def table_vi_tc(tmp_path):
    path = tmp_path / "table-vi-tc.json"
    path.write_text(emit_system_spec(builtin_system(ScenarioId.TABLE_VI),
                                     homogeneous_cluster(1)))
    return path


@pytest.fixture
def microblog(tmp_path):
    system = builtin_system(ScenarioId.MICROBLOG_ONLINE, frequency_hz=1)
    path = tmp_path / "microblog.json"
    path.write_text(emit_system_spec(system, homogeneous_cluster(8)))
    return path


def headline_system():
    """The microblog scenario re-timed to 4 kHz: round-robin replicas of
    the splitter and the counter."""
    return retime_system(builtin_system(ScenarioId.MICROBLOG_ONLINE,
                                        frequency_hz=1), 4000)


@pytest.fixture
def headline(tmp_path):
    path = tmp_path / "headline.json"
    path.write_text(emit_system_spec(headline_system(),
                                     homogeneous_cluster(8)))
    return path


class TestDurations:
    @pytest.mark.parametrize("text, ns", [
        ("0ns", 0),
        ("127us", 127 * US),
        ("1.5ms", 1_500_000),
        ("2h", 2 * HOUR),
        ("1s", SEC),
        ("10min", 600 * SEC),
        ("0.25us", 250),
        ("01ms", 1_000_000),
    ])
    def test_parse(self, text, ns):
        value = parse_duration(text)
        assert value == ns and type(value) is int

    def test_inf_only_for_inter_arrival(self):
        from tcsizer import INFINITE
        assert parse_duration("inf", allow_inf=True) is INFINITE
        with pytest.raises(ParseError):
            parse_duration("inf")

    @pytest.mark.parametrize("bad", ["", "12", "1.5.2ms", "-4us", "3 weeks",
                                     "0.3ns", "1.0000001us"])
    def test_rejects_naming_token(self, bad):
        with pytest.raises(ParseError) as exc:
            parse_duration(bad, path="/x")
        assert exc.value.path == "/x"

    @pytest.mark.parametrize("text, message", [
        ("0.5ns", "duration '0.5ns' is not a whole number of nanoseconds"),
        ("inf", '"inf" is only allowed for inter-arrival times'),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_duration(text, path="/x")
        assert (exc.value.path, exc.value.message) == ("/x", message)

    @given(st.integers(0, 10**9), st.sampled_from(
        ["ns", "us", "µs", "ms", "s", "min", "h"]))
    @settings(max_examples=200)
    def test_whole_number_matches_decimal_form(self, n, unit):
        assert parse_duration(f"{n}{unit}") == parse_duration(f"{n}.0{unit}")

    @given(st.integers(0, 10**15))
    @settings(max_examples=200)
    def test_roundtrip(self, ns):
        assert parse_duration(format_duration(ns)) == ns


class TestSpecRoundTrip:
    def test_priority_pair_round_trip(self):
        system = with_priorities(builtin_system(ScenarioId.TABLE_VI),
                                 {"TC1": 3, "TC2": 7})
        cluster = homogeneous_cluster(2)
        text = emit_system_spec(system, cluster)
        parsed_system, parsed_cluster, _ = parse_system_spec(text)
        assert parsed_system == system
        assert parsed_cluster == cluster

    def test_round_trip_with_everything(self):
        system = retime_system(builtin_system(ScenarioId.MICROBLOG_ONLINE,
                                              frequency_hz=1,
                                              blocking=20 * US), 4000)
        cluster = homogeneous_cluster(3, platform_blocking=5 * US)
        options = Options()
        options.frequencies_hz = [1, 4000][:]
        options.horizon = 2 * SEC
        options.seed = 11
        text = emit_system_spec(system, cluster, options)
        system2, cluster2, options2 = parse_system_spec(text)
        assert system2 == system
        assert cluster2 == cluster
        assert options2.frequencies_hz == [1, 4000]
        assert options2.horizon == 2 * SEC
        assert options2.seed == 11
        # emit is stable under a second round trip
        assert emit_system_spec(system2, cluster2, options2) == text
        assert json.loads(text)["analytics"][0]["topology"] == {"seq": [
            "microblog-gen",
            {"rr": ["microblog-split#1", "microblog-split#2",
                    "microblog-split#3"]},
            {"rr": ["microblog-count#1", "microblog-count#2",
                    "microblog-count#3"]}]}

    def test_headline_round_trip(self):
        system, cluster = headline_system(), homogeneous_cluster(8)
        parsed, parsed_cluster, _ = parse_system_spec(
            emit_system_spec(system, cluster))
        assert (parsed, parsed_cluster) == (system, cluster)

    @pytest.mark.parametrize("children, pointer", [
        (["a", {"seq": ["b"]}], "/analytics/0/topology/rr/1"),
        ([3, "b"], "/analytics/0/topology/rr/0"),
        (["a", None], "/analytics/0/topology/rr/1"),
    ])
    def test_round_robin_children_are_stage_ids(self, children, pointer):
        doc = {
            "analytics": [{
                "id": "x", "end_to_end_deadline": "1s",
                "stages": [{"id": sid, "cost": "1ms", "inter_arrival": "10ms",
                            "deadline": "10ms"} for sid in ("a", "b")],
                "topology": {"rr": children},
            }],
            "cluster": {"cores": [{"id": "c0"}]},
        }
        with pytest.raises(ParseError) as exc:
            parse_system_spec(json.dumps(doc))
        assert (exc.value.path, exc.value.message) == (
            pointer, "round-robin children must be stage ids")

    def test_mixed_period_round_robin_is_an_input_error(self, tmp_path):
        doc = {
            "analytics": [{
                "id": "x", "end_to_end_deadline": "1s",
                "stages": [{"id": sid, "cost": "1ms", "inter_arrival": t,
                            "deadline": "10ms"}
                           for sid, t in (("a", "10ms"), ("b", "20ms"))],
                "topology": {"rr": ["a", "b"]},
            }],
            "cluster": {"cores": [{"id": "c0"}]},
        }
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(["analyze", str(path)])
        assert (code, out) == (1, "")
        assert err == (
            "error: invalid system: /analytics/0/topology: round-robin "
            "replicas a, b do not share one finite inter-arrival\n")

    def test_missing_required_field_pointer(self):
        doc = {
            "analytics": [{
                "id": "a", "end_to_end_deadline": "1s",
                "stages": [{"id": "s", "cost": "1ms",
                            "inter_arrival": "10ms"}],
                "topology": "s",
            }],
            "cluster": {"cores": [{"id": "c0"}]},
        }
        with pytest.raises(ParseError) as exc:
            parse_system_spec(json.dumps(doc))
        assert exc.value.path == "/analytics/0/stages/0/deadline"

    def test_unknown_keys_rejected(self):
        doc = {
            "analytics": [],
            "cluster": {"cores": [{"id": "c0"}]},
            "extra": 1,
        }
        with pytest.raises(ParseError) as exc:
            parse_system_spec(json.dumps(doc))
        assert exc.value.path == "/extra"

    def test_bad_duration_names_token(self):
        doc = {
            "analytics": [{
                "id": "a", "end_to_end_deadline": "1s",
                "stages": [{"id": "s", "cost": "1 parsec",
                            "inter_arrival": "10ms", "deadline": "10ms"}],
                "topology": "s",
            }],
            "cluster": {"cores": [{"id": "c0"}]},
        }
        with pytest.raises(ParseError) as exc:
            parse_system_spec(json.dumps(doc))
        assert "1 parsec" in str(exc.value)
        assert exc.value.path == "/analytics/0/stages/0/cost"

    def test_priorities_and_allocation_validated(self):
        system = builtin_system(ScenarioId.TABLE_VI)
        text = emit_system_spec(system, homogeneous_cluster(1))
        doc = json.loads(text)
        doc["priorities"] = {"nope": 1}
        with pytest.raises(ParseError) as exc:
            parse_system_spec(json.dumps(doc))
        assert exc.value.path == "/priorities/nope"
        doc = json.loads(text)
        doc["allocation"] = {"TC1": "ghost"}
        with pytest.raises(ParseError):
            parse_system_spec(json.dumps(doc))

    def test_capacity_as_decimal_is_exact(self):
        doc = {
            "analytics": [],
            "cluster": {"cores": [{"id": "c0", "capacity": 0.69}]},
        }
        _, cluster, _ = parse_system_spec(json.dumps(doc))
        assert cluster.cores[0].capacity == Fraction(69, 100)

    @pytest.mark.parametrize("capacity", [
        Fraction(1), Fraction(69, 100), Fraction(1, 3), Fraction(7, 11)])
    def test_odd_capacities_round_trip(self, capacity):
        from tcsizer import Cluster, Core
        cluster = Cluster((Core("c0", capacity),))
        text = emit_system_spec(System(()), cluster)
        _, parsed, _ = parse_system_spec(text)
        assert parsed.cores[0].capacity == capacity


def nested_spec(depth: int) -> str:
    """One stage under ``depth`` nested seq nodes."""
    doc = json.dumps({
        "analytics": [{
            "id": "a", "end_to_end_deadline": "1s",
            "stages": [{"id": "s", "cost": "1ms", "inter_arrival": "10ms",
                        "deadline": "10ms"}],
            "topology": "TOPOLOGY",
        }],
        "cluster": {"cores": [{"id": "c0"}]},
    })
    return doc.replace('"TOPOLOGY"',
                       '{"seq": [' * depth + '"s"' + ']}' * depth)


class TestNestingCap:
    def test_cap_depth_is_accepted(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(nested_spec(MAX_TOPOLOGY_DEPTH))
        code, out, _ = invoke(["analyze", str(path)])
        assert code == 0
        assert json.loads(out)["per_analytic"]["a"]["end_to_end"] == MS

    def test_node_past_cap_names_its_pointer(self):
        with pytest.raises(ParseError) as exc:
            parse_system_spec(nested_spec(MAX_TOPOLOGY_DEPTH + 1))
        assert exc.value.path == (
            "/analytics/0/topology" + "/seq/0" * MAX_TOPOLOGY_DEPTH)

    @pytest.mark.parametrize("depth", [450, 800])
    @pytest.mark.parametrize("command", [
        ["analyze"], ["size", "--freqs", "1"],
        ["decimate", "--factors", "1", "--freq", "1"], ["compare"],
        ["simulate", "--horizon", "1s"]])
    def test_deep_topology_is_an_input_error(self, tmp_path, depth, command):
        path = tmp_path / "deep.json"
        path.write_text(nested_spec(depth))
        argv = [command[0], str(path), *command[1:]]
        if command[0] == "simulate":
            argv += ["--trace", str(tmp_path / "t.csv")]
        code, out, err = invoke(argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


class TestAnalyzeCommand:
    def test_gp_configuration_infeasible(self, table_vi_gp):
        code, out, _ = invoke(["analyze", str(table_vi_gp)])
        assert code == 2
        doc = json.loads(out)
        assert doc["per_stage"] == {"TC1": 2 * HOUR, "TC2": 2 * HOUR}
        assert doc["per_analytic"]["TC2"]["feasible"] is False
        assert doc["system_feasible"] is False

    def test_tc_configuration_feasible(self, table_vi_tc):
        code, out, _ = invoke(["analyze", str(table_vi_tc)])
        assert code == 0
        doc = json.loads(out)
        assert doc["per_stage"] == {"TC1": 2 * HOUR, "TC2": HOUR}
        assert doc["system_feasible"] is True

    def test_missing_file_is_usage_error(self):
        code, _, err = invoke(["analyze", "/nonexistent.json"])
        assert code == 1
        assert "error:" in err

    def test_invalid_system_is_usage_error(self, tmp_path):
        s = Stage(id="s", cost=2 * SEC, inter_arrival=10 * SEC,
                  deadline=1 * SEC)
        system = System((Analytic("a", (s,), Leaf("s"), SEC),))
        path = tmp_path / "bad.json"
        path.write_text(emit_system_spec(system, homogeneous_cluster(1)))
        code, _, err = invoke(["analyze", str(path)])
        assert code == 1
        assert "cost exceeds deadline" in err

    def test_partial_priorities_rejected(self, tmp_path):
        system = with_priorities(builtin_system(ScenarioId.TABLE_VI),
                                 {"TC1": 1})
        path = tmp_path / "partial.json"
        path.write_text(emit_system_spec(system, homogeneous_cluster(1)))
        code, _, err = invoke(["analyze", str(path)])
        assert code == 1
        assert "priorities" in err

    def test_usage_error_is_exit_1_not_2(self):
        code, _, err = invoke(["analyze"])
        assert code == 1

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    @pytest.mark.parametrize("make", [
        lambda: builtin_system(ScenarioId.MICROBLOG_ONLINE, frequency_hz=1),
        headline_system,
    ], ids=["microblog", "headline"])
    def test_written_first_fit_allocation_changes_nothing(
            self, tmp_path, command, make):
        system, cluster = make(), homogeneous_cluster(8)
        allocation = allocate_first_fit(
            with_priorities(system, assign_priorities_dm(system)), cluster)
        bare, placed = tmp_path / "bare.json", tmp_path / "placed.json"
        bare.write_text(emit_system_spec(system, cluster))
        placed.write_text(emit_system_spec(
            with_allocation(system, allocation), cluster))
        assert placed.read_text() != bare.read_text()
        argv = ["--seed", "3", "--horizon", "1s"] if command == "simulate" \
            else []
        runs = [invoke_with_trace([command, str(spec), *argv], tmp_path)
                for spec in (bare, placed)]
        assert runs[0][0] == 0, runs[0][2]
        assert runs[0] == runs[1]

    def test_module_runs_the_command(self, table_vi_gp):
        proc = invoke_child(["analyze", str(table_vi_gp)], timeout=60)
        code, out, _ = invoke(["analyze", str(table_vi_gp)])
        assert code == 2
        assert (proc.returncode, proc.stdout) == (code, out)

    def test_full_core_diverges_at_once(self, tmp_path):
        # tick fills the core (C = T), so the one-shot batch below it has
        # no fixed point; the iterate must not climb 10 us a round to 2 h
        tick = Stage(id="tick", cost=10 * US, inter_arrival=10 * US,
                     deadline=10 * US)
        batch = Stage(id="batch", cost=10 * US, inter_arrival=INFINITE,
                      deadline=2 * HOUR)
        system = System((Analytic("tick", (tick,), Leaf("tick"), 10 * US),
                         Analytic("batch", (batch,), Leaf("batch"),
                                  2 * HOUR)))
        path = tmp_path / "full-core.json"
        path.write_text(emit_system_spec(system, homogeneous_cluster(1)))
        proc = invoke_child(["analyze", str(path)], timeout=30)
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["per_stage"] == {
            "batch": "DIVERGED", "tick": 10 * US}


class TestSizeCommand:
    def test_csv_output(self, microblog):
        code, out, _ = invoke(["size", str(microblog),
                               "--freqs", "1,4000", "--umax", "1"])
        assert code == 0
        assert out.splitlines() == [
            "frequency_hz,total_utilization,min_cores",
            "1,0.001145,1",
            "4000,4.58,6",
        ]

    def test_umax_fraction(self, microblog):
        code, out, _ = invoke(["size", str(microblog),
                               "--freqs", "4000", "--umax", "69/100"])
        assert code == 0
        assert out.splitlines()[1].split(",")[2] == "8"

    def test_one_shot_stages_need_no_replicas(self, table_vi_tc):
        code, out, err = invoke(["size", str(table_vi_tc), "--freqs", "100"])
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "100,0,1"

    def test_replicated_spec_is_an_input_error(self, headline):
        code, out, err = invoke(["size", str(headline), "--freqs", "100"])
        assert (code, out) == (1, "")
        assert "already replicated" in err

    def test_replicated_spec_error_points_at_the_topology(self, headline):
        code, out, err = invoke(["size", str(headline), "--freqs", "100"])
        assert (code, out) == (1, "")
        assert err == ("error: /analytics/0/topology: analytic 'microblog' "
                       "is already replicated (round-robin node)\n")

    def test_replication_limit(self, microblog):
        argv = ["size", str(microblog), "--freqs", "4000"]
        assert invoke([*argv, "--replication-limit", "3"]) == invoke(argv)
        code, out, err = invoke([*argv, "--replication-limit", "2"])
        assert (code, out) == (1, "")
        assert err == ("error: stage 'microblog-split' needs 3 replicas, "
                       "limit is 2\n")

    @pytest.mark.parametrize("spec", ["microblog", "table_vi_tc"])
    @pytest.mark.parametrize("text", ["0", "-3", "1_000", "x"])
    def test_bad_replication_limit(self, request, spec, text):
        code, out, err = invoke([
            "size", str(request.getfixturevalue(spec)), "--freqs", "4000",
            "--replication-limit", text])
        assert (code, out) == (1, "")
        assert err == ("error: --replication-limit: replication limit must "
                       "be a positive integer\n")

    def test_bad_freqs(self, microblog):
        code, _, err = invoke(["size", str(microblog), "--freqs", "1,zap"])
        assert code == 1

    def test_options_fallback(self, tmp_path):
        system = builtin_system(ScenarioId.MICROBLOG_ONLINE, frequency_hz=1)
        options = Options()
        options.frequencies_hz = [Fraction(1), Fraction(4000)]
        options.factors = [1, 10]
        options.input_frequency_hz = Fraction(1000)
        path = tmp_path / "with-options.json"
        path.write_text(emit_system_spec(system, homogeneous_cluster(8),
                                         options))
        code, out, _ = invoke(["size", str(path)])
        assert code == 0
        assert out.splitlines()[2] == "4000,4.58,6"
        code, out, _ = invoke(["decimate", str(path)])
        assert code == 0
        assert out.splitlines()[1].startswith("1,1145000,")


class TestDecimateCommand:
    def test_csv_output(self, microblog):
        code, out, _ = invoke(["decimate", str(microblog),
                               "--factors", "1,10,100,1000",
                               "--freq", "1000"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "factor,end_to_end_ns,aggregator_utilization,cores_saved"
        assert lines[1] == "1,1145000,0.511,0"
        assert lines[4].startswith("1000,1000145000,0.000511,")

    def test_requires_frequency(self, microblog):
        code, _, err = invoke(["decimate", str(microblog), "--factors", "1"])
        assert code == 1
        assert "frequency" in err

    def test_freq_takes_one_frequency(self, microblog):
        code, out, err = invoke(["decimate", str(microblog), "--factors", "1",
                                 "--freq", "1000,2000"])
        assert code == 1
        assert out == ""
        assert "--freq" in err

    def test_two_analytics_are_refused_at_a_pointer(self, table_vi_tc):
        code, out, err = invoke(["decimate", str(table_vi_tc),
                                 "--factors", "1", "--freq", "10"])
        assert (code, out) == (1, "")
        assert err == ("error: /analytics: decimation_sweep expects a "
                       "single-analytic system\n")

    def test_two_sinks_are_refused_at_a_pointer(self, tmp_path):
        stages = tuple(Stage(id=sid, cost=MS, inter_arrival=10 * MS,
                             deadline=10 * MS) for sid in "ab")
        system = System((Analytic("p", stages, par("a", "b"), 10 * MS),))
        path = tmp_path / "two-sinks.json"
        path.write_text(emit_system_spec(system, homogeneous_cluster(1)))
        code, out, err = invoke(["decimate", str(path),
                                 "--factors", "1", "--freq", "10"])
        assert (code, out) == (1, "")
        assert err == ("error: /analytics/0/topology: analytic 'p': "
                       "decimation needs a unique final stage, found "
                       "['a', 'b']\n")

    def test_unprintable_row_leaves_stdout_empty(self, microblog):
        # T_in = 10**5009 ns: the row's end-to-end time has too many
        # digits to print, so not even the header may be written
        code, out, err = invoke(["decimate", str(microblog), "--factors", "2",
                                 "--freq", "1e-5000"])
        assert (code, out) == (1, "")
        assert err.startswith("error: ")


def all_options_spec(tmp_path, name="all-options.json", **changes):
    """Microblog at 1 Hz with blocking and D = T + B on 8 cores, with a
    spec that sets every option; ``changes`` replace options (sim
    options by their own key)."""
    system = builtin_system(ScenarioId.MICROBLOG_ONLINE, frequency_hz=1,
                            deadline=SEC + 20 * US, blocking=20 * US)
    doc = json.loads(emit_system_spec(system, homogeneous_cluster(8)))
    doc["options"] = {
        "u_max": "9/10", "frequencies_hz": [1, 4000], "factors": [1, 10],
        "input_frequency_hz": 1000,
        "sim": {"horizon": "2s", "seed": 3, "blocking_policy": "UNIFORM",
                "release_policy": "JITTERED"},
    }
    for key, value in changes.items():
        options = doc["options"]
        if key in options["sim"]:
            options = options["sim"]
        if value is None:
            del options[key]
        else:
            options[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def invoke_with_trace(argv, tmp_path):
    """invoke; simulate writes its trace to a fresh file, returned as
    well (None for the other commands)."""
    if argv[0] != "simulate":
        return (*invoke(argv), None)
    trace_path = tmp_path / "flag-trace.csv"
    if trace_path.exists():
        trace_path.unlink()
    code, out, err = invoke([*argv, "--trace", str(trace_path)])
    return code, out, err, (trace_path.read_text()
                            if trace_path.exists() else None)


class TestOptionFlags:
    """Every flag that overrides an option is read like that option."""

    @pytest.mark.parametrize("command, flag, text, key, value", [
        ("size", "--freqs", "100,4000", "frequencies_hz", [100, 4000]),
        ("size", "--umax", "1/2", "u_max", "1/2"),
        ("decimate", "--factors", "1,100", "factors", [1, 100]),
        ("decimate", "--freq", "500", "input_frequency_hz", 500),
        ("decimate", "--umax", "0.2", "u_max", 0.2),
        ("compare", "--umax", "1/1000", "u_max", "1/1000"),
        ("simulate", "--horizon", "4s", "horizon", "4s"),
        ("simulate", "--seed", "5", "seed", 5),
        ("simulate", "--blocking", "ADVERSARIAL", "blocking_policy",
         "ADVERSARIAL"),
        ("simulate", "--release", "SYNCHRONOUS", "release_policy",
         "SYNCHRONOUS"),
    ])
    def test_flag_beats_the_spec(self, tmp_path, command, flag, text, key,
                                 value):
        spec = all_options_spec(tmp_path)
        with_flag = invoke_with_trace([command, str(spec), flag, text],
                                      tmp_path)
        assert with_flag[0] == 0, with_flag[2]
        as_option = all_options_spec(tmp_path, "as-option.json",
                                     **{key: value})
        assert with_flag == invoke_with_trace([command, str(as_option)],
                                              tmp_path)
        assert with_flag != invoke_with_trace([command, str(spec)], tmp_path)

    @pytest.mark.parametrize("command, flag, text, pointer", [
        ("size", "--freqs", "", "--freqs/0:"),
        ("size", "--freqs", "1,zap", "--freqs/1:"),
        ("size", "--umax", "", "--umax:"),
        ("size", "--umax", "2", "--umax:"),
        ("decimate", "--factors", "", "--factors/0:"),
        ("decimate", "--factors", "1,0", "--factors/1:"),
        ("decimate", "--freq", "", "--freq:"),
        ("decimate", "--umax", "", "--umax:"),
        ("compare", "--umax", "", "--umax:"),
        ("compare", "--umax", "0", "--umax:"),
        ("simulate", "--horizon", "", "--horizon:"),
        ("simulate", "--horizon", "3 weeks", "--horizon:"),
        ("simulate", "--seed", "", "--seed:"),
        ("simulate", "--seed", "1_000", "--seed:"),
        ("simulate", "--seed", "+3", "--seed:"),
        ("simulate", "--seed", "007", "--seed:"),
        ("simulate", "--seed", "1.5", "--seed:"),
        ("simulate", "--blocking", "", "argument --blocking:"),
        ("simulate", "--blocking", "SOMETIMES", "argument --blocking:"),
        ("simulate", "--release", "", "argument --release:"),
        ("simulate", "--release", "LATE", "argument --release:"),
    ])
    def test_empty_or_malformed_value_is_an_input_error(
            self, tmp_path, command, flag, text, pointer):
        spec = all_options_spec(tmp_path)
        code, out, err, _ = invoke_with_trace([command, str(spec), flag, text],
                                              tmp_path)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {pointer}")

    # above 1 event/ns; 1e5000 also has too many digits to print
    @pytest.mark.parametrize("text", ["3000000000", "1e5000"])
    @pytest.mark.parametrize("command, flag, key, listed", [
        ("size", "--freqs", "frequencies_hz", True),
        ("decimate", "--freq", "input_frequency_hz", False),
    ])
    def test_over_fast_frequency_is_an_input_error(
            self, tmp_path, text, command, flag, key, listed):
        spec = all_options_spec(tmp_path)
        code, out, err = invoke([command, str(spec), flag,
                                 f"1,{text}" if listed else text])
        assert (code, out) == (1, "")
        pointer = f"{flag}/1" if listed else flag
        assert err == f"error: {pointer}: frequency exceeds 1 event/ns\n"
        # the same number in the spec, written as JSON text
        placeholder = 7777
        spec = all_options_spec(tmp_path, "over-fast.json", **{
            key: [1, placeholder] if listed else placeholder})
        spec.write_text(spec.read_text().replace(str(placeholder), text))
        code, out, err = invoke([command, str(spec)])
        assert (code, out) == (1, "")
        pointer = f"/options/{key}/1" if listed else f"/options/{key}"
        assert err == f"error: {pointer}: frequency exceeds 1 event/ns\n"

    @pytest.mark.parametrize("text", ["", "1_000", "+3", "007", "1.5", "x"])
    def test_malformed_env_seed_is_an_input_error(self, tmp_path,
                                                  monkeypatch, text):
        monkeypatch.setenv("TC_SIZER_SEED", text)
        code, out, err, _ = invoke_with_trace(
            ["simulate", str(all_options_spec(tmp_path))], tmp_path)
        assert (code, out) == (1, "")
        assert err == "error: TC_SIZER_SEED: seed must be an integer\n"

    def test_seed_order(self, tmp_path, monkeypatch):
        """--seed, else TC_SIZER_SEED, else options.sim.seed, else 0."""
        with_seed = all_options_spec(tmp_path, seed=3)
        without_seed = all_options_spec(tmp_path, "no-seed.json", seed=None)
        monkeypatch.delenv("TC_SIZER_SEED", raising=False)

        def run(spec, *flags):
            return invoke_with_trace(["simulate", str(spec), *flags],
                                     tmp_path)

        by_seed = {n: run(without_seed, "--seed", str(n))
                   for n in (0, 3, 5, 7)}
        assert all(r[0] == 0 for r in by_seed.values())
        assert len({r[3] for r in by_seed.values()}) == 4
        assert run(without_seed) == by_seed[0]
        assert run(with_seed) == by_seed[3]
        monkeypatch.setenv("TC_SIZER_SEED", "7")
        assert run(with_seed) == by_seed[7]
        assert run(without_seed) == by_seed[7]
        assert run(with_seed, "--seed", "5") == by_seed[5]


class TestSimulateCommand:
    def test_trace_and_report(self, microblog, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code, out, _ = invoke([
            "simulate", str(microblog), "--seed", "5", "--horizon", "3s",
            "--trace", str(trace_path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["conservative"] is True
        assert doc["violations"] == []
        assert doc["system_feasible"] is True
        assert doc["per_analytic_observed"]["microblog"] <= 1906 * US
        lines = trace_path.read_text().splitlines()
        assert lines[0] == "time_ns,core,kind,stage,job"

    def test_headline_meets_its_bound(self, headline, tmp_path):
        code, out, err = invoke([
            "simulate", str(headline), "--horizon", "1s",
            "--trace", str(tmp_path / "t.csv")])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["conservative"] is True
        assert doc["per_analytic_observed"]["microblog"] <= 1145 * US

    def test_env_seed_overrides_default(self, microblog, tmp_path,
                                        monkeypatch):
        monkeypatch.setenv("TC_SIZER_SEED", "123")
        trace_path = tmp_path / "t.csv"
        code, out, _ = invoke([
            "simulate", str(microblog), "--horizon", "3s",
            "--release", "JITTERED", "--trace", str(trace_path)])
        assert code == 0
        baseline = trace_path.read_text()
        # explicit --seed beats the environment
        code, _, _ = invoke([
            "simulate", str(microblog), "--horizon", "3s", "--seed", "123",
            "--release", "JITTERED", "--trace", str(trace_path)])
        assert trace_path.read_text() == baseline

    def test_infeasible_system_exits_2(self, table_vi_gp, tmp_path):
        code, out, _ = invoke([
            "simulate", str(table_vi_gp), "--horizon", "9h",
            "--trace", str(tmp_path / "t.csv")])
        assert code == 2
        assert json.loads(out)["system_feasible"] is False

    @pytest.mark.parametrize("target", [".", "missing/t.csv"])
    def test_unwritable_trace_is_an_input_error(self, table_vi_tc, tmp_path,
                                                target):
        path = tmp_path / target
        code, out, err = invoke([
            "simulate", str(table_vi_tc), "--horizon", "9h",
            "--trace", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("target", [".", "missing/t.csv", "f.csv/t.csv"])
    def test_unwritable_trace_is_refused_before_any_work(
            self, microblog, tmp_path, monkeypatch, target):
        (tmp_path / "f.csv").write_text("")

        def never(*args, **kwargs):
            raise AssertionError("called for an unwritable trace target")

        monkeypatch.setattr(cli.analysis, "solve_system", never)
        monkeypatch.setattr(tcsizer.sim, "simulate", never)
        path = tmp_path / target
        code, out, err = invoke([
            "simulate", str(microblog), "--horizon", "3s",
            "--trace", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("where,bad,pointer", [
        ("stage", "a,b", "invalid system: /analytics/0/stages/0/id: "
                         "stage id 'a,b'"),
        ("stage", 'a"b', "invalid system: /analytics/0/stages/0/id: "
                         "stage id 'a\"b'"),
        ("core", "c\n0", "/cluster/cores: core 'c\\n0': id"),
        ("core", "c\r0", "/cluster/cores: core 'c\\r0': id"),
    ])
    def test_ids_that_would_break_a_trace_row_are_refused(
            self, tmp_path, where, bad, pointer):
        doc = json.loads(emit_system_spec(System((Analytic(
            "a", (Stage(id="a", cost=MS, inter_arrival=10 * MS,
                        deadline=10 * MS),), Leaf("a"), 10 * MS),)),
            homogeneous_cluster(1)))
        if where == "stage":
            doc["analytics"][0]["stages"][0]["id"] = bad
            doc["analytics"][0]["topology"] = bad
        else:
            doc["cluster"]["cores"][0]["id"] = bad
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        trace_path = tmp_path / "t.csv"
        code, out, err = invoke(["simulate", str(spec), "--horizon", "1s",
                                 "--trace", str(trace_path)])
        assert (code, out) == (1, "")
        assert err == (f"error: {pointer} holds a comma, quote or line "
                       f"break\n")
        assert not trace_path.exists()

    def test_short_horizon_leaves_the_trace_file_alone(self, microblog,
                                                       tmp_path):
        trace_path = tmp_path / "t.csv"
        trace_path.write_bytes(b"earlier trace\n")
        code, out, err = invoke([
            "simulate", str(microblog), "--horizon", "1us",
            "--trace", str(trace_path)])
        assert (code, out) == (1, "")
        assert "no item completed" in err
        assert trace_path.read_bytes() == b"earlier trace\n"


class TestCompareCommand:
    def test_json_output(self, microblog):
        code, out, _ = invoke(["compare", str(microblog), "--umax", "1"])
        assert code == 0
        assert json.loads(out) == {"ours": 1, "baseline": 1}

    def test_regime_violation_is_input_error(self, tmp_path):
        s = Stage(id="s", cost=MS, inter_arrival=10 * MS, deadline=9 * MS,
                  priority=1)
        system = System((Analytic("s", (s,), Leaf("s"), 9 * MS),))
        path = tmp_path / "bad.json"
        path.write_text(emit_system_spec(system, homogeneous_cluster(1)))
        code, _, err = invoke(["compare", str(path)])
        assert code == 1


class TestDeterministicOutput:
    # sha256 of each command's exit code, stdout and trace, so that a
    # change to any output shows across commits as well as across reruns
    PINNED = {
        "analyze":
            "bc72a2997560b4e3563acebfe1d566e934188e07b919098ad27c33b97eed2e7d",
        "size":
            "5d7ecf998dddced5712772d4e9898bb7a613ca506ae7e850bae59666c64695aa",
        "decimate":
            "01ab124e7b874bf6549bf3be74b211b0171dd0588d0160d5b34280b13c861eb1",
        "compare":
            "cedb264f6ba617ab1297de490256ec90ed3297f178f74e64c9e48e7032f52cce",
        "simulate":
            "2fe0ce731bfe996240ab442a2d817594a82ca2ab0f2f8f928b5122f128119c0d",
    }

    def test_commands_are_byte_stable(self, microblog, table_vi_gp, tmp_path):
        commands = [
            ["analyze", str(table_vi_gp)],
            ["size", str(microblog), "--freqs", "1,100,4000", "--umax", "1"],
            ["decimate", str(microblog), "--factors", "1,10", "--freq", "500"],
            ["compare", str(microblog)],
            ["simulate", str(microblog), "--seed", "9", "--horizon", "2s",
             "--trace", str(tmp_path / "trace.csv")],
        ]
        for argv in commands:
            code1, out1, _ = invoke(argv)
            artifact1 = (tmp_path / "trace.csv").read_text() \
                if argv[0] == "simulate" else None
            code2, out2, _ = invoke(argv)
            artifact2 = (tmp_path / "trace.csv").read_text() \
                if argv[0] == "simulate" else None
            assert (code1, out1, artifact1) == (code2, out2, artifact2)
            digest = hashlib.sha256(
                f"{code1}\n{out1}\n{artifact1 or ''}".encode()).hexdigest()
            assert digest == self.PINNED[argv[0]], argv[0]


class TestOverLongNumbers:
    """A number past MAX_DURATION_DIGITS is an input error at its pointer,
    refused before int() or Fraction would read its digits."""

    LONG = "1" + "0" * 5000  # past the 4300 digits int() reads from text
    TOO_LONG = f"duration has more than {MAX_DURATION_DIGITS} digits"

    def test_spec_duration(self, microblog, tmp_path):
        doc = json.loads(microblog.read_text())
        doc["analytics"][0]["stages"][0]["cost"] = f"{self.LONG}ns"
        spec = tmp_path / "long.json"
        spec.write_text(json.dumps(doc))
        assert invoke(["analyze", str(spec)]) == (
            1, "", f"error: /analytics/0/stages/0/cost: {self.TOO_LONG}\n")

    def test_horizon_flag(self, microblog, tmp_path):
        trace_path = tmp_path / "t.csv"
        assert invoke(["simulate", str(microblog), "--horizon",
                       f"{self.LONG}ns", "--trace", str(trace_path)]) == (
            1, "", f"error: --horizon: {self.TOO_LONG}\n")
        assert not trace_path.exists()

    def test_frequency_flag(self, microblog):
        assert invoke(["decimate", str(microblog), "--factors", "2",
                       "--freq", "1e-5000"]) == (
            1, "", f"error: --freq: frequency gives a period of more than "
                   f"{MAX_DURATION_DIGITS} digits of ns\n")

    @pytest.mark.parametrize("number", [
        "9" * MAX_DURATION_DIGITS, "9" * (MAX_DURATION_DIGITS - 1) + ".5"])
    def test_the_cap_itself_is_accepted(self, number):
        assert parse_duration(f"{number}s") == int(Fraction(number) * SEC)

    @pytest.mark.parametrize("number", [
        "1" + "0" * MAX_DURATION_DIGITS, "9" * MAX_DURATION_DIGITS + ".5"])
    @pytest.mark.parametrize("unit", ["ns", "h"])
    def test_one_digit_past_the_cap_is_refused(self, number, unit):
        with pytest.raises(ParseError) as exc:
            parse_duration(f"{number}{unit}", path="/x")
        assert (exc.value.path, exc.value.message) == ("/x", self.TOO_LONG)

    def test_period_cap(self, microblog):
        # 1e-20 Hz is a period of 10**29 ns, 30 digits; 1e-21 Hz one more
        code, _, err = invoke(["size", str(microblog), "--freqs", "1e-20"])
        assert (code, err) == (0, "")
        code, out, err = invoke(["size", str(microblog), "--freqs",
                                 "1,1e-21"])
        assert (code, out) == (1, "")
        assert err.startswith("error: --freqs/1: frequency gives a period ")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="int() reads integers of any length")
    def test_over_long_json_integer(self, microblog, tmp_path):
        doc = json.loads(microblog.read_text())
        doc["priorities"] = {"microblog-gen": 7}
        spec = tmp_path / "long.json"
        spec.write_text(json.dumps(doc).replace("7", self.LONG))
        code, out, err = invoke(["analyze", str(spec)])
        assert (code, out) == (1, "")
        assert err.startswith("error: /: invalid JSON: ")


# ids with what json escapes: quotes, backslashes, control characters
# and non-ASCII text
REPORT_IDS = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n/'),
                               st.characters()), max_size=6)
RESPONSES = st.one_of(st.just(DIVERGED), st.integers(0, 10**20))


class TestReportWriter:
    @given(st.dictionaries(REPORT_IDS, RESPONSES),
           st.dictionaries(REPORT_IDS, st.tuples(RESPONSES, st.booleans())),
           st.booleans())
    @settings(max_examples=300)
    def test_matches_json_dumps(self, per_stage, per_analytic, feasible):
        report = ResponseReport(
            per_stage=per_stage,
            per_analytic={aid: AnalyticVerdict(*v)
                          for aid, v in per_analytic.items()},
            system_feasible=feasible)

        def rt(value):
            return "DIVERGED" if value is DIVERGED else value

        doc = {
            "per_stage": {sid: rt(v) for sid, v in per_stage.items()},
            "per_analytic": {
                aid: {"end_to_end": rt(e2e), "feasible": ok}
                for aid, (e2e, ok) in per_analytic.items()},
            "system_feasible": feasible,
        }
        assert cli._report_json(report) == (
            json.dumps(doc, indent=2, sort_keys=True) + "\n")


def leaf_pointers(doc, pointer=""):
    """The JSON pointer of every scalar in ``doc``."""
    if not isinstance(doc, (dict, list)):
        yield pointer
        return
    for key, value in (doc.items() if isinstance(doc, dict)
                       else enumerate(doc)):
        yield from leaf_pointers(value, f"{pointer}/{key}")


def with_leaf(doc, pointer, value):
    """A copy of ``doc`` with the value at ``pointer`` replaced."""
    doc = json.loads(json.dumps(doc))
    *parents, last = pointer.split("/")[1:]
    node = doc
    for key in parents:
        node = node[int(key) if isinstance(node, list) else key]
    node[int(last) if isinstance(node, list) else last] = value
    return doc


def pointer_specs():
    microblog = builtin_system(ScenarioId.MICROBLOG_ONLINE, frequency_hz=1)
    microblog = with_priorities(microblog, assign_priorities_dm(microblog))
    cluster = homogeneous_cluster(2)
    microblog = with_allocation(microblog,
                                allocate_first_fit(microblog, cluster))
    options = Options(
        u_max=Fraction(9, 10), frequencies_hz=[Fraction(1), Fraction(4000)],
        factors=[1, 10], input_frequency_hz=Fraction(1000), horizon=SEC,
        seed=3)
    table_vi = with_priorities(builtin_system(ScenarioId.TABLE_VI),
                               {"TC1": 1, "TC2": 2})
    return {
        "microblog": json.loads(emit_system_spec(microblog, cluster,
                                                 options)),
        "table-vi": json.loads(emit_system_spec(table_vi,
                                                homogeneous_cluster(1))),
    }


class TestPointers:
    """A bad value is reported at its own JSON pointer or flag."""

    @pytest.mark.parametrize("name", ["microblog", "table-vi"])
    def test_every_wrong_typed_leaf(self, name):
        doc = pointer_specs()[name]
        pointers = list(leaf_pointers(doc))
        assert len(pointers) > 20
        for pointer in pointers:
            for wrong in (None, True, [], [0]):
                with pytest.raises(ParseError) as exc:
                    parse_system_spec(json.dumps(with_leaf(doc, pointer,
                                                           wrong)))
                assert exc.value.path == pointer, (pointer, wrong)

    @pytest.fixture(scope="class")
    def spec(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("pointers") / "spec.json"
        path.write_text(json.dumps(pointer_specs()["microblog"]))
        return path

    # wrong for every flag below; each adds values wrong for it alone
    WRONG = ["null", "true", "[]", "{}", "x"]

    @given(st.lists(st.sampled_from(["1", "1/2", "0.5", "4000"]), min_size=1,
                    max_size=4), st.data())
    @settings(max_examples=50, deadline=None)
    def test_freqs_item(self, spec, good, data):
        i = data.draw(st.integers(0, len(good) - 1))
        bad = data.draw(st.sampled_from([*self.WRONG, "0", "-1", "1e10"]))
        freqs = [*good[:i], bad, *good[i + 1:]]
        code, out, err = invoke(["size", str(spec),
                                 f"--freqs={','.join(freqs)}"])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: --freqs/{i}: ")

    @given(st.sampled_from([*WRONG, "1.5", "-1s", "5", ""]))
    @settings(max_examples=20, deadline=None)
    def test_horizon(self, spec, tmp_path_factory, bad):
        trace_path = tmp_path_factory.getbasetemp() / "t.csv"
        code, out, err = invoke(["simulate", str(spec), f"--horizon={bad}",
                                 "--trace", str(trace_path)])
        assert (code, out) == (1, "")
        assert err.startswith("error: --horizon: ")

    @given(st.sampled_from([*WRONG, "1.5", "+3", ""]))
    @settings(max_examples=20, deadline=None)
    def test_env_seed(self, spec, tmp_path_factory, bad):
        trace_path = tmp_path_factory.getbasetemp() / "t.csv"
        with mock.patch.dict(os.environ, {"TC_SIZER_SEED": bad}):
            code, out, err = invoke(["simulate", str(spec),
                                     "--trace", str(trace_path)])
        assert (code, out) == (1, "")
        assert err.startswith("error: TC_SIZER_SEED: ")

    @given(st.sampled_from([*WRONG, "0", "-3", "1.5"]))
    @settings(max_examples=20, deadline=None)
    def test_replication_limit(self, spec, bad):
        code, out, err = invoke(["size", str(spec),
                                 f"--replication-limit={bad}"])
        assert (code, out) == (1, "")
        assert err.startswith("error: --replication-limit: ")
