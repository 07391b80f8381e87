import errno
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
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
    AllocationFailed,
    Analytic,
    AnalyticVerdict,
    HorizonTooShort,
    InvalidAllocation,
    Leaf,
    MissingParam,
    MissingStage,
    Par,
    PreconditionViolated,
    ReplicationExceeded,
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
    MAX_NUMBER_DIGITS,
    MAX_TOPOLOGY_DEPTH,
    Options,
    ParseError,
    emit_system_spec,
    format_duration,
    parse_duration,
    parse_system_spec,
    run_command,
)


# the message for a number past MAX_NUMBER_DIGITS
LONG_NUMBER = (f"number has more than {MAX_NUMBER_DIGITS} digits or an "
               f"exponent past {MAX_NUMBER_DIGITS}")


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@contextmanager
def wall_time_cap(seconds):
    """Fails the test when the block runs for ``seconds`` of wall time:
    SIGALRM interrupts a block that hangs, and a block that returns late
    (say, from one long native call) fails on its measured time."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.perf_counter()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.1f} s, cap {seconds} s"


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
            parse_duration(bad)
        assert exc.value.path == ""

    @pytest.mark.parametrize("text, message", [
        ("0.5ns", "duration '0.5ns' is not a whole number of nanoseconds"),
        ("inf", '"inf" is only allowed for inter-arrival times'),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_duration(text)
        assert (exc.value.path, exc.value.message) == ("", message)

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
        options = Options(frequencies_hz=[1, 4000], horizon=2 * SEC, seed=11)
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

    def test_a_seq_read_back_as_par_differs(self):
        # nodes are one-field tuples: only their class tells Seq from Par
        system = builtin_system(ScenarioId.MICROBLOG_ONLINE, frequency_hz=1)
        text = emit_system_spec(system, homogeneous_cluster(1))
        assert '"seq"' in text
        swapped, _, _ = parse_system_spec(text.replace('"seq"', '"par"'))
        assert swapped != system
        (analytic,), (swapped_analytic,) = (system.analytics,
                                            swapped.analytics)
        assert isinstance(swapped_analytic.topology, Par)
        assert swapped_analytic.topology != analytic.topology
        assert swapped_analytic._replace(topology=analytic.topology) \
            == analytic

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


def microblog_doc():
    """The microblog template's spec on one core, as a JSON document."""
    return json.loads(emit_system_spec(
        builtin_system(ScenarioId.MICROBLOG_ONLINE, frequency_hz=1),
        homogeneous_cluster(1)))


def with_topology(node):
    def change(doc):
        doc["analytics"][0]["topology"] = node
    return change


class TestSpecShapeErrors:
    """Each malformed shape of a spec is a ParseError at its pointer."""

    @pytest.mark.parametrize("change, error", [
        (lambda doc: doc["analytics"][0].update(stages=[5]),
         "/analytics/0/stages/0: expected a stage object"),
        (lambda doc: doc.update(analytics={}),
         "/analytics: expected a list"),
        (lambda doc: doc.update(priorities=[]),
         "/priorities: expected an object"),
        (with_topology({"seq": ["microblog-gen"], "par": ["microblog-split"]}),
         '/analytics/0/topology: topology node must be a stage id or a '
         'one-key {"seq"|"par"|"rr": [...]} object'),
        (with_topology({"loop": ["microblog-gen"]}),
         "/analytics/0/topology/loop: unknown composition kind"),
        (with_topology({"seq": "microblog-gen"}),
         "/analytics/0/topology/seq: expected a list"),
        (with_topology({"par": []}),
         "/analytics/0/topology/par: empty composition"),
        (lambda doc: doc.update(allocation={"ghost": "c0"}),
         "/allocation/ghost: unknown stage"),
    ])
    def test_pointer_and_message(self, change, error):
        doc = microblog_doc()
        change(doc)
        with pytest.raises(ParseError) as exc:
            parse_system_spec(json.dumps(doc))
        assert str(exc.value) == error

    def test_invalid_json(self):
        with pytest.raises(ParseError) as exc:
            parse_system_spec('{"analytics": ')
        assert exc.value.path == ""
        assert str(exc.value).startswith("/: invalid JSON: Expecting value")

    def test_invalid_json_through_the_cli(self, tmp_path):
        path = tmp_path / "truncated.json"
        path.write_text("{")
        code, out, err = invoke(["analyze", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("error: /: invalid JSON: ")


def with_duplicate(place, key, value=None):
    """The microblog spec's JSON text whose object ``place(doc)`` holds
    ``key`` twice, the second time with ``value`` (default: its own)."""
    doc = microblog_doc()
    obj = place(doc)
    obj["\0"] = None  # written last, then renamed
    if value is None:
        value = obj[key]
    return json.dumps(doc).replace(
        '"\\u0000": null', f"{json.dumps(key)}: {json.dumps(value)}")


class TestDuplicateKeys:
    """A key an object holds twice is refused at the key's pointer, not
    read as its last value."""

    @pytest.mark.parametrize("place, key, error", [
        (lambda doc: doc["analytics"][0]["stages"][0], "cost",
         "/analytics/0/stages/0/cost: duplicate key 'cost'"),
        (lambda doc: doc, "cluster", "/cluster: duplicate key 'cluster'"),
        (lambda doc: doc.setdefault("priorities", {"microblog-gen": 1}),
         "microblog-gen",
         "/priorities/microblog-gen: duplicate key 'microblog-gen'"),
        (lambda doc: doc["analytics"][0]["topology"], "seq",
         "/analytics/0/topology/seq: duplicate key 'seq'"),
        (lambda doc: doc.setdefault("options", {"sim": {"seed": 1}})["sim"],
         "seed", "/options/sim/seed: duplicate key 'seed'"),
    ])
    def test_pointer_and_message(self, place, key, error):
        with pytest.raises(ParseError) as exc:
            parse_system_spec(with_duplicate(place, key))
        assert str(exc.value) == error

    def test_last_value_is_not_read(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(with_duplicate(
            lambda doc: doc["analytics"][0]["stages"][0], "cost", "9ms"))
        assert invoke(["analyze", str(path)]) == (
            1, "", "error: /analytics/0/stages/0/cost: duplicate key "
                   "'cost'\n")

    def test_where_no_object_belongs_it_is_an_object(self):
        doc = microblog_doc()
        doc["analytics"][0]["stages"][0]["cost"] = {"a": 1}
        with pytest.raises(ParseError) as exc:
            parse_system_spec(json.dumps(doc).replace(
                '{"a": 1}', '{"a": 1, "a": 2}'))
        assert str(exc.value) == ("/analytics/0/stages/0/cost: expected a "
                                  "duration string, got an object")


FIVE_COMMANDS = [
    ["analyze"], ["size", "--freqs", "1"],
    ["decimate", "--factors", "1", "--freq", "1"], ["compare"],
    ["simulate", "--horizon", "1s"]]


def invoke_command(command, spec, tmp_path):
    """One of FIVE_COMMANDS on ``spec``; simulate writes its trace under
    ``tmp_path``."""
    argv = [command[0], str(spec), *command[1:]]
    if command[0] == "simulate":
        argv += ["--trace", str(tmp_path / "t.csv")]
    return invoke(argv)


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
    @pytest.mark.parametrize("command", FIVE_COMMANDS)
    def test_deep_topology_is_an_input_error(self, tmp_path, depth, command):
        path = tmp_path / "deep.json"
        path.write_text(nested_spec(depth))
        code, out, err = invoke_command(command, path, tmp_path)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


class TestMixedAnalytics:
    """An analytic whose stages are partly one-shot and partly periodic is
    refused: a one-shot stage admits item 0 only."""

    PERIODS = {"once": "inf", "tick": "10ms", "out": "10ms"}

    @pytest.mark.parametrize("topology, ids", [
        ({"seq": [{"par": ["once", "tick"]}, "out"]}, ["once", "tick", "out"]),
        ({"seq": ["tick", "once"]}, ["tick", "once"]),
        ({"seq": ["once", "tick"]}, ["once", "tick"]),
    ])
    @pytest.mark.parametrize("command", FIVE_COMMANDS)
    def test_refused_by_every_command(self, tmp_path, topology, ids, command):
        doc = {
            "analytics": [{
                "id": "mixed", "end_to_end_deadline": "1s",
                "stages": [{"id": sid, "cost": "1ms", "deadline": "10ms",
                            "inter_arrival": self.PERIODS[sid]}
                           for sid in ids],
                "topology": topology,
            }],
            "cluster": {"cores": [{"id": "c0"}]},
        }
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc))
        assert invoke_command(command, path, tmp_path) == (
            1, "", "error: invalid system: /analytics/0/stages: one-shot "
                   "and periodic stages in one analytic\n")

    @pytest.mark.parametrize("command, code", zip(
        [*FIVE_COMMANDS[:4], ["simulate", "--horizon", "9h"]],
        [0, 0, 1, 0, 0]))
    def test_one_shot_analytics_are_accepted(self, table_vi_tc, tmp_path,
                                             command, code):
        # decimate refuses TABLE VI for its two analytics, as before;
        # its one-shot jobs run for hours
        result = invoke_command(command, table_vi_tc, tmp_path)
        assert result[0] == code
        assert "invalid system" not in result[2]


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

    def test_replication_limit_is_fixed(self, microblog):
        # the splitter's 507 us needs 4056 replicas at 8 MHz, 5070 at 10 MHz
        assert invoke(["size", str(microblog), "--freqs", "8000000"]) == (
            0, "frequency_hz,total_utilization,min_cores\n"
               "8000000,9160,9161\n", "")
        assert invoke(["size", str(microblog), "--freqs", "10000000"]) == (
            1, "", "error: /analytics/0/stages/1: stage 'microblog-split' "
                   "needs 5070 replicas, limit is 4096\n")
        code, out, err = invoke(["size", str(microblog), "--freqs", "4000",
                                 "--replication-limit", "3"])
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --replication-limit 3" in err

    def test_bad_freqs(self, microblog):
        code, _, err = invoke(["size", str(microblog), "--freqs", "1,zap"])
        assert code == 1

    def test_options_fallback(self, tmp_path):
        system = builtin_system(ScenarioId.MICROBLOG_ONLINE, frequency_hz=1)
        options = Options(frequencies_hz=[Fraction(1), Fraction(4000)],
                          factors=[1, 10], input_frequency_hz=Fraction(1000))
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


class TestMissingOptions:
    """A command without an option it needs says where to give it: the
    flag, or the spec's options."""

    MESSAGES = {
        "size": "no frequencies (--freqs or options)",
        "decimate": "no factors (--factors or options)",
        "decimate --factors 1": "no input frequency (--freq or options)",
        "simulate": "no horizon (--horizon or options)",
    }

    @pytest.mark.parametrize("command, flags", [
        ("size", []), ("decimate", ["--freq", "1000"]),
        ("decimate --factors 1", []), ("simulate", [])])
    def test_absent(self, microblog, tmp_path, command, flags):
        name, *rest = command.split()
        trace = tmp_path / "trace.csv"
        extra = ["--trace", str(trace)] if name == "simulate" else []
        assert invoke([name, str(microblog), *rest, *flags, *extra]) == (
            1, "", f"error: {self.MESSAGES[command]}\n")
        assert not trace.exists()

    @pytest.mark.parametrize("command, key, flags", [
        ("size", "frequencies_hz", []),
        ("decimate", "factors", ["--freq", "1000"])])
    def test_empty_list_in_the_spec(self, microblog, tmp_path, command, key,
                                    flags):
        doc = json.loads(microblog.read_text())
        doc["options"] = {key: []}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        assert invoke([command, str(path), *flags]) == (
            1, "", f"error: {self.MESSAGES[command]}\n")


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
        ("simulate", "--blocking", "", "--blocking:"),
        ("simulate", "--blocking", "SOMETIMES", "--blocking:"),
        ("simulate", "--release", "", "--release:"),
        ("simulate", "--release", "LATE", "--release:"),
    ])
    def test_empty_or_malformed_value_is_an_input_error(
            self, tmp_path, command, flag, text, pointer):
        spec = all_options_spec(tmp_path)
        code, out, err, _ = invoke_with_trace([command, str(spec), flag, text],
                                              tmp_path)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {pointer}")

    # above 1 event/ns; 1e5000 is past MAX_NUMBER_DIGITS as well
    @pytest.mark.parametrize("text, message", [
        ("3000000000", "frequency exceeds 1 event/ns"),
        ("1e5000", LONG_NUMBER),
    ])
    @pytest.mark.parametrize("command, flag, key, listed", [
        ("size", "--freqs", "frequencies_hz", True),
        ("decimate", "--freq", "input_frequency_hz", False),
    ])
    def test_over_fast_frequency_is_an_input_error(
            self, tmp_path, text, message, command, flag, key, listed):
        spec = all_options_spec(tmp_path)
        code, out, err = invoke([command, str(spec), flag,
                                 f"1,{text}" if listed else text])
        assert (code, out) == (1, "")
        pointer = f"{flag}/1" if listed else flag
        assert err == f"error: {pointer}: {message}\n"
        # the same number in the spec, written as JSON text
        placeholder = 7777
        spec = all_options_spec(tmp_path, "over-fast.json", **{
            key: [1, placeholder] if listed else placeholder})
        spec.write_text(spec.read_text().replace(str(placeholder), text))
        code, out, err = invoke([command, str(spec)])
        assert (code, out) == (1, "")
        pointer = f"/options/{key}/1" if listed else f"/options/{key}"
        assert err == f"error: {pointer}: {message}\n"

    def test_seed_order(self, tmp_path):
        """--seed, else options.sim.seed, else 0."""
        with_seed = all_options_spec(tmp_path, seed=3)
        without_seed = all_options_spec(tmp_path, "no-seed.json", seed=None)

        def run(spec, *flags):
            return invoke_with_trace(["simulate", str(spec), *flags],
                                     tmp_path)

        by_seed = {n: run(without_seed, "--seed", str(n))
                   for n in (0, 3, 5, 7)}
        assert all(r[0] == 0 for r in by_seed.values())
        assert len({r[3] for r in by_seed.values()}) == 4
        assert run(without_seed) == by_seed[0]
        assert run(with_seed) == by_seed[3]
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

    def test_infeasible_system_exits_2(self, table_vi_gp, tmp_path):
        code, out, _ = invoke([
            "simulate", str(table_vi_gp), "--horizon", "9h",
            "--trace", str(tmp_path / "t.csv")])
        assert code == 2
        assert json.loads(out)["system_feasible"] is False

    @pytest.mark.parametrize("target", [".", "missing/t.csv", ""])
    def test_unwritable_trace_is_an_input_error(self, table_vi_tc, tmp_path,
                                                target):
        path = tmp_path / target if target else ""
        code, out, err = invoke([
            "simulate", str(table_vi_tc), "--horizon", "9h",
            "--trace", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("target",
                             [".", "missing/t.csv", "f.csv/t.csv", ""])
    def test_unwritable_trace_is_refused_before_any_work(
            self, microblog, tmp_path, monkeypatch, target):
        (tmp_path / "f.csv").write_text("")

        def never(*args, **kwargs):
            raise AssertionError("called for an unwritable trace target")

        monkeypatch.setattr(tcsizer.analysis, "solve_system", never)
        monkeypatch.setattr(tcsizer.sim, "simulate", never)
        path = tmp_path / target if target else ""
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

    def test_trace_write_that_fails_after_the_run(self, microblog, tmp_path):
        # a file name past NAME_MAX in a directory passes the check made
        # before any work, and only the final open refuses it
        path = tmp_path / ("a" * 300 + ".csv")
        assert invoke(["simulate", str(microblog), "--horizon", "1s",
                       "--trace", str(path)]) == (
            1, "", f"error: cannot write {path}: "
                   f"{os.strerror(errno.ENAMETOOLONG)}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["microblog.json"]

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
        assert invoke(["compare", str(path)]) == (
            1, "", "error: /analytics/0/stages/0: stage 's': inter-arrival "
                   "+ blocking != deadline\n")


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
                       "--freq", "1e-50"]) == (
            1, "", f"error: --freq: frequency gives a period of more than "
                   f"{MAX_DURATION_DIGITS} digits of ns\n")
        assert invoke(["decimate", str(microblog), "--factors", "2",
                       "--freq", "1e-5000"]) == (
            1, "", f"error: --freq: {LONG_NUMBER}\n")

    @pytest.mark.parametrize("number", [
        "9" * MAX_DURATION_DIGITS, "9" * (MAX_DURATION_DIGITS - 1) + ".5"])
    def test_the_cap_itself_is_accepted(self, number):
        assert parse_duration(f"{number}s") == int(Fraction(number) * SEC)

    @pytest.mark.parametrize("number", [
        "1" + "0" * MAX_DURATION_DIGITS, "9" * MAX_DURATION_DIGITS + ".5"])
    @pytest.mark.parametrize("unit", ["ns", "h"])
    def test_one_digit_past_the_cap_is_refused(self, number, unit):
        with pytest.raises(ParseError) as exc:
            parse_duration(f"{number}{unit}")
        assert (exc.value.path, exc.value.message) == ("", self.TOO_LONG)

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
        spec.write_text(json.dumps(doc).replace('"microblog-gen": 7',
                                                f'"microblog-gen": {self.LONG}'))
        assert invoke(["analyze", str(spec)]) == (
            1, "", f"error: /priorities/microblog-gen: {LONG_NUMBER}\n")

    @pytest.mark.parametrize("argv, pointer", [
        (["size", "--freqs", "1e-10000000"], "--freqs/0"),
        (["size", "--freqs", "1", "--umax", "1e-5000"], "--umax"),
        (["compare", "--umax", "1e-5000"], "--umax"),
        (["compare", "--umax", "1/1" + "0" * MAX_NUMBER_DIGITS], "--umax"),
        # "num/den" strings as Fraction reads them: underscores, and any
        # Unicode decimal digits (here Arabic-Indic ones), in the exponent
        (["compare", "--umax", "1e-1_0000_000"], "--umax"),
        (["compare", "--umax", "1e-\u0661" + "\u0660" * 7], "--umax"),
        (["decimate", "--factors", "1," + "1" * (MAX_NUMBER_DIGITS + 1),
          "--freq", "1"], "--factors/1"),
        (["simulate", "--seed", "1" * (MAX_NUMBER_DIGITS + 1)], "--seed"),
    ])
    def test_flag_past_the_number_cap(self, microblog, argv, pointer):
        start = time.perf_counter()
        code, out, err = invoke([argv[0], str(microblog), *argv[1:]])
        # building the Fraction of 1e-10000000 alone takes seconds
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (1, "", f"error: {pointer}: {LONG_NUMBER}\n")

    @pytest.mark.parametrize("key, literal, pointer", [
        ("u_max", "1e-5000", "/options/u_max"),
        ("u_max", '"1e-5000"', "/options/u_max"),
        ("frequencies_hz", "[1, 1e-10000000]", "/options/frequencies_hz/1"),
        ("factors", f"[1, 1{'0' * MAX_NUMBER_DIGITS}]", "/options/factors/1"),
    ])
    def test_spec_number_past_the_cap(self, microblog, tmp_path, key,
                                      literal, pointer):
        doc = json.loads(microblog.read_text())
        doc["options"] = {key: "PLACEHOLDER"}
        spec = tmp_path / "long.json"
        spec.write_text(json.dumps(doc).replace('"PLACEHOLDER"', literal))
        start = time.perf_counter()
        result = invoke(["size", str(spec)])
        assert time.perf_counter() - start < 1
        assert result == (1, "", f"error: {pointer}: {LONG_NUMBER}\n")

    def test_numbers_at_the_cap_still_print(self, microblog):
        # the least u_max within the cap, 10**-1995 (1000 digits with the
        # exponent's), gives a 1996-digit core count
        umax = "0." + "0" * 994 + "1e-1000"
        code, out, err = invoke(["size", str(microblog), "--freqs", "4000",
                                 "--umax", umax])
        assert (code, err) == (0, "")
        assert len(out.splitlines()[1].rpartition(",")[2]) == 1996
        code, out, err = invoke(["decimate", str(microblog), "--freq",
                                 "1e-20", "--factors",
                                 "1," + "9" * MAX_NUMBER_DIGITS])
        assert (code, err) == (0, "")
        for argv in (["compare", "--umax", "1e-1000"],
                     ["compare", "--umax", "1/" + "9" * 999]):
            code, _, err = invoke([argv[0], str(microblog), *argv[1:]])
            assert (code, err) == (0, "")

    # 1e5000 reads as a Fraction whose repr has 5001 digits, past the
    # 4300 that str() writes of an int: an error message must not repr it
    @pytest.mark.parametrize("pointer", [
        "/analytics/0/stages/0/cost",
        "/options/sim/blocking_policy",
        "/analytics/0/topology/seq/1",
    ])
    def test_huge_number_where_a_string_belongs(self, microblog, tmp_path,
                                                pointer):
        doc = json.loads(microblog.read_text())
        doc["options"] = {"sim": {"blocking_policy": "ADVERSARIAL"}}
        spec = tmp_path / "huge.json"
        spec.write_text(json.dumps(with_leaf(doc, pointer, "HUGE"))
                        .replace('"HUGE"', "1e5000"))
        code, out, err = invoke(["analyze", str(spec)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {pointer}: "), err
        assert len(err) < 200


class TestInputErrors:
    """Every input error is a ValueError, which run_command prints as one
    line and exits 1 on."""

    @pytest.mark.parametrize("error", [
        ReplicationExceeded, InvalidAllocation, AllocationFailed,
        PreconditionViolated, HorizonTooShort, MissingStage, MissingParam])
    def test_is_a_value_error(self, error):
        assert issubclass(error, ValueError)

    def test_allocation_failed(self, tmp_path):
        path = tmp_path / "one-core.json"
        path.write_text(emit_system_spec(headline_system(),
                                         homogeneous_cluster(1)))
        assert invoke(["analyze", str(path)]) == (
            1, "", "error: /analytics/0/stages/5: no core can host stage "
                   "'microblog-count#2'\n")

    def test_a_stage_the_spec_does_not_hold_keeps_its_message(
            self, microblog, monkeypatch):
        def fail(system, cluster):
            raise AllocationFailed("ghost")

        monkeypatch.setattr(tcsizer.model, "allocate_first_fit", fail)
        assert invoke(["analyze", str(microblog)]) == (
            1, "", "error: no core can host stage 'ghost'\n")

    def test_horizon_too_short(self, microblog, tmp_path):
        trace_path = tmp_path / "t.csv"
        assert invoke(["simulate", str(microblog), "--horizon", "1ns",
                       "--trace", str(trace_path)]) == (
            1, "", "error: no item completed end-to-end within 1 ns\n")
        assert not trace_path.exists()

    @pytest.mark.parametrize("text", ["0ns", "0s", "0.0h"])
    def test_non_positive_horizon_at_its_pointer(self, microblog, tmp_path,
                                                 text):
        trace_path = tmp_path / "t.csv"
        message = "horizon must be positive\n"
        assert invoke(["simulate", str(microblog), "--horizon", text,
                       "--trace", str(trace_path)]) == (
            1, "", f"error: --horizon: {message}")
        doc = json.loads(microblog.read_text())
        doc["options"] = {"sim": {"horizon": text}}
        microblog.write_text(json.dumps(doc))
        assert invoke(["simulate", str(microblog),
                       "--trace", str(trace_path)]) == (
            1, "", f"error: /options/sim/horizon: {message}")
        assert not trace_path.exists()

    def test_release_cap_at_the_horizon_flag_or_pointer(
            self, headline, tmp_path, monkeypatch):
        # 12,000 releases per simulated second: 4000 of the source and
        # 1333.3 of each of six replicas; refused before any work
        def never(*args, **kwargs):
            raise AssertionError("called for a run over the release cap")

        monkeypatch.setattr(tcsizer.analysis, "solve_system", never)
        monkeypatch.setattr(tcsizer.sim, "simulate", never)
        trace_path = tmp_path / "t.csv"
        message = (f"the run would make up to 43200000000 releases, more "
                   f"than {cli.MAX_SIM_RELEASES}\n")
        assert invoke(["simulate", str(headline), "--horizon", "1000h",
                       "--trace", str(trace_path)]) == (
            1, "", f"error: --horizon: {message}")
        doc = json.loads(headline.read_text())
        doc["options"] = {"sim": {"horizon": "1000h"}}
        headline.write_text(json.dumps(doc))
        assert invoke(["simulate", str(headline),
                       "--trace", str(trace_path)]) == (
            1, "", f"error: /options/sim/horizon: {message}")
        assert not trace_path.exists()

    def test_release_cap_admits_a_run_that_reaches_it(self, headline,
                                                      tmp_path):
        # 1 s of the headline: 4000 + 6 * ceil(1s / 750us) = 12,004
        trace_path = tmp_path / "t.csv"
        argv = ["simulate", str(headline), "--horizon", "1s",
                "--trace", str(trace_path)]
        with mock.patch.object(cli, "MAX_SIM_RELEASES", 12_003):
            assert invoke(argv) == (
                1, "", "error: --horizon: the run would make up to 12004 "
                "releases, more than 12003\n")
        assert not trace_path.exists()
        with mock.patch.object(cli, "MAX_SIM_RELEASES", 12_004):
            code, _, err = invoke(argv)
        assert (code, err) == (0, "")
        rows = trace_path.read_text().splitlines()
        assert sum(",RELEASE," in row for row in rows) <= 12_004

    def test_release_cap_counts_one_per_one_shot_stage(self, table_vi_tc,
                                                       tmp_path):
        argv = ["simulate", str(table_vi_tc), "--horizon", "9h",
                "--trace", str(tmp_path / "t.csv")]
        with mock.patch.object(cli, "MAX_SIM_RELEASES", 1):
            assert invoke(argv) == (
                1, "", "error: --horizon: the run would make up to 2 "
                "releases, more than 1\n")
        with mock.patch.object(cli, "MAX_SIM_RELEASES", 2):
            assert invoke(argv)[0] == 0


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



class TestUMax:
    """u_max has its own field parser, whose messages name it."""

    def test_flag_messages(self, microblog):
        assert invoke(["size", str(microblog), "--freqs", "1000",
                       "--umax", "2"]) == (
            1, "", "error: --umax: u_max must be in (0, 1]\n")
        assert invoke(["compare", str(microblog), "--umax", "x"]) == (
            1, "", 'error: --umax: u_max must be a number or a "num/den" '
                   'string\n')

    def test_spec_messages(self, tmp_path):
        for value, message in [
                (2, "u_max must be in (0, 1]"),
                ("0/1", "u_max must be in (0, 1]"),
                (True, "u_max must be a number"),
                ("x", 'u_max must be a number or a "num/den" string')]:
            spec = all_options_spec(tmp_path, u_max=value)
            assert invoke(["compare", str(spec)]) == (
                1, "", f"error: /options/u_max: {message}\n")

    def test_core_capacity_keeps_its_own_name(self, microblog, tmp_path):
        doc = json.loads(microblog.read_text())
        doc["cluster"]["cores"][0]["capacity"] = 2
        spec = tmp_path / "capacity.json"
        spec.write_text(json.dumps(doc))
        assert invoke(["analyze", str(spec)]) == (
            1, "", "error: /cluster/cores/0/capacity: capacity must be in "
                   "(0, 1]\n")


class TestNonJsonConstants:
    """NaN, Infinity and -Infinity are not JSON: each is refused at its
    pointer or flag, wherever it stands."""

    CONSTANTS = ["NaN", "Infinity", "-Infinity"]

    @pytest.mark.parametrize("token", CONSTANTS)
    @pytest.mark.parametrize("pointer, message", [
        ("/analytics/0/stages/0/cost",
         "expected a duration string, got {}"),
        ("/analytics/0/topology", "bad topology node: {}"),
        ("/cluster/cores/0/capacity", "{} is not a JSON number"),
        ("/priorities/microblog-gen", "{} is not a JSON number"),
        ("/options/u_max", "{} is not a JSON number"),
        ("/options/frequencies_hz/1", "{} is not a JSON number"),
        ("/options/factors/0", "{} is not a JSON number"),
        ("/options/sim/seed", "{} is not a JSON number"),
        ("/options/sim/blocking_policy", "expected a policy name, got {}"),
    ])
    def test_spec(self, token, pointer, message):
        doc = pointer_specs()["microblog"]
        marker = "__CONSTANT__"
        text = json.dumps(with_leaf(doc, pointer, marker))
        text = text.replace(json.dumps(marker), token)
        with pytest.raises(ParseError) as exc:
            parse_system_spec(text)
        assert (exc.value.path, exc.value.message) == (
            pointer, message.format(token))

    def test_stage_cost_through_the_cli(self, microblog, tmp_path):
        doc = json.loads(microblog.read_text())
        doc["analytics"][0]["stages"][0]["cost"] = "__CONSTANT__"
        spec = tmp_path / "nan.json"
        spec.write_text(json.dumps(doc).replace('"__CONSTANT__"', "NaN"))
        assert invoke(["analyze", str(spec)]) == (
            1, "", "error: /analytics/0/stages/0/cost: expected a duration "
                   "string, got NaN\n")

    @pytest.mark.parametrize("argv, expected", [
        (["compare", "{spec}", "--umax", "NaN"],
         "--umax: NaN is not a JSON number"),
        (["size", "{spec}", "--umax=-Infinity"],
         "--umax: -Infinity is not a JSON number"),
        (["size", "{spec}", "--freqs", "1,Infinity"],
         "--freqs/1: Infinity is not a JSON number"),
        (["decimate", "{spec}", "--factors", "NaN,1"],
         "--factors/0: NaN is not a JSON number"),
        (["simulate", "{spec}", "--seed", "NaN"],
         "--seed: NaN is not a JSON number"),
        (["simulate", "{spec}", "--horizon", "Infinity"],
         "--horizon: expected a duration string, got Infinity"),
        (["simulate", "{spec}", "--blocking", "NaN"],
         "--blocking: expected a policy name, got NaN"),
    ])
    def test_flags(self, microblog, tmp_path, argv, expected):
        argv = [a.format(spec=microblog) for a in argv]
        trace_path = tmp_path / "t.csv"
        if argv[0] == "simulate":
            argv += ["--trace", str(trace_path)]
        assert invoke(argv) == (1, "", f"error: {expected}\n")
        assert not trace_path.exists()


class TestArbitraryFlagText:
    """Any text given to a number or duration flag ends in a result or in
    an input error that names the flag, never in a traceback."""

    @pytest.fixture(scope="class")
    def spec(self, tmp_path_factory):
        # one one-shot stage of 1 ns: every horizon the flag accepts
        # completes its item, and no horizon makes the run long
        stage = Stage(id="s", cost=1, inter_arrival=INFINITE, deadline=MS)
        system = System((Analytic("a", (stage,), Leaf("s"), MS),))
        options = Options(frequencies_hz=[Fraction(1)], horizon=MS)
        path = tmp_path_factory.mktemp("arbitrary") / "spec.json"
        path.write_text(emit_system_spec(system, homogeneous_cluster(1),
                                         options))
        return path

    FLAGS = [("compare", "--umax"), ("size", "--umax"),
             ("simulate", "--horizon"), ("simulate", "--seed"),
             ("size", "--freqs")]
    TOKENS = ["NaN", "Infinity", "-Infinity", "1e5000", "1/0", "0", "-1",
              "1/2", "2", "1e-3", "5s", "1ns", "[1]", "{}", "null", "true",
              "1_0", "٣", ",", "1,", "0.5,NaN"]

    @given(st.sampled_from(FLAGS),
           st.text(max_size=40) | st.sampled_from(TOKENS))
    @settings(max_examples=300, deadline=None)
    def test_exits_cleanly(self, spec, tmp_path_factory, command_flag, text):
        command, flag = command_flag
        argv = [command, str(spec), f"{flag}={text}"]
        if command == "simulate":
            trace_path = tmp_path_factory.getbasetemp() / "arbitrary.csv"
            argv += ["--trace", str(trace_path)]
        code, _out, err = invoke(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith(f"error: {flag}"), err


def node_pointers(doc, pointer=""):
    """The JSON pointer of every value in ``doc``, the root ("") first."""
    yield pointer
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict)
                           else enumerate(doc)):
            yield from node_pointers(value, f"{pointer}/{key}")


def node_at(doc, pointer):
    for key in pointer.split("/")[1:]:
        doc = doc[int(key) if isinstance(doc, list) else key]
    return doc


class TestWholeSpecFuzz:
    """A spec with one value replaced, deleted or inserted anywhere ends,
    under every command, in a result or in one input error, never in a
    traceback."""

    VALUES = [None, True, False, 0, -1, "x", [], {}, "1ms", "inf", "0ns",
              "NaN", "1/2", {"seq": []}, {"loop": ["x"]}]
    COMMANDS = ["analyze", "size", "decimate", "compare", "simulate"]
    # wall-time cap on one command: a hang fails the example instead of
    # running into the CI job's timeout
    RUN_SECONDS = 10

    @pytest.fixture(scope="class")
    def bases(self, tmp_path_factory):
        # the other two get the microblog spec's options too, so that
        # every command reads the whole document
        microblog = json.loads(
            all_options_spec(tmp_path_factory.mktemp("fuzz")).read_text())
        table_vi = json.loads(emit_system_spec(
            builtin_system(ScenarioId.TABLE_VI), homogeneous_cluster(1)))
        headline = json.loads(emit_system_spec(headline_system(),
                                               homogeneous_cluster(8)))
        options = microblog["options"]
        return [microblog, {**table_vi, "options": options},
                {**headline, "options": options}]

    def mutated(self, doc, draw):
        """A copy of ``doc`` with one drawn value put at, or one value
        deleted from, a drawn pointer; an inserted value goes into a
        list at a drawn index, or into an object under a key of the
        document or "x"."""
        doc = json.loads(json.dumps(doc))
        pointers = list(node_pointers(doc))
        value = draw(st.sampled_from(self.VALUES))
        action = draw(st.sampled_from(["replace", "delete", "insert"]))
        if action == "insert":
            node = node_at(doc, draw(st.sampled_from([
                p for p in pointers
                if isinstance(node_at(doc, p), (dict, list))])))
            if isinstance(node, list):
                node.insert(draw(st.integers(0, len(node))), value)
            else:
                keys = {key for p in pointers
                        if isinstance(node_at(doc, p), dict)
                        for key in node_at(doc, p)}
                node[draw(st.sampled_from(sorted(keys | {"x"})))] = value
            return doc
        parent, _, key = draw(st.sampled_from(pointers[1:])).rpartition("/")
        node = node_at(doc, parent)
        if isinstance(node, list):
            key = int(key)
        if action == "delete":
            del node[key]
        else:
            node[key] = value
        return doc

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_command_exits_cleanly(self, bases, tmp_path_factory,
                                         data):
        doc = self.mutated(data.draw(st.sampled_from(bases)), data.draw)
        spec = tmp_path_factory.getbasetemp() / "fuzz.json"
        spec.write_text(json.dumps(doc))
        trace = tmp_path_factory.getbasetemp() / "fuzz-trace.csv"
        for command in self.COMMANDS:
            argv = [command, str(spec)]
            if command == "simulate":
                argv += ["--horizon", "10ms", "--trace", str(trace)]
            with wall_time_cap(self.RUN_SECONDS):
                code, out, err = invoke(argv)
            assert code in (0, 1, 2), (command, err)
            if code == 1:
                assert err.startswith("error: "), (command, err)
                assert out == "", command
            else:
                assert err == "", (command, err)
