"""The benchmark's workloads.

Each workload builds its inputs from a seed in ``setup``, then serves
operations ("ops") by index. ``op`` is the timed call into the program;
``check`` verifies its output outside the timed region and returns an
``Outcome``. Op ``i`` and op ``i + distinct`` repeat the same input, so
every repetition must give the same output digest.

Every call into the program goes through ``tr.call`` so that a traced
run records a span for it; untraced runs call straight through.
"""

from __future__ import annotations

import hashlib
import io
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from tcsizer import (
    DIVERGED,
    Cluster,
    Core,
    Leaf,
    Seq,
    SimConfig,
    System,
    allocate_first_fit,
    assign_priorities_dm,
    baseline_comparison,
    decimation_sweep,
    frequency_sweep,
    homogeneous_cluster,
    min_cores,
    retime_system,
    simulate,
    solve_system,
    total_utilization,
    validate_system,
    verify_conservative,
    with_allocation,
    with_priorities,
    worst_observed,
)
from tcsizer import analysis, cli, model, sim, sizing
from tcsizer.cli import emit_system_spec, parse_system_spec, run_command
from tcsizer.sim import BlockingPolicy, ReleasePolicy

import inputs
import measure

ROOT = Path(__file__).resolve().parent.parent

PROBE_MARK = "perfbench-probe-ns"


def source_only(root: str) -> str:
    """Source that makes a child compile every module under ``root`` from
    source, whether or not a bytecode cache lies next to it, and puts
    ``root`` first on the path. Modules elsewhere load as usual."""
    return f"""
import sys
from importlib.machinery import SOURCE_SUFFIXES, FileFinder, SourceFileLoader


class _SourceOnly(SourceFileLoader):
    def path_stats(self, path):
        # without the source's stats, get_code neither reads nor writes
        # bytecode
        raise OSError("compiled from source")


def _source_only_hook(path, root={root!r}):
    if path != root and not path.startswith(root + "/"):
        raise ImportError
    return FileFinder(path, (_SourceOnly, SOURCE_SUFFIXES))


sys.path_hooks.insert(0, _source_only_hook)
sys.path.insert(0, {root!r})
"""


def child_code(body: str) -> str:
    """Source for a child interpreter that runs ``body`` between speed
    probes: the parent sits idle while a child runs, so only the child
    can tell how fast its core was. The child compiles tcsizer from
    source. The last line of its stderr reads: mark, fastest probe at
    start, fastest at exit, total probe ns."""
    return measure.PROBE_SOURCE + source_only(str(ROOT / "src")) + f"""
import atexit
_start = [calibration_probe() for _ in range(3)]

def _report():
    end = [calibration_probe() for _ in range(3)]
    sys.stderr.write("{PROBE_MARK} %d %d %d\\n"
                     % (min(_start), min(end), sum(_start) + sum(end)))

atexit.register(_report)
{body}
"""


def read_probe(stderr: bytes):
    """(the child's own stderr, (probe ns, total probe ns) or None)."""
    text, _, mark = stderr.decode("utf-8", "replace").rstrip("\n") \
        .rpartition("\n")
    if not mark.startswith(PROBE_MARK):
        return stderr.decode("utf-8", "replace"), None
    start, end, spent = (int(x) for x in mark.split()[1:])
    return text, ((start + end) / 2, spent)


# what an installed `tcsizer` console script runs, with the source tree
# in place of an installed package
CLI_ENTRY = child_code("from tcsizer.cli import main\nmain()")
CLI_TIMEOUT_S = 120


class Outcome(NamedTuple):
    digest: str
    error: str | None
    counts: dict
    # (probe time, summed probe time) in ns, when the op probed the
    # machine's speed itself; the summed time is not the program's
    probe: tuple[float, int] | None = None


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _rt(value):
    return -1 if value is DIVERGED else value


def _report_parts(report):
    return (sorted((k, _rt(v)) for k, v in report.per_stage.items()),
            sorted((k, _rt(v.end_to_end), v.feasible)
                   for k, v in report.per_analytic.items()),
            report.system_feasible)


def _unique_sink(analytic) -> bool:
    last = analytic.topology
    while isinstance(last, Seq):
        last = last.children[-1]
    return isinstance(last, Leaf)


def sim_error(system: System, horizon: int, completed: Counter,
              shortest: dict, items: Counter | None = None) -> str | None:
    """Checks a simulation of periodic stages against its input. Each
    stage completes at least one job, and between all the jobs released
    in the horizon and that many less one per stage of its analytic
    (the jobs still in flight at the end); no job responds in less than
    its stage's cost. ``items``, when given, are the end-to-end items
    completed per analytic, held to the same window as its stages."""
    for a in system.analytics:
        window = len(a.stages)
        for s in a.stages:
            released = -(-horizon // s.inter_arrival)
            if not max(1, released - window) <= completed[s.id] <= released:
                return (f"stage {s.id} completed {completed[s.id]} jobs, "
                        f"{released} released")
            if shortest[s.id] < s.cost:
                return f"a job of {s.id} responded in less than its cost"
        released = -(-horizon // a.stages[0].inter_arrival)
        if items is not None and \
                not max(1, released - window) <= items[a.id] <= released:
            return f"analytic {a.id} completed {items[a.id]} items"
    return None


class PlanWide:
    """Questions 1-3 for one wide system per op: priorities, first-fit
    onto the cores the bound asks for, the response-time solve, the rate
    and decimation sweeps and the blocking-model comparison."""

    FREQS = [10, 100, 1000, 2000, 4000]
    FACTORS = [1, 2, 5, 10, 100]
    DECIMATE_AT_HZ = 1000
    distinct = 1
    spec_bytes = 0

    def __init__(self, seed: int, workdir: Path, *, n_stages: int = 2000):
        self.seed = seed
        self.n_stages = n_stages

    def setup(self) -> None:
        self.draws = inputs.Draws()
        self.system = inputs.placeable_plan(self.seed, self.draws,
                                            self.n_stages)
        # decimation needs a single analytic ending in one aggregator
        self.dec_template = System((next(
            a for a in self.system.analytics if _unique_sink(a)),))

    def op(self, idx: int, tr):
        c = tr.call
        system = self.system
        prios = c("model.assign_priorities_dm", assign_priorities_dm, system)
        prioritized = c("model.with_priorities", with_priorities, system,
                        prios)
        total = c("analysis.total_utilization", total_utilization,
                  prioritized).total
        m = c("analysis.min_cores", min_cores, total, 1)
        cluster = c("model.homogeneous_cluster", homogeneous_cluster, m)
        allocation = c("model.allocate_first_fit", allocate_first_fit,
                       prioritized, cluster)
        placed = c("model.with_allocation", with_allocation, prioritized,
                   allocation)
        validation = c("model.validate_system", validate_system, placed)
        report = c("analysis.solve_system", solve_system, placed, allocation,
                   cluster)
        rows = c("sizing.frequency_sweep", frequency_sweep, system,
                 self.FREQS, 1)
        decimation = c("sizing.decimation_sweep", decimation_sweep,
                       self.dec_template, self.DECIMATE_AT_HZ, self.FACTORS,
                       1)
        comparison = c("sizing.baseline_comparison", baseline_comparison,
                       prioritized, 1)
        return (placed, m, allocation, validation, report, rows, decimation,
                comparison)

    def check(self, idx: int, result) -> Outcome:
        (placed, m, allocation, validation, report, rows, decimation,
         comparison) = result
        n = sum(1 for _ in placed.stages())
        load = {f"c{i}": Fraction(0) for i in range(m)}
        for s in placed.stages():
            load[allocation[s.id]] += s.utilization()
        error = None
        if not validation.ok:
            error = f"invalid system: {validation.findings[:3]}"
        elif len(allocation) != n or max(load.values()) > 1:
            error = "first-fit overfilled a core or dropped a stage"
        elif len(report.per_stage) != n:
            error = "solve_system did not bound every stage"
        elif any(r.min_cores != min_cores(r.total_utilization, 1)
                 or a.total_utilization >= r.total_utilization
                 for a, r in zip(rows, rows[1:])):
            error = "frequency sweep rows are not increasing or inconsistent"
        elif comparison.ours != m or comparison.baseline < comparison.ours:
            error = f"unexpected core counts {comparison}"
        elif [d.factor for d in decimation] != self.FACTORS:
            error = "decimation sweep lost a factor"
        counts = {
            "model.stages_placed": n,
            "analysis.stages": n,
            "analysis.diverged_stages": sum(
                1 for v in report.per_stage.values() if v is DIVERGED),
        }
        return Outcome(
            digest(sorted(allocation.items()), _report_parts(report),
                   [(r.frequency_hz, r.total_utilization, r.min_cores)
                    for r in rows],
                   [(r.factor, r.end_to_end, r.aggregator_utilization,
                     r.cores_saved) for r in decimation],
                   tuple(comparison)),
            error, counts)

    def write_inputs(self) -> None:
        """Plan-wide inputs stay in memory."""

    def traced_extras(self, tr) -> dict:
        """Stages the sweep materializes at its top rate."""
        retimed = tr.call("sizing.retime_system", retime_system, self.system,
                          max(self.FREQS))
        return {"sizing.replica_stages": sum(1 for _ in retimed.stages())}


class Validate:
    """Checks one small pipelined system per op against the simulator,
    cycling through the four blocking x release policies."""

    POLICIES = (
        (BlockingPolicy.ADVERSARIAL, ReleasePolicy.SYNCHRONOUS),
        (BlockingPolicy.UNIFORM, ReleasePolicy.SYNCHRONOUS),
        (BlockingPolicy.ADVERSARIAL, ReleasePolicy.JITTERED),
        (BlockingPolicy.UNIFORM, ReleasePolicy.JITTERED),
    )

    HYPERPERIODS = 3
    spec_bytes = 0

    def __init__(self, seed: int, workdir: Path, *, systems: int = 3000):
        self.seed = seed
        self.systems = systems

    def setup(self) -> None:
        self.draws = inputs.Draws()
        self.pool = inputs.validate_pool(self.seed, self.systems, self.draws)
        self.distinct = len(self.pool)

    def op(self, idx: int, tr):
        c = tr.call
        system, allocation, cluster, hyper = self.pool[idx]
        blocking, release = self.POLICIES[idx % len(self.POLICIES)]
        config = SimConfig(horizon=self.HYPERPERIODS * hyper,
                           seed=self.seed * 100_003 + idx,
                           blocking_policy=blocking, release_policy=release)
        report = c("analysis.solve_system", solve_system, system, allocation,
                   cluster)
        trace = c("sim.simulate", simulate, system, allocation, cluster,
                  config)
        observed = c("sim.worst_observed", worst_observed, trace)
        violations = c("sim.verify_conservative", verify_conservative,
                       report, observed)
        return report, trace, observed, violations

    def check(self, idx: int, result) -> Outcome:
        report, trace, observed, violations = result
        system, _allocation, _cluster, hyper = self.pool[idx]
        completed: Counter = Counter()
        shortest: dict = {}
        for (sid, _job), response in trace.job_responses.items():
            completed[sid] += 1
            shortest[sid] = min(shortest.get(sid, response), response)
        items = Counter(aid for aid, _item in trace.end_to_end_responses)
        error = None
        if not report.system_feasible:
            error = "an accepted system was judged infeasible"
        elif set(completed) - set(report.per_stage) or \
                set(items) - set(report.per_analytic):
            error = "simulator observed an unknown stage or analytic"
        else:
            error = sim_error(system, self.HYPERPERIODS * hyper, completed,
                              shortest, items)
        counts = {
            "analysis.stages": len(report.per_stage),
            "analysis.diverged_stages": sum(
                1 for v in report.per_stage.values() if v is DIVERGED),
            "sim.simulated": 1,
            "sim.jobs": len(trace.job_responses),
            "sim.items": len(trace.end_to_end_responses),
            "sim.violations": len(violations),
            "sim.unsound": int(bool(violations)),
        }
        return Outcome(
            digest(_report_parts(report), sorted(observed.per_stage.items()),
                   sorted(observed.per_analytic.items()), violations,
                   len(trace.events)),
            error, counts)

    def write_inputs(self) -> None:
        """Validate inputs stay in memory."""

    def traced_extras(self, tr) -> dict:
        return {}


# The public functions cli.py calls through module attributes. For the
# length of one in-process command each is swapped for a spanned
# wrapper, so the spans time the CLI's own calls.
CLI_CALLS = {
    model: ("assign_priorities_dm", "with_priorities", "allocate_first_fit",
            "with_allocation", "validate_system"),
    analysis: ("solve_system",),
    sizing: ("frequency_sweep", "decimation_sweep", "baseline_comparison"),
    sim: ("simulate", "trace_to_csv", "worst_observed",
          "verify_conservative"),
    cli: ("parse_system_spec",),
}


@contextmanager
def spanned_cli_calls(tr, results: dict):
    """Routes the CLI_CALLS through ``tr.call`` while the block runs and
    keeps each call's result in ``results[span name]``; restores the
    modules afterwards."""
    saved = []

    def spanned(name, fn):
        def call(*args, **kwargs):
            result = tr.call(name, fn, *args, **kwargs)
            results.setdefault(name, []).append(result)
            return result
        return call

    try:
        for module, names in CLI_CALLS.items():
            layer = module.__name__.rpartition(".")[2]
            for name in names:
                fn = getattr(module, name)
                saved.append((module, name, fn))
                setattr(module, name, spanned(f"{layer}.{name}", fn))
        yield
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def cli_counts(results: dict) -> dict:
    """Counts from the results of one in-process command's calls."""
    def each(name):
        return results.get(name, ())

    return {
        "model.stages_placed": sum(
            len(a) for a in each("model.allocate_first_fit")),
        "analysis.stages": sum(
            len(r.per_stage) for r in each("analysis.solve_system")),
        "analysis.diverged_stages": sum(
            1 for r in each("analysis.solve_system")
            for v in r.per_stage.values() if v is DIVERGED),
        "sim.jobs": sum(len(t.job_responses) for t in each("sim.simulate")),
        "sim.items": sum(
            len(t.end_to_end_responses) for t in each("sim.simulate")),
        "sim.violations": sum(
            len(v) for v in each("sim.verify_conservative")),
        "sim.trace_bytes": sum(
            len(csv.encode()) for csv in each("sim.trace_to_csv")),
    }


class CliCommands:
    """One op is one CLI command in a child interpreter, start-up
    included; ``commands`` are taken round-robin. A traced run also
    replays each command in process through ``run_command``, with spans
    around the CLI's own calls, and times a bare interpreter and the CLI
    import."""

    REPLAYS = 3
    STARTUP_RUNS = 5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def add_spec(self, name: str, system: System, cluster: Cluster) -> str:
        """Emits a spec, checks that it parses back to what it was written
        from, and returns the path ``write_inputs`` will give it."""
        text = emit_system_spec(system, cluster)
        if parse_system_spec(text)[:2] != (system, cluster):
            raise ValueError(f"{name} does not parse back to its system")
        self.specs[name] = text
        self.spec_bytes += len(text.encode())
        return str(self.workdir / name)

    def write_inputs(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name, text in self.specs.items():
            (self.workdir / name).write_text(text, encoding="utf-8")

    def setup(self) -> None:
        self.specs: dict[str, str] = {}
        self.spec_bytes = 0
        self.draws = inputs.Draws()
        self.commands = self.make_commands()
        self.distinct = len(self.commands)
        self.last_stdout: dict[int, str] = {}

    def op(self, idx: int, tr):
        label, argv = self.commands[idx]
        proc = tr.call(f"cli.{label}", subprocess.run,
                       [sys.executable, "-B", "-c", CLI_ENTRY, *argv],
                       cwd=ROOT, capture_output=True, timeout=CLI_TIMEOUT_S)
        artifact = b""
        if label == "simulate":
            artifact = Path(argv[argv.index("--trace") + 1]).read_bytes()
        return proc, artifact

    def check(self, idx: int, result) -> Outcome:
        proc, artifact = result
        label, _argv = self.commands[idx]
        stdout = proc.stdout.decode("utf-8")
        self.last_stdout[idx] = stdout
        stderr, probe = read_probe(proc.stderr)
        counts: dict = {}
        error = None
        if probe is None:
            error = f"{label} did not exit cleanly: {stderr[-300:]}"
        if error is None and proc.returncode not in (0, 2):
            error = f"{label} exited {proc.returncode}: {stderr[-300:]}"
        elif error is None:
            try:
                error = self.check_output(label, proc.returncode, stdout,
                                          artifact, counts)
            except (ValueError, KeyError, IndexError) as exc:
                error = f"{label} printed unreadable output: {exc!r}"
        return Outcome(digest(proc.returncode, proc.stdout, stderr, artifact),
                       error, counts, probe)

    def traced_extras(self, tr) -> dict:
        counts: dict = {}
        for r in range(self.REPLAYS):
            for idx, (label, argv) in enumerate(self.commands):
                tr.op = -1 - idx
                results: dict = {}
                replayed = self.replay(argv, tr, results)
                if r == 0:
                    if replayed != self.last_stdout.get(idx):
                        raise RuntimeError(f"in-process {label} differs "
                                           "from the child's output")
                    for key, value in cli_counts(results).items():
                        counts[key] = counts.get(key, 0) + value
        counts["cli.interpreter_ms"] = self.child_ms("pass")
        counts["cli.import_ms"] = (self.child_ms("import tcsizer.cli")
                                   - counts["cli.interpreter_ms"])
        return counts

    def child_ms(self, body: str) -> float:
        """Median time of a child interpreter running ``body``, in ms at
        the reference speed, its speed probes left out."""
        times = []
        for _ in range(self.STARTUP_RUNS):
            t0 = time.perf_counter_ns()
            proc = subprocess.run(
                [sys.executable, "-B", "-c", child_code(body)], cwd=ROOT,
                capture_output=True, check=True, timeout=CLI_TIMEOUT_S)
            ns = time.perf_counter_ns() - t0
            _, (probe, spent) = read_probe(proc.stderr)
            times.append(measure.at_reference_speed(ns - spent, probe) / 1e6)
        return statistics.median(times)

    def replay(self, argv: list[str], tr, results: dict) -> str:
        """Runs ``argv`` in process through ``run_command``, with a span
        around the command and around each CLI_CALLS call it makes, whose
        results go to ``results``. A trace goes to a file of its own.
        Returns what the command printed."""
        if "--trace" in argv:
            argv = [*argv[:argv.index("--trace")], "--trace",
                    str(self.workdir / "replay-trace.csv")]
        out, err = io.StringIO(), io.StringIO()
        with spanned_cli_calls(tr, results):
            tr.call("cli.run_command", run_command, argv, out=out, err=err)
        return out.getvalue()


class CliAnalyze(CliCommands):
    """`analyze` on 2000 independent tasks, 11 cores of capacity 0.69."""

    def __init__(self, seed: int, workdir: Path, *, n_tasks: int = 2000):
        super().__init__(seed, workdir)
        self.n_tasks = n_tasks

    def make_commands(self):
        system = inputs.dense_tasks(self.seed, self.n_tasks)
        cluster = Cluster(tuple(Core(f"c{i}", Fraction(69, 100))
                                for i in range(11)))
        return [("analyze", ["analyze", self.add_spec("dense.json", system,
                                                      cluster)])]

    def check_output(self, label, code, stdout, artifact, counts):
        doc = json.loads(stdout)
        if len(doc["per_stage"]) != self.n_tasks:
            return "analyze did not bound every task"
        if doc["system_feasible"] != (code == 0):
            return "exit code disagrees with the verdict"
        return None


class CliSimulate(CliCommands):
    """`simulate --trace` for 2 s on the microblog system at 4 kHz."""

    def __init__(self, seed: int, workdir: Path, *, horizon: str = "2s"):
        super().__init__(seed, workdir)
        self.horizon = horizon

    def make_commands(self):
        self.system = inputs.microblog_headline()
        spec = self.add_spec("headline.json", self.system,
                             homogeneous_cluster(8))
        return [("simulate", ["simulate", spec, "--seed", str(self.seed),
                              "--horizon", self.horizon, "--trace",
                              str(self.workdir / "trace.csv")])]

    def check_output(self, label, code, stdout, artifact, counts):
        doc = json.loads(stdout)
        counts["sim.simulated"] = 1
        counts["sim.unsound"] = int(not doc["conservative"])
        if doc["conservative"] != (not doc["violations"]):
            return "conservative flag disagrees with the violations"
        header, *rows = artifact.decode("utf-8").splitlines()
        if header != "time_ns,core,kind,stage,job":
            return "trace CSV lacks its header"
        horizon = cli.parse_duration(self.horizon)
        released: dict = {}
        completed: Counter = Counter()
        shortest: dict = {}
        last = 0
        for row in rows:
            t, _core, kind, stage, job = row.split(",")
            t = int(t)
            if not last <= t <= horizon:
                return "trace rows out of time order or past the horizon"
            last = t
            if kind == "RELEASE":
                released[stage, job] = t
            elif kind == "COMPLETE":
                completed[stage] += 1
                response = t - released[stage, job]
                shortest[stage] = min(shortest.get(stage, response),
                                      response)
        if set(completed) != set(doc["per_stage_observed"]):
            return "trace and report disagree on the stages that completed"
        return sim_error(self.system, horizon, completed, shortest)


class CliStartup(CliCommands):
    """`size`, `decimate` and `compare` on the microblog template; all
    three are bound by interpreter start-up and import."""

    def make_commands(self):
        self.args = inputs.sweep_arguments(self.seed)
        spec = self.add_spec("microblog.json", inputs.microblog_template(),
                             homogeneous_cluster(8))
        freqs = ",".join(map(str, self.args["freqs"]))
        factors = ",".join(map(str, self.args["factors"]))
        return [
            ("size", ["size", spec, "--freqs", freqs, "--umax", "1"]),
            ("decimate", ["decimate", spec, "--factors", factors,
                          "--freq", str(self.args["freq"]), "--umax", "1"]),
            ("compare", ["compare", spec, "--umax", "1"]),
        ]

    def check_output(self, label, code, stdout, artifact, counts):
        lines = stdout.splitlines()
        if label == "size":
            got = [int(line.split(",")[0]) for line in lines[1:]]
            if got != self.args["freqs"]:
                return "size lost a frequency row"
        elif label == "decimate":
            got = [int(line.split(",")[0]) for line in lines[1:]]
            if got != self.args["factors"]:
                return "decimate lost a factor row"
        else:
            doc = json.loads(stdout)
            if doc["baseline"] < doc["ours"]:
                return "baseline needs fewer cores than ours"
        return None


WORKLOADS = {
    "plan-wide": PlanWide,
    "validate": Validate,
    "cli-analyze": CliAnalyze,
    "cli-simulate": CliSimulate,
    "cli-startup": CliStartup,
}
