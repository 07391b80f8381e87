"""Benchmark for tcsizer: end-to-end and per-layer timings on fixed-seed
workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload plan-wide --seed 1 --seconds 15 --trace 0

and the benchmark's own tests with ``python3 -m pytest -q perfbench``.

Workloads (see BENCHMARK.json for why each was chosen):

* plan-wide: questions 1-3 for a 2000-stage system, in process.
* validate: a stream of small pipelined systems checked against the
  simulator under all four blocking x release policies, in process.
* cli-analyze, cli-simulate, cli-startup: one CLI command per op in a
  child interpreter, start-up included.

Each run sets the workload up at least three times, more when set-up is
quick; ``setup_s`` is the median. A set-up makes the inputs and runs the
first op, which fills the caches. Then ops run in a closed loop, one at
a time, in whole passes (one op per distinct input) until ``--seconds``
have gone by. An op fails when it
raises, when a CLI child exits with a code other than 0 or 2, when its
output fails a check, or when its output digest differs from an earlier
repetition of the same op. Bound violations the simulator finds are
reported, not counted as failures.

Timings are reported at a reference machine speed. The speed of a
shared machine can swing twofold within a minute, so a fixed
calibration probe runs next to every op: between ops for in-process
work, at least every 0.1 s, and inside the child for CLI ops, whose
parent sits idle. Each time is multiplied by the probe's reference time
over its measured time; an in-process op takes the median probe of the
second before and after it. The unscaled values are on the information
line.

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics. With ``--trace 1`` half the time runs untraced and
half traced, and the last line carries the per-layer metrics. Their
times are the summed wall time of the spanned calls per pass, where a
pass is one op per distinct input (for CLI workloads, one in-process
replay of each command); counts are per pass. Spans are written to
``.perfbench/<workload>-<seed>/spans.jsonl`` at the end. The line before
the last is a JSON object of run information: interpreter and bytecode
setting, unscaled timings, probe times, the tail percentile with its
sample count, failures, and, when traced, the self time of each span.

The benchmark never writes bytecode: it sets ``sys.dont_write_bytecode``
before importing the program and starts CLI children with ``-B``. A
child also compiles tcsizer from source whether or not a ``__pycache__``
lies under ``src/``: an import hook in the child skips any cached
bytecode for modules under ``src/``. Children otherwise inherit the
environment unchanged, so the standard library loads as it says. The
information line records the bytecode settings and whether ``src/``
holds a ``__pycache__``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import NamedTuple

sys.dont_write_bytecode = True

import measure  # noqa: E402 - after the bytecode setting

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_SETUPS = 3
MAX_SETUPS = 100
SETUP_BUDGET_S = 1.0
CALIB_EVERY_S = 0.1
SMOOTH_S = 1.0


class LoopResult(NamedTuple):
    latencies_ns: list
    scaled_ns: list
    probes_ns: list
    attempted: int
    errors: list
    first_counts: dict


def attempt(w, idx: int, tr, digests: dict):
    """One op plus its checks: (op ns or None, error or None, counts,
    the op's own speed probe in ns or None)."""
    t0 = time.perf_counter_ns()
    try:
        result = w.op(idx, tr)
    except Exception:  # an op that raises is a failed op, not a crash
        return None, traceback.format_exc(limit=-2).strip(), {}, None
    ns = time.perf_counter_ns() - t0
    try:
        outcome = w.check(idx, result)
    except Exception:
        return ns, traceback.format_exc(limit=-2).strip(), {}, None
    error = outcome.error
    if error is None and digests.setdefault(idx, outcome.digest) != \
            outcome.digest:
        error = f"op {idx}: output differs from an earlier repetition"
    if outcome.probe is None:
        return ns, error, outcome.counts, None
    fastest, spent = outcome.probe
    return ns - spent, error, outcome.counts, fastest


def loop(w, seconds: float, tr, digests: dict) -> LoopResult:
    """Closed loop over the workload's ops in whole passes, until
    ``seconds`` have gone by. Whole passes keep the mix of inputs the
    same from run to run. Counts are kept from the first run of each
    distinct op.

    The machine's speed is probed at least every CALIB_EVERY_S, between
    ops, and each op time is scaled to the reference speed by the median
    of the probes from SMOOTH_S before it to SMOOTH_S after it, or by the
    op's own probe when it made one. A single probe is noisier than the
    speed it tracks, which changes over seconds, not between ops."""
    latencies: list[int] = []
    probe_before: list[int] = []
    own_probes: list[int | None] = []
    probes = [measure.machine_speed()]
    probe_times = [time.perf_counter()]
    errors: list[str] = []
    first: dict[int, dict] = {}
    start = probe_times[0]
    i = 0
    while i % w.distinct or i == 0 or \
            time.perf_counter() - start < seconds:
        if time.perf_counter() - probe_times[-1] >= CALIB_EVERY_S:
            probes.append(measure.machine_speed())
            probe_times.append(time.perf_counter())
        idx = i % w.distinct
        tr.op = i
        ns, error, counts, own = attempt(w, idx, tr, digests)
        if ns is not None:
            latencies.append(ns)
            probe_before.append(len(probes) - 1)
            own_probes.append(own)
        if error is not None:
            errors.append(error)
        first.setdefault(idx, counts)
        i += 1
    if not latencies:
        raise RuntimeError(f"no op completed; first error: {errors[0]}")
    probes.append(measure.machine_speed())
    probe_times.append(time.perf_counter())
    scaled = [measure.at_reference_speed(
                  ns, own or measure.probes_around(probes, probe_times, k,
                                                   SMOOTH_S))
              for ns, k, own in zip(latencies, probe_before, own_probes)]
    return LoopResult(latencies, scaled, probes, i, errors, first)


def timed_setups(make, digests: dict):
    """Sets a fresh workload up MIN_SETUPS times, and more while they
    have taken less than SETUP_BUDGET_S in all, at most MAX_SETUPS. A
    set-up makes the inputs, writes them out (untimed) and runs the first
    op, which fills the caches. Returns the last workload, each set-up
    time in s, raw and at the reference speed, and each first op's error
    or None."""
    times, errors = [], []
    probe = measure.machine_speed()
    total = 0
    while len(times) < MIN_SETUPS or (total < SETUP_BUDGET_S * 1e9
                                      and len(times) < MAX_SETUPS):
        w = make()
        t0 = time.perf_counter_ns()
        w.setup()
        ns = time.perf_counter_ns() - t0
        w.write_inputs()
        mid = measure.machine_speed()
        op_ns, error, _, own = attempt(w, 0, measure.NullTracer(), digests)
        after = measure.machine_speed()
        op_ns = op_ns or 0
        scaled = (measure.at_reference_speed(ns, (probe + mid) / 2)
                  + measure.at_reference_speed(op_ns, own or (mid + after) / 2))
        times.append(((ns + op_ns) / 1e9, scaled / 1e9))
        errors.append(error)
        probe = after
        total += ns + op_ns
    return w, times, errors


def _sum_counts(res: LoopResult) -> Counter:
    """Counts of one pass: each distinct op counted once."""
    total = Counter()
    for counts in res.first_counts.values():
        total.update(counts)
    return total


def ops_per_s(times_ns: list) -> float:
    return len(times_ns) / (sum(times_ns) / 1e9)


def end_to_end(setups: list, res: LoopResult, children: bool) -> dict:
    return {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "ops_per_s": (ops_per_s(res.scaled_ns), "op/s"),
        "op_p50_ms": (statistics.median(res.scaled_ns) / 1e6, "ms"),
        "peak_rss_mb": (measure.peak_rss_mb(children), "MB"),
    }


def per_layer(w, tr, passes: float, scale: float, counts: Counter,
              extras: dict, gc_clock, overhead: float) -> dict:
    """Times are per pass and multiplied by ``scale``, which takes them to
    the reference machine speed; the child timings in ``extras`` are
    scaled by the children's own probes already."""
    def busy(*names):
        return tr.busy_ns(*names) / 1e9 / passes * scale

    def ratio(a, b):
        return a / b if b else 0.0

    first_fit = busy("model.allocate_first_fit")
    solve = busy("analysis.solve_system")
    sim = busy("sim.simulate")
    return {
        "model.assign_priorities_dm.busy_s": (
            busy("model.assign_priorities_dm"), "s"),
        "model.allocate_first_fit.busy_s": (first_fit, "s"),
        "model.allocate_first_fit.us_per_stage": (
            ratio(first_fit * 1e6, counts["model.stages_placed"]), "us"),
        "model.with_allocation.busy_s": (busy("model.with_allocation"), "s"),
        "model.validate_system.busy_s": (busy("model.validate_system"), "s"),
        "analysis.solve_system.busy_s": (solve, "s"),
        "analysis.solve_system.us_per_stage": (
            ratio(solve * 1e6, counts["analysis.stages"]), "us"),
        "analysis.diverged_stages": (counts["analysis.diverged_stages"],
                                     "count"),
        "sizing.frequency_sweep.busy_s": (busy("sizing.frequency_sweep"),
                                          "s"),
        "sizing.replica_stages": (counts["sizing.replica_stages"], "count"),
        "sizing.baseline_comparison.busy_s": (
            busy("sizing.baseline_comparison"), "s"),
        "sizing.decimation_sweep.busy_s": (busy("sizing.decimation_sweep"),
                                           "s"),
        "sim.simulate.busy_s": (sim, "s"),
        "sim.jobs": (counts["sim.jobs"], "count"),
        "sim.items": (counts["sim.items"], "count"),
        "sim.ns_per_job": (ratio(sim * 1e9, counts["sim.jobs"]), "ns"),
        "sim.verify.busy_s": (
            busy("sim.worst_observed", "sim.verify_conservative"), "s"),
        "sim.violations": (counts["sim.violations"], "count"),
        "sim.unsound_share": (
            ratio(counts["sim.unsound"], counts["sim.simulated"]), "share"),
        "sim.trace_to_csv.busy_s": (busy("sim.trace_to_csv"), "s"),
        "sim.trace_bytes": (counts["sim.trace_bytes"], "bytes"),
        "cli.interpreter_ms": (extras.get("cli.interpreter_ms", 0.0), "ms"),
        "cli.import_ms": (extras.get("cli.import_ms", 0.0), "ms"),
        "cli.parse_system_spec.busy_s": (busy("cli.parse_system_spec"), "s"),
        "cli.spec_bytes": (w.spec_bytes, "bytes"),
        "cli.run_command.busy_s": (busy("cli.run_command"), "s"),
        "runtime.gc_s": (gc_clock.ns / 1e9 / passes * scale, "s"),
        "runtime.gc_collections": (gc_clock.collections / passes, "count"),
        "workloads.accept_ratio": (w.draws.ratio, "share"),
        "trace.overhead_share": (overhead, "share"),
    }


def run(name: str, seed: int, seconds: float, trace: bool,
        sizes: dict | None = None) -> tuple[dict, dict]:
    """One benchmark run: (result line, run information)."""
    import loads

    workdir = ROOT / ".perfbench" / f"{name}-{seed}"
    cls = loads.WORKLOADS[name]
    digests: dict[int, str] = {}
    # attempts outside the timed loops: the first op of each set-up and,
    # when traced, the in-process replays
    w, setups, side = timed_setups(
        lambda: cls(seed, workdir, **(sizes or {})), digests)
    children = isinstance(w, loads.CliCommands)
    info: dict = {}
    if not trace:
        res = loop(w, seconds, measure.NullTracer(), digests)
        counts = _sum_counts(res)
        metrics = end_to_end(setups, res, children)
    else:
        untraced = loop(w, seconds / 2, measure.NullTracer(), digests)
        tr = measure.Tracer()
        extras = {}
        with measure.GcClock() as gc_clock:
            res = loop(w, seconds / 2, tr, digests)
            try:
                extras = w.traced_extras(tr)
                side.append(None)
            except Exception:  # a failed replay check is a failed attempt
                side.append(traceback.format_exc(limit=-2).strip())
        counts = _sum_counts(res)
        counts.update({k: v for k, v in extras.items()
                       if k not in ("cli.interpreter_ms", "cli.import_ms")})
        passes = (w.REPLAYS if children
                  else len(res.latencies_ns) / w.distinct)
        scale = measure.at_reference_speed(1, statistics.median(
            [*res.probes_ns, measure.machine_speed()]))
        overhead = 1 - ops_per_s(res.scaled_ns) / ops_per_s(untraced.scaled_ns)
        metrics = per_layer(w, tr, passes, scale, counts, extras, gc_clock,
                            overhead)
        workdir.mkdir(parents=True, exist_ok=True)
        tr.write(workdir / "spans.jsonl")
        info["spans"] = len(tr.spans)
        info["span_summary"] = tr.summary()
        res = res._replace(attempted=res.attempted + untraced.attempted,
                           errors=untraced.errors + res.errors)

    errors = [e for e in side if e] + res.errors
    tail = measure.tail_percentile(res.scaled_ns)
    factors = [s / r for s, r in zip(res.scaled_ns, res.latencies_ns)]
    info.update({
        "workload": name,
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        # children run with -B and compile tcsizer from source whatever
        # these say
        "bytecode": {
            "PYTHONDONTWRITEBYTECODE": os.environ.get(
                "PYTHONDONTWRITEBYTECODE"),
            "interpreter_flag": sys.flags.dont_write_bytecode,
            "PYTHONPYCACHEPREFIX": sys.pycache_prefix,
            "src_pycache": any(SRC.rglob("__pycache__")),
        },
        "distinct_ops": w.distinct,
        "samples": len(res.latencies_ns),
        "tail": (None if tail is None else
                 {"percentile": tail[0], "ms": tail[1] / 1e6, "n": tail[2]}),
        "raw": {"setup_s": statistics.median(r for r, _ in setups),
                "ops_per_s": ops_per_s(res.latencies_ns),
                "op_p50_ms": statistics.median(res.latencies_ns) / 1e6},
        "probe_ms": {"reference": measure.CALIB_REF_NS / 1e6,
                     "median": statistics.median(res.probes_ns) / 1e6},
        "scale_applied": {"median": statistics.median(factors),
                          "min": min(factors), "max": max(factors)},
        "simulated": counts["sim.simulated"],
        "unsound": counts["sim.unsound"],
        "errors": errors[:5],
    })
    failed = len(errors)
    result = {
        "correct": failed == 0,
        "attempted": res.attempted + len(side),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tcsizer" / "__init__.py").is_file():
        print(f"perfbench: no tcsizer sources under {SRC}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import loads
    if args.workload not in loads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(loads.WORKLOADS)}")
    result, info = run(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
