"""On-disk system specs and the command-line front end.

A system spec is a strict JSON document:

    {
      "analytics": [
        {"id": "...", "end_to_end_deadline": "1s",
         "stages": [{"id": "...", "cost": "127us", "inter_arrival": "1ms",
                     "deadline": "1s", "blocking": "0ns"}],
         "topology": {"seq": ["a", {"par": ["b", "c"]}, "d"]}}
      ],
      "cluster": {"cores": [{"id": "c0", "capacity": 1.0,
                             "platform_blocking": "0ns"}]},
      "allocation": {"stage-id": "core-id"},          # optional
      "priorities": {"stage-id": 5},                  # optional
      "options": {"u_max": 1.0, "frequencies_hz": [1, 4000],
                  "factors": [1, 10], "input_frequency_hz": 1000,
                  "sim": {"horizon": "1s", "seed": 0,
                          "blocking_policy": "ADVERSARIAL",
                          "release_policy": "SYNCHRONOUS"}}   # optional
    }

Durations are strings with a unit suffix (ns, us, ms, s, min, h) parsed
exactly to integer nanoseconds, their number at most MAX_DURATION_DIGITS
digits long; "inf" is allowed for inter-arrival times only. Unknown keys
are rejected. Every input error is a ParseError at the JSON pointer of
the bad value; the pointer is assembled on the way out, each container
prefixing its key or index, so reading a good spec builds none.
Topology nodes are either a stage id (leaf) or a one-key object
{"seq": [...]} (in sequence), {"par": [...]} (every child sees every
item) or {"rr": ["s#1", ..., "s#k"]} (stage ids of one finite
inter-arrival; item n visits child n mod k only), nested at most
MAX_TOPOLOGY_DEPTH deep.

Subcommands: analyze, size, decimate, simulate, compare. Exit codes:
0 = analysis ran and the system is feasible, 2 = analysis ran and it is
not, 1 = input or usage error. Each flag that overrides an option is
read like that option's field, lists split on commas, so an empty value
is an input error. The seed of simulate is --seed, else the environment
variable TC_SIZER_SEED, else options.sim.seed, else 0. A command
imports only what it runs: simulate imports the simulator, and size,
decimate and compare the sweeps, each when it starts.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

from . import analysis, model
from .model import (
    INFINITE,
    Analytic,
    BlockingPolicy,
    Cluster,
    Core,
    Expr,
    Leaf,
    Par,
    ReleasePolicy,
    RoundRobin,
    Seq,
    Stage,
    System,
)


class ParseError(Exception):
    """Spec parse failure with a JSON-pointer path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path or '/'}: {message}")
        self.path = path
        self.message = message

    def within(self, prefix: str) -> ParseError:
        """The same failure, its path below ``prefix``."""
        return ParseError(prefix + self.path, self.message)


_UNITS = {
    "ns": 1,
    "us": model.US,
    "µs": model.US,
    "ms": model.MS,
    "s": model.SEC,
    "min": model.MINUTE,
    "h": model.HOUR,
}

_DURATION_RE = re.compile(r"([0-9]+(?:\.[0-9]+)?)(ns|us|µs|ms|s|min|h)")

#: Most digits in the number of a duration, and in the period in ns
#: that a frequency gives: far above any real duration, and far below
#: the 4300-digit limit that int() puts on a string.
MAX_DURATION_DIGITS = 30


def parse_duration(text: str, *, allow_inf: bool = False, path: str = ""):
    """'1.5ms' -> 1_500_000; exact or ParseError."""
    if not isinstance(text, str):
        raise ParseError(path, f"expected a duration string, got {text!r}")
    number = text[:-2]
    # the "<digits>ns" that format_duration writes needs no regex
    if (text.endswith("ns") and number.isdigit() and number.isascii()
            and len(number) <= MAX_DURATION_DIGITS):
        return int(number)
    if text == "inf":
        if allow_inf:
            return INFINITE
        raise ParseError(path, '"inf" is only allowed for inter-arrival times')
    m = _DURATION_RE.fullmatch(text.strip())
    if not m:
        raise ParseError(path, f"cannot parse duration {text!r}")
    number, unit = m.groups()
    if len(number) - ("." in number) > MAX_DURATION_DIGITS:
        raise ParseError(
            path, f"duration has more than {MAX_DURATION_DIGITS} digits")
    if "." not in number:
        return int(number) * _UNITS[unit]
    value = Fraction(number) * _UNITS[unit]
    if value.denominator != 1:
        raise ParseError(
            path, f"duration {text!r} is not a whole number of nanoseconds")
    return int(value)


def format_duration(ns) -> str:
    if ns is INFINITE:
        return "inf"
    return f"{ns}ns"


def format_fraction(x: Fraction) -> str:
    """Up to 9 significant digits, integers without a decimal point."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{float(x):.9g}"


def _json_number(x: Fraction):
    """Lossless JSON value for a rational: int, float when the decimal
    repr round-trips exactly, else a "num/den" string."""
    if x.denominator == 1:
        return x.numerator
    as_float = float(x)
    if Fraction(repr(as_float)) == x:
        return as_float
    return f"{x.numerator}/{x.denominator}"


# --- spec codec ---------------------------------------------------------------
#
# Every spec record is a table of fields. A field names its key (the
# record's attribute of the same name), its value parser, called with
# the value alone, and its value formatter. Absent optional keys take
# the record type's default. _read and _write walk a table. A parser
# raises ParseError with the pointer below its value; each container
# prefixes its key or index as the error passes out, so no pointer is
# built unless a value is bad.

#: Deepest nesting of seq/par nodes the topology reader accepts; the
#: composition functions recurse once per level.
MAX_TOPOLOGY_DEPTH = 100


def _same(value):
    return value


class _Field(NamedTuple):
    key: str
    parse: Callable[[Any], Any]
    format: Callable[[Any], Any] = _same
    required: bool = False


class _Table:
    """The fields of one kind of record, with the keys _read checks
    computed once: the required ones in field order, and all of them."""

    def __init__(self, what: str, *fields: _Field):
        self.what = what
        self.fields = fields
        self.required = tuple(f.key for f in fields if f.required)
        self.known = frozenset(f.key for f in fields)


def _read(obj: Any, table: _Table) -> dict[str, Any]:
    """Parsed values of the keys ``obj`` holds: missing required keys
    are reported first, then unknown keys, then bad values."""
    if not isinstance(obj, dict):
        raise ParseError("", f"expected {table.what}")
    for key in table.required:
        if key not in obj:
            raise ParseError(f"/{key}", "missing required key")
    if not obj.keys() <= table.known:
        key = next(key for key in obj if key not in table.known)
        raise ParseError(f"/{key}", "unknown key")
    values = {}
    for key, parse, _, _ in table.fields:
        if key in obj:
            try:
                values[key] = parse(obj[key])
            except ParseError as exc:
                raise exc.within(f"/{key}") from None
    return values


def _write(record: Any, fields: tuple[_Field, ...]) -> dict[str, Any]:
    """Spec object of a record; fields whose value is None are left out."""
    return {f.key: f.format(value) for f in fields
            if (value := getattr(record, f.key)) is not None}


def _string(value: Any) -> str:
    if not isinstance(value, str):
        raise ParseError("", "expected a string")
    return value


def _integer(message: str, least: int | None = None):
    def parse(value: Any) -> int:
        if (isinstance(value, bool) or not isinstance(value, int)
                or least is not None and value < least):
            raise ParseError("", message)
        return value
    return parse


def _inter_arrival(value: Any):
    return parse_duration(value, allow_inf=True)


def _ratio(value: Any, what: str) -> Fraction:
    if isinstance(value, bool):
        raise ParseError("", f"{what} must be a number")
    try:
        if isinstance(value, (int, Fraction, str)):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise ParseError("", f"{what} must be a number or a \"num/den\" string")


def _capacity(value: Any) -> Fraction:
    cap = _ratio(value, "capacity")
    if not 0 < cap <= 1:
        raise ParseError("", "capacity must be in (0, 1]")
    return cap


def _frequency(value: Any) -> Fraction:
    f = _ratio(value, "frequency")
    try:
        period = model.period_from_frequency(f)
    except ValueError as exc:
        raise ParseError("", str(exc)) from None
    if period >= 10 ** MAX_DURATION_DIGITS:
        raise ParseError("", f"frequency gives a period of more than "
                         f"{MAX_DURATION_DIGITS} digits of ns")
    return f


def _policy(enum):
    def parse(value: Any):
        try:
            return enum(value)
        except ValueError:
            raise ParseError("", f"unknown policy {value!r}") from None
    return parse


def _list_of(parse_item):
    def parse(value: Any) -> list:
        if not isinstance(value, list):
            raise ParseError("", "expected a list")
        items = []
        for i, item in enumerate(value):
            try:
                items.append(parse_item(item))
            except ParseError as exc:
                raise exc.within(f"/{i}") from None
        return items
    return parse


def _map_of(parse_value):
    def parse(value: Any) -> dict:
        if not isinstance(value, dict):
            raise ParseError("", "expected an object")
        parsed = {}
        for key, item in value.items():
            try:
                parsed[key] = parse_value(item)
            except ParseError as exc:
                raise exc.within(f"/{key}") from None
        return parsed
    return parse


def _records(key: str, make, table: _Table) -> _Field:
    """A required list of records built by ``make`` from ``table``."""
    def parse_record(value: Any):
        return make(**_read(value, table))
    return _Field(key, _list_of(parse_record),
                  lambda records: [_write(r, table.fields) for r in records],
                  True)


_NODES = {"seq": Seq, "par": Par, "rr": RoundRobin}


def _parse_topology(node: Any, depth: int = 1) -> Expr:
    if isinstance(node, str):
        return Leaf(node)
    if isinstance(node, dict):
        if len(node) != 1:
            raise ParseError("", 'topology node must be a stage id or '
                             'a one-key {"seq"|"par"|"rr": [...]} object')
        if depth > MAX_TOPOLOGY_DEPTH:
            raise ParseError("", f"topology nested deeper than "
                             f"{MAX_TOPOLOGY_DEPTH} levels")
        key, children = next(iter(node.items()))
        if key not in _NODES:
            raise ParseError(f"/{key}", "unknown composition kind")
        if not isinstance(children, list):
            raise ParseError(f"/{key}", "expected a list")
        if not children:
            raise ParseError(f"/{key}", "empty composition")
        for i, c in enumerate(children):
            if key == "rr" and not isinstance(c, str):
                raise ParseError(f"/rr/{i}",
                                 "round-robin children must be stage ids")
        parsed = []
        for i, c in enumerate(children):
            try:
                parsed.append(_parse_topology(c, depth + 1))
            except ParseError as exc:
                raise exc.within(f"/{key}/{i}") from None
        return _NODES[key](tuple(parsed))
    raise ParseError("", f"bad topology node {node!r}")


def _emit_topology(expr: Expr):
    if isinstance(expr, Leaf):
        return expr.stage
    key = next(k for k, kind in _NODES.items() if isinstance(expr, kind))
    return {key: [_emit_topology(c) for c in expr.children]}


_STAGE = _Table(
    "a stage object",
    _Field("id", _string, required=True),
    _Field("cost", parse_duration, format_duration, True),
    _Field("inter_arrival", _inter_arrival, format_duration, True),
    _Field("deadline", parse_duration, format_duration, True),
    _Field("blocking", parse_duration, format_duration),
)

_ANALYTIC = _Table(
    "an analytic object",
    _Field("id", _string, required=True),
    _records("stages", Stage, _STAGE),
    _Field("topology", _parse_topology, _emit_topology, True),
    _Field("end_to_end_deadline", parse_duration, format_duration, True),
)

_CORE = _Table(
    "a core object",
    _Field("id", _string, required=True),
    _Field("capacity", _capacity, _json_number),
    _Field("platform_blocking", parse_duration, format_duration),
)

_CLUSTER = _Table("a cluster object", _records("cores", Core, _CORE))


def _parse_cluster(obj: Any) -> Cluster:
    try:  # Core and Cluster check their own invariants
        return Cluster(**_read(obj, _CLUSTER))
    except ValueError as exc:
        raise ParseError("/cores", str(exc)) from None


@dataclass
class Options:
    u_max: Fraction = Fraction(1)
    frequencies_hz: list[Fraction] | None = None
    factors: list[int] | None = None
    input_frequency_hz: Fraction | None = None
    horizon: int | None = None
    seed: int | None = None
    blocking_policy: BlockingPolicy = BlockingPolicy.ADVERSARIAL
    release_policy: ReleasePolicy = ReleasePolicy.SYNCHRONOUS


# options.sim holds more fields of the same Options record
_SIM = _Table(
    "an object",
    _Field("horizon", parse_duration, format_duration),
    _Field("seed", _integer("seed must be an integer")),
    _Field("blocking_policy", _policy(BlockingPolicy),
           lambda policy: policy.value),
    _Field("release_policy", _policy(ReleasePolicy),
           lambda policy: policy.value),
)

_OPTION_FIELDS = (
    _Field("u_max", _capacity, _json_number),
    _Field("frequencies_hz", _list_of(_frequency),
           lambda freqs: [_json_number(f) for f in freqs]),
    _Field("factors",
           _list_of(_integer("factors must be positive integers", 1))),
    _Field("input_frequency_hz", _frequency, _json_number),
)


_OPTIONS = _Table("an options object", *_OPTION_FIELDS,
                  _Field("sim", lambda obj: _read(obj, _SIM)))


def _parse_options(obj: Any) -> Options:
    values = _read(obj, _OPTIONS)
    sim_values = values.pop("sim", {})
    return Options(**values, **sim_values)


def _emit_options(options: Options) -> dict[str, Any]:
    return {**_write(options, _OPTION_FIELDS),
            "sim": _write(options, _SIM.fields)}


# priorities and allocation are keyed by stage id; parse_system_spec
# checks the ids and applies both maps onto the stages
_DOC = _Table(
    "a JSON object",
    _records("analytics", Analytic, _ANALYTIC),
    _Field("cluster", _parse_cluster,
           lambda cluster: _write(cluster, _CLUSTER.fields), True),
    _Field("priorities", _map_of(_integer("priority must be an integer"))),
    _Field("allocation", _map_of(_string)),
    _Field("options", _parse_options, _emit_options),
)


def parse_system_spec(text: str) -> tuple[System, Cluster, Options]:
    """Parse a spec document; priorities/allocation maps are applied onto
    the stages. Raises ParseError with a JSON-pointer path."""
    try:
        doc = json.loads(text, parse_float=Fraction)
    except ValueError as exc:  # a JSONDecodeError, or an over-long integer
        raise ParseError("", f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("", "invalid JSON: nested too deeply") from None
    values = _read(doc, _DOC)
    system = System(values["analytics"])
    cluster = values["cluster"]

    stage_ids = {s.id for s in system.stages()}
    if "priorities" in values:
        for sid in values["priorities"]:
            if sid not in stage_ids:
                raise ParseError(f"/priorities/{sid}", "unknown stage")
        system = model.with_priorities(system, values["priorities"])
    if "allocation" in values:
        core_ids = {c.id for c in cluster.cores}
        for sid, cid in values["allocation"].items():
            if sid not in stage_ids:
                raise ParseError(f"/allocation/{sid}", "unknown stage")
            if cid not in core_ids:
                raise ParseError(f"/allocation/{sid}",
                                 f"unknown core {cid!r}")
        system = model.with_allocation(system, values["allocation"])
    return system, cluster, values.get("options", Options())


def emit_system_spec(system: System, cluster: Cluster,
                     options: Options | None = None) -> str:
    """Inverse of parse_system_spec: parse(emit(x)) == x."""
    doc = _write(SimpleNamespace(
        analytics=system.analytics,
        cluster=cluster,
        priorities={s.id: s.priority for s in system.stages()
                    if s.priority is not None} or None,
        allocation={s.id: s.core for s in system.stages()
                    if s.core is not None} or None,
        options=options,
    ), _DOC.fields)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# --- command front end --------------------------------------------------------

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="tcsizer", add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="response-time analysis and verdicts")
    p.add_argument("spec")

    p = sub.add_parser("size", help="utilization/min-cores frequency sweep")
    p.add_argument("spec")
    p.add_argument("--freqs", default=None,
                   help="comma-separated frequencies in Hz")
    p.add_argument("--umax", default=None, help="per-core capacity bound")
    p.add_argument("--replication-limit", default="4096",
                   help="most replicas per stage, an integer >= 1")

    p = sub.add_parser("decimate", help="decimation trade-off sweep")
    p.add_argument("spec")
    p.add_argument("--factors", default=None,
                   help="comma-separated decimation factors")
    p.add_argument("--freq", default=None, help="input frequency in Hz")
    p.add_argument("--umax", default=None)

    p = sub.add_parser("simulate", help="discrete-event simulation")
    p.add_argument("spec")
    p.add_argument("--seed", default=None)
    p.add_argument("--horizon", default=None, help="duration, e.g. 2s")
    p.add_argument("--trace", default="trace.csv", help="trace CSV path")
    p.add_argument("--blocking", choices=[b.value for b in BlockingPolicy],
                   default=None)
    p.add_argument("--release", choices=[r.value for r in ReleasePolicy],
                   default=None)

    p = sub.add_parser("compare", help="blocking-model core-count comparison")
    p.add_argument("spec")
    p.add_argument("--umax", default=None)
    return parser


# The flag (argparse dest) that overrides each option, and whether the
# flag holds a comma-separated list
_OPTION_FLAGS = {
    "u_max": ("umax", False),
    "frequencies_hz": ("freqs", True),
    "factors": ("factors", True),
    "input_frequency_hz": ("freq", False),
    "horizon": ("horizon", False),
    "seed": ("seed", False),
    "blocking_policy": ("blocking", False),
    "release_policy": ("release", False),
}


def _flag_value(text: str):
    """A flag token as the spec would hold it: the JSON value when it
    parses as JSON, else the string itself."""
    try:
        return json.loads(text, parse_float=Fraction)
    except (ValueError, RecursionError):
        return text


def _load_spec(args) -> tuple[System, Cluster, Options]:
    """The spec of ``args.spec``, validated, with each flag ``args``
    holds read over the option it overrides by that option's parser;
    list flags are split on commas. The seed is --seed, else TC_SIZER_SEED
    (read like --seed) for simulate, else options.sim.seed."""
    try:
        with open(args.spec, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {args.spec}: {exc.strerror}") from None
    system, cluster, options = parse_system_spec(text)
    report = model.validate_system(system)
    if not report.ok:
        findings = "; ".join(f"{p}: {m}" for p, m in report.findings)
        raise _UsageError(f"invalid system: {findings}")
    overrides = {}
    for f in (*_OPTION_FIELDS, *_SIM.fields):
        dest, listed = _OPTION_FLAGS[f.key]
        where, text = f"--{dest}", getattr(args, dest, None)
        if text is None and dest == "seed" and args.command == "simulate":
            where, text = "TC_SIZER_SEED", os.environ.get("TC_SIZER_SEED")
        if text is not None:
            value = ([_flag_value(t) for t in text.split(",")] if listed
                     else _flag_value(text))
            overrides[f.key] = _parse_flag(where, f.parse, value)
    return system, cluster, replace(options, **overrides)


def _parse_flag(where: str, parse, value):
    """parse(value), a ParseError pointed below the flag ``where``."""
    try:
        return parse(value)
    except ParseError as exc:
        raise exc.within(where) from None


def _prioritize(system: System) -> System:
    """Deadline-monotonic priorities when the spec file leaves them out
    entirely; a partial assignment is an input error."""
    prio_set = [s.priority is not None for s in system.stages()]
    if not any(prio_set):
        return model.with_priorities(system, model.assign_priorities_dm(system))
    if not all(prio_set):
        raise _UsageError("priorities must be given for all stages or none")
    return system


def _prepare(system: System, cluster: Cluster) -> tuple[System, dict[str, str]]:
    """Fill in priorities (_prioritize), and the allocation (first-fit's
    mapping) when the spec file leaves it out entirely; partial
    assignments are input errors."""
    system = _prioritize(system)
    core_set = [s.core is not None for s in system.stages()]
    if not any(core_set):
        try:
            return system, model.allocate_first_fit(system, cluster)
        except model.AllocationFailed as exc:
            raise _UsageError(str(exc)) from None
    if not all(core_set):
        raise _UsageError("allocation must cover all stages or none")
    return system, {s.id: s.core for s in system.stages()}


_JSON_BOOL = {True: "true", False: "false"}


def _report_json(report: analysis.ResponseReport) -> str:
    """The report as json.dumps(indent=2, sort_keys=True) writes the
    document {"per_analytic": {id: {"end_to_end", "feasible"}},
    "per_stage": {id: response}, "system_feasible"}, a DIVERGED response
    as the string "DIVERGED". Written line by line: with an indent, json
    encodes in pure Python."""
    def rt(value):
        return '"DIVERGED"' if value is analysis.DIVERGED else repr(value)

    def obj(members):
        return "{\n" + ",\n".join(members) + "\n  }" if members else "{}"

    analytics = obj([
        f'    {_quote(aid)}: {{\n      "end_to_end": {rt(v.end_to_end)},\n'
        f'      "feasible": {_JSON_BOOL[v.feasible]}\n    }}'
        for aid, v in sorted(report.per_analytic.items())])
    stages = obj([f"    {_quote(sid)}: {rt(v)}"
                  for sid, v in sorted(report.per_stage.items())])
    return (f'{{\n  "per_analytic": {analytics},\n  "per_stage": {stages},\n'
            f'  "system_feasible": {_JSON_BOOL[report.system_feasible]}\n}}\n')


def _cmd_analyze(args, out) -> int:
    system, cluster, _ = _load_spec(args)
    system, allocation = _prepare(system, cluster)
    report = analysis.solve_system(system, allocation, cluster)
    out.write(_report_json(report))
    return 0 if report.system_feasible else 2


def _cmd_size(args, out) -> int:
    from . import sizing
    system, _cluster, options = _load_spec(args)
    if not options.frequencies_hz:
        raise _UsageError("no frequencies given")
    limit = _parse_flag(
        "--replication-limit",
        _integer("replication limit must be a positive integer", 1),
        _flag_value(args.replication_limit))
    rows = sizing.frequency_sweep(system, options.frequencies_hz,
                                  options.u_max, replication_limit=limit)
    # every row is formatted before the first write: an error leaves no output
    lines = [f"{format_fraction(r.frequency_hz)},"
             f"{format_fraction(r.total_utilization)},{r.min_cores}\n"
             for r in rows]
    out.write("frequency_hz,total_utilization,min_cores\n" + "".join(lines))
    return 0


def _cmd_decimate(args, out) -> int:
    from . import sizing
    system, _cluster, options = _load_spec(args)
    if not options.factors:
        raise _UsageError("factors must be positive integers")
    if options.input_frequency_hz is None:
        raise _UsageError("no input frequency (--freq or options)")
    rows = sizing.decimation_sweep(system, options.input_frequency_hz,
                                   options.factors, options.u_max)
    lines = [f"{r.factor},{r.end_to_end},"
             f"{format_fraction(r.aggregator_utilization)},"
             f"{r.cores_saved}\n" for r in rows]  # formatted first, as in size
    out.write("factor,end_to_end_ns,aggregator_utilization,cores_saved\n"
              + "".join(lines))
    return 0


def _unwritable(path: str) -> str | None:
    """The reason open(path, "w") would fail if ``path`` is a directory
    or its parent is not one, else None; checking creates nothing."""
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    if not os.path.isdir(parent):
        return os.strerror(
            errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT)
    return None


def _cmd_simulate(args, out) -> int:
    from . import sim
    system, cluster, options = _load_spec(args)
    system, allocation = _prepare(system, cluster)
    if options.horizon is None:
        raise _UsageError("no horizon (--horizon or options)")
    # refuse a bad --trace target before any work, but open it only later
    reason = _unwritable(args.trace)
    if reason is not None:
        raise _UsageError(f"cannot write {args.trace}: {reason}")
    config = sim.SimConfig(
        horizon=options.horizon,
        seed=0 if options.seed is None else options.seed,
        blocking_policy=options.blocking_policy,
        release_policy=options.release_policy,
    )
    report = analysis.solve_system(system, allocation, cluster)
    try:
        trace = sim.simulate(system, allocation, cluster, config)
    except sim.HorizonTooShort as exc:
        raise _UsageError(str(exc)) from None
    try:
        with open(args.trace, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(sim.trace_to_csv(trace))
    except OSError as exc:
        raise _UsageError(f"cannot write {args.trace}: {exc.strerror}") from None
    observed = sim.worst_observed(trace)
    violations = sim.verify_conservative(report, observed)
    doc = {
        "per_stage_observed": dict(sorted(observed.per_stage.items())),
        "per_analytic_observed": dict(sorted(observed.per_analytic.items())),
        "violations": [v._asdict() for v in violations],
        "conservative": not violations,
        "system_feasible": report.system_feasible,
    }
    out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0 if report.system_feasible else 2


def _cmd_compare(args, out) -> int:
    from . import sizing
    system, _cluster, options = _load_spec(args)
    system = _prioritize(system)
    result = sizing.baseline_comparison(system, options.u_max)
    doc = {"ours": result.ours, "baseline": result.baseline}
    out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "size": _cmd_size,
    "decimate": _cmd_decimate,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
}


def run_command(argv, out=None, err=None) -> int:
    """Dispatch one command; returns the exit code (0 feasible,
    2 infeasible, 1 input/usage error)."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, out)
    except _UsageError as exc:
        err.write(f"error: {exc}\n")
        return 1
    except (ParseError, analysis.PreconditionViolated,
            model.ReplicationExceeded, ValueError) as exc:
        err.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
