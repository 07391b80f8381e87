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
digits long; "inf" is allowed for inter-arrival times only. Any other
number, a JSON literal or a "num/den" string, has at most
MAX_NUMBER_DIGITS digits and an exponent within MAX_NUMBER_DIGITS, judged
from its text before int() or Fraction reads it. The tokens NaN,
Infinity and -Infinity, which JSON does not have, are refused at their
pointer, in a flag too. Unknown keys are rejected, and so is a key that
one object holds twice, at its pointer. Every input error is a
ParseError at the JSON pointer of the bad value; the pointer is
assembled on the way out, each container prefixing its key or index, so
reading a good spec builds none.
Topology nodes are either a stage id (leaf) or a one-key object
{"seq": [...]} (in sequence), {"par": [...]} (every child sees every
item) or {"rr": ["s#1", ..., "s#k"]} (stage ids of one finite
inter-arrival; item n visits child n mod k only), nested at most
MAX_TOPOLOGY_DEPTH deep.

Subcommands: analyze, size, decimate, simulate, compare. Exit codes:
0 = analysis ran and the system is feasible, 2 = analysis ran and it is
not, 1 = input or usage error, every one of which is a ParseError, a
usage error or a ValueError of the library; a library error that names
a stage of the spec by its ``stage_id`` is printed after the stage's
pointer, /analytics/<i>/stages/<j>. Each flag that overrides an
option, --blocking and --release too, is declared by that option's field
and read by its parser, lists split on commas, so an empty value is an
input error; --trace is the one flag that is not an option. The
seed of simulate is --seed, else options.sim.seed, else 0. size exits 1
when a stage would need more than sizing.REPLICATION_LIMIT replicas at
one of its frequencies. simulate refuses a run that could make more
than MAX_SIM_RELEASES releases, at --horizon or at /options/sim/horizon,
whichever set the horizon. A command imports only what it runs, when it
starts: analyze imports the response-time analysis, simulate the
analysis and the simulator, and size, decimate and compare the sweeps.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

from . import model
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

_DURATION_RE = re.compile(r"([0-9]+(?:\.[0-9]+)?)(" + "|".join(_UNITS) + ")")

#: Most digits in the number of a duration, and in the period in ns
#: that a frequency gives: far above any real duration, and far below
#: the 4300-digit limit that int() puts on a string.
MAX_DURATION_DIGITS = 30

#: Most digits in a number of a spec, a flag or a "num/den" string, and
#: the largest |exponent| it may have. Both are read from the text before
#: int() or Fraction builds the number, and they keep every count and
#: time printed from such numbers within the 4300 digits str() writes.
MAX_NUMBER_DIGITS = 1000

#: Most releases a simulate run may make: the sum over the periodic
#: stages of ceil(horizon / T), plus one for each one-shot stage. A job
#: costs about 6 us and 1 KB with its trace written (the 4 kHz microblog
#: headline over 10 s and 30 s on CPython 3.11), so a run at the cap
#: takes about 6 s and 1 GB; it admits 83 s of that headline.
MAX_SIM_RELEASES = 1_000_000

def _too_long(text: str) -> bool:
    """Whether the text of a number has more than MAX_NUMBER_DIGITS
    digits or an exponent past MAX_NUMBER_DIGITS (a text that is no
    number at all is left for its reader to refuse)."""
    exponent = text.upper().partition("E")[2].strip().lstrip("+-")
    exponent = exponent.replace("_", "").lstrip("0")
    return (exponent.isdecimal() and (len(exponent) > MAX_NUMBER_DIGITS
                                      or int(exponent) > MAX_NUMBER_DIGITS)
            or len(text) > MAX_NUMBER_DIGITS
            and len(re.sub(r"\D", "", text)) > MAX_NUMBER_DIGITS)


class _Unread(NamedTuple):
    """A number json.loads hands over unread: a literal past
    MAX_NUMBER_DIGITS, or one of the tokens NaN, Infinity and -Infinity,
    which strict JSON does not have. The number parsers refuse it at its
    pointer with ``message``; other messages call it ``kind``."""

    kind: str
    message: str


_LONG_NUMBER = _Unread("a number",
                       f"number has more than {MAX_NUMBER_DIGITS} digits or "
                       f"an exponent past {MAX_NUMBER_DIGITS}")
_CONSTANTS = {token: _Unread(token, f"{token} is not a JSON number")
              for token in ("NaN", "Infinity", "-Infinity")}


def _literal(read):
    """A json.loads number hook: ``read(literal)`` within the cap."""
    return lambda literal: _LONG_NUMBER if _too_long(literal) else read(literal)


#: How json.loads reads the numbers of a spec or a flag: floats as exact
#: Fractions, either kind past the cap as _LONG_NUMBER, and the non-JSON
#: constants as the _Unread that names them.
_NUMBERS = {"parse_float": _literal(Fraction), "parse_int": _literal(int),
            "parse_constant": _CONSTANTS.__getitem__}


class _Repeated(NamedTuple):
    """An object of a spec that holds ``key`` more than once, which
    json.loads would read as its last value. The readers of objects
    refuse it at the key's pointer; other parsers read it as an object."""

    key: str


def _object(pairs: list[tuple[str, Any]]) -> dict | _Repeated:
    """A json.loads object hook: the dict of ``pairs``, or the
    _Repeated of the first key they hold twice."""
    obj = dict(pairs)
    if len(obj) == len(pairs):
        return obj
    seen = set()
    for key, _ in pairs:
        if key in seen:
            return _Repeated(key)
        seen.add(key)


def _refusal(value: Any, message: str) -> ParseError:
    """The error of a reader of objects handed ``value``, not a dict:
    ``message``, or the duplicate key of a _Repeated at its pointer."""
    if isinstance(value, _Repeated):
        return ParseError(f"/{value.key}", f"duplicate key {value.key!r}")
    return ParseError("", message)


#: The JSON kind of each type json.loads makes, named in messages in
#: place of a value's repr, which may be too long to print.
_JSON_KINDS = {dict: "an object", _Repeated: "an object", list: "a list",
               bool: "a boolean", type(None): "null", int: "a number",
               Fraction: "a number"}


def _kind(value: Any) -> str:
    if isinstance(value, _Unread):
        return value.kind
    return _JSON_KINDS.get(type(value), type(value).__name__)


def parse_duration(text: str, *, allow_inf: bool = False):
    """'1.5ms' -> 1_500_000; exact or ParseError."""
    if not isinstance(text, str):
        raise ParseError("", f"expected a duration string, got {_kind(text)}")
    number = text[:-2]
    # the "<digits>ns" that format_duration writes needs no regex
    if (text.endswith("ns") and number.isdigit() and number.isascii()
            and len(number) <= MAX_DURATION_DIGITS):
        return int(number)
    if text == "inf":
        if allow_inf:
            return INFINITE
        raise ParseError("", '"inf" is only allowed for inter-arrival times')
    m = _DURATION_RE.fullmatch(text.strip())
    if not m:
        raise ParseError("", f"cannot parse duration {text!r}")
    number, unit = m.groups()
    if len(number) - ("." in number) > MAX_DURATION_DIGITS:
        raise ParseError(
            "", f"duration has more than {MAX_DURATION_DIGITS} digits")
    if "." not in number:
        return int(number) * _UNITS[unit]
    value = Fraction(number) * _UNITS[unit]
    if value.denominator != 1:
        raise ParseError(
            "", f"duration {text!r} is not a whole number of nanoseconds")
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
# Every spec record is a named tuple (Stage, Analytic, Core, Cluster,
# Options) read and written through a table of fields. A field names its
# key (the record's field of the same name), its value parser, called
# with the value alone, and its value formatter; an option's field also
# names the flag that overrides it and that flag's help. Absent optional
# keys take the record type's default, and a list of records is read as
# the tuple its record holds. _read and _write walk a table. A parser
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
    flag: str | None = None  # the argparse dest of an option's flag
    listed: bool = False  # whether the flag holds a comma-separated list
    help: str | None = None  # the flag's help text


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
        raise _refusal(obj, f"expected {table.what}")
    for key in table.required:
        if key not in obj:
            raise ParseError(f"/{key}", "missing required key")
    if not obj.keys() <= table.known:
        key = next(key for key in obj if key not in table.known)
        raise ParseError(f"/{key}", "unknown key")
    values = {}
    for f in table.fields:
        if f.key in obj:
            try:
                values[f.key] = f.parse(obj[f.key])
            except ParseError as exc:
                raise exc.within(f"/{f.key}") from None
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
        if isinstance(value, _Unread):
            raise ParseError("", value.message)
        if (isinstance(value, bool) or not isinstance(value, int)
                or least is not None and value < least):
            raise ParseError("", message)
        return value
    return parse


def _horizon(value: Any) -> int:
    horizon = parse_duration(value)
    if horizon <= 0:
        raise ParseError("", "horizon must be positive")
    return horizon


def _ratio(value: Any, what: str) -> Fraction:
    if isinstance(value, bool):
        raise ParseError("", f"{what} must be a number")
    if isinstance(value, _Unread):
        raise ParseError("", value.message)
    if isinstance(value, str) and _too_long(value):
        raise ParseError("", _LONG_NUMBER.message)
    try:
        if isinstance(value, (int, Fraction, str)):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise ParseError("", f"{what} must be a number or a \"num/den\" string")


def _share(what: str):
    """A parser of a ratio in (0, 1], its messages naming ``what``."""
    def parse(value: Any) -> Fraction:
        share = _ratio(value, what)
        if not 0 < share <= 1:
            raise ParseError("", f"{what} must be in (0, 1]")
        return share
    return parse


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
        if not isinstance(value, str):
            raise ParseError("", f"expected a policy name, got {_kind(value)}")
        try:
            return enum(value)
        except ValueError:
            raise ParseError("", f"unknown policy {value!r}") from None
    return parse


def _list_of(parse_item, into=list):
    """A parser of a JSON list whose items ``parse_item`` reads, handing
    them over as an ``into`` (a list, or the tuple a record holds)."""
    def parse(value: Any):
        if not isinstance(value, list):
            raise ParseError("", "expected a list")
        items = []
        for i, item in enumerate(value):
            try:
                items.append(parse_item(item))
            except ParseError as exc:
                raise exc.within(f"/{i}") from None
        return into(items)
    return parse


def _map_of(parse_value):
    def parse(value: Any) -> dict:
        if not isinstance(value, dict):
            raise _refusal(value, "expected an object")
        parsed = {}
        for key, item in value.items():
            try:
                parsed[key] = parse_value(item)
            except ParseError as exc:
                raise exc.within(f"/{key}") from None
        return parsed
    return parse


def _records(key: str, make, table: _Table) -> _Field:
    """A required list of records built by ``make`` from ``table``, read
    as a tuple."""
    def parse_record(value: Any):
        return make(**_read(value, table))
    return _Field(key, _list_of(parse_record, tuple),
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
    raise _refusal(node, f"bad topology node: {_kind(node)}")


def _emit_topology(expr: Expr):
    if isinstance(expr, Leaf):
        return expr.stage
    key = next(k for k, kind in _NODES.items() if isinstance(expr, kind))
    return {key: [_emit_topology(c) for c in expr.children]}


_STAGE = _Table(
    "a stage object",
    _Field("id", _string, required=True),
    _Field("cost", parse_duration, format_duration, True),
    _Field("inter_arrival", lambda v: parse_duration(v, allow_inf=True),
           format_duration, True),
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
    _Field("capacity", _share("capacity"), _json_number),
    _Field("platform_blocking", parse_duration, format_duration),
)

_CLUSTER = _Table("a cluster object", _records("cores", Core, _CORE))


def _parse_cluster(obj: Any) -> Cluster:
    try:  # Core and Cluster check their own invariants
        return Cluster(**_read(obj, _CLUSTER))
    except ValueError as exc:
        raise ParseError("/cores", str(exc)) from None


class Options(NamedTuple):
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
    _Field("horizon", _horizon, format_duration, flag="horizon",
           help="duration, e.g. 2s"),
    _Field("seed", _integer("seed must be an integer"), flag="seed",
           help="simulator seed, an integer"),
    _Field("blocking_policy", _policy(BlockingPolicy),
           lambda policy: policy.value, flag="blocking",
           help="ADVERSARIAL or UNIFORM"),
    _Field("release_policy", _policy(ReleasePolicy),
           lambda policy: policy.value, flag="release",
           help="SYNCHRONOUS or JITTERED"),
)

_OPTION_FIELDS = (
    _Field("u_max", _share("u_max"), _json_number, flag="umax",
           help="per-core capacity bound"),
    _Field("frequencies_hz", _list_of(_frequency),
           lambda freqs: [_json_number(f) for f in freqs],
           flag="freqs", listed=True,
           help="comma-separated frequencies in Hz"),
    _Field("factors",
           _list_of(_integer("factors must be positive integers", 1)),
           flag="factors", listed=True,
           help="comma-separated decimation factors"),
    _Field("input_frequency_hz", _frequency, _json_number, flag="freq",
           help="input frequency in Hz"),
)


_OPTIONS = _Table("an options object", *_OPTION_FIELDS,
                  _Field("sim", lambda obj: _read(obj, _SIM)))

# the option fields by flag; a subcommand names the flags it takes
_FLAGGED = {f.flag: f for f in (*_OPTION_FIELDS, *_SIM.fields)}


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
        doc = json.loads(text, object_pairs_hook=_object, **_NUMBERS)
    except ValueError as exc:  # a JSONDecodeError
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


def _flag_value(text: str):
    """A flag token as the spec would hold it: the JSON value when it
    parses as JSON, else the string itself."""
    try:
        return json.loads(text, **_NUMBERS)
    except (ValueError, RecursionError):
        return text


def _load_spec(args) -> tuple[System, Cluster, Options]:
    """The spec of ``args.spec``, validated, with each option field's
    ``flag`` that ``args`` holds read over that option by its parser,
    split on commas when ``listed``, and a ParseError pointed below the
    flag. The system is also kept as ``args.system``, where run_command
    finds the stage that a library error names."""
    try:
        with open(args.spec, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {args.spec}: {exc.strerror}") from None
    system, cluster, options = parse_system_spec(text)
    args.system = system
    report = model.validate_system(system)
    if not report.ok:
        findings = "; ".join(f"{p}: {m}" for p, m in report.findings)
        raise _UsageError(f"invalid system: {findings}")
    overrides = {}
    for f in _FLAGGED.values():
        text = getattr(args, f.flag, None)
        if text is not None:
            value = ([_flag_value(t) for t in text.split(",")] if f.listed
                     else _flag_value(text))
            try:
                overrides[f.key] = f.parse(value)
            except ParseError as exc:
                raise exc.within(f"--{f.flag}") from None
    return system, cluster, options._replace(**overrides)


def _given(system: System, field: str, message: str) -> bool:
    """Whether the spec file sets ``field`` on every stage (False: on
    none); setting it on some only is the input error ``message``."""
    given = [getattr(s, field) is not None for s in system.stages()]
    if any(given) and not all(given):
        raise _UsageError(message)
    return any(given)


def _prioritize(system: System) -> System:
    """Deadline-monotonic priorities when the spec file leaves them out."""
    if _given(system, "priority",
              "priorities must be given for all stages or none"):
        return system
    return model.with_priorities(system, model.assign_priorities_dm(system))


def _prepare(system: System, cluster: Cluster) -> tuple[System, dict[str, str]]:
    """Fill in priorities (_prioritize), and the allocation (first-fit's
    mapping) when the spec file leaves it out."""
    system = _prioritize(system)
    if _given(system, "core", "allocation must cover all stages or none"):
        return system, {s.id: s.core for s in system.stages()}
    return system, model.allocate_first_fit(system, cluster)


_JSON_BOOL = {True: "true", False: "false"}


def _report_json(report) -> str:
    """The analysis.ResponseReport as json.dumps(indent=2, sort_keys=True)
    writes the document {"per_analytic": {id: {"end_to_end", "feasible"}},
    "per_stage": {id: response}, "system_feasible"}, a DIVERGED response
    as the string "DIVERGED". Written line by line: with an indent, json
    encodes in pure Python."""
    def rt(value):
        return '"DIVERGED"' if value is model.Marker.DIVERGED else repr(value)

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
    from . import analysis
    system, cluster, _ = _load_spec(args)
    system, allocation = _prepare(system, cluster)
    report = analysis.solve_system(system, allocation, cluster)
    out.write(_report_json(report))
    return 0 if report.system_feasible else 2


def _cmd_size(args, out) -> int:
    from . import sizing
    system, _cluster, options = _load_spec(args)
    if not options.frequencies_hz:
        raise _UsageError("no frequencies (--freqs or options)")
    rows = sizing.frequency_sweep(system, options.frequencies_hz,
                                  options.u_max)
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
        raise _UsageError("no factors (--factors or options)")
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
    """The reason open(path, "w") would fail if ``path`` is empty, is a
    directory or its parent is not one, else None; checking creates
    nothing."""
    if not path:
        return os.strerror(errno.ENOENT)
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    if not os.path.isdir(parent):
        return os.strerror(
            errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT)
    return None


def _cmd_simulate(args, out) -> int:
    from . import analysis, sim
    system, cluster, options = _load_spec(args)
    system, allocation = _prepare(system, cluster)
    if options.horizon is None:
        raise _UsageError("no horizon (--horizon or options)")
    releases = sum(1 if s.inter_arrival is INFINITE
                   else -(-options.horizon // s.inter_arrival)
                   for s in system.stages())
    if releases > MAX_SIM_RELEASES:
        raise ParseError(
            "--horizon" if args.horizon is not None else "/options/sim/horizon",
            f"the run would make up to {releases} releases, more than "
            f"{MAX_SIM_RELEASES}")
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
    trace = sim.simulate(system, allocation, cluster, config)
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


# each subcommand's function, help and option flags; simulate also
# takes --trace, the one flag that is not a spec option
_COMMANDS = {
    "analyze": (_cmd_analyze, "response-time analysis and verdicts", ()),
    "size": (_cmd_size, "utilization/min-cores frequency sweep",
             ("freqs", "umax")),
    "decimate": (_cmd_decimate, "decimation trade-off sweep",
                 ("factors", "freq", "umax")),
    "simulate": (_cmd_simulate, "discrete-event simulation",
                 ("seed", "horizon", "blocking", "release")),
    "compare": (_cmd_compare, "blocking-model core-count comparison",
                ("umax",)),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="tcsizer", add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec")
        for flag in flags:
            p.add_argument(f"--{flag}", help=_FLAGGED[flag].help)
        if name == "simulate":
            p.add_argument("--trace", default="trace.csv",
                           help="trace CSV path")
    return parser


def run_command(argv, out=None, err=None) -> int:
    """Dispatch one command; returns the exit code (0 feasible,
    2 infeasible, 1 input/usage error)."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command][0](args, out)
    except (_UsageError, ParseError, ValueError) as exc:
        err.write(f"error: {_stage_pointer(args, exc)}{exc}\n")
        return 1


def _stage_pointer(args, exc: Exception) -> str:
    """"/analytics/<i>/stages/<j>: " for the stage of the loaded spec
    whose id a library error's ``stage_id`` names, else ""."""
    system = getattr(args, "system", None)
    sid = getattr(exc, "stage_id", None)
    if system is not None and sid is not None:
        for i, analytic in enumerate(system.analytics):
            for j, stage in enumerate(analytic.stages):
                if stage.id == sid:
                    return f"/analytics/{i}/stages/{j}: "
    return ""


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
