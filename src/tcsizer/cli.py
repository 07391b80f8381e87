"""On-disk system specs and the command-line front end.

A system spec is a strict JSON document:

    {
      "analytics": [
        {"id": "...", "end_to_end_deadline": "1s",
         "stages": [{"id": "...", "cost": "127us", "inter_arrival": "1ms",
                     "deadline": "1s", "blocking": "0ns",
                     "priority": 5, "core": "c0"}],
         "topology": {"seq": ["a", {"par": ["b", "c"]}, "d"]}}
      ],
      "cluster": {"cores": [{"id": "c0", "capacity": 1.0,
                             "platform_blocking": "0ns"}]}
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
reading a good spec builds none. Each record is read in its field order
and built from its values by position, and each distinct duration text
of a spec is parsed once. A core id that holds a comma, a quote or a
line break is refused at its pointer.
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
pointer, /analytics/<i>/stages/<j>. A stage's "priority" (larger =
higher) and "core" are optional, and analyze and simulate take them from
every stage or from none; a "core" that names no core of the cluster is
a ParseError at its pointer. size, decimate and compare read only each
stage's cost, inter-arrival and blocking, and size under D = T + B with
deadline-monotonic priorities. The spec describes the system
only; what a command asks of it (a frequency, a factor, u_max, a
horizon, a seed, a policy) is given by flags. Each such flag is declared
by one row of a table that names its parser, its help and its default;
a flag without a default is required. Its value is read as the JSON
value it spells, lists split on commas, so an empty value is an input
error at the flag. run_command reads each spec once. size and decimate
exit 1 when a stage would need more than sizing.REPLICATION_LIMIT
replicas. simulate refuses a run that could make more than
MAX_SIM_RELEASES releases, at --horizon. emit_system_spec refuses, with
a TypeError, a topology not made of stage ids (str) and the three
composition classes. A command imports only what it runs, when it
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
# Every spec record is a named tuple (Stage, Analytic, Core, Cluster)
# read and written through a table of fields in the record's field order.
# A field names its key (the record's field of the same name), its value
# parser, called with the value alone, and its value formatter. _read
# walks a table once and hands the values, in field order, to the
# record's _make, an absent key as the record's default (a key whose
# field has no default is required); a list of records is read as the
# tuple its record holds. _write walks it back.
# A parser raises ParseError with the pointer below its value; each
# container prefixes its key or index as the error passes out, so no
# pointer is built unless a value is bad. A spec's durations are read
# once per distinct text in each parse_system_spec call (_durations).

#: Deepest nesting of seq/par nodes the topology reader accepts; the
#: composition functions recurse once per level.
MAX_TOPOLOGY_DEPTH = 100


def _same(value):
    return value


class _Field(NamedTuple):
    key: str
    parse: Callable[[Any], Any]
    format: Callable[[Any], Any] = _same


class _Table:
    """The fields of one kind of record, in the order of the fields of
    ``record`` (a named tuple class, or tuple), with what _read needs
    computed once: each field's (key, parser, default) step, the
    required keys (the fields the record gives no default) in field
    order, and all the keys."""

    def __init__(self, what: str, record: type, *fields: _Field):
        self.what = what
        self.make = getattr(record, "_make", record)
        defaults = getattr(record, "_field_defaults", {})
        self.fields = fields
        self.steps = tuple((f.key, f.parse, defaults.get(f.key))
                           for f in fields)
        self.required = tuple(f.key for f in fields
                              if f.key not in defaults)
        self.known = frozenset(f.key for f in fields)


def _read(obj: Any, table: _Table):
    """The record of ``table`` that ``obj`` holds: missing required keys
    are reported first, then unknown keys, then bad values in field
    order."""
    if not isinstance(obj, dict):
        raise _refusal(obj, f"expected {table.what}")
    for key in table.required:
        if key not in obj:
            raise ParseError(f"/{key}", "missing required key")
    if not obj.keys() <= table.known:
        key = next(key for key in obj if key not in table.known)
        raise ParseError(f"/{key}", "unknown key")
    values = []
    for key, parse, default in table.steps:
        if key in obj:
            try:
                values.append(parse(obj[key]))
            except ParseError as exc:
                raise exc.within(f"/{key}") from None
        else:
            values.append(default)
    return table.make(values)


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


def _records(key: str, table: _Table) -> _Field:
    """A list of the records of ``table``, read as a tuple."""
    return _Field(key, _list_of(lambda value: _read(value, table), tuple),
                  lambda records: [_write(r, table.fields) for r in records])


# each key's node class; _KEYS, its inverse, writes what _NODES reads
_NODES = {"seq": Seq, "par": Par, "rr": RoundRobin}
_KEYS = {kind: key for key, kind in _NODES.items()}


def _parse_topology(node: Any, depth: int = 1) -> Expr:
    if isinstance(node, str):
        return node
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
        parsed = []
        for i, c in enumerate(children):
            try:
                if key == "rr" and not isinstance(c, str):
                    raise ParseError("",
                                     "round-robin children must be stage ids")
                parsed.append(_parse_topology(c, depth + 1))
            except ParseError as exc:
                raise exc.within(f"/{key}/{i}") from None
        return _NODES[key](tuple(parsed))
    raise _refusal(node, f"bad topology node: {_kind(node)}")


def _emit_topology(expr: Expr):
    cls = expr.__class__
    if cls is str:
        return expr
    key = _KEYS.get(cls)
    if key is None or isinstance(expr.children, str):  # not "a", "b"
        raise model.not_a_node(expr)
    return {key: [_emit_topology(c) for c in expr.children]}


#: parse_duration's value of each duration text other than "inf" read
#: so far by the parse_system_spec call under way, which empties it when
#: it returns or raises. A value depends on its text alone, so calls in
#: other threads may share it.
_DURATIONS: dict[str, int] = {}


def _durations(allow_inf: bool = False):
    """A parser of a spec's durations: parse_duration, each text read
    once per parse_system_spec call, "inf" judged at every field."""
    def parse(text: Any):
        if text.__class__ is not str or text == "inf":
            return parse_duration(text, allow_inf=allow_inf)
        value = _DURATIONS.get(text)
        if value is None:  # parse_duration returns no None
            value = _DURATIONS[text] = parse_duration(text)
        return value
    return parse


_duration = _durations()


def _core_id(value: Any) -> str:
    """A core id that Core accepts, refused at its own pointer."""
    try:
        return Core(_string(value)).id
    except ValueError as exc:
        raise ParseError("", str(exc)) from None


_STAGE = _Table(
    "a stage object", Stage,
    _Field("id", _string),
    _Field("cost", _duration, format_duration),
    _Field("inter_arrival", _durations(allow_inf=True), format_duration),
    _Field("deadline", _duration, format_duration),
    _Field("blocking", _duration, format_duration),
    _Field("priority", _integer("priority must be an integer")),
    _Field("core", _string),
)

_ANALYTIC = _Table(
    "an analytic object", Analytic,
    _Field("id", _string),
    _records("stages", _STAGE),
    _Field("topology", _parse_topology, _emit_topology),
    _Field("end_to_end_deadline", _duration, format_duration),
)

_CORE = _Table(
    "a core object", Core,
    _Field("id", _core_id),
    _Field("capacity", _share("capacity"), _json_number),
    _Field("platform_blocking", _duration, format_duration),
)

_CLUSTER = _Table("a cluster object", Cluster, _records("cores", _CORE))


def _parse_cluster(obj: Any) -> Cluster:
    try:  # Cluster checks that it has cores, with distinct ids
        return _read(obj, _CLUSTER)
    except ValueError as exc:
        raise ParseError("/cores", str(exc)) from None


# the document reads to the pair (analytics, cluster)
_DOC = _Table(
    "a JSON object", tuple,
    _records("analytics", _ANALYTIC),
    _Field("cluster", _parse_cluster,
           lambda cluster: _write(cluster, _CLUSTER.fields)),
)


def parse_system_spec(text: str) -> tuple[System, Cluster]:
    """Parse a spec document. A stage's "core" that names no core of the
    cluster is refused at its pointer. Raises ParseError with a
    JSON-pointer path."""
    try:
        doc = json.loads(text, object_pairs_hook=_object, **_NUMBERS)
    except ValueError as exc:  # a JSONDecodeError
        raise ParseError("", f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("", "invalid JSON: nested too deeply") from None
    try:
        analytics, cluster = _read(doc, _DOC)
    finally:
        _DURATIONS.clear()
    system = System(analytics)
    core_ids = {c.id for c in cluster.cores}
    for i, analytic in enumerate(system.analytics):
        for j, stage in enumerate(analytic.stages):
            if stage.core is not None and stage.core not in core_ids:
                raise ParseError(f"/analytics/{i}/stages/{j}/core",
                                 f"unknown core {stage.core!r}")
    return system, cluster


def emit_system_spec(system: System, cluster: Cluster) -> str:
    """Inverse of parse_system_spec: parse(emit(x)) == x. A topology
    that is not made of stage ids (str) and the three composition
    classes raises TypeError."""
    doc = _write(SimpleNamespace(analytics=system.analytics, cluster=cluster),
                 _DOC.fields)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# --- command front end --------------------------------------------------------

class _UsageError(Exception):
    pass


class _Help(Exception):
    """--help, raised with the help text in place of printing it."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def print_help(self, file=None):
        raise _Help(self.format_help())  # run_command writes it to out


class _Flag(NamedTuple):
    """A flag of what a command asks: its value parser, its help, whether
    it holds a comma-separated list, and its value when absent (None: the
    flag is required)."""

    parse: Callable[[Any], Any]
    help: str
    listed: bool = False
    default: Any = None


# each flag by name; _load_spec reads them in this order and reports the
# first bad one
_FLAGS = {
    "umax": _Flag(_share("u_max"), "per-core capacity bound",
                  default=Fraction(1)),
    "freqs": _Flag(_list_of(_frequency), "comma-separated frequencies in Hz",
                   listed=True),
    "factors": _Flag(_list_of(_integer("factors must be positive integers", 1)),
                     "comma-separated decimation factors", listed=True),
    "freq": _Flag(_frequency, "input frequency in Hz"),
    "horizon": _Flag(_horizon, "duration, e.g. 2s"),
    "seed": _Flag(_integer("seed must be an integer"),
                  "simulator seed, an integer", default=0),
    "blocking": _Flag(_policy(BlockingPolicy), "ADVERSARIAL or UNIFORM",
                      default=BlockingPolicy.ADVERSARIAL),
    "release": _Flag(_policy(ReleasePolicy), "SYNCHRONOUS or JITTERED",
                     default=ReleasePolicy.SYNCHRONOUS),
}


def _flag_value(text: str):
    """A flag token as JSON would hold it: the JSON value when it parses
    as JSON, else the string itself."""
    try:
        return json.loads(text, **_NUMBERS)
    except (ValueError, RecursionError):
        return text


def _load_spec(args) -> tuple[System, Cluster]:
    """The spec of ``args.spec``, validated; then each flag that
    ``args`` holds as text is read over it by its parser, split on commas
    when ``listed``, a ParseError pointed below the flag."""
    try:
        with open(args.spec, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {args.spec}: {exc.strerror}") from None
    system, cluster = parse_system_spec(text)
    report = model.validate_system(system)
    if not report.ok:
        findings = "; ".join(f"{p}: {m}" for p, m in report.findings)
        raise _UsageError(f"invalid system: {findings}")
    for name, flag in _FLAGS.items():
        text = getattr(args, name, None)
        if isinstance(text, str):  # given; an absent flag holds its default
            value = ([_flag_value(t) for t in text.split(",")] if flag.listed
                     else _flag_value(text))
            try:
                setattr(args, name, flag.parse(value))
            except ParseError as exc:
                raise exc.within(f"--{name}") from None
    return system, cluster


def _given(system: System, field: str) -> bool:
    """Whether the spec file sets ``field`` on every stage (False: on
    none); setting it on some only is an input error."""
    given = [getattr(s, field) is not None for s in system.stages()]
    if any(given) and not all(given):
        raise _UsageError(f"{field} must be given on every stage or on none")
    return any(given)


def _prepare(system: System, cluster: Cluster) -> tuple[System, dict[str, str]]:
    """Fill in deadline-monotonic priorities, and the allocation
    (first-fit's mapping), where the spec file leaves them out."""
    if not _given(system, "priority"):
        system = model.with_priorities(system,
                                       model.assign_priorities_dm(system))
    if _given(system, "core"):
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


def _cmd_analyze(args, system, cluster, out) -> int:
    from . import analysis
    system, allocation = _prepare(system, cluster)
    report = analysis.solve_system(system, allocation, cluster)
    out.write(_report_json(report))
    return 0 if report.system_feasible else 2


def _cmd_size(args, system, cluster, out) -> int:
    from . import sizing
    rows = sizing.frequency_sweep(system, args.freqs, args.umax)
    # every row is formatted before the first write: an error leaves no output
    lines = [f"{format_fraction(r.frequency_hz)},"
             f"{format_fraction(r.total_utilization)},{r.min_cores}\n"
             for r in rows]
    out.write("frequency_hz,total_utilization,min_cores\n" + "".join(lines))
    return 0


def _cmd_decimate(args, system, cluster, out) -> int:
    from . import sizing
    rows = sizing.decimation_sweep(system, args.freq, args.factors, args.umax)
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


def _cmd_simulate(args, system, cluster, out) -> int:
    from . import analysis, sim
    system, allocation = _prepare(system, cluster)
    releases = sum(1 if s.inter_arrival is INFINITE
                   else -(-args.horizon // s.inter_arrival)
                   for s in system.stages())
    if releases > MAX_SIM_RELEASES:
        raise ParseError("--horizon",
                         f"the run would make up to {releases} releases, "
                         f"more than {MAX_SIM_RELEASES}")
    # refuse a bad --trace target before any work, but open it only later
    reason = _unwritable(args.trace)
    if reason is not None:
        raise _UsageError(f"cannot write {args.trace}: {reason}")
    config = sim.SimConfig(horizon=args.horizon, seed=args.seed,
                           blocking_policy=args.blocking,
                           release_policy=args.release)
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


def _cmd_compare(args, system, cluster, out) -> int:
    from . import sizing
    result = sizing.baseline_comparison(system, args.umax)
    doc = {"ours": result.ours, "baseline": result.baseline}
    out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


# each subcommand's function, help and flags of _FLAGS; simulate also
# takes --trace, where it writes the trace
_COMMANDS = {
    "analyze": (_cmd_analyze, "response-time analysis and verdicts", ()),
    "size": (_cmd_size, "utilization/min-cores frequency sweep",
             ("freqs", "umax")),
    "decimate": (_cmd_decimate, "decimation trade-off sweep",
                 ("factors", "freq", "umax")),
    "simulate": (_cmd_simulate, "discrete-event simulation",
                 ("seed", "horizon", "blocking", "release")),
    "compare": (_cmd_compare, "blocking-model core counts from C, T and B",
                ("umax",)),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="tcsizer", add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("spec")
        for flag in flags:
            default = _FLAGS[flag].default
            p.add_argument(f"--{flag}", help=_FLAGS[flag].help,
                           default=default, required=default is None)
        if name == "simulate":
            p.add_argument("--trace", default="trace.csv",
                           help="trace CSV path")
    return parser


def run_command(argv, out=None, err=None) -> int:
    """Dispatch one command; returns the exit code (0 feasible,
    2 infeasible, 1 input/usage error). --help writes its text to
    ``out`` and returns 0."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    system = None  # the loaded spec's, where a library error's stage is found
    try:
        args = parser.parse_args(argv)
        system, cluster = _load_spec(args)
        return _COMMANDS[args.command][0](args, system, cluster, out)
    except _Help as help_text:
        out.write(str(help_text))
        return 0
    except (_UsageError, ParseError, ValueError) as exc:
        err.write(f"error: {_stage_pointer(system, exc)}{exc}\n")
        return 1


def _stage_pointer(system: System | None, exc: Exception) -> str:
    """"/analytics/<i>/stages/<j>: " for the stage of the loaded spec
    ``system`` whose id a library error's ``stage_id`` names, else ""."""
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
