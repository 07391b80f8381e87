"""Domain model for time-critical analytics pipelines.

An analytic is a series-parallel graph of stages. Each stage is one
schedulable segment characterized by a worst-case cost C, a minimum
inter-arrival time T, a deadline D, a blocking term B, a fixed priority,
and a host core. All times are integer nanoseconds; Python integers make
overflow a non-issue. A stage whose inter-arrival is ``INFINITE`` is
one-shot: it executes exactly once (hour-scale batch jobs are modeled
this way).

The topology owns both meanings of each composition node: how items
flow through it (``item_flow``) and how its stages' response times
compose into an end-to-end one (``end_to_end_response``). Sequential
stages add; parallel branches and round-robin replicas take the
maximum.

Priorities are integers, larger value = higher priority. ``None`` means
unassigned (for priorities and for host cores).
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from itertools import chain, repeat
from operator import attrgetter, itemgetter
from typing import Iterator, Mapping, NamedTuple, Union

# Duration helpers (integer nanoseconds).
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000
MINUTE = 60 * SEC
HOUR = 3_600 * SEC


class Marker(Enum):
    """Identity-compared sentinels: a one-shot stage's INFINITE
    inter-arrival and analysis.DIVERGED. Copies and pickles are the
    member itself."""

    INFINITE = "INFINITE"
    DIVERGED = "DIVERGED"

    # Enum hashes in Python; scaled_utilizations and _topology_problems
    # hash INFINITE among their periods
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return self.value

    __str__ = __repr__


#: Inter-arrival time of a one-shot stage.
INFINITE = Marker.INFINITE

Duration = int
InterArrival = Union[int, Marker]


def period_from_frequency(frequency_hz) -> Duration:
    """Events/second -> integer-ns period, floored (floor is the
    conservative direction: a smaller period means higher utilization).
    ValueError above 1 event/ns, without the frequency's text (too long)."""
    f = Fraction(frequency_hz)
    if f <= 0:
        raise ValueError("frequency must be positive")
    period = (SEC * f.denominator) // f.numerator
    if period < 1:
        raise ValueError("frequency exceeds 1 event/ns")
    return period


class BlockingPolicy(Enum):
    """How long a released job is blocked: the full B, or uniform in
    [0, B]."""

    ADVERSARIAL = "ADVERSARIAL"
    UNIFORM = "UNIFORM"


class ReleasePolicy(Enum):
    """When the sources of an analytic release: from t = 0, or from one
    pseudo-random phase within an input period."""

    SYNCHRONOUS = "SYNCHRONOUS"
    JITTERED = "JITTERED"


class InvalidAllocation(ValueError):
    """A stage has no host core (or an unknown one)."""


class AllocationFailed(ValueError):
    """No core has room for a stage during first-fit placement."""

    def __init__(self, stage_id: str):
        super().__init__(f"no core can host stage {stage_id!r}")
        self.stage_id = stage_id


class Stage(NamedTuple):
    """One schedulable segment of an analytic.

    ``cost``, ``deadline`` and ``blocking`` are integer nanoseconds;
    ``inter_arrival`` is either integer nanoseconds or ``INFINITE``.
    """

    id: str
    cost: Duration
    inter_arrival: InterArrival
    deadline: Duration
    blocking: Duration = 0
    priority: int | None = None
    core: str | None = None

    def utilization(self) -> Fraction:
        """C/T as an exact rational; a one-shot stage counts 0."""
        if self.inter_arrival is INFINITE:
            return Fraction(0)
        return Fraction(self.cost, self.inter_arrival)


# --- series-parallel composition expressions ---------------------------------
#
# A node compares equal only to a node of its own class, so that Seq(c)
# and Par(c) differ although both are the one-field tuple (c,).

def _node_eq(self, other) -> bool:
    return self.__class__ is other.__class__ and tuple.__eq__(self, other)


def _node_ne(self, other) -> bool:
    return not _node_eq(self, other)


def _node_hash(self) -> int:
    return hash((self.__class__, tuple.__hash__(self)))


class Leaf(NamedTuple):
    stage: str

    __eq__, __ne__, __hash__ = _node_eq, _node_ne, _node_hash


class Seq(NamedTuple):
    children: tuple["Expr", ...]

    __eq__, __ne__, __hash__ = _node_eq, _node_ne, _node_hash


class Par(NamedTuple):
    children: tuple["Expr", ...]

    __eq__, __ne__, __hash__ = _node_eq, _node_ne, _node_hash


class RoundRobin(NamedTuple):
    """Replicas of one stage: item n goes to child n mod k only."""

    children: tuple[Leaf, ...]

    __eq__, __ne__, __hash__ = _node_eq, _node_ne, _node_hash


Expr = Union[Leaf, Seq, Par, RoundRobin]


def _coerce(node: "Expr | str") -> Expr:
    return Leaf(node) if isinstance(node, str) else node


def seq(*children: "Expr | str") -> Expr:
    """Sequential composition; bare strings become leaves."""
    items = tuple(_coerce(c) for c in children)
    return items[0] if len(items) == 1 else Seq(items)


def par(*children: "Expr | str") -> Expr:
    """Parallel composition; bare strings become leaves."""
    items = tuple(_coerce(c) for c in children)
    return items[0] if len(items) == 1 else Par(items)


def nodes(expr: Expr) -> list[Expr]:
    """Every node of a topology, each before its children, left to
    right; TypeError on anything that is not a composition node."""
    found, todo = [], [expr]
    while todo:
        node = todo.pop()
        found.append(node)
        # most nodes are leaves: test for them by class first
        if node.__class__ is Leaf:
            continue
        if isinstance(node, (Seq, Par, RoundRobin)):
            todo += reversed(node.children)
        elif not isinstance(node, Leaf):
            raise TypeError(f"not a composition expression: {node!r}")
    return found


class Flow(NamedTuple):
    """How items move through a topology: the stage ids where an item
    enters and where it leaves, both left to right, each non-source
    stage's sorted predecessors, and the lane (k, j) of each child j of
    a k-way round-robin node, which admits the items n = j mod k."""

    sources: list[str]
    sinks: list[str]
    preds: dict[str, tuple[str, ...]]
    lanes: dict[str, tuple[int, int]]


def item_flow(expr: Expr) -> Flow:
    """Sources, sinks, predecessors and round-robin lanes of a topology
    in one walk; a RoundRobin node's ends are its children, as a Par's."""
    preds: dict[str, tuple[str, ...]] = {}
    lanes: dict[str, tuple[int, int]] = {}

    def walk(node: Expr) -> tuple[list[str], list[str]]:
        if isinstance(node, Leaf):
            return [node.stage], [node.stage]
        if isinstance(node, Seq):
            sources, sinks = walk(node.children[0])
            for child in node.children[1:]:
                upstream = tuple(sorted(sinks))
                child_sources, sinks = walk(child)
                for sid in child_sources:
                    preds[sid] = upstream
            return sources, sinks
        sources, sinks = [], []
        for child in node.children:
            child_sources, child_sinks = walk(child)
            sources += child_sources
            sinks += child_sinks
        if isinstance(node, RoundRobin):
            for j, sid in enumerate(sources):
                lanes[sid] = (len(sources), j)
        return sources, sinks

    sources, sinks = walk(expr)
    return Flow(sources, sinks, preds, lanes)


class MissingStage(ValueError):
    """A topology leaf names a stage the system does not declare."""

    def __init__(self, stage_id: str):
        super().__init__(f"topology references unknown stage {stage_id!r}")
        self.stage_id = stage_id


def end_to_end_response(expr: Expr,
                        per_stage: Mapping[str, Duration]) -> Duration:
    """Compose per-stage response times over the topology: Seq sums,
    Par and RoundRobin take the maximum."""
    if isinstance(expr, Leaf):
        try:
            return per_stage[expr.stage]
        except KeyError:
            raise MissingStage(expr.stage) from None
    if isinstance(expr, Seq):
        return sum(map(end_to_end_response, expr.children, repeat(per_stage)))
    if isinstance(expr, (Par, RoundRobin)):
        return max(map(end_to_end_response, expr.children, repeat(per_stage)))
    raise TypeError(f"not a composition expression: {expr!r}")


class Analytic(NamedTuple):
    """A set of stages plus their composition and an end-to-end deadline."""

    id: str
    stages: tuple[Stage, ...]
    topology: Expr
    end_to_end_deadline: Duration


class System(NamedTuple):
    analytics: tuple[Analytic, ...]

    def stages(self) -> Iterator[Stage]:
        """Every analytic's stages in order, with no frame per stage."""
        return chain.from_iterable(map(attrgetter("stages"), self.analytics))


# characters that would split or quote a field of the trace CSV
_CSV_SPECIALS = frozenset(',"\r\n')


# A record that checks its values is a subclass of a NamedTuple base
# whose __new__ checks them; _make goes through __new__ as well, so
# _replace cannot skip the checks.

class _Core(NamedTuple):
    id: str
    capacity: Fraction = Fraction(1)
    platform_blocking: Duration = 0


class Core(_Core):
    """A scheduling unit: normalized capacity plus platform blocking. The
    capacity is wrapped in a Fraction only when it is not one, and
    checked in (0, 1] on its integer numerator and denominator."""

    __slots__ = ()

    def __new__(cls, id: str, capacity=Fraction(1),
                platform_blocking: Duration = 0):
        if not _CSV_SPECIALS.isdisjoint(id):
            raise ValueError(f"core {id!r}: id holds a comma, quote "
                             f"or line break")
        if capacity.__class__ is not Fraction:
            capacity = Fraction(capacity)
        if not 0 < capacity.numerator <= capacity.denominator:
            raise ValueError(f"core {id!r}: capacity must be in (0, 1]")
        if platform_blocking < 0:
            raise ValueError(f"core {id!r}: negative platform blocking")
        return super().__new__(cls, id, capacity, platform_blocking)

    @classmethod
    def _make(cls, iterable) -> Core:
        return cls(*iterable)


class _Cluster(NamedTuple):
    cores: tuple[Core, ...]


class Cluster(_Cluster):
    __slots__ = ()

    def __new__(cls, cores: tuple[Core, ...]):
        if not cores:
            raise ValueError("cluster must have at least one core")
        ids = [c.id for c in cores]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate core ids in cluster")
        return super().__new__(cls, cores)

    @classmethod
    def _make(cls, iterable) -> Cluster:
        return cls(*iterable)


def homogeneous_cluster(m: int, capacity=Fraction(1),
                        platform_blocking: Duration = 0) -> Cluster:
    """m identical cores named c0..c{m-1}."""
    return Cluster(tuple(
        Core(f"c{i}", capacity, platform_blocking) for i in range(m)))


def effective_blocking(system: System, allocation: Mapping[str, str],
                       cluster: Cluster) -> dict[str, Duration]:
    """Each stage's blocking on its host core, max(stage blocking, core
    platform blocking). Raises ValueError for a stage without a priority,
    InvalidAllocation for one without a known core."""
    platform = {c.id: c.platform_blocking for c in cluster.cores}
    out: dict[str, Duration] = {}
    for sid, _, _, _, blocking, priority, _ in system.stages():
        if priority is None:
            raise ValueError(f"stage {sid!r} has no priority")
        if sid not in allocation:
            raise InvalidAllocation(f"stage {sid!r} has no core")
        core = allocation[sid]
        if core not in platform:
            raise InvalidAllocation(
                f"stage {sid!r} mapped to unknown core {core!r}")
        out[sid] = max(blocking, platform[core])
    return out


# --- validation ---------------------------------------------------------------

class ValidationReport:
    """Findings are (path, message) pairs; ok iff there are none."""

    def __init__(self, findings: list[tuple[str, str]] | None = None):
        self.findings = [] if findings is None else findings

    def __repr__(self) -> str:
        return f"ValidationReport(findings={self.findings!r})"

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, path: str, message: str) -> None:
        self.findings.append((path, message))


def validate_system(system: System) -> ValidationReport:
    """Check every structural invariant of analytics of Stage records;
    never raises, whatever their fields hold. A field of the wrong type
    is a finding at its pointer, and an id that is not a string skips
    the checks that need it: duplicates, the trace-field check and the
    topology, where only string ids are declared.

    Deliberately does *not* reject deadline > inter_arrival + blocking:
    that regime is only refused by the utilization-bound path. An
    analytic's stages are all one-shot or all periodic: a one-shot stage
    admits item 0 only, so the analytic's later items would never
    complete. Each record is read by unpacking, and a finding's path is
    built only when the finding is added.
    """
    report = ValidationReport()
    add = report.add
    seen_analytics: set[str] = set()
    seen_stages: set[str] = set()

    for ai, (aid, stages, topology, e2e) in enumerate(system.analytics):
        if not isinstance(aid, str):
            add(f"/analytics/{ai}/id", "analytic id must be a string")
        elif aid in seen_analytics:
            add(f"/analytics/{ai}/id", f"duplicate analytic id {aid!r}")
        else:
            seen_analytics.add(aid)

        if not isinstance(e2e, int):
            add(f"/analytics/{ai}/end_to_end_deadline",
                "end-to-end deadline must be integer nanoseconds")
        elif e2e <= 0:
            add(f"/analytics/{ai}/end_to_end_deadline",
                "end-to-end deadline must be positive")

        # the inter-arrival of each declared stage id, the last of a
        # duplicate id winning
        periods: dict[str, InterArrival] = {}
        one_shot = 0
        for si, (sid, cost, period, deadline, blocking, _, _) in enumerate(
                stages):
            if not isinstance(sid, str):
                add(_stage_path(ai, si, "id"), "stage id must be a string")
            else:
                if sid in seen_stages:
                    add(_stage_path(ai, si, "id"),
                        f"duplicate stage id {sid!r}")
                seen_stages.add(sid)
                if not _CSV_SPECIALS.isdisjoint(sid):
                    add(_stage_path(ai, si, "id"), f"stage id {sid!r} "
                        f"holds a comma, quote or line break")
                periods[sid] = period
            # INFINITE is legal only as an inter-arrival time
            ints = (isinstance(cost, int) and isinstance(deadline, int)
                    and isinstance(blocking, int))
            if not ints or cost < 0 or deadline < 0 or blocking < 0:
                for key, value in zip(("cost", "deadline", "blocking"),
                                      (cost, deadline, blocking)):
                    if not isinstance(value, int):
                        add(_stage_path(ai, si, key),
                            f"{key} must be integer nanoseconds")
                    elif value < 0:
                        add(_stage_path(ai, si, key), f"negative {key}")
            if period is INFINITE:
                one_shot += 1
            elif not isinstance(period, int):
                add(_stage_path(ai, si, "inter_arrival"),
                    "inter-arrival must be integer ns or INFINITE")
            elif period <= 0:
                add(_stage_path(ai, si, "inter_arrival"),
                    "finite inter-arrival must be positive")
            if ints and cost > deadline:
                add(_stage_path(ai, si, "cost"), "cost exceeds deadline")
        if 0 < one_shot < len(stages):
            add(f"/analytics/{ai}/stages",
                "one-shot and periodic stages in one analytic")

        for message in _topology_problems(topology, periods):
            add(f"/analytics/{ai}/topology", message)

    return report


_MALFORMED = "malformed composition expression"


def _stage_path(ai: int, si: int, key: str) -> str:
    return f"/analytics/{ai}/stages/{si}/{key}"


def _topology_problems(topology: Expr,
                       periods: Mapping[str, InterArrival]) -> list[str]:
    """What is wrong with a topology, given each declared stage id's
    inter-arrival: one pass over its nodes checks the leaves and keeps
    the round-robin nodes, so the messages come as: an empty node, the
    leaves left to right, the uncovered ids sorted, the round-robin
    nodes left to right. A non-node, or a leaf whose stage is not a
    string, gives only the malformed message."""
    try:
        found = nodes(topology)
    except TypeError:
        return [_MALFORMED]
    problems: list[str] = []
    covered: set[str] = set()
    replicated: list[RoundRobin] = []
    empty = False
    for node in found:
        if isinstance(node, Leaf):
            sid = node.stage
            if not isinstance(sid, str):
                return [_MALFORMED]
            if sid not in periods:
                problems.append(f"topology references unknown stage {sid!r}")
            elif sid in covered:
                problems.append(f"stage {sid!r} covered twice")
            covered.add(sid)
        elif not node.children:
            empty = True
        elif isinstance(node, RoundRobin):
            replicated.append(node)
    if empty:
        problems.insert(0, "empty composition node")
    for sid in sorted(periods.keys() - covered):
        problems.append(f"stage {sid!r} not covered")
    for rr in replicated:
        for child in rr.children:
            if not isinstance(child, Leaf):
                problems.append("round-robin children must be stage ids")
                break
        else:
            try:
                shared = {periods[c.stage] for c in rr.children
                          if c.stage in periods}
            except TypeError:  # an unhashable inter-arrival is not finite
                shared = {INFINITE}
            if len(shared) > 1 or INFINITE in shared:
                ids = ", ".join(c.stage for c in rr.children)
                problems.append(f"round-robin replicas {ids} do not share "
                                f"one finite inter-arrival")
    return problems


# --- priority assignment ------------------------------------------------------

def assign_priorities_dm(system: System) -> dict[str, int]:
    """Deadline-monotonic priorities: strictly smaller deadline, strictly
    higher priority; ties broken by stage id (lexicographically smaller id
    wins). Returns dense integers, larger = higher priority.
    """
    ordered = sorted(system.stages(), key=attrgetter("deadline", "id"))
    return dict(zip(map(attrgetter("id"), ordered),
                    range(len(ordered), 0, -1)))


def with_priorities(system: System, priorities: Mapping[str, int]) -> System:
    """Copy of the system with priorities applied (ids absent from the
    mapping keep their current priority)."""
    return _map_stages(system, priorities, {})


def with_allocation(system: System, allocation: Mapping[str, str]) -> System:
    """Copy of the system with host cores applied."""
    return _map_stages(system, {}, allocation)


def _map_stages(system: System, priorities: Mapping[str, int],
                cores: Mapping[str, str]) -> System:
    """Copy of the system, each stage's priority and core taken from the
    mappings that name it (an absent id keeps its value). Each Stage and
    Analytic is built from its unpacked fields by ``tuple.__new__``,
    without the Python frame of the generated ``__new__``: safe only
    because neither record checks its values, so the copy is the tuple
    of the same class and fields that ``_replace`` builds."""
    new = tuple.__new__
    priority_of, core_of = priorities.get, cores.get
    return System(tuple([
        new(Analytic, (aid, tuple([
            new(Stage, (sid, cost, period, deadline, blocking,
                        priority_of(sid, priority), core_of(sid, core)))
            for sid, cost, period, deadline, blocking, priority, core
            in stages]), topology, e2e))
        for aid, stages, topology, e2e in system.analytics]))


# --- first-fit-decreasing allocation ------------------------------------------

def scaled_utilizations(stages: list[Stage],
                        denominators=()) -> tuple[int, list[int]]:
    """Each stage's utilization as an exact integer over one common
    denominator L: ``(L, [C * (L // T) for each stage])``, 0 for a
    one-shot stage. L is the lcm of the distinct finite periods and of
    ``denominators``, so a fraction p/q with q among them is p * (L // q)."""
    periods = {s.inter_arrival for s in stages} - {INFINITE}
    # pairwise rounds, so each lcm joins operands of like size
    lcms = [*periods, *denominators] or [1]
    while len(lcms) > 1:
        lcms = [math.lcm(*lcms[i:i + 2]) for i in range(0, len(lcms), 2)]
    lcm = lcms[0]
    scale = {t: lcm // t for t in periods}
    scale[INFINITE] = 0
    return lcm, [s.cost * scale[s.inter_arrival] for s in stages]


def allocate_first_fit(system: System, cluster: Cluster) -> dict[str, str]:
    """Place stages on cores, heaviest utilization first (ties by stage
    id), each on the first core whose accumulated utilization stays within
    its capacity. Raises AllocationFailed naming the first unplaceable
    stage.

    Cost: O(n log n) to sort the n stages, then O(log m) integer
    operations per stage on m cores: utilizations and capacities are
    scaled by L, the lcm of the distinct periods and the capacity
    denominators (``scaled_utilizations``), so every compare is exact,
    and the integers grow with that lcm. A tournament tree holds each core's
    remaining capacity ``capacity - load`` at a leaf (padding leaves hold
    -1 and never fit) and the max of its children at every inner node.
    Each stage walks down from the root, going left whenever the left
    subtree's max is at least its weight w, so it reaches the first core
    with ``load + w <= capacity``, the one a linear scan finds. The
    refresh back up sets each ancestor to the larger of the new value and
    its sibling, and stops at the first ancestor whose max is unchanged:
    values only decrease, so no max above it can change. A zero-weight
    stage, or a core whose sibling subtree holds at least as much room,
    costs one step; only a core that alone held its subtree's max costs
    more, up to log2(m) steps.
    """
    stages = sorted(system.stages(), key=attrgetter("id"))
    cores = cluster.cores
    lcm, weights = scaled_utilizations(
        stages, [c.capacity.denominator for c in cores])
    # sorted by id, then stably by weight: the order of the key (-w, id)
    weighted = sorted(zip(weights, stages), key=itemgetter(0), reverse=True)
    size = 1
    while size < len(cores):
        size *= 2
    tree: list[int] = [-1] * (2 * size)
    scale = {q: lcm // q for q in {c.capacity.denominator for c in cores}}
    tree[size:size + len(cores)] = [
        c.capacity.numerator * scale[c.capacity.denominator] for c in cores]
    for i in range(size - 1, 0, -1):
        tree[i] = max(tree[2 * i], tree[2 * i + 1])
    placement: dict[str, str] = {}
    for w, stage in weighted:
        if tree[1] < w:
            raise AllocationFailed(stage.id)
        i = 1
        while i < size:
            i *= 2
            if tree[i] < w:
                i += 1
        v = tree[i] - w
        tree[i] = v
        placement[stage.id] = cores[i - size].id
        while i > 1:
            sibling = tree[i ^ 1]
            if sibling > v:
                v = sibling
            i //= 2
            if tree[i] == v:
                break
            tree[i] = v
    return placement
