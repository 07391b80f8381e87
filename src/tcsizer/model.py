"""Domain model for time-critical analytics pipelines.

An analytic is a series-parallel graph of stages. Each stage is one
schedulable segment characterized by a worst-case cost C, a minimum
inter-arrival time T, a deadline D, a blocking term B, a fixed priority,
and a host core. All times are integer nanoseconds; Python integers make
overflow a non-issue. A stage whose inter-arrival is ``INFINITE`` is
one-shot: it executes exactly once (hour-scale batch jobs are modeled
this way).

Priorities are integers, larger value = higher priority. ``None`` means
unassigned (for priorities and for host cores).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from operator import attrgetter, itemgetter
from typing import Iterator, Mapping, NamedTuple, Union

# Duration helpers (integer nanoseconds).
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000
MINUTE = 60 * SEC
HOUR = 3_600 * SEC


class Marker:
    """Identity-compared singleton used for INFINITE / DIVERGED values."""

    __slots__ = ("_label",)

    def __init__(self, label: str):
        self._label = label

    def __repr__(self) -> str:
        return self._label

    def __deepcopy__(self, memo):
        return self

    def __copy__(self):
        return self


#: Inter-arrival time of a one-shot stage.
INFINITE = Marker("INFINITE")

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


class ReplicationExceeded(Exception):
    """Rate replication would need more replicas than allowed."""

    def __init__(self, stage_id: str, needed: int, k_max: int):
        super().__init__(
            f"stage {stage_id!r} needs {needed} replicas, limit is {k_max}")
        self.stage_id = stage_id
        self.needed = needed
        self.k_max = k_max


class InvalidAllocation(Exception):
    """A stage has no host core (or an unknown one)."""


class AllocationFailed(Exception):
    """No core has room for a stage during first-fit placement."""

    def __init__(self, stage_id: str):
        super().__init__(f"no core can host stage {stage_id!r}")
        self.stage_id = stage_id


@dataclass(frozen=True)
class Stage:
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

    def utilization(self, inter_arrival: Duration | None = None) -> Fraction:
        """C/T as an exact rational, T re-timed to ``inter_arrival`` when
        given; a one-shot stage runs once at any rate, so it counts 0."""
        if self.inter_arrival is INFINITE:
            return Fraction(0)
        return Fraction(self.cost, inter_arrival or self.inter_arrival)


# --- series-parallel composition expressions ---------------------------------

@dataclass(frozen=True)
class Leaf:
    stage: str


@dataclass(frozen=True)
class Seq:
    children: tuple["Expr", ...]


@dataclass(frozen=True)
class Par:
    children: tuple["Expr", ...]


@dataclass(frozen=True)
class RoundRobin:
    """Replicas of one stage: item n goes to child n mod k only."""

    children: tuple[Leaf, ...]


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
        if isinstance(node, (Seq, Par, RoundRobin)):
            todo.extend(reversed(node.children))
        elif not isinstance(node, Leaf):
            raise TypeError(f"not a composition expression: {node!r}")
        found.append(node)
    return found


def leaves(expr: Expr) -> list[str]:
    """Stage ids in left-to-right leaf order."""
    return [node.stage for node in nodes(expr) if isinstance(node, Leaf)]


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


@dataclass(frozen=True)
class Analytic:
    """A set of stages plus their composition and an end-to-end deadline."""

    id: str
    stages: tuple[Stage, ...]
    topology: Expr
    end_to_end_deadline: Duration

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))


@dataclass(frozen=True)
class System:
    analytics: tuple[Analytic, ...]

    def __post_init__(self):
        object.__setattr__(self, "analytics", tuple(self.analytics))

    def stages(self) -> Iterator[Stage]:
        for analytic in self.analytics:
            yield from analytic.stages


# characters that would split or quote a field of the trace CSV
_CSV_SPECIALS = frozenset(',"\r\n')


def _csv_unsafe(name: str) -> bool:
    return not _CSV_SPECIALS.isdisjoint(name)


@dataclass(frozen=True)
class Core:
    """A scheduling unit: normalized capacity plus platform blocking."""

    id: str
    capacity: Fraction = Fraction(1)
    platform_blocking: Duration = 0

    def __post_init__(self):
        if _csv_unsafe(self.id):
            raise ValueError(f"core {self.id!r}: id holds a comma, quote "
                             f"or line break")
        cap = self.capacity
        if not isinstance(cap, Fraction):
            cap = Fraction(cap)
            object.__setattr__(self, "capacity", cap)
        if not 0 < cap <= 1:
            raise ValueError(f"core {self.id!r}: capacity must be in (0, 1]")
        if self.platform_blocking < 0:
            raise ValueError(f"core {self.id!r}: negative platform blocking")


@dataclass(frozen=True)
class Cluster:
    cores: tuple[Core, ...]

    def __post_init__(self):
        object.__setattr__(self, "cores", tuple(self.cores))
        if not self.cores:
            raise ValueError("cluster must have at least one core")
        ids = [c.id for c in self.cores]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate core ids in cluster")


def homogeneous_cluster(m: int, capacity=Fraction(1),
                        platform_blocking: Duration = 0) -> Cluster:
    """m identical cores named c0..c{m-1}."""
    cap = capacity if isinstance(capacity, Fraction) else Fraction(capacity)
    return Cluster(tuple(
        Core(f"c{i}", cap, platform_blocking) for i in range(m)))


def effective_blocking(system: System, allocation: Mapping[str, str],
                       cluster: Cluster) -> dict[str, Duration]:
    """Each stage's blocking on its host core, max(stage blocking, core
    platform blocking). Raises ValueError for a stage without a priority,
    InvalidAllocation for one without a known core."""
    platform = {c.id: c.platform_blocking for c in cluster.cores}
    out: dict[str, Duration] = {}
    for s in system.stages():
        if s.priority is None:
            raise ValueError(f"stage {s.id!r} has no priority")
        if s.id not in allocation:
            raise InvalidAllocation(f"stage {s.id!r} has no core")
        core = allocation[s.id]
        if core not in platform:
            raise InvalidAllocation(
                f"stage {s.id!r} mapped to unknown core {core!r}")
        out[s.id] = max(s.blocking, platform[core])
    return out


# --- validation ---------------------------------------------------------------

@dataclass
class ValidationReport:
    """Findings are (path, message) pairs; ok iff there are none."""

    findings: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, path: str, message: str) -> None:
        self.findings.append((path, message))


def validate_system(system: System) -> ValidationReport:
    """Check every structural invariant; never raises.

    Deliberately does *not* reject deadline > inter_arrival + blocking:
    that regime is only refused by the utilization-bound path. A
    finding's path is built only when the finding is added.
    """
    report = ValidationReport()
    seen_analytics: set[str] = set()
    seen_stages: set[str] = set()

    for ai, analytic in enumerate(system.analytics):
        if analytic.id in seen_analytics:
            report.add(f"/analytics/{ai}/id",
                       f"duplicate analytic id {analytic.id!r}")
        seen_analytics.add(analytic.id)

        if analytic.end_to_end_deadline <= 0:
            report.add(f"/analytics/{ai}/end_to_end_deadline",
                       "end-to-end deadline must be positive")

        for si, stage in enumerate(analytic.stages):
            if stage.id in seen_stages:
                report.add(_stage_path(ai, si, "id"),
                           f"duplicate stage id {stage.id!r}")
            seen_stages.add(stage.id)
            if _csv_unsafe(stage.id):
                report.add(_stage_path(ai, si, "id"), f"stage id {stage.id!r} "
                           f"holds a comma, quote or line break")
            # INFINITE is legal only as an inter-arrival time
            finite_fields = True
            for field_name in ("cost", "deadline", "blocking"):
                value = getattr(stage, field_name)
                if not isinstance(value, int):
                    report.add(_stage_path(ai, si, field_name),
                               f"{field_name} must be integer nanoseconds")
                    finite_fields = False
                elif value < 0:
                    report.add(_stage_path(ai, si, field_name),
                               f"negative {field_name}")
            if stage.inter_arrival is not INFINITE:
                if not isinstance(stage.inter_arrival, int):
                    report.add(_stage_path(ai, si, "inter_arrival"),
                               "inter-arrival must be integer ns or INFINITE")
                elif stage.inter_arrival <= 0:
                    report.add(_stage_path(ai, si, "inter_arrival"),
                               "finite inter-arrival must be positive")
            if finite_fields and stage.cost > stage.deadline:
                report.add(_stage_path(ai, si, "cost"),
                           "cost exceeds deadline")

        for message in _topology_problems(analytic):
            report.add(f"/analytics/{ai}/topology", message)

    return report


def _stage_path(ai: int, si: int, key: str) -> str:
    return f"/analytics/{ai}/stages/{si}/{key}"


def _topology_problems(analytic: Analytic) -> Iterator[str]:
    """What is wrong with the analytic's topology, one message each."""
    declared = {s.id: s for s in analytic.stages}
    covered: set[str] = set()
    try:
        topology = nodes(analytic.topology)
    except TypeError:
        yield "malformed composition expression"
        return
    if any(not isinstance(n, Leaf) and not n.children for n in topology):
        yield "empty composition node"
    for sid in (n.stage for n in topology if isinstance(n, Leaf)):
        if sid not in declared:
            yield f"topology references unknown stage {sid!r}"
        elif sid in covered:
            yield f"stage {sid!r} covered twice"
        covered.add(sid)
    for sid in sorted(declared.keys() - covered):
        yield f"stage {sid!r} not covered"
    for rr in (n for n in topology if isinstance(n, RoundRobin)):
        if not all(isinstance(c, Leaf) for c in rr.children):
            yield "round-robin children must be stage ids"
            continue
        periods = {declared[c.stage].inter_arrival for c in rr.children
                   if c.stage in declared}
        if len(periods) > 1 or INFINITE in periods:
            ids = ", ".join(c.stage for c in rr.children)
            yield (f"round-robin replicas {ids} do not share one finite "
                   f"inter-arrival")


# --- priority assignment ------------------------------------------------------

def assign_priorities_dm(system: System) -> dict[str, int]:
    """Deadline-monotonic priorities: strictly smaller deadline, strictly
    higher priority; ties broken by stage id (lexicographically smaller id
    wins). Returns dense integers, larger = higher priority.
    """
    ordered = sorted(system.stages(), key=lambda s: (s.deadline, s.id))
    return {s.id: len(ordered) - i for i, s in enumerate(ordered)}


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
    mappings that name it (constructor calls: half the cost of replace)."""
    return System(tuple(
        Analytic(a.id, tuple(
            Stage(s.id, s.cost, s.inter_arrival, s.deadline, s.blocking,
                  priorities.get(s.id, s.priority), cores.get(s.id, s.core))
            for s in a.stages), a.topology, a.end_to_end_deadline)
        for a in system.analytics))


# --- rate-driven replication --------------------------------------------------

def replicate_for_rate(stage: Stage, k_max: int) -> list[Stage]:
    """Split an over-rate stage (C > T) into k = ceil(C/T) replicas
    ``<id>#1`` .. ``<id>#k``, the children of a RoundRobin node in order.

    Each replica sees every k-th input item, so its inter-arrival becomes
    k*T while the cost stays put; the deadline is capped at k*T + B. A
    stage with C <= T is returned unchanged.
    """
    if stage.inter_arrival is INFINITE:
        raise ValueError(f"stage {stage.id!r}: cannot replicate a one-shot stage")
    k = replica_count(stage, stage.inter_arrival, k_max)
    if k <= 1:
        return [stage]
    t_new = k * stage.inter_arrival
    d_new = min(stage.deadline, t_new + stage.blocking)
    return [
        replace(stage, id=f"{stage.id}#{i}", inter_arrival=t_new,
                deadline=d_new)
        for i in range(1, k + 1)
    ]


def replica_count(stage: Stage, inter_arrival: Duration, k_max: int) -> int:
    """k = ceil(C/T) replicas for ``stage`` arriving every
    ``inter_arrival`` ns (at most 1 when C <= T); raises
    ReplicationExceeded when k > k_max."""
    if k_max < 1:
        raise ValueError("k_max must be positive")
    k = -(-stage.cost // inter_arrival)
    if k > k_max:
        raise ReplicationExceeded(stage.id, k, k_max)
    return k


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
    with ``load + w <= capacity``, the one a linear scan finds.
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
        tree[i] -= w
        placement[stage.id] = cores[i - size].id
        while i > 1:
            i //= 2
            tree[i] = max(tree[2 * i], tree[2 * i + 1])
    return placement
