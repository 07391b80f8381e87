"""Built-in analytics scenarios and the frequency-to-period conversion.

The online scenarios are three-phase streams (generator -> splitter ->
counter) with fixed per-stage costs; the offline ones are four-phase
map-reduce chains (download -> map -> reduce -> sort) whose costs the
caller supplies, modeled as one-shot batch jobs. The priority showcase
scenario is a pair of one-shot, hour-long analytics with 1h and 2h
deadlines that only fit on one core when priorities reflect deadlines.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .model import (
    HOUR,
    INFINITE,
    MINUTE,
    MS,
    SEC,
    US,
    Analytic,
    Duration,
    InterArrival,
    Leaf,
    Stage,
    System,
    seq,
)


class MissingParam(Exception):
    """A scenario parameter the caller must supply is absent."""


class ScenarioId(Enum):
    MICROBLOG_ONLINE = "microblog-online"
    MICROBLOG_OFFLINE = "microblog-offline"
    BOOK_ONLINE = "book-online"
    BOOK_OFFLINE = "book-offline"
    TABLE_VI = "table-vi"


# worst-case costs of the online phases, ns
_MICROBLOG_COSTS = (127 * US, 507 * US, 511 * US)
_BOOK_COSTS = (1_100 * US, 5 * MS, 800 * US)

_ONLINE_PHASES = ("gen", "split", "count")
_OFFLINE_PHASES = ("download", "map", "reduce", "sort")


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


def builtin_system(scenario: ScenarioId, *, frequency_hz=None, costs=None,
                   inter_arrival: InterArrival = INFINITE,
                   deadline: Duration | None = None,
                   blocking: Duration = 0) -> System:
    """Instantiate a built-in scenario.

    Online scenarios need ``frequency_hz``; offline ones need ``costs``
    (one per phase: download, map, reduce, sort). Per-stage deadlines
    default to the end-to-end deadline so that high-rate templates stay
    structurally valid; sweeps re-derive tighter per-stage deadlines
    themselves.
    """
    if scenario is ScenarioId.MICROBLOG_ONLINE:
        return _online("microblog", _MICROBLOG_COSTS, frequency_hz,
                       deadline or SEC, blocking)
    if scenario is ScenarioId.BOOK_ONLINE:
        return _online("book", _BOOK_COSTS, frequency_hz,
                       deadline or SEC, blocking)
    if scenario is ScenarioId.MICROBLOG_OFFLINE:
        return _offline("microblog-batch", costs, inter_arrival,
                        deadline or 2 * HOUR, blocking)
    if scenario is ScenarioId.BOOK_OFFLINE:
        return _offline("book-batch", costs, inter_arrival,
                        deadline or 10 * MINUTE, blocking)
    if scenario is ScenarioId.TABLE_VI:
        return _priority_pair()
    raise ValueError(f"unknown scenario {scenario!r}")


def _online(name: str, stage_costs, frequency_hz, e2e_deadline: Duration,
            blocking: Duration) -> System:
    if frequency_hz is None:
        raise MissingParam(f"{name}: online scenarios need frequency_hz")
    return _chain(name, _ONLINE_PHASES, stage_costs,
                  period_from_frequency(frequency_hz), e2e_deadline, blocking)


def _offline(name: str, costs, inter_arrival: InterArrival,
             e2e_deadline: Duration, blocking: Duration) -> System:
    if costs is None:
        raise MissingParam(
            f"{name}: offline scenarios need per-phase costs "
            f"{_OFFLINE_PHASES}")
    if len(costs) != len(_OFFLINE_PHASES):
        raise MissingParam(
            f"{name}: expected {len(_OFFLINE_PHASES)} costs, got {len(costs)}")
    return _chain(name, _OFFLINE_PHASES, costs, inter_arrival, e2e_deadline,
                  blocking)


def _chain(name: str, phases, costs, inter_arrival: InterArrival,
           e2e_deadline: Duration, blocking: Duration) -> System:
    """One analytic of one stage per phase, run in sequence."""
    stages = tuple(
        Stage(id=f"{name}-{phase}", cost=cost, inter_arrival=inter_arrival,
              deadline=e2e_deadline, blocking=blocking)
        for phase, cost in zip(phases, costs))
    topo = seq(*(s.id for s in stages))
    return System((Analytic(id=name, stages=stages, topology=topo,
                            end_to_end_deadline=e2e_deadline),))


def _priority_pair() -> System:
    """Two one-shot analytics, 1h of work each, deadlines 2h and 1h."""
    def one_shot(sid: str, d: Duration) -> Analytic:
        stage = Stage(id=sid, cost=HOUR, inter_arrival=INFINITE, deadline=d)
        return Analytic(id=sid, stages=(stage,), topology=Leaf(sid),
                        end_to_end_deadline=d)
    return System((one_shot("TC1", 2 * HOUR), one_shot("TC2", HOUR)))
