"""Built-in analytics scenarios.

The online scenarios are three-phase streams (generator -> splitter ->
counter) with fixed per-stage costs; the offline ones are four-phase
map-reduce chains (download -> map -> reduce -> sort) whose costs the
caller supplies, modeled as one-shot batch jobs. The priority showcase
scenario is a pair of one-shot, hour-long analytics with 1h and 2h
deadlines that only fit on one core when priorities reflect deadlines.
"""

from __future__ import annotations

from enum import Enum

from .model import (
    HOUR,
    INFINITE,
    MINUTE,
    MS,
    SEC,
    US,
    Analytic,
    Duration,
    Stage,
    System,
    period_from_frequency,
    seq,
)


class MissingParam(ValueError):
    """A scenario parameter the caller must supply is absent."""


class ScenarioId(Enum):
    MICROBLOG_ONLINE = "microblog-online"
    MICROBLOG_OFFLINE = "microblog-offline"
    BOOK_ONLINE = "book-online"
    BOOK_OFFLINE = "book-offline"
    TABLE_VI = "table-vi"


_ONLINE_PHASES = ("gen", "split", "count")
_OFFLINE_PHASES = ("download", "map", "reduce", "sort")

# each chain scenario's analytic name, phases, worst-case per-phase costs
# (None for offline ones: the caller supplies them) and deadline
_CHAINS = {
    ScenarioId.MICROBLOG_ONLINE: ("microblog", _ONLINE_PHASES,
                                  (127 * US, 507 * US, 511 * US), SEC),
    ScenarioId.BOOK_ONLINE: ("book", _ONLINE_PHASES,
                             (1_100 * US, 5 * MS, 800 * US), SEC),
    ScenarioId.MICROBLOG_OFFLINE:
        ("microblog-batch", _OFFLINE_PHASES, None, 2 * HOUR),
    ScenarioId.BOOK_OFFLINE:
        ("book-batch", _OFFLINE_PHASES, None, 10 * MINUTE),
}


def builtin_system(scenario: ScenarioId, *, frequency_hz=None, costs=None,
                   blocking: Duration = 0) -> System:
    """Instantiate a built-in scenario.

    Online scenarios need ``frequency_hz``; offline ones need ``costs``
    (one per phase: download, map, reduce, sort). Per-stage deadlines
    are the scenario's end-to-end deadline, so that high-rate templates
    stay structurally valid. No sweep reads them; only
    ``sizing.retime_system`` writes new ones, D = T + B. A chain
    scenario is one analytic of one stage per phase, run in sequence.
    """
    if scenario is ScenarioId.TABLE_VI:
        return _priority_pair()
    if scenario not in _CHAINS:
        raise ValueError(f"unknown scenario {scenario!r}")
    name, phases, fixed_costs, deadline = _CHAINS[scenario]
    inter_arrival = INFINITE
    if fixed_costs is not None:
        if frequency_hz is None:
            raise MissingParam(f"{name}: online scenarios need frequency_hz")
        costs, inter_arrival = fixed_costs, period_from_frequency(frequency_hz)
    elif costs is None:
        raise MissingParam(
            f"{name}: offline scenarios need per-phase costs {phases}")
    elif len(costs) != len(phases):
        raise MissingParam(
            f"{name}: expected {len(phases)} costs, got {len(costs)}")
    stages = tuple(
        Stage(id=f"{name}-{phase}", cost=cost, inter_arrival=inter_arrival,
              deadline=deadline, blocking=blocking)
        for phase, cost in zip(phases, costs))
    return System((Analytic(id=name, stages=stages,
                            topology=seq(*(s.id for s in stages)),
                            end_to_end_deadline=deadline),))


def _priority_pair() -> System:
    """Two one-shot analytics, 1h of work each, deadlines 2h and 1h."""
    def one_shot(sid: str, d: Duration) -> Analytic:
        stage = Stage(id=sid, cost=HOUR, inter_arrival=INFINITE, deadline=d)
        return Analytic(id=sid, stages=(stage,), topology=sid,
                        end_to_end_deadline=d)
    return System((one_shot("TC1", 2 * HOUR), one_shot("TC2", HOUR)))
