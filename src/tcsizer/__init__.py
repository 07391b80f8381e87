"""Schedulability analysis and cluster sizing for time-critical
analytics pipelines: worst-case response times with blocking,
series-parallel end-to-end composition, utilization-bound core counts,
frequency/decimation trade-off sweeps, and a deterministic scheduling
simulator that validates every analytic bound empirically.

Submodules load on first use: ``tcsizer.simulate`` imports
``tcsizer.sim`` when it is first read, so a program that never touches
the simulator or the sweeps does not pay for importing them.
"""

from importlib import import_module as _import_module

# the submodule that defines each public name
_HOMES = {
    "analysis": (
        "DIVERGED", "AnalyticVerdict", "ResponseReport", "solve_system",
    ),
    "model": (
        "HOUR", "INFINITE", "MINUTE", "MS", "SEC", "US", "AllocationFailed",
        "Analytic", "BlockingPolicy", "Cluster", "Core", "InvalidAllocation",
        "Leaf", "MissingStage", "Par", "ReleasePolicy", "RoundRobin", "Seq",
        "Stage", "System", "ValidationReport", "allocate_first_fit",
        "assign_priorities_dm", "end_to_end_response", "homogeneous_cluster",
        "par", "period_from_frequency", "seq", "validate_system",
        "with_allocation", "with_priorities",
    ),
    "sim": (
        "HorizonTooShort", "SimConfig", "SimEvent", "SimTrace", "Violation",
        "WorstObserved", "simulate", "trace_to_csv", "verify_conservative",
        "worst_observed",
    ),
    "sizing": (
        "ComparisonResult", "DecimationRow", "PreconditionViolated",
        "ReplicationExceeded", "SweepRow", "UtilizationSummary",
        "baseline_comparison", "decimation_sweep", "frequency_sweep",
        "min_cores", "retime_system", "total_utilization",
    ),
    "workloads": ("MissingParam", "ScenarioId", "builtin_system"),
}
_HOME_OF = {name: module for module, names in _HOMES.items()
            for name in names}

__all__ = sorted([*_HOMES, *_HOME_OF])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOMES:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
