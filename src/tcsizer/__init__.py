"""Schedulability analysis and cluster sizing for time-critical
analytics pipelines: worst-case response times with blocking,
series-parallel end-to-end composition, utilization-bound core counts,
frequency/decimation trade-off sweeps, and a deterministic scheduling
simulator that validates every analytic bound empirically.
"""

from .analysis import (
    DIVERGED,
    AnalyticVerdict,
    MissingStage,
    PreconditionViolated,
    ResponseReport,
    UtilizationSummary,
    check_utilization_bound,
    end_to_end_response,
    min_cores,
    solve_system,
    total_utilization,
)
from .model import (
    HOUR,
    INFINITE,
    MINUTE,
    MS,
    SEC,
    US,
    AllocationFailed,
    Analytic,
    Cluster,
    Core,
    InvalidAllocation,
    Leaf,
    Par,
    ReplicationExceeded,
    RoundRobin,
    Seq,
    Stage,
    System,
    ValidationReport,
    allocate_first_fit,
    assign_priorities_dm,
    homogeneous_cluster,
    leaves,
    par,
    replicate_for_rate,
    seq,
    validate_system,
    with_allocation,
    with_priorities,
)
from .sim import (
    BlockingPolicy,
    HorizonTooShort,
    ReleasePolicy,
    SimConfig,
    SimEvent,
    SimTrace,
    Violation,
    WorstObserved,
    simulate,
    trace_to_csv,
    verify_conservative,
    worst_observed,
)
from .sizing import (
    ComparisonResult,
    DecimationRow,
    SweepRow,
    baseline_comparison,
    decimation_sweep,
    frequency_sweep,
    retime_system,
)
from .workloads import (
    MissingParam,
    ScenarioId,
    builtin_system,
    period_from_frequency,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
