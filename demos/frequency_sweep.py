"""Utilization and core counts versus input rate for the stream scenarios.

The microblog counter (stage costs 127/507/511 us per event) and the book
word-histogram stream (1.1/5/0.8 ms) are swept from 1 Hz up. Per-event
work is constant, so total utilization is exactly (sum of costs) x f and
the required core count follows the strict (m - 1/2) * U_max bound.
Stages whose cost exceeds the inter-arrival time are replicated
round-robin, which preserves total utilization. The 4 kHz system is then
simulated for 1 s on a core per stage; the demo exits 1 if the simulator
observes any response above its analytic bound.
"""

import sys

from tcsizer import (
    SEC,
    ScenarioId,
    SimConfig,
    assign_priorities_dm,
    builtin_system,
    frequency_sweep,
    homogeneous_cluster,
    retime_system,
    simulate,
    solve_system,
    verify_conservative,
    with_allocation,
    with_priorities,
    worst_observed,
)


def sweep(label, scenario, frequencies):
    template = builtin_system(scenario, frequency_hz=1)
    rows = frequency_sweep(template, frequencies, u_max=1)
    print(f"\n{label}")
    print(f"  {'rate':>9}  {'utilization':>12}  {'cores':>5}")
    for row in rows:
        print(f"  {float(row.frequency_hz):>7.0f}Hz  "
              f"{float(row.total_utilization):>12.6f}  {row.min_cores:>5}")
    return template


def main():
    mb = sweep("Microblog trend counter (127/507/511 us):",
               ScenarioId.MICROBLOG_ONLINE,
               [1, 10, 100, 1000, 4000, 8000, 16000, 24000])
    sweep("Book word histogram (1.1/5/0.8 ms):",
          ScenarioId.BOOK_ONLINE, [1, 10, 100, 1000, 10000, 40000])

    # what replication does at 4 kHz: the 507us splitter cannot keep up
    # with a 250us inter-arrival, so it becomes ceil(507/250) = 3 replicas
    # under a round-robin node, each seeing every third event
    retimed = retime_system(mb, 4000)
    print("\nMicroblog stages after re-timing for 4 kHz:")
    for s in retimed.stages():
        print(f"  {s.id:<22} C={s.cost:>7}ns  T={s.inter_arrival:>7}ns  "
              f"D={s.deadline:>7}ns")
    print("\nReplicas keep the phase's total utilization at cost/T_in exactly,")
    print("so the sweep's utilization column is replication-invariant.")
    return check_by_simulation(retimed)


def check_by_simulation(system):
    """Simulate 1 s on a core per stage; 1 if any bound is beaten."""
    system = with_priorities(system, assign_priorities_dm(system))
    allocation = {s.id: f"c{i}" for i, s in enumerate(system.stages())}
    system = with_allocation(system, allocation)
    cluster = homogeneous_cluster(len(allocation))
    report = solve_system(system, allocation, cluster)
    trace = simulate(system, allocation, cluster, SimConfig(horizon=SEC))
    observed = worst_observed(trace)
    print(f"\nSimulated 1 s at 4 kHz on {len(allocation)} cores "
          f"({len(trace.end_to_end_responses)} items):")
    print(f"  {'':<22} {'bound':>9}  {'observed':>9}")
    for sid, bound in report.per_stage.items():
        print(f"  {sid:<22} {bound:>7}ns  {observed.per_stage[sid]:>7}ns")
    for aid, verdict in report.per_analytic.items():
        print(f"  {aid + ' end to end':<22} {verdict.end_to_end:>7}ns  "
              f"{observed.per_analytic[aid]:>7}ns")
    violations = verify_conservative(report, observed)
    for v in violations:
        print(f"  VIOLATION: {v.kind} {v.id} observed {v.observed}ns "
              f"> bound {v.bound}ns")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
