#!/usr/bin/env python
"""Scenario: *seeing* what each scheduler does to thread placement.

Renders the placement timeline (which core tier each thread occupied,
over time) and the swap-activity sparkline for CFS, DIO and Dike on one
workload — the visual version of the paper's overhead argument: CFS rows
never change, DIO rows shimmer every quantum, Dike's change a handful of
times and settle.

Run:  python examples/visualize_placement.py [work_scale]
"""

from __future__ import annotations

import sys

from repro import REGISTRY, CFSScheduler, DIOScheduler, run_workload, workload
from repro.analysis import placement_timeline, swap_activity_sparkline
from repro.sim.topology import xeon_e5_heterogeneous


def main() -> None:
    work_scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.15
    topo = xeon_e5_heterogeneous()
    spec = workload("wl2")

    for name, factory in (
        ("cfs", CFSScheduler),
        ("dio", DIOScheduler),
        ("dike", REGISTRY.factory("dike")),
    ):
        result = run_workload(
            spec, factory(), work_scale=work_scale,
            topology=topo, record_timeseries=True,
        )
        print("=" * 78)
        print(placement_timeline(result, topo, width=70, max_threads=12))
        print(swap_activity_sparkline(result, width=70))
        print()

    print(
        "Reading: jacobi/streamcluster threads (t000-t015) should end on "
        "the fast tier (F) under Dike and stay there; under DIO every row "
        "flickers between tiers each quantum; under CFS nothing ever moves "
        "— including the memory threads stranded on the slow tier."
    )


if __name__ == "__main__":
    main()
