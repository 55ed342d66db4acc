#!/usr/bin/env python
"""Scenario: an open system where applications arrive over time.

The paper motivates the Optimizer with exactly this: "the optimal
configuration may change as applications move through phases, new
applications enter the system, or old applications exit" (§II).  This
example runs a phase-shifting workload — compute-leaning at first, flipped
to memory-heavy by mid-run arrivals — and shows that the adaptive modes
track the shift while a static configuration cannot.

Run:  python examples/dynamic_system.py [work_scale]
"""

from __future__ import annotations

import sys

from repro import (
    REGISTRY,
    CFSScheduler,
    DIOScheduler,
    fairness,
    run_workload,
    speedup,
)
from repro.util.tables import format_table
from repro.traffic import phased_workload


def main() -> None:
    work_scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.3
    wl = phased_workload()
    timetable = ", ".join(f"{a}@{t:.0f}s" for a, t in wl.entries)
    print(f"Open-system workload: {timetable}\n(times at work_scale=1; scaled)\n")

    policies = {
        "cfs": CFSScheduler,
        "dio": DIOScheduler,
        "dike": REGISTRY.factory("dike"),
        "dike-af": REGISTRY.factory("dike-af"),
        "dike-ap": REGISTRY.factory("dike-ap"),
    }
    results = {
        name: run_workload(wl, factory(), work_scale=work_scale)
        for name, factory in policies.items()
    }
    base = results["cfs"]

    rows = []
    for name, res in results.items():
        history = res.info.get("config_history", ())
        rows.append(
            [
                name,
                fairness(res),
                speedup(res, base),
                res.swap_count,
                len(history) - 1 if history else 0,
            ]
        )
    print(
        format_table(
            ["policy", "fairness", "speedup vs CFS", "swaps", "re-tunes"],
            rows,
            title="Phase-shifting workload: static vs adaptive scheduling",
        )
    )
    print(
        "\nReading: when the workload's class flips mid-run, the statically-"
        "configured schedulers are tuned for at most one phase; the "
        "Optimizer re-tunes <swapSize, quantaLength> as arrivals shift the "
        "balance ('re-tunes' counts Algorithm 2 steps taken)."
    )


if __name__ == "__main__":
    main()
