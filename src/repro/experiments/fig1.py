"""Figure 1 — performance variation of standalone vs concurrent execution.

The paper's motivating figure: each application's slowdown when run inside
a multi-application workload relative to running alone, on both the
homogeneous and the heterogeneous machine.  Application runtime is the
mean of its threads' completion times (per-application average
performance — the max would measure the placement of the single unluckiest
thread rather than the application's slowdown).  Headline data points from the
paper: jacobi degrades ~2.3x in wl2 while srad only ~1.25x; STREAM in wl15
slows 3.4x on the homogeneous machine but 4.6x on the heterogeneous one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign.core import Campaign
from repro.spec import ExperimentSpec, SimParams
from repro.util.rng import DEFAULT_SEED
from repro.util.tables import format_table
from repro.workloads.suite import WorkloadSpec, workload

__all__ = ["Fig1Row", "Fig1Result", "run_fig1"]

#: (workload, application) pairs highlighted by the figure.
DEFAULT_CASES: tuple[tuple[str, str], ...] = (
    ("wl2", "jacobi"),
    ("wl2", "srad"),
    ("wl6", "needle"),
    ("wl6", "heartwall"),
    ("wl15", "stream_omp"),
    ("wl15", "hotspot"),
)


@dataclass(frozen=True)
class Fig1Row:
    """Slowdowns of one application inside one workload."""

    workload: str
    benchmark: str
    standalone_s: float
    concurrent_homogeneous_s: float
    concurrent_heterogeneous_s: float

    @property
    def slowdown_homogeneous(self) -> float:
        return self.concurrent_homogeneous_s / self.standalone_s

    @property
    def slowdown_heterogeneous(self) -> float:
        return self.concurrent_heterogeneous_s / self.standalone_s


@dataclass(frozen=True)
class Fig1Result:
    rows: tuple[Fig1Row, ...]

    def render(self) -> str:
        return format_table(
            ["workload", "benchmark", "standalone(s)", "homog slowdown", "hetero slowdown"],
            [
                [
                    r.workload,
                    r.benchmark,
                    r.standalone_s,
                    r.slowdown_homogeneous,
                    r.slowdown_heterogeneous,
                ]
                for r in self.rows
            ],
            title="Figure 1: standalone vs concurrent performance variation",
        )


def _standalone(spec: WorkloadSpec, benchmark: str) -> WorkloadSpec:
    """The solo workload of `run_standalone`."""
    return WorkloadSpec(
        name=f"{spec.name}:{benchmark}:standalone",
        apps=(benchmark,),
        include_kmeans=False,
        threads_per_app=spec.threads_per_app,
    )


def run_fig1(
    cases: tuple[tuple[str, str], ...] = DEFAULT_CASES,
    seed: int = DEFAULT_SEED,
    work_scale: float = 1.0,
    campaign: Campaign | None = None,
) -> Fig1Result:
    """Regenerate Figure 1's slowdown comparison.

    Standalone runs pin the benchmark's threads to the fastest cores of the
    heterogeneous machine; concurrent runs execute the full workload under
    CFS on the homogeneous and heterogeneous machines.  All runs are
    campaign tasks, so the per-workload CFS runs are shared across cases
    (and, through a persistent cache, with Figure 6's baselines).
    """
    camp = campaign or Campaign.inline()
    sim_het = SimParams(work_scale=work_scale, topology="heterogeneous")
    sim_hom = SimParams(work_scale=work_scale, topology="homogeneous")
    tasks: list[ExperimentSpec] = []
    for wl_name, bench in cases:
        spec = workload(wl_name)
        tasks.append(ExperimentSpec.for_workload(spec, "cfs", seed, sim=sim_het))
        tasks.append(ExperimentSpec.for_workload(spec, "cfs", seed, sim=sim_hom))
        tasks.append(
            ExperimentSpec.for_workload(
                _standalone(spec, bench), "static", seed,
                {"fastest_first": True}, sim=sim_het,
            )
        )
    results = iter(camp.gather(tasks))
    rows: list[Fig1Row] = []
    for wl_name, bench in cases:
        het, hom, solo = next(results), next(results), next(results)
        rows.append(
            Fig1Row(
                workload=wl_name,
                benchmark=bench,
                standalone_s=solo.benchmark_named(bench).mean_thread_time,
                concurrent_homogeneous_s=hom.benchmark_named(bench).mean_thread_time,
                concurrent_heterogeneous_s=het.benchmark_named(bench).mean_thread_time,
            )
        )
    return Fig1Result(rows=tuple(rows))
