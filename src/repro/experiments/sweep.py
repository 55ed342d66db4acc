"""Configuration-space sweeps over Dike's 32 ⟨swapSize, quantaLength⟩ points.

Figures 2, 4 and 5 all consume the same raw data: fairness and performance
of every configuration on a set of workloads.  This module submits the
sweep through the campaign API — one CFS baseline task (shared, via the
campaign cache, with every other experiment that baselines the same
workload, e.g. Figure 1 and Figure 6) plus one non-adaptive Dike task per
grid point — and assembles the dense grids from the gathered results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.campaign.core import Campaign
from repro.core.config import QUANTA_CHOICES_S, SWAP_SIZE_CHOICES
from repro.metrics.fairness import fairness
from repro.metrics.performance import speedup
from repro.spec import ExperimentSpec, SimParams
from repro.util.rng import DEFAULT_SEED
from repro.workloads.suite import WorkloadSpec

__all__ = ["ConfigSweepResult", "sweep_configurations"]


@dataclass(frozen=True)
class ConfigSweepResult:
    """Dense fairness/performance grids over the configuration space.

    ``fairness_grid[i, j]`` / ``speedup_grid[i, j]`` correspond to
    ``quanta_choices[i]`` and ``swap_choices[j]``; speedups are relative to
    the workload's CFS baseline.
    """

    workload: str
    workload_class: str
    quanta_choices: tuple[float, ...]
    swap_choices: tuple[int, ...]
    fairness_grid: np.ndarray
    speedup_grid: np.ndarray
    swap_count_grid: np.ndarray

    def best_config(self, metric: str = "fairness") -> tuple[int, float, float]:
        """(swapSize, quantaLength, value) of the best configuration."""
        grid = self._grid(metric)
        i, j = np.unravel_index(np.nanargmax(grid), grid.shape)
        return (
            self.swap_choices[j],
            self.quanta_choices[i],
            float(grid[i, j]),
        )

    def worst_config(self, metric: str = "fairness") -> tuple[int, float, float]:
        """(swapSize, quantaLength, value) of the worst configuration."""
        grid = self._grid(metric)
        i, j = np.unravel_index(np.nanargmin(grid), grid.shape)
        return (
            self.swap_choices[j],
            self.quanta_choices[i],
            float(grid[i, j]),
        )

    def value_at(self, swap_size: int, quanta_s: float, metric: str = "fairness") -> float:
        grid = self._grid(metric)
        i = self.quanta_choices.index(quanta_s)
        j = self.swap_choices.index(swap_size)
        return float(grid[i, j])

    def normalized(self, metric: str = "fairness") -> np.ndarray:
        """Grid normalised to its best configuration (Figure 4's scaling)."""
        grid = self._grid(metric)
        best = np.nanmax(grid)
        if not np.isfinite(best) or best <= 0:
            return np.full_like(grid, np.nan)
        return grid / best

    def _grid(self, metric: str) -> np.ndarray:
        if metric == "fairness":
            return self.fairness_grid
        if metric in ("performance", "speedup"):
            return self.speedup_grid
        if metric == "swaps":
            return self.swap_count_grid
        raise ValueError(f"unknown metric {metric!r}")


def sweep_configurations(
    spec: WorkloadSpec,
    seed: int = DEFAULT_SEED,
    work_scale: float = 1.0,
    quanta_choices: tuple[float, ...] = QUANTA_CHOICES_S,
    swap_choices: tuple[int, ...] = SWAP_SIZE_CHOICES,
    campaign: Campaign | None = None,
) -> ConfigSweepResult:
    """Run non-adaptive Dike at every configuration of one workload."""
    camp = campaign or Campaign.inline()
    sim = SimParams(work_scale=work_scale)
    tasks = [ExperimentSpec.for_workload(spec, "cfs", seed, sim=sim)]
    grid_points = [(q, s) for q in quanta_choices for s in swap_choices]
    tasks += [
        ExperimentSpec.for_workload(
            spec, "dike", seed,
            {"quanta_length_s": q, "swap_size": s}, sim=sim,
        )
        for q, s in grid_points
    ]
    baseline, *runs = camp.gather(tasks)
    nq, ns = len(quanta_choices), len(swap_choices)
    fair = np.full((nq, ns), np.nan)
    perf = np.full((nq, ns), np.nan)
    swaps = np.full((nq, ns), np.nan)
    for (q, s), result in zip(grid_points, runs):
        i, j = quanta_choices.index(q), swap_choices.index(s)
        fair[i, j] = fairness(result)
        perf[i, j] = speedup(result, baseline)
        swaps[i, j] = result.swap_count
    return ConfigSweepResult(
        workload=spec.name,
        workload_class=spec.workload_class,
        quanta_choices=tuple(quanta_choices),
        swap_choices=tuple(swap_choices),
        fairness_grid=fair,
        speedup_grid=perf,
        swap_count_grid=swaps,
    )
