"""Figure 6 — the paper's headline evaluation.

(a) Fairness improvement of DIO, Dike, Dike-AF, Dike-AP over the Linux
    CFS baseline, per workload plus average and geometric mean.
(b) Speedup of each policy over CFS, per workload plus aggregate.

Expected shape (paper): fairness Dike-AF > Dike > DIO ≫ baseline with
Dike-AP not hurting fairness; performance Dike-AP > Dike > DIO > baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.campaign.core import Campaign
from repro.policies import REGISTRY
from repro.metrics.fairness import fairness
from repro.metrics.performance import speedup
from repro.sim.results import RunResult
from repro.spec import ExperimentSpec, SimParams
from repro.util.rng import DEFAULT_SEED
from repro.util.stats import geometric_mean
from repro.util.tables import format_table
from repro.workloads.suite import all_workloads

__all__ = ["Fig6Row", "Fig6Result", "run_fig6", "POLICY_ORDER"]

POLICY_ORDER: tuple[str, ...] = ("dio", "dike", "dike-af", "dike-ap")

#: The five standard policies, in registry (figure) order.
_STANDARD: tuple[str, ...] = tuple(s.name for s in REGISTRY.tagged("standard"))


@dataclass(frozen=True)
class Fig6Row:
    workload: str
    workload_class: str
    baseline_fairness: float
    #: policy -> absolute fairness
    fairness: dict[str, float]
    #: policy -> speedup over CFS
    speedup: dict[str, float]
    #: policy -> swap count (feeds Table III)
    swaps: dict[str, int]

    def fairness_improvement(self, policy: str) -> float:
        """Relative fairness improvement over the baseline (Figure 6a)."""
        f0 = self.baseline_fairness
        return (self.fairness[policy] - f0) / f0 if f0 else float("nan")


@dataclass(frozen=True)
class Fig6Result:
    rows: tuple[Fig6Row, ...]
    #: policy -> raw results keyed by workload (for downstream tables)
    results: dict[str, dict[str, RunResult]]

    def mean_fairness_improvement(self, policy: str) -> float:
        return float(np.mean([r.fairness_improvement(policy) for r in self.rows]))

    def geomean_fairness_ratio(self, policy: str) -> float:
        return geometric_mean(
            [r.fairness[policy] / r.baseline_fairness for r in self.rows]
        )

    def geomean_speedup(self, policy: str) -> float:
        return geometric_mean([r.speedup[policy] for r in self.rows])

    def render(self) -> str:
        headers = ["workload", "class"] + [
            f"{p} {suffix}"
            for p in POLICY_ORDER
            for suffix in ("dF%", "S")
        ]
        table_rows = []
        for r in self.rows:
            cells: list[object] = [r.workload, r.workload_class]
            for p in POLICY_ORDER:
                cells.append(100.0 * r.fairness_improvement(p))
                cells.append(r.speedup[p])
            table_rows.append(cells)
        agg: list[object] = ["geomean", "-"]
        for p in POLICY_ORDER:
            agg.append(100.0 * (self.geomean_fairness_ratio(p) - 1.0))
            agg.append(self.geomean_speedup(p))
        table_rows.append(agg)
        return format_table(
            headers,
            table_rows,
            floatfmt=".2f",
            title=(
                "Figure 6: fairness improvement (dF%, over CFS) and speedup "
                "(S, over CFS) per policy"
            ),
        )


def run_fig6(
    seed: int = DEFAULT_SEED,
    work_scale: float = 1.0,
    workload_names: tuple[str, ...] | None = None,
    seeds: tuple[int, ...] | None = None,
    campaign: Campaign | None = None,
) -> Fig6Result:
    """Regenerate Figure 6 (and the raw data behind Table III).

    With ``seeds`` the per-workload metrics are means over several seeded
    runs (baselines are paired per seed); ``results`` then holds the last
    seed's raw runs.  Without it, a single run per cell at ``seed``.

    The whole policy × workload × seed grid is submitted as one campaign
    batch, so a parallel campaign runs every cell concurrently and a
    cached one skips finished cells entirely.
    """
    camp = campaign or Campaign.inline()
    specs = all_workloads()
    if workload_names is not None:
        specs = [s for s in specs if s.name in workload_names]
    seed_list = tuple(seeds) if seeds else (seed,)
    sim = SimParams(work_scale=work_scale)
    cells = [
        (spec, s, policy)
        for spec in specs
        for s in seed_list
        for policy in _STANDARD
    ]
    gathered = camp.gather(
        [ExperimentSpec.for_workload(spec, policy, s, sim=sim) for spec, s, policy in cells]
    )
    by_cell: dict[tuple[str, int, str], RunResult] = {
        (spec.name, s, policy): res
        for (spec, s, policy), res in zip(cells, gathered)
    }
    rows: list[Fig6Row] = []
    results: dict[str, dict[str, RunResult]] = {p: {} for p in _STANDARD}
    for spec in specs:
        acc_fair: dict[str, list[float]] = {p: [] for p in POLICY_ORDER}
        acc_speed: dict[str, list[float]] = {p: [] for p in POLICY_ORDER}
        acc_swaps: dict[str, list[int]] = {p: [] for p in POLICY_ORDER}
        base_fair: list[float] = []
        for s in seed_list:
            by_policy = {
                p: by_cell[(spec.name, s, p)] for p in _STANDARD
            }
            base = by_policy["cfs"]
            base_fair.append(fairness(base))
            for p in POLICY_ORDER:
                acc_fair[p].append(fairness(by_policy[p]))
                acc_speed[p].append(speedup(by_policy[p], base))
                acc_swaps[p].append(by_policy[p].swap_count)
            for p, res in by_policy.items():
                results[p][spec.name] = res
        rows.append(
            Fig6Row(
                workload=spec.name,
                workload_class=spec.workload_class,
                baseline_fairness=float(np.mean(base_fair)),
                fairness={p: float(np.mean(acc_fair[p])) for p in POLICY_ORDER},
                speedup={p: float(np.mean(acc_speed[p])) for p in POLICY_ORDER},
                swaps={p: int(np.mean(acc_swaps[p])) for p in POLICY_ORDER},
            )
        )
    return Fig6Result(rows=tuple(rows), results=results)
