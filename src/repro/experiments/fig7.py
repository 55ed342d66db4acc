"""Figure 7 — Dike's prediction error per workload.

Min / average / max of the per-quantum relative prediction error over each
workload's run.  Paper shape: averages within a few percent, bounds within
roughly ±10 %, UM workloads easiest (steady streaming), UC hardest
(fluctuating compute bursts).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.campaign.core import Campaign
from repro.metrics.prediction import error_summary
from repro.spec import ExperimentSpec, SimParams
from repro.util.rng import DEFAULT_SEED
from repro.util.tables import format_table
from repro.workloads.suite import all_workloads

__all__ = ["Fig7Result", "run_fig7"]


@dataclass(frozen=True)
class Fig7Result:
    #: workload -> {"min", "mean", "max", "n"}
    summaries: dict[str, dict[str, float]]
    #: workload -> class
    classes: dict[str, str]

    def class_mean_abs_error(self, workload_class: str) -> float:
        """Mean |mean error| of a class."""
        vals = [
            abs(s["mean"])
            for w, s in self.summaries.items()
            if self.classes[w] == workload_class and np.isfinite(s["mean"])
        ]
        return float(np.mean(vals)) if vals else float("nan")

    def class_mean_spread(self, workload_class: str) -> float:
        """Mean (max - min) error spread of a class.

        The paper's "UM workloads are simpler to estimate" manifests as a
        narrower error band (steady streaming access), while UC's bursty
        compute threads widen it — spread, not mean bias, is the
        predictability signal.
        """
        vals = [
            s["max"] - s["min"]
            for w, s in self.summaries.items()
            if self.classes[w] == workload_class
            and np.isfinite(s["max"])
            and np.isfinite(s["min"])
        ]
        return float(np.mean(vals)) if vals else float("nan")

    def render(self) -> str:
        rows = [
            [w, self.classes[w], s["min"], s["mean"], s["max"], s["n"]]
            for w, s in self.summaries.items()
        ]
        return format_table(
            ["workload", "class", "min", "mean", "max", "quanta"],
            rows,
            title="Figure 7: prediction error of Dike per workload",
        )


def run_fig7(
    seed: int = DEFAULT_SEED,
    work_scale: float = 1.0,
    workload_names: tuple[str, ...] | None = None,
    campaign: Campaign | None = None,
) -> Fig7Result:
    """Regenerate Figure 7 by running Dike on every workload."""
    camp = campaign or Campaign.inline()
    specs = all_workloads()
    if workload_names is not None:
        specs = [s for s in specs if s.name in workload_names]
    sim = SimParams(work_scale=work_scale)
    results = camp.gather(
        [ExperimentSpec.for_workload(spec, "dike", seed, sim=sim) for spec in specs]
    )
    summaries: dict[str, dict[str, float]] = {}
    classes: dict[str, str] = {}
    for spec, result in zip(specs, results):
        summaries[spec.name] = error_summary(result)
        classes[spec.name] = spec.workload_class
    return Fig7Result(summaries=summaries, classes=classes)
