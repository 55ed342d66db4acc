"""Figure 8 — prediction error of selected workloads over time.

The error's time series for wl6 and wl11, annotated with benchmark
completion times.  Paper observations this reproduces: spikes coincide
with phase changes (sudden shifts in memory access rate, more likely in
compute-intensive threads) and with benchmark completions (freed bandwidth
changes the environment), while the error stays bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.campaign.core import Campaign
from repro.metrics.prediction import error_series
from repro.spec import ExperimentSpec, SimParams
from repro.util.rng import DEFAULT_SEED
from repro.util.tables import format_series
from repro.workloads.suite import workload

__all__ = ["Fig8Series", "Fig8Result", "run_fig8"]

DEFAULT_WORKLOADS: tuple[str, ...] = ("wl6", "wl11")


@dataclass(frozen=True)
class Fig8Series:
    workload: str
    times: np.ndarray
    errors: np.ndarray
    #: benchmark -> completion time (the dotted lines of the figure)
    completions: dict[str, float]

    def max_abs_error(self) -> float:
        finite = self.errors[np.isfinite(self.errors)]
        return float(np.abs(finite).max()) if finite.size else float("nan")

    def error_near_completions(self, window_s: float = 5.0) -> float:
        """Mean |error| within ``window_s`` after any benchmark completion —
        quantifying the paper's 'spikes after dotted lines' observation."""
        mask = np.zeros_like(self.times, dtype=bool)
        for t_done in self.completions.values():
            mask |= (self.times >= t_done) & (self.times <= t_done + window_s)
        sel = self.errors[mask]
        sel = sel[np.isfinite(sel)]
        return float(np.abs(sel).mean()) if sel.size else float("nan")


@dataclass(frozen=True)
class Fig8Result:
    series: tuple[Fig8Series, ...]

    def render(self) -> str:
        blocks: list[str] = []
        for s in self.series:
            completions = ", ".join(
                f"{b}@{t:.0f}s" for b, t in sorted(s.completions.items(), key=lambda kv: kv[1])
            )
            blocks.append(
                format_series(
                    s.times,
                    s.errors,
                    title=(
                        f"Figure 8: prediction error over time, {s.workload} "
                        f"(completions: {completions})"
                    ),
                )
            )
        return "\n\n".join(blocks)


def run_fig8(
    workloads: tuple[str, ...] = DEFAULT_WORKLOADS,
    seed: int = DEFAULT_SEED,
    work_scale: float = 1.0,
    bucket_s: float = 1.0,
    campaign: Campaign | None = None,
) -> Fig8Result:
    """Regenerate Figure 8's error-over-time series.

    The series is derived from the run's prediction records (which every
    Dike run keeps), not the per-quantum trace, so these tasks are plain
    cacheable campaign runs — cache keys shared with Figure 7's.
    """
    camp = campaign or Campaign.inline()
    sim = SimParams(work_scale=work_scale)
    results = camp.gather(
        [
            ExperimentSpec.for_workload(workload(w), "dike", seed, sim=sim)
            for w in workloads
        ]
    )
    series: list[Fig8Series] = []
    for wl_name, result in zip(workloads, results):
        times, errors = error_series(result, bucket_s=bucket_s)
        series.append(
            Fig8Series(
                workload=wl_name,
                times=times,
                errors=errors,
                completions=result.benchmark_finish_times(),
            )
        )
    return Fig8Result(series=tuple(series))
