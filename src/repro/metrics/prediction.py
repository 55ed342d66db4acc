"""Prediction-accuracy metrics for Dike's closed-loop model (Figures 7/8).

The paper defines prediction error as the relative difference between the
predicted and actual memory access rate of a swapped thread one quantum
after the prediction; positive = overestimate.  Figure 7 reports the
min/avg/max per workload, Figure 8 the error's time series.
"""

from __future__ import annotations

import numpy as np

from repro.sim.results import PredictionColumns, RunResult

__all__ = [
    "prediction_errors",
    "error_summary",
    "error_series",
]


def prediction_errors(result: RunResult, min_threads: int = 10) -> np.ndarray:
    """Per-quantum relative prediction error.

    The paper's error is "the average difference between predicted and
    actual memory access of the running threads", evaluated each quantum:
    the aggregate signed difference across threads normalised by the
    aggregate actual access — i.e. how far off, relatively, the scheduler's
    picture of the quantum's memory traffic was.  (Normalising each thread
    separately would let a thread whose burst just ended register a
    +900 % error against a near-zero denominator, which no scheduler
    decision actually depends on.)  Figure 7 reports the min/avg/max of
    this per-quantum series over the run; Figure 8 plots the series.

    ``min_threads`` drops quanta with too few running threads (the tail of
    a run, where one departing thread swings the aggregate arbitrarily —
    the paper observes the same post-completion fluctuation in Figure 8).
    """
    _, quanta, diffs, actuals = _valid(result.predictions)
    # Keyed sums in record order: np.bincount accumulates its weights in
    # input order, as the row-by-row dict sums did.
    keys, slot = np.unique(quanta, return_inverse=True)
    diff = np.bincount(slot, weights=diffs, minlength=keys.size)
    actual = np.bincount(slot, weights=actuals, minlength=keys.size)
    count = np.bincount(slot, minlength=keys.size)
    keep = (actual > 0.0) & (count >= min_threads)
    return diff[keep] / actual[keep]


def error_summary(result: RunResult, min_threads: int = 10) -> dict[str, float]:
    """Figure 7's per-workload statistics: min / mean / max (and count)."""
    errors = prediction_errors(result, min_threads=min_threads)
    if errors.size == 0:
        nan = float("nan")
        return {"min": nan, "mean": nan, "max": nan, "n": 0}
    return {
        "min": float(errors.min()),
        "mean": float(errors.mean()),
        "max": float(errors.max()),
        "n": int(errors.size),
    }


def error_series(
    result: RunResult, bucket_s: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Figure 8's time series: aggregate-relative error per time bucket.

    Returns ``(bucket_start_times, error)`` with NaN for empty buckets;
    the error definition matches :func:`prediction_errors`.
    """
    times, _, diffs, actuals = _valid(result.predictions)
    if not times.size:
        return np.zeros(0), np.zeros(0)
    t_end = times.max() + bucket_s
    edges = np.arange(0.0, t_end + bucket_s, bucket_s)
    idx = np.clip(np.digitize(times, edges) - 1, 0, len(edges) - 2)
    out = np.full(len(edges) - 1, np.nan)
    # NumPy's own (pairwise) sum per bucket, over the bucket's records in
    # record order: the sums Figure 8 has always been drawn from.
    for b in np.unique(idx):
        sel = idx == b
        denom = actuals[sel].sum()
        if denom > 0:
            out[b] = diffs[sel].sum() / denom
    return edges[:-1], out


def _valid(
    preds: PredictionColumns,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(time_s, quantum_index, predicted - actual, actual)`` of the
    records that can be scored: a positive actual rate and a finite
    prediction."""
    valid = (preds.actual_rate > 0.0) & np.isfinite(preds.predicted_rate)
    actual = preds.actual_rate[valid]
    return (
        preds.time_s[valid],
        preds.quantum_index[valid],
        preds.predicted_rate[valid] - actual,
        actual,
    )
