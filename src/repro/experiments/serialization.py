"""JSON-serialisable views of run results.

`RunResult` objects hold NumPy arrays and nested dataclasses; these
helpers flatten them into plain dict/list/float structures so experiment
outputs can be archived, diffed, or post-processed outside Python
(`json.dumps(run_result_to_dict(result))`).  Traces are summarised, not
dumped (a full per-quantum trace can be tens of MB — callers who need it
keep the live object).

Two flavours exist:

* **summary** (:func:`run_result_to_dict`) — human-oriented, includes
  derived metrics, drops raw prediction records; not invertible.
* **full** (:func:`run_result_to_full_dict` / :func:`run_result_from_dict`)
  — lossless modulo the trace, carries a ``schema_version`` field, and
  round-trips to a `RunResult` whose serialised form is byte-identical to
  the original's.  This is the wire format of the campaign result cache
  (`repro.campaign.store`); bump :data:`SCHEMA_VERSION` whenever the
  simulator or these structures change meaning, and every stale cache
  entry is automatically invalidated (the cache key hashes the version).
"""

from __future__ import annotations

import json
import math
from typing import Any, Sequence

import numpy as np

from repro.metrics.fairness import benchmark_cv, fairness
from repro.metrics.prediction import error_summary
from repro.sim.results import (
    NO_PREDICTIONS,
    PREDICTION_COLUMNS,
    BenchmarkResult,
    PredictionColumns,
    RunResult,
)

__all__ = [
    "SCHEMA_VERSION",
    "run_result_to_dict",
    "run_result_to_json",
    "run_result_to_full_dict",
    "run_result_to_full_json",
    "run_result_from_dict",
    "run_result_from_json",
    "sweep_result_to_dict",
    "sweep_result_to_json",
    "sweep_result_from_dict",
    "sweep_result_from_json",
]

#: Version of the full (round-trippable) result schema.  Incorporated into
#: campaign cache keys, so bumping it orphans — rather than corrupts —
#: every previously cached artifact.
SCHEMA_VERSION = 1


def _clean(value: Any) -> Any:
    """Make a scalar JSON-safe (NaN/inf become None)."""
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def run_result_to_dict(result: RunResult, include_metrics: bool = True) -> dict:
    """Flatten a run result (and optionally its derived metrics)."""
    out: dict[str, Any] = {
        "workload": result.workload_name,
        "policy": result.policy_name,
        "seed": result.seed,
        "makespan_s": _clean(result.makespan_s),
        "n_quanta": result.n_quanta,
        "swap_count": result.swap_count,
        "migration_count": result.migration_count,
        "benchmarks": [
            {
                "group_id": b.group_id,
                "benchmark": b.benchmark,
                "arrival_s": _clean(b.arrival_s),
                "runtime_s": _clean(b.runtime),
                "thread_finish_times": [_clean(t) for t in b.thread_finish_times],
                "n_migrations": b.n_migrations,
            }
            for b in result.benchmarks
        ],
        "info": {
            k: (list(v) if isinstance(v, tuple) else _clean(v))
            for k, v in result.info.items()
        },
        "n_predictions": len(result.predictions),
    }
    if include_metrics:
        out["metrics"] = {
            "fairness": _clean(fairness(result)),
            "benchmark_cv": {
                k: _clean(v) for k, v in benchmark_cv(result).items()
            },
            "prediction_error": {
                k: _clean(v) for k, v in error_summary(result).items()
            },
        }
    return out


def run_result_to_json(result: RunResult, **kwargs: Any) -> str:
    """JSON string of :func:`run_result_to_dict` (stable key order)."""
    return json.dumps(run_result_to_dict(result, **kwargs), sort_keys=True)


# --------------------------------------------------------------------------
# Full (lossless, schema-versioned) round trip — the campaign cache format.
# --------------------------------------------------------------------------

def _enc(value: float) -> float | None:
    """Encode one float: non-finite becomes None (strict-JSON safe)."""
    v = float(value)
    return v if math.isfinite(v) else None


def _dec(value: float | None) -> float:
    return float("nan") if value is None else float(value)


def _enc_seq(values: Sequence[float] | np.ndarray) -> list[float | None]:
    """Encode floats with one ``tolist()``; non-finite entries become None."""
    column = np.asarray(values, dtype=np.float64)
    out = column.tolist()
    for i in np.flatnonzero(~np.isfinite(column)).tolist():
        out[i] = None
    return out


def _dec_seq(values: list) -> np.ndarray:
    """Inverse of :func:`_enc_seq`: None becomes NaN."""
    return np.array(values, dtype=np.float64)


def _enc_predictions(preds: PredictionColumns) -> dict[str, list]:
    return {
        name: _enc_seq(column) if dtype is np.float64 else column.tolist()
        for (name, dtype), column in zip(
            PREDICTION_COLUMNS.items(), preds.columns()
        )
    }


def _dec_predictions(data: dict[str, list]) -> PredictionColumns:
    if not data["tid"]:
        return NO_PREDICTIONS
    return PredictionColumns(*(
        np.array(data[name], dtype=dtype)
        for name, dtype in PREDICTION_COLUMNS.items()
    ))


def _freeze(value: Any) -> Any:
    """Recursively turn JSON lists back into tuples (``info`` values)."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return {k: _freeze(v) for k, v in value.items()}
    return value


def run_result_to_full_dict(result: RunResult) -> dict:
    """Lossless dict of a run result (minus the trace, which is never
    serialised — rerun with ``record_timeseries=True`` if you need one)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "workload": result.workload_name,
        "policy": result.policy_name,
        "seed": result.seed,
        "makespan_s": _enc(result.makespan_s),
        "n_quanta": result.n_quanta,
        "swap_count": result.swap_count,
        "migration_count": result.migration_count,
        "benchmarks": [
            {
                "group_id": b.group_id,
                "benchmark": b.benchmark,
                "thread_finish_times": [_enc(t) for t in b.thread_finish_times],
                "n_migrations": b.n_migrations,
                "arrival_s": _enc(b.arrival_s),
            }
            for b in result.benchmarks
        ],
        # Columnar layout: thousands of records, five scalars each.
        "predictions": _enc_predictions(result.predictions),
        "info": {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in result.info.items()
        },
    }


def run_result_from_dict(data: dict) -> RunResult:
    """Inverse of :func:`run_result_to_full_dict`.

    Raises ``ValueError`` on a schema-version mismatch so callers (the
    cache) treat stale artifacts as misses instead of decoding garbage.
    """
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"result schema version {version!r} != expected {SCHEMA_VERSION}"
        )
    benchmarks = tuple(
        BenchmarkResult(
            group_id=int(b["group_id"]),
            benchmark=b["benchmark"],
            thread_finish_times=tuple(_dec_seq(b["thread_finish_times"]).tolist()),
            n_migrations=int(b["n_migrations"]),
            arrival_s=_dec(b["arrival_s"]),
        )
        for b in data["benchmarks"]
    )
    return RunResult(
        workload_name=data["workload"],
        policy_name=data["policy"],
        seed=int(data["seed"]),
        makespan_s=_dec(data["makespan_s"]),
        n_quanta=int(data["n_quanta"]),
        benchmarks=benchmarks,
        swap_count=int(data["swap_count"]),
        migration_count=int(data["migration_count"]),
        predictions=_dec_predictions(data["predictions"]),
        trace=None,
        info={k: _freeze(v) for k, v in data["info"].items()},
    )


def run_result_to_full_json(result: RunResult) -> str:
    """Strict-JSON string of the full dict (stable key order, no NaN)."""
    return json.dumps(
        run_result_to_full_dict(result), sort_keys=True, allow_nan=False
    )


def run_result_from_json(text: str) -> RunResult:
    return run_result_from_dict(json.loads(text))


def sweep_result_to_dict(sweep: "ConfigSweepResult") -> dict:
    """Lossless dict of a configuration-sweep result."""
    return {
        "schema_version": SCHEMA_VERSION,
        "workload": sweep.workload,
        "workload_class": sweep.workload_class,
        "quanta_choices": list(sweep.quanta_choices),
        "swap_choices": list(sweep.swap_choices),
        "fairness_grid": [_enc_seq(row) for row in sweep.fairness_grid],
        "speedup_grid": [_enc_seq(row) for row in sweep.speedup_grid],
        "swap_count_grid": [_enc_seq(row) for row in sweep.swap_count_grid],
    }


def sweep_result_from_dict(data: dict) -> "ConfigSweepResult":
    """Inverse of :func:`sweep_result_to_dict` (same version contract as
    :func:`run_result_from_dict`)."""
    from repro.experiments.sweep import ConfigSweepResult

    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"sweep schema version {version!r} != expected {SCHEMA_VERSION}"
        )

    return ConfigSweepResult(
        workload=data["workload"],
        workload_class=data["workload_class"],
        quanta_choices=tuple(float(q) for q in data["quanta_choices"]),
        swap_choices=tuple(int(s) for s in data["swap_choices"]),
        fairness_grid=_dec_seq(data["fairness_grid"]),
        speedup_grid=_dec_seq(data["speedup_grid"]),
        swap_count_grid=_dec_seq(data["swap_count_grid"]),
    )


def sweep_result_to_json(sweep: "ConfigSweepResult") -> str:
    return json.dumps(sweep_result_to_dict(sweep), sort_keys=True, allow_nan=False)


def sweep_result_from_json(text: str) -> "ConfigSweepResult":
    return sweep_result_from_dict(json.loads(text))
