"""Tests for run-result serialization."""

from __future__ import annotations

import json
import math

import pytest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dike import DikeScheduler
from repro.experiments.runner import run_workload
from repro.experiments.serialization import (
    SCHEMA_VERSION,
    run_result_from_dict,
    run_result_from_json,
    run_result_to_dict,
    run_result_to_full_dict,
    run_result_to_full_json,
    run_result_to_json,
    sweep_result_from_json,
    sweep_result_to_json,
)
from repro.experiments.sweep import sweep_configurations
from repro.schedulers.static import StaticScheduler
from repro.sim.results import (
    NO_PREDICTIONS,
    BenchmarkResult,
    PredictionColumns,
    PredictionRecord,
    RunResult,
)
from repro.workloads.suite import WorkloadSpec

SMALL = WorkloadSpec(
    name="small",
    apps=("jacobi", "srad"),
    include_kmeans=False,
    threads_per_app=2,
)


@pytest.fixture(scope="module")
def result():
    return run_workload(SMALL, DikeScheduler(), work_scale=0.02)


class TestToDict:
    def test_core_fields(self, result):
        d = run_result_to_dict(result)
        assert d["workload"] == "small"
        assert d["policy"] == "dike"
        assert d["n_quanta"] == result.n_quanta
        assert d["swap_count"] == result.swap_count

    def test_benchmarks_flattened(self, result):
        d = run_result_to_dict(result)
        assert len(d["benchmarks"]) == 2
        for b in d["benchmarks"]:
            assert isinstance(b["runtime_s"], float)
            assert len(b["thread_finish_times"]) == 2

    def test_metrics_included_by_default(self, result):
        d = run_result_to_dict(result)
        assert 0.0 < d["metrics"]["fairness"] <= 1.0
        assert set(d["metrics"]["benchmark_cv"]) == {"jacobi", "srad"}

    def test_metrics_can_be_skipped(self, result):
        d = run_result_to_dict(result, include_metrics=False)
        assert "metrics" not in d

    def test_nan_becomes_none(self):
        truncated = run_workload(
            SMALL, StaticScheduler(), work_scale=1.0, max_time_s=0.5
        )
        d = run_result_to_dict(truncated)
        flat = json.dumps(d)  # must not raise and must not contain NaN
        assert "NaN" not in flat
        assert d["metrics"]["fairness"] is None


class TestToJson:
    def test_round_trip(self, result):
        text = run_result_to_json(result)
        d = json.loads(text)
        assert d["workload"] == "small"

    def test_stable_ordering(self, result):
        assert run_result_to_json(result) == run_result_to_json(result)

    def test_info_tuples_become_lists(self, result):
        d = json.loads(run_result_to_json(result))
        assert isinstance(d["info"]["config_history"], list)


class TestFullRoundTrip:
    """The lossless wire format of the campaign result cache."""

    def test_round_trip_is_byte_identical(self, result):
        text = run_result_to_full_json(result)
        assert run_result_to_full_json(run_result_from_json(text)) == text

    def test_round_trip_preserves_every_field(self, result):
        back = run_result_from_json(run_result_to_full_json(result))
        assert back.workload_name == result.workload_name
        assert back.policy_name == result.policy_name
        assert back.seed == result.seed
        assert back.makespan_s == result.makespan_s
        assert back.n_quanta == result.n_quanta
        assert back.swap_count == result.swap_count
        assert back.migration_count == result.migration_count
        assert back.benchmarks == result.benchmarks
        assert back.predictions == result.predictions
        assert back.info == result.info

    def test_trace_is_not_serialised(self):
        traced = run_workload(
            SMALL, DikeScheduler(), work_scale=0.02, record_timeseries=True
        )
        assert traced.trace is not None
        back = run_result_from_json(run_result_to_full_json(traced))
        assert back.trace is None

    def test_nan_round_trips_through_none(self):
        truncated = run_workload(
            SMALL, StaticScheduler(), work_scale=1.0, max_time_s=0.5
        )
        text = run_result_to_full_json(truncated)
        assert "NaN" not in text
        back = run_result_from_json(text)
        finish = [t for b in back.benchmarks for t in b.thread_finish_times]
        assert any(math.isnan(t) for t in finish)

    def test_schema_version_mismatch_is_rejected(self, result):
        stale = json.loads(run_result_to_full_json(result))
        stale["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema version"):
            run_result_from_json(json.dumps(stale))


class TestSweepRoundTrip:
    @pytest.fixture(scope="class")
    def sweep(self):
        return sweep_configurations(
            SMALL, work_scale=0.02, quanta_choices=(0.2, 0.5), swap_choices=(2, 4)
        )

    def test_round_trip_is_byte_identical(self, sweep):
        text = sweep_result_to_json(sweep)
        assert sweep_result_to_json(sweep_result_from_json(text)) == text

    def test_round_trip_preserves_grids_and_axes(self, sweep):
        back = sweep_result_from_json(sweep_result_to_json(sweep))
        assert back.workload == sweep.workload
        assert back.workload_class == sweep.workload_class
        assert back.quanta_choices == sweep.quanta_choices
        assert back.swap_choices == sweep.swap_choices
        np.testing.assert_array_equal(back.fairness_grid, sweep.fairness_grid)
        np.testing.assert_array_equal(back.speedup_grid, sweep.speedup_grid)
        np.testing.assert_array_equal(back.swap_count_grid, sweep.swap_count_grid)

    def test_schema_version_mismatch_is_rejected(self, sweep):
        stale = json.loads(sweep_result_to_json(sweep))
        stale["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema version"):
            sweep_result_from_json(json.dumps(stale))


# ---------------------------------------------------------------- columns
#
# The prediction block is encoded column by column.  The oracle below is
# the row-wise encoder it replaced, kept here so the stored form can be
# checked against it for any record set.


def _oracle_enc(value: float) -> float | None:
    v = float(value)
    return v if np.isfinite(v) else None


def _oracle_predictions_block(records) -> dict:
    return {
        "time_s": [_oracle_enc(p.time_s) for p in records],
        "quantum_index": [p.quantum_index for p in records],
        "tid": [p.tid for p in records],
        "predicted_rate": [_oracle_enc(p.predicted_rate) for p in records],
        "actual_rate": [_oracle_enc(p.actual_rate) for p in records],
    }


def _as_stored(records) -> list[PredictionRecord]:
    """The records a decode gives back: every non-finite float is NaN."""
    def f(v):
        return v if math.isfinite(v) else float("nan")

    return [
        PredictionRecord(
            f(r.time_s), r.quantum_index, r.tid,
            f(r.predicted_rate), f(r.actual_rate),
        )
        for r in records
    ]


def _run(records) -> RunResult:
    return RunResult(
        workload_name="w",
        policy_name="dike",
        seed=3,
        makespan_s=12.5,
        n_quanta=40,
        benchmarks=(BenchmarkResult(0, "a", (10.0, float("nan")), 1),),
        swap_count=4,
        migration_count=8,
        predictions=records,
    )


_SPECIAL = st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 5e-324]
)
_float = _SPECIAL | st.floats(allow_nan=False, allow_infinity=False)
_int64 = st.integers(-(2**63), 2**63 - 1)
_record = st.builds(PredictionRecord, _float, _int64, _int64, _float, _float)


def _random_records(n: int, seed: int) -> list[PredictionRecord]:
    rng = np.random.default_rng(seed)
    rates = rng.lognormal(14.0, 2.0, size=(2, n))
    rates[:, rng.integers(0, n, size=n // 50)] = float("nan")
    rates[0, rng.integers(0, n, size=n // 50)] = float("inf")
    rates[1, rng.integers(0, n, size=n // 50)] = 0.0
    return [
        PredictionRecord(0.5 * (i // 64), i // 64, i % 64, p, a)
        for i, (p, a) in enumerate(zip(rates[0].tolist(), rates[1].tolist()))
    ]


class TestPredictionColumnEncoding:
    @settings(max_examples=200, deadline=None)
    @given(records=st.lists(_record, max_size=40))
    def test_matches_row_wise_encoder(self, records):
        doc = run_result_to_full_dict(_run(records))
        want = _oracle_predictions_block(records)
        assert json.dumps(doc["predictions"]) == json.dumps(want)

    @settings(max_examples=100, deadline=None)
    @given(records=st.lists(_record, max_size=40))
    def test_decode_encode_round_trip(self, records):
        text = run_result_to_full_json(_run(records))
        back = run_result_from_json(text)
        assert back.predictions == _as_stored(records)
        assert run_result_to_full_json(back) == text

    @pytest.mark.parametrize("n", [1, 10_000])
    def test_matches_row_wise_encoder_at_size(self, n):
        records = _random_records(n, seed=n)
        doc = run_result_to_full_dict(_run(records))
        want = _oracle_predictions_block(records)
        assert json.dumps(doc["predictions"], allow_nan=False) == json.dumps(want)
        back = run_result_from_dict(json.loads(json.dumps(doc)))
        assert back.predictions == _as_stored(records)

    def test_empty_block_decodes_to_shared_instance(self):
        doc = run_result_to_full_dict(_run(()))
        assert doc["predictions"] == _oracle_predictions_block(())
        assert run_result_from_dict(doc).predictions is NO_PREDICTIONS

    def test_decoded_columns_have_column_dtypes(self, result):
        back = run_result_from_json(run_result_to_full_json(result))
        assert isinstance(back.predictions, PredictionColumns)
        assert back.predictions.tid.dtype == np.int64
        assert back.predictions.quantum_index.dtype == np.int64
        assert back.predictions.time_s.dtype == np.float64
        assert back.predictions.actual_rate.dtype == np.float64
