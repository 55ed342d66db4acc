"""Tests for migration model, trace recorder and run results."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.sim.migration import MigrationModel
from repro.sim.results import (
    NO_PREDICTIONS,
    BenchmarkResult,
    PredictionColumns,
    PredictionRecord,
    RunResult,
)
from repro.sim.trace import SwapEvent, TraceRecorder


class TestMigrationModel:
    def test_defaults_valid(self):
        m = MigrationModel()
        assert m.swap_overhead_s > 0
        assert m.warmup_work > 0
        assert m.warmup_miss_scale > 1.0

    def test_scaled(self):
        m = MigrationModel(swap_overhead_s=0.01, warmup_work=1e8, warmup_miss_scale=1.5)
        half = m.scaled(0.5)
        assert half.swap_overhead_s == pytest.approx(0.005)
        assert half.warmup_work == pytest.approx(5e7)
        assert half.warmup_miss_scale == pytest.approx(1.25)

    def test_scaled_zero_is_free(self):
        free = MigrationModel().scaled(0.0)
        assert free.swap_overhead_s == 0.0
        assert free.warmup_miss_scale == pytest.approx(1.0)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            MigrationModel(swap_overhead_s=-1.0)
        with pytest.raises(ValueError):
            MigrationModel().scaled(-1.0)


class TestTraceRecorder:
    def test_quantum_recording(self):
        tr = TraceRecorder()
        tr.record_quantum(0.5, 0.5, 0.7, {1: 1e6}, {1: 0})
        tr.record_quantum(1.0, 0.5, 0.8, {1: 2e6}, {1: 3})
        assert tr.n_quanta_recorded == 2
        t, v = tr.access_rate_series(1)
        assert np.allclose(t, [0.5, 1.0])
        assert np.allclose(v, [1e6, 2e6])

    def test_missing_thread_is_nan(self):
        tr = TraceRecorder()
        tr.record_quantum(0.5, 0.5, 0.1, {1: 1e6}, {1: 0})
        _, v = tr.access_rate_series(42)
        assert math.isnan(v[0])

    def test_disabled_timeseries_skips_quanta_but_keeps_swaps(self):
        tr = TraceRecorder(record_timeseries=False)
        tr.record_quantum(0.5, 0.5, 0.1, {}, {})
        tr.record_swap(SwapEvent(0.5, 0, 1, 2, 3, 4))
        assert tr.n_quanta_recorded == 0
        assert tr.n_swaps == 1

    def test_max_quanta_keeps_last_window(self):
        tr = TraceRecorder(max_quanta=3)
        for q in range(6):
            t = 0.5 * (q + 1)
            tr.record_quantum(t, 0.5, 0.1, {1: float(q)}, {1: q})
        assert tr.n_quanta_recorded == 3
        t, v = tr.access_rate_series(1)
        assert np.allclose(t, [2.0, 2.5, 3.0])  # the *last* three quanta
        assert np.allclose(v, [3.0, 4.0, 5.0])
        assert list(tr.assignments)[-1] == {1: 5}

    def test_max_quanta_keeps_all_swaps(self):
        tr = TraceRecorder(max_quanta=1)
        for q in range(4):
            tr.record_swap(SwapEvent(0.5 * (q + 1), q, 1, 2, 0, 1))
        assert tr.n_swaps == 4

    def test_max_quanta_validation(self):
        with pytest.raises(ValueError):
            TraceRecorder(max_quanta=0)
        TraceRecorder(max_quanta=1)  # boundary is legal

    def test_swaps_per_quantum_histogram(self):
        tr = TraceRecorder()
        tr.record_swap(SwapEvent(0.5, 0, 1, 2, 0, 1))
        tr.record_swap(SwapEvent(0.5, 0, 3, 4, 2, 3))
        tr.record_swap(SwapEvent(1.0, 2, 1, 3, 1, 2))
        hist = tr.swaps_per_quantum(4)
        assert list(hist) == [2, 0, 1, 0]


class TestResults:
    def _result(self) -> RunResult:
        return RunResult(
            workload_name="w",
            policy_name="p",
            seed=0,
            makespan_s=10.0,
            n_quanta=20,
            benchmarks=(
                BenchmarkResult(0, "a", (1.0, 2.0), 4),
                BenchmarkResult(1, "b", (9.0, 10.0), 0),
            ),
            swap_count=2,
            migration_count=4,
        )

    def test_benchmark_named(self):
        r = self._result()
        assert r.benchmark_named("a").group_id == 0
        with pytest.raises(KeyError):
            r.benchmark_named("zzz")

    def test_benchmark_finish_times_filter(self):
        r = self._result()
        assert r.benchmark_finish_times() == {"a": 2.0, "b": 10.0}
        assert r.benchmark_finish_times(include=("a",)) == {"a": 2.0}

    def test_benchmark_result_properties(self):
        b = BenchmarkResult(0, "a", (1.0, 3.0), 2)
        assert b.finish_time == 3.0
        assert b.mean_thread_time == pytest.approx(2.0)

    def test_prediction_record_error(self):
        rec = PredictionRecord(1.0, 2, 0, predicted_rate=1.1e6, actual_rate=1e6)
        assert rec.relative_error == pytest.approx(0.1)

    def test_prediction_record_zero_actual_nan(self):
        rec = PredictionRecord(1.0, 2, 0, predicted_rate=1e6, actual_rate=0.0)
        assert math.isnan(rec.relative_error)


def _records(n: int) -> list[PredictionRecord]:
    return [
        PredictionRecord(0.5 * (i // 3), i // 3, i % 3, 1e6 + i, 2e6 - i)
        for i in range(n)
    ]


def _with(predictions) -> RunResult:
    return RunResult(
        workload_name="w",
        policy_name="dike",
        seed=0,
        makespan_s=10.0,
        n_quanta=20,
        benchmarks=(BenchmarkResult(0, "a", (1.0, 2.0), 4),),
        swap_count=2,
        migration_count=4,
        predictions=predictions,
    )


class TestPredictionColumns:
    """``RunResult.predictions`` is a lazy record view over five columns."""

    def test_record_sequences_are_converted_once(self):
        rows = _records(30)
        for given in (tuple(rows), rows, iter(rows)):
            preds = _with(given).predictions
            assert isinstance(preds, PredictionColumns)
            assert preds == rows
        columns = PredictionColumns.from_rows(rows)
        assert _with(columns).predictions is columns

    def test_default_and_empty_are_the_shared_empty_set(self):
        assert _with(()).predictions is NO_PREDICTIONS
        assert RunResult("w", "p", 0, 1.0, 1, (), 0, 0).predictions is NO_PREDICTIONS
        assert NO_PREDICTIONS == ()
        assert NO_PREDICTIONS == []
        assert len(NO_PREDICTIONS) == 0 and list(NO_PREDICTIONS) == []
        assert not NO_PREDICTIONS.tid.flags.writeable

    def test_column_dtypes(self):
        preds = _with(_records(5)).predictions
        assert preds.quantum_index.dtype == np.int64
        assert preds.tid.dtype == np.int64
        for column in (preds.time_s, preds.predicted_rate, preds.actual_rate):
            assert column.dtype == np.float64

    def test_rows_index_slice_and_iterate(self):
        rows = _records(50)
        preds = _with(tuple(rows)).predictions
        assert len(preds) == 50
        assert preds[0] == rows[0] and preds[-1] == rows[-1]
        assert repr(preds[7]) == repr(rows[7])
        assert type(preds[np.int64(3)].tid) is int
        head = preds[:20]
        assert isinstance(head, PredictionColumns)
        assert list(head) == rows[:20]
        assert head == rows[:20] and head != rows[:19]
        assert list(preds[::-7]) == rows[::-7]
        assert [repr(r) for r in preds] == [repr(r) for r in rows]
        with pytest.raises(IndexError):
            preds[50]

    def test_equality(self):
        rows = _records(10)
        preds = _with(rows).predictions
        assert preds == PredictionColumns.from_rows(rows)
        assert preds == tuple(rows)
        assert preds != ()
        assert preds != rows[:-1] + [PredictionRecord(9.9, 3, 0, 1e6, 2e6)]
        assert preds != "not records"
        nan = PredictionRecord(1.0, 1, 1, float("nan"), 1.0)
        assert _with([nan]).predictions == [nan]

    def test_run_results_compare_by_prediction_columns(self):
        assert _with(_records(4)) == _with(tuple(_records(4)))
        assert _with(_records(4)) != _with(_records(3))
