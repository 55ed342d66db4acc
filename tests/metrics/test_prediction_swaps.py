"""Tests for prediction-error and swap metrics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.prediction import error_series, error_summary, prediction_errors
from repro.metrics.swaps import migration_overhead_fraction, swap_count, swap_rate
from repro.sim.results import BenchmarkResult, PredictionRecord, RunResult


def make_result(
    records: list[PredictionRecord],
    swaps: int = 0,
    migrations: int = 0,
) -> RunResult:
    return RunResult(
        workload_name="w",
        policy_name="p",
        seed=0,
        makespan_s=10.0,
        n_quanta=20,
        benchmarks=(BenchmarkResult(0, "a", (10.0, 10.0), migrations),),
        swap_count=swaps,
        migration_count=migrations,
        predictions=tuple(records),
    )


def rec(q: int, tid: int, pred: float, actual: float) -> PredictionRecord:
    return PredictionRecord(
        time_s=q * 0.5, quantum_index=q, tid=tid,
        predicted_rate=pred, actual_rate=actual,
    )


class TestPredictionErrors:
    def test_aggregate_relative_error_per_quantum(self):
        # quantum 0: predicted 110 vs actual 100 total -> +10%
        records = [rec(0, t, 11.0, 10.0) for t in range(10)]
        errors = prediction_errors(make_result(records), min_threads=1)
        assert errors.shape == (1,)
        assert errors[0] == pytest.approx(0.1)

    def test_min_threads_filters_sparse_quanta(self):
        records = [rec(0, t, 11.0, 10.0) for t in range(10)]
        records += [rec(1, 0, 50.0, 10.0)]  # 1-thread quantum
        errors = prediction_errors(make_result(records), min_threads=5)
        assert errors.shape == (1,)

    def test_offsetting_errors_cancel(self):
        records = [rec(0, t, 12.0, 10.0) for t in range(5)]
        records += [rec(0, 5 + t, 8.0, 10.0) for t in range(5)]
        errors = prediction_errors(make_result(records), min_threads=1)
        assert errors[0] == pytest.approx(0.0)

    def test_empty(self):
        assert prediction_errors(make_result([])).size == 0

    def test_summary_fields(self):
        records = [rec(q, t, 10.0 + q, 10.0) for q in range(3) for t in range(12)]
        s = error_summary(make_result(records))
        assert s["n"] == 3
        assert s["min"] == pytest.approx(0.0)
        assert s["max"] == pytest.approx(0.2)

    def test_summary_empty(self):
        s = error_summary(make_result([]))
        assert s["n"] == 0
        assert math.isnan(s["mean"])


class TestErrorSeries:
    def test_bucketing(self):
        records = [rec(0, t, 11.0, 10.0) for t in range(4)]
        records += [rec(4, t, 9.0, 10.0) for t in range(4)]  # time 2.0
        times, errors = error_series(make_result(records), bucket_s=1.0)
        assert errors[0] == pytest.approx(0.1)
        assert errors[2] == pytest.approx(-0.1)
        assert math.isnan(errors[1])

    def test_empty(self):
        t, e = error_series(make_result([]))
        assert t.size == 0 and e.size == 0


# Row-wise oracles: the record-loop forms the column metrics replaced.


def _oracle_prediction_errors(records, min_threads: int) -> np.ndarray:
    diff: dict[int, float] = {}
    actual: dict[int, float] = {}
    count: dict[int, int] = {}
    for r in records:
        if r.actual_rate > 0.0 and np.isfinite(r.predicted_rate):
            q = r.quantum_index
            diff[q] = diff.get(q, 0.0) + (r.predicted_rate - r.actual_rate)
            actual[q] = actual.get(q, 0.0) + r.actual_rate
            count[q] = count.get(q, 0) + 1
    quanta = [
        q for q in sorted(diff) if actual[q] > 0.0 and count[q] >= min_threads
    ]
    if not quanta:
        return np.zeros(0)
    return np.array([diff[q] / actual[q] for q in quanta], dtype=np.float64)


def _oracle_error_series(records, bucket_s: float):
    valid = [
        r for r in records if r.actual_rate > 0.0 and np.isfinite(r.predicted_rate)
    ]
    if not valid:
        return np.zeros(0), np.zeros(0)
    times = np.array([r.time_s for r in valid])
    diffs = np.array([r.predicted_rate - r.actual_rate for r in valid])
    actuals = np.array([r.actual_rate for r in valid])
    t_end = times.max() + bucket_s
    edges = np.arange(0.0, t_end + bucket_s, bucket_s)
    idx = np.clip(np.digitize(times, edges) - 1, 0, len(edges) - 2)
    out = np.full(len(edges) - 1, np.nan)
    for b in np.unique(idx):
        sel = idx == b
        denom = actuals[sel].sum()
        if denom > 0:
            out[b] = diffs[sel].sum() / denom
    return edges[:-1], out


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


_rate = st.sampled_from([0.0, -0.0, -1.0, float("nan"), float("inf")]) | st.floats(
    1e-3, 1e9
)
_record = st.builds(
    PredictionRecord,
    st.floats(0.0, 12.0),
    st.integers(0, 5),
    st.integers(0, 63),
    _rate,
    _rate,
)


# An infinite actual rate makes inf/inf = NaN in both forms; NumPy warns.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestColumnMetricsMatchRowOracle:
    """The column metrics give the row loops' results, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(records=st.lists(_record, max_size=80), min_threads=st.integers(1, 4))
    def test_prediction_errors(self, records, min_threads):
        got = prediction_errors(make_result(records), min_threads=min_threads)
        assert_same_bits(got, _oracle_prediction_errors(records, min_threads))

    @settings(max_examples=300, deadline=None)
    @given(
        records=st.lists(_record, max_size=80),
        bucket_s=st.sampled_from([0.25, 1.0, 2.5]),
    )
    def test_error_series(self, records, bucket_s):
        times, errors = error_series(make_result(records), bucket_s=bucket_s)
        want_times, want_errors = _oracle_error_series(records, bucket_s)
        assert_same_bits(times, want_times)
        assert_same_bits(errors, want_errors)

    def test_long_quanta_sum_in_record_order(self):
        # Many records per quantum, with magnitudes that make the float
        # sum order-sensitive: a pairwise or sorted sum differs in bits.
        rng = np.random.default_rng(5)
        records = [
            rec(i % 3, i, float(p), float(a))
            for i, (p, a) in enumerate(
                rng.lognormal(10.0, 4.0, size=(3000, 2)).tolist()
            )
        ]
        result = make_result(records)
        assert_same_bits(
            prediction_errors(result), _oracle_prediction_errors(records, 10)
        )
        times, errors = error_series(result, bucket_s=0.25)
        assert_same_bits(errors, _oracle_error_series(records, 0.25)[1])


class TestSwapMetrics:
    def test_swap_count(self):
        assert swap_count(make_result([], swaps=7)) == 7

    def test_swap_rate(self):
        assert swap_rate(make_result([], swaps=20)) == pytest.approx(2.0)

    def test_overhead_fraction(self):
        r = make_result([], swaps=5, migrations=10)
        # 10 migrations x 0.01s over 20s of thread time
        assert migration_overhead_fraction(r, 0.01) == pytest.approx(0.005)
