"""Run results: everything an experiment needs after a simulation finishes.

A :class:`RunResult` is a pure data object — metrics (`repro.metrics`) are
computed *from* it, never stored pre-baked, so one run can feed several
figures.  The only derived values kept here are conveniences that every
consumer wants (makespan, per-benchmark finish times).

Dike's prediction log is stored as columns (:class:`PredictionColumns`):
a large run carries tens of thousands of records, and the scheduler, the
result store and the Figure 7/8 metrics all work on the columns.  Code
that iterates still sees :class:`PredictionRecord` rows, built on demand.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.sim.trace import TraceRecorder

__all__ = [
    "BenchmarkResult",
    "NO_PREDICTIONS",
    "PredictionColumns",
    "PredictionRecord",
    "RunResult",
]


@dataclass(frozen=True)
class BenchmarkResult:
    """Outcome of one benchmark instance within a workload run."""

    group_id: int
    benchmark: str
    thread_finish_times: tuple[float, ...]
    n_migrations: int
    #: simulation time at which the instance entered the system
    arrival_s: float = 0.0

    @property
    def finish_time(self) -> float:
        """Absolute completion time of the slowest thread."""
        return max(self.thread_finish_times)

    @property
    def thread_runtimes(self) -> tuple[float, ...]:
        """Per-thread runtime (finish - arrival) — what Eqn. 4 disperses."""
        return tuple(t - self.arrival_s for t in self.thread_finish_times)

    @property
    def runtime(self) -> float:
        """The instance's runtime: slowest thread's finish minus arrival."""
        return self.finish_time - self.arrival_s

    @property
    def mean_thread_time(self) -> float:
        return float(np.mean(self.thread_runtimes))


@dataclass(frozen=True)
class PredictionRecord:
    """One closed-loop prediction and its later ground truth.

    The predictor estimates a thread's access rate for the next quantum at
    swap-decision time; the engine (via the scheduler) back-fills the
    observed value one quantum later.  ``relative_error`` follows the
    paper's convention: positive = overestimate, negative = underestimate.
    """

    time_s: float
    quantum_index: int
    tid: int
    predicted_rate: float
    actual_rate: float

    @property
    def relative_error(self) -> float:
        if self.actual_rate <= 0.0:
            return float("nan")
        return (self.predicted_rate - self.actual_rate) / self.actual_rate


#: Column names of :class:`PredictionColumns`, in :class:`PredictionRecord`
#: field order, with their dtypes.
PREDICTION_COLUMNS = {
    "time_s": np.float64,
    "quantum_index": np.int64,
    "tid": np.int64,
    "predicted_rate": np.float64,
    "actual_rate": np.float64,
}


class PredictionColumns(Sequence):
    """A run's prediction records as five parallel columns.

    ``quantum_index`` and ``tid`` are ``int64``; the rest are ``float64``.
    As a sequence it is a lazy view of :class:`PredictionRecord` rows:
    ``len()`` reads the column length, and indexing or iteration builds
    rows only when asked.  Two record sets are equal when their columns
    are, NaN equal to NaN (the stored form writes NaN as null and reads
    it back as NaN); a tuple or list of records compares by its columns
    too.
    """

    __slots__ = tuple(PREDICTION_COLUMNS)

    def __init__(
        self,
        time_s: np.ndarray,
        quantum_index: np.ndarray,
        tid: np.ndarray,
        predicted_rate: np.ndarray,
        actual_rate: np.ndarray,
    ) -> None:
        self.time_s = np.asarray(time_s, dtype=np.float64)
        self.quantum_index = np.asarray(quantum_index, dtype=np.int64)
        self.tid = np.asarray(tid, dtype=np.int64)
        self.predicted_rate = np.asarray(predicted_rate, dtype=np.float64)
        self.actual_rate = np.asarray(actual_rate, dtype=np.float64)

    @classmethod
    def from_rows(cls, rows: Iterable[PredictionRecord]) -> "PredictionColumns":
        """Columns of existing :class:`PredictionRecord` rows, in row order."""
        rows = tuple(rows)
        if not rows:
            return NO_PREDICTIONS
        return cls(*(
            np.array([getattr(r, name) for r in rows], dtype=dtype)
            for name, dtype in PREDICTION_COLUMNS.items()
        ))

    @classmethod
    def concatenate(
        cls, chunks: Sequence[tuple[np.ndarray, ...]]
    ) -> "PredictionColumns":
        """Join column chunks (tuples in column order) into one record set."""
        if not chunks:
            return NO_PREDICTIONS
        return cls(*map(np.concatenate, zip(*chunks)))

    def columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in PREDICTION_COLUMNS)

    # ------------------------------------------------------ sequence view

    def __len__(self) -> int:
        return self.tid.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PredictionColumns(*(c[i] for c in self.columns()))
        i = operator.index(i)
        return PredictionRecord(*(c[i].item() for c in self.columns()))

    def __iter__(self) -> Iterator[PredictionRecord]:
        return map(PredictionRecord, *(c.tolist() for c in self.columns()))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, list)):
            other = PredictionColumns.from_rows(other)
        if not isinstance(other, PredictionColumns):
            return NotImplemented
        return all(
            np.array_equal(a, b, equal_nan=True)
            for a, b in zip(self.columns(), other.columns())
        )

    def __repr__(self) -> str:
        return f"PredictionColumns(n={len(self)})"


#: The one empty record set, shared (read-only) by every run without
#: predictions.
NO_PREDICTIONS = PredictionColumns(*(
    np.zeros(0, dtype=dtype) for dtype in PREDICTION_COLUMNS.values()
))
for _column in NO_PREDICTIONS.columns():
    _column.flags.writeable = False
del _column


@dataclass(frozen=True)
class RunResult:
    """Complete record of one ``(workload, policy, config)`` simulation."""

    workload_name: str
    policy_name: str
    seed: int
    makespan_s: float
    n_quanta: int
    benchmarks: tuple[BenchmarkResult, ...]
    swap_count: int
    migration_count: int
    #: Dike's prediction log; any sequence of :class:`PredictionRecord`
    #: rows is converted to columns once, at construction.
    predictions: PredictionColumns = field(default_factory=lambda: NO_PREDICTIONS)
    trace: TraceRecorder | None = None
    #: free-form scheduler/config metadata (quantaLength schedule etc.)
    info: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.predictions, PredictionColumns):
            object.__setattr__(
                self, "predictions", PredictionColumns.from_rows(self.predictions)
            )

    def benchmark_named(self, name: str) -> BenchmarkResult:
        for b in self.benchmarks:
            if b.benchmark == name:
                return b
        raise KeyError(f"no benchmark named {name!r} in run")

    def benchmark_finish_times(self, include: tuple[str, ...] | None = None) -> dict[str, float]:
        """Map benchmark name -> finish time (first instance per name)."""
        out: dict[str, float] = {}
        for b in self.benchmarks:
            if include is not None and b.benchmark not in include:
                continue
            out.setdefault(b.benchmark, b.finish_time)
        return out

    @property
    def benchmark_names(self) -> tuple[str, ...]:
        return tuple(b.benchmark for b in self.benchmarks)

    def __repr__(self) -> str:
        return (
            f"RunResult({self.workload_name}, {self.policy_name}, "
            f"makespan={self.makespan_s:.1f}s, swaps={self.swap_count})"
        )
