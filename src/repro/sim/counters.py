"""Per-quantum hardware-performance-counter emulation.

The schedulers in this reproduction never touch simulator internals — they
read :class:`QuantumCounters`, the analogue of one ``perf`` sample window:
per-thread retired instructions, LLC accesses/misses and wall time, plus
per-core achieved bandwidth.  This is exactly the information the paper's
Observer extracts from hardware counters, so every scheduler implemented on
top of this interface would port to a real perf backend unchanged.

The per-thread readings are stored as columns (:class:`SampleColumns`):
the engines fill them straight from the arrays the physics already holds,
and array consumers (the Observer) read them without any per-thread
Python object.  Policies that iterate still see :class:`ThreadSample`
rows, built on demand.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

__all__ = ["QuantumCounters", "SampleColumns", "ThreadSample"]


@dataclass(frozen=True)
class ThreadSample:
    """Counter readings for one thread over one quantum."""

    tid: int
    vcore: int
    instructions: float
    llc_accesses: float
    llc_misses: float
    runtime_s: float
    #: allocated LLC share (MB) under an active cache backend — the
    #: analogue of CAT/CMT occupancy monitoring.  0.0 under ``NullLLC``.
    cache_mb: float = 0.0

    @property
    def access_rate(self) -> float:
        """Memory (LLC-miss) accesses per second — Dike's contention signal."""
        if self.runtime_s <= 0:
            return 0.0
        return max(self.llc_misses, 0.0) / self.runtime_s

    @property
    def miss_rate(self) -> float:
        """LLC miss ratio — the paper's C/M classification signal.

        Clamped to ``[0, 1]``: measurement noise multiplies the reported
        miss count, so raw ``misses / accesses`` can exceed 1 (a ratio no
        real counter pair would report).  A zero-access window reads 0.
        The C/M decision itself ("miss rate > 10 % ⇒ M", *strictly*
        greater) lives in :func:`repro.core.observer.classify` — this
        property only supplies the ratio.
        """
        if self.llc_accesses <= 0:
            return 0.0
        return min(max(self.llc_misses, 0.0) / self.llc_accesses, 1.0)

    @property
    def ips(self) -> float:
        """Instructions per second (the metric the paper argues *against*
        using for contention decisions, exposed for the ablation bench)."""
        return self.instructions / self.runtime_s if self.runtime_s > 0 else 0.0


#: Column names of :class:`SampleColumns`, in :class:`ThreadSample` field order.
COLUMNS = (
    "tid",
    "vcore",
    "instructions",
    "llc_accesses",
    "llc_misses",
    "runtime_s",
    "cache_mb",
)


class SampleColumns(Sequence):
    """One quantum's per-thread readings as seven parallel columns.

    ``tid`` and ``vcore`` are ``int64``; the rest are ``float64``.  As a
    sequence it is a lazy view of :class:`ThreadSample` rows: ``len()``
    reads the column length, and indexing or iteration builds rows only
    when asked.  The rate methods are the column forms of the
    :class:`ThreadSample` properties and return the same bits, element for
    element (``np.where(b > a, b, a)`` spells Python's ``max(a, b)``
    exactly, NaN and signed zeros included).
    """

    __slots__ = COLUMNS

    def __init__(
        self,
        tid: np.ndarray,
        vcore: np.ndarray,
        instructions: np.ndarray,
        llc_accesses: np.ndarray,
        llc_misses: np.ndarray,
        runtime_s: np.ndarray,
        cache_mb: np.ndarray,
    ) -> None:
        self.tid = tid
        self.vcore = vcore
        self.instructions = instructions
        self.llc_accesses = llc_accesses
        self.llc_misses = llc_misses
        self.runtime_s = runtime_s
        self.cache_mb = cache_mb

    @classmethod
    def from_rows(cls, rows: Iterable[ThreadSample]) -> "SampleColumns":
        """Columns of existing :class:`ThreadSample` rows, in row order."""
        rows = tuple(rows)
        ints = [
            np.array([getattr(r, name) for r in rows], dtype=np.int64)
            for name in COLUMNS[:2]
        ]
        floats = [
            np.array([getattr(r, name) for r in rows], dtype=np.float64)
            for name in COLUMNS[2:]
        ]
        return cls(*ints, *floats)

    # ------------------------------------------------------ sequence view

    def __len__(self) -> int:
        return self.tid.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return SampleColumns(*(getattr(self, c)[i] for c in COLUMNS))
        i = operator.index(i)
        return ThreadSample(*(getattr(self, c)[i].item() for c in COLUMNS))

    def __iter__(self) -> Iterator[ThreadSample]:
        return map(ThreadSample, *(getattr(self, c).tolist() for c in COLUMNS))

    def __repr__(self) -> str:
        return f"SampleColumns(n={len(self)})"

    # ------------------------------------------------------------ rates

    def _misses(self) -> np.ndarray:
        """``max(llc_misses, 0.0)``, elementwise."""
        return np.where(0.0 > self.llc_misses, 0.0, self.llc_misses)

    def access_rate(self) -> np.ndarray:
        """Column form of :attr:`ThreadSample.access_rate`."""
        out = np.zeros(self.tid.size)
        np.divide(
            self._misses(), self.runtime_s, out=out, where=~(self.runtime_s <= 0)
        )
        return out

    def miss_rate(self) -> np.ndarray:
        """Column form of :attr:`ThreadSample.miss_rate`."""
        ratio = np.zeros(self.tid.size)
        np.divide(
            self._misses(),
            self.llc_accesses,
            out=ratio,
            where=~(self.llc_accesses <= 0),
        )
        return np.where(1.0 < ratio, 1.0, ratio)

    def ips(self) -> np.ndarray:
        """Column form of :attr:`ThreadSample.ips`."""
        out = np.zeros(self.tid.size)
        np.divide(
            self.instructions, self.runtime_s, out=out, where=self.runtime_s > 0
        )
        return out


@dataclass(frozen=True)
class QuantumCounters:
    """All counter readings visible to a scheduler at a quantum boundary.

    Attributes
    ----------
    quantum_index:
        Monotone counter of scheduling quanta since the run began.
    time_s:
        Simulation time at the end of the quantum.
    quantum_length_s:
        Length of the quantum that just executed.
    samples:
        The per-thread readings, one row per thread that was *alive*
        during the quantum (finished threads drop out of subsequent
        quanta), as :class:`SampleColumns`.  The constructor also accepts
        any iterable of :class:`ThreadSample` rows and converts it, so
        row-built counters (tests, the platform daemon) and the engines'
        column-built ones are one type.
    core_bandwidth:
        Achieved access rate per virtual core (accesses/second), dense over
        all virtual cores; idle cores read 0.

    Row order and the barrier duplicate
    -----------------------------------
    The engines emit the threads that ran this quantum first (ascending
    tid), then the idle ones — waiting at a barrier or suspended — with
    zero activity and ``runtime_s`` equal to the quantum length.  A thread
    that *reaches* a barrier inside the quantum is in both sets, so it
    appears twice: first its active row, then an idle row.  Every per-tid
    map built from the samples (:meth:`access_rates`, :meth:`miss_rates`,
    the Observer's report) is **last-row-wins**: the tid keeps the key
    position of its first row and the value of its last, so the idle row
    sets the reported rate (0) and class (``"C"``).  Consumers that work
    row by row (the Observer's fairness list and demand estimate) see the
    active row.  This is long-standing, golden-pinned behaviour.
    """

    quantum_index: int
    time_s: float
    quantum_length_s: float
    samples: SampleColumns
    core_bandwidth: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.samples, SampleColumns):
            object.__setattr__(
                self, "samples", SampleColumns.from_rows(self.samples)
            )

    def sample_for(self, tid: int) -> ThreadSample | None:
        hits = np.flatnonzero(self.samples.tid == tid)
        return self.samples[int(hits[0])] if hits.size else None

    @property
    def tids(self) -> tuple[int, ...]:
        return tuple(self.samples.tid.tolist())

    def access_rates(self) -> dict[int, float]:
        """Map tid -> access rate for all sampled threads."""
        s = self.samples
        return dict(zip(s.tid.tolist(), s.access_rate().tolist()))

    def miss_rates(self) -> dict[int, float]:
        """Map tid -> LLC miss ratio for all sampled threads."""
        s = self.samples
        return dict(zip(s.tid.tolist(), s.miss_rate().tolist()))

    def cache_occupancy(self) -> dict[int, float]:
        """Map tid -> allocated LLC share (MB); all zero under NullLLC."""
        s = self.samples
        return dict(zip(s.tid.tolist(), s.cache_mb.tolist()))
