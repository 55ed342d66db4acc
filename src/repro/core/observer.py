"""Dike's Observer: thread classification and core identification (§III-A).

Per quantum the Observer:

* reads each thread's **memory access rate** (LLC misses / second) and
  **LLC miss rate** from the hardware-counter sample;
* classifies threads *memory-intensive* (``M``, miss rate > 10 %) or
  *compute-intensive* (``C``) — re-classified every quantum because
  "memory intensity of a thread dynamically changes as thread goes through
  execution phases";
* maintains ``CoreBW`` — the moving mean of bandwidth *deliverable by*
  each virtual core — and partitions cores into *high-* and
  *low-bandwidth* halves at the median.

CoreBW semantics (an interpretation the paper leaves implicit): a core's
achieved bandwidth only reveals its capability when its occupant actually
stresses the memory path.  The Observer therefore folds a quantum's
achieved bandwidth into a core's moving mean **only when the occupant was
memory-intensive** — such an occupant acts as a *bandwidth probe* ("we
assume that if a thread migrates to a new core, it consumes the new core's
entire memory bandwidth").  A core that has never been probed reports an
**optimistic** estimate (the best probed value seen anywhere): optimism
drives exploratory swaps onto unknown cores, and the closed loop corrects
the estimate one quantum later — exactly the feedback-absorbs-model-error
argument of §III-C.  Probed estimates embed current contention, so "a core
may become low-bandwidth due to contention" falls out naturally.

Fairness signal (``getSystemFairness``): the paper defines fairness
per application — "fairness in an application means that threads'
runtimes are approximately close together" — and Eqn. 4 averages a
per-benchmark cv.  The runtime gate mirrors that: the signal is the
**bandwidth-weighted mean over process groups of the cv of each group's
thread access rates**.  A raw global cv would compare memory apps against
compute apps and read "unfair" forever; an unweighted group mean would let
an idle compute app's noisy near-zero rates dominate.  Weighting each
group's internal dispersion by its share of total traffic measures exactly
what Dike can fix: unequal memory progress among sibling threads that
actually use memory.  (Group membership is OS-visible — it is the
process/tgid of each thread.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.core.config import DikeConfig
from repro.obs.events import (
    NULL_BUS,
    ClassificationChanged,
    FairnessComputed,
    ObserverSample,
)
from repro.sim.counters import QuantumCounters
from repro.util.stats import (
    coefficient_of_variation,
    grouped_coefficient_of_variation,
)

__all__ = ["classify", "is_memory_intensive", "ObserverReport", "Observer"]


def is_memory_intensive(miss_rate, threshold: float):
    """The paper's C/M rule, pinned in one place: memory-intensive iff the
    LLC miss rate *strictly exceeds* the threshold (10 % per Xie & Loh).

    Works on a float or elementwise on an array of miss rates.
    """
    return miss_rate > threshold


def classify(miss_rate: float, threshold: float) -> str:
    """``"M"`` or ``"C"`` for one miss rate (:func:`is_memory_intensive`).

    The boundary matters: a thread at exactly ``miss_rate == threshold``
    is compute-intensive (``"C"``) — the paper says "miss rate > 10 %",
    not ">=".  Every classification site (Observer, ablations, tests)
    must go through these functions rather than re-spelling the comparison.
    """
    return "M" if is_memory_intensive(miss_rate, threshold) else "C"


def _occurrence_rounds(keys: np.ndarray) -> list:
    """Row selectors such that round ``k`` holds the ``k``-th row of every
    distinct key, rows in order within a round.

    Applying a keyed update round by round replays the row-by-row loop
    exactly: each key sees its rows in order, and distinct keys never
    interact.  Almost always one round (no key repeats), returned as
    ``slice(None)``.
    """
    ranked = np.sort(keys)
    if (ranked[1:] != ranked[:-1]).all():
        return [slice(None)]
    n = keys.size
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n) - np.repeat(starts, np.diff(np.append(starts, n)))
    return [np.flatnonzero(rank == k) for k in range(int(rank.max()) + 1)]


@dataclass(frozen=True)
class ObserverReport:
    """The Observer's per-quantum digest consumed by Selector/Predictor.

    Attributes
    ----------
    access_rate:
        tid -> measured access rate this quantum (misses/second).
    miss_rate:
        tid -> LLC miss ratio this quantum.
    classification:
        tid -> ``"M"`` or ``"C"``.
    core_bw:
        vcore -> CoreBW capability estimate (accesses/second).
    high_bw_cores:
        Set of vcores currently identified as high-bandwidth.
    fairness:
        Dike's ``getSystemFairness()`` value (lower = fairer).
    cache_occupancy:
        tid -> allocated LLC share (MB) when the run uses an active
        cache backend (`repro.sim.llc`); ``None`` under the default
        ``NullLLC``.  Cache-aware policies (lfoc/bliss) read this.
    """

    access_rate: dict[int, float]
    miss_rate: dict[int, float]
    classification: dict[int, str]
    core_bw: dict[int, float]
    high_bw_cores: frozenset[int]
    fairness: float
    group_of: dict[int, int] | None = None
    demand_estimate: dict[int, float] | None = None
    cache_occupancy: dict[int, float] | None = None

    def is_fair(self, threshold: float) -> bool:
        """True when no scheduling action is needed this quantum."""
        return bool(np.isnan(self.fairness)) or self.fairness < threshold

    def n_memory(self) -> int:
        return sum(1 for c in self.classification.values() if c == "M")

    def n_compute(self) -> int:
        return sum(1 for c in self.classification.values() if c == "C")


class Observer:
    """Stateful Observer: feed counters, get an :class:`ObserverReport`.

    Works on the counter columns with array operations; no per-thread or
    per-vcore Python object is kept.  ``CoreBW`` is one
    ``(n_vcores, corebw_window)`` buffer whose rows hold each core's last
    probes oldest-first (a probe shifts its row left; never-written slots
    read exact zeros), plus a cached per-core mean.  Only the rows probed
    this quantum are recomputed, each by the builtin ``sum`` over its row:
    leading zeros leave that sum unchanged, so the bits equal
    ``sum(deque) / len(deque)`` of a per-core windowed moving mean on every
    Python version (3.12 made float ``sum`` compensated, so an array sum
    would not).
    """

    def __init__(
        self,
        config: DikeConfig,
        n_vcores: int,
        groups: dict[int, int] | None = None,
    ) -> None:
        """
        Parameters
        ----------
        config:
            Dike configuration (thresholds, CoreBW window).
        n_vcores:
            Number of virtual cores on the machine.
        groups:
            tid -> process-group id, used by the per-application fairness
            signal.  ``None`` degrades to a single global group.
        """
        self.config = config
        self.n_vcores = n_vcores
        self.groups = dict(groups) if groups else None
        self.bus = NULL_BUS
        self._window = config.corebw_window
        #: CoreBW probe windows, one oldest-first row per vcore
        self._probes = np.zeros((n_vcores, self._window))
        #: probes ever folded into each row (the window holds at most
        #: ``corebw_window`` of them)
        self._n_probes = np.zeros(n_vcores, dtype=np.int64)
        #: per-vcore mean of the window (nan before the first probe)
        self._bw_mean = np.full(n_vcores, np.nan)
        self._best_probe = float("nan")
        #: tid -> decaying peak of observed access rate (the thread's
        #: *demand*: what it would consume given an uncontended fast core)
        self._demand: dict[int, float] = {}
        #: tid -> previous quantum's classification (for change events)
        self._prev_class: dict[int, str] = {}
        #: (running tids as bytes, their group layout) of the last quantum
        self._layout: tuple[bytes | None, tuple] = (None, ())
        if self.groups is not None:
            #: sorted tids (plus a sentinel) and their group ids (-1 for
            #: the sentinel), for array group lookup
            tids = sorted(self.groups)
            self._group_tids = np.array(
                tids + [np.iinfo(np.int64).max], dtype=np.int64
            )
            self._group_ids = np.array(
                [self.groups[t] for t in tids] + [-1], dtype=np.int64
            )

    def reset(self) -> None:
        self._probes[:] = 0.0
        self._n_probes[:] = 0
        self._bw_mean[:] = np.nan
        self._best_probe = float("nan")
        self._demand.clear()
        self._prev_class.clear()
        self._layout = (None, ())

    # ------------------------------------------------------------------ API

    def update(self, counters: QuantumCounters) -> ObserverReport:
        """Digest one quantum of counter readings."""
        cols = counters.samples
        tids = cols.tid.tolist()
        access = cols.access_rate()
        miss = cols.miss_rate()
        rate = access if self.config.contention_metric != "ipc" else cols.ips()
        memory = is_memory_intensive(
            miss, self.config.classification_miss_threshold
        )

        # Per-tid maps are last-row-wins (see QuantumCounters): dict(zip())
        # keeps a tid's first position and takes its last row's value.
        access_rate = dict(zip(tids, rate.tolist()))
        miss_rate = dict(zip(tids, miss.tolist()))
        classification = dict(
            zip(tids, ["M" if m else "C" for m in memory.tolist()])
        )
        has_cache = cols.cache_mb > 0.0
        cache_occupancy = (
            dict(zip(cols.tid[has_cache].tolist(), cols.cache_mb[has_cache].tolist()))
            if has_cache.any()
            else None
        )

        # Running rows define fairness and demand, row by row (a
        # barrier-idle thread's idle row does not).
        busy = cols.instructions > 0.0
        busy_tids = cols.tid[busy]
        self._update_demand(busy_tids, access[busy])

        # Probe-based CoreBW update: only a memory-intensive occupant
        # reveals what its core can deliver.  The class is the tid's
        # reported (last-row) class, so a thread that went idle at a
        # barrier this quantum does not probe.
        if len(classification) < len(tids):
            memory = np.array([classification[t] == "M" for t in tids], dtype=bool)
        probe = busy & memory
        if probe.any():
            # Python-list semantics for the vcore index (-1 is the last core)
            vcores = cols.vcore[probe] % self.n_vcores
            self._fold_probes(vcores, counters.core_bandwidth[vcores])

        core_bw_arr = np.where(
            np.isfinite(self._bw_mean), self._bw_mean, self._best_probe
        )
        core_bw = dict(zip(range(self.n_vcores), core_bw_arr.tolist()))
        high = self._identify_high_bw(core_bw_arr)
        fairness = self._system_fairness(busy_tids, rate[busy])
        if self.bus.enabled:
            now = self.bus.now
            self.bus.emit(
                ObserverSample(
                    *now,
                    access_rate=dict(access_rate),
                    miss_rate=dict(miss_rate),
                    classification=dict(classification),
                    core_bw=dict(core_bw),
                    high_bw_cores=tuple(sorted(high)),
                )
            )
            for tid, cls in classification.items():
                old = self._prev_class.get(tid)
                if old is not None and old != cls:
                    self.bus.emit(
                        ClassificationChanged(*now, tid=tid, old=old, new=cls)
                    )
            self.bus.emit(
                FairnessComputed(
                    *now,
                    value=float(fairness),
                    threshold=self.config.fairness_threshold,
                    fair=bool(
                        np.isnan(fairness)
                        or fairness < self.config.fairness_threshold
                    ),
                )
            )
        self._prev_class = classification
        return ObserverReport(
            access_rate=access_rate,
            miss_rate=miss_rate,
            classification=classification,
            core_bw=core_bw,
            high_bw_cores=high,
            fairness=fairness,
            group_of=self.groups,
            demand_estimate=dict(self._demand),
            cache_occupancy=cache_occupancy,
        )

    def core_bw_value(self, vcore: int) -> float:
        """CoreBW estimate: probed moving mean, else the optimistic prior."""
        value = float(self._bw_mean[vcore])
        if math.isfinite(value):
            return value
        return self._best_probe  # nan before any probe anywhere

    # ------------------------------------------------------------- internals

    def _update_demand(self, tids: np.ndarray, access: np.ndarray) -> None:
        """Fold running rows into the decaying-peak demand estimate:
        ``demand = max(rate, 0.75 * previous)``, row by row."""
        demand = self._demand
        for rows in _occurrence_rounds(tids):
            keys = tids[rows].tolist()
            rate = access[rows]
            decayed = 0.75 * np.fromiter(
                map(demand.get, keys, repeat(0.0)), np.float64, len(keys)
            )
            # np.where(b > a, b, a) is Python's max(a, b), ties included
            demand.update(zip(keys, np.where(decayed > rate, decayed, rate).tolist()))

    def _fold_probes(self, vcores: np.ndarray, probes: np.ndarray) -> None:
        """Push probes (in row order) into the CoreBW windows and refresh
        the probed rows' means and the best probe seen anywhere."""
        window = self._probes
        rounds = _occurrence_rounds(vcores)
        for rows in rounds:
            v = vcores[rows]
            window[v, :-1] = window[v, 1:]
            window[v, -1] = probes[rows]
            self._n_probes[v] += 1
        touched = vcores if len(rounds) == 1 else np.unique(vcores)
        held = np.minimum(self._n_probes[touched], self._window)
        self._bw_mean[touched] = (
            np.array(list(map(sum, window[touched].tolist()))) / held
        )

        best = self._best_probe
        for p in probes.tolist():
            if not math.isfinite(best) or p > best:
                best = p
        self._best_probe = best

    def _group_layout(self, tids: np.ndarray) -> tuple:
        """``(order, bounds, sizes, first_seen)`` of the running rows' groups.

        ``order`` sorts the rows by group id, stably (members keep row
        order), and group ``g`` in id order is
        ``order[bounds[g]:bounds[g + 1]]``, ``sizes[g]`` rows long;
        ``first_seen`` lists the groups in order of first appearance.
        Cached for the last running set, which usually repeats between
        quanta.
        """
        key = tids.tobytes()
        if self._layout[0] != key:
            pos = np.searchsorted(self._group_tids, tids)
            gid = np.where(self._group_tids[pos] == tids, self._group_ids[pos], -1)
            order = np.argsort(gid, kind="stable")
            ranked = gid[order]
            starts = np.flatnonzero(
                np.concatenate(([True], ranked[1:] != ranked[:-1]))
            )
            bounds = starts.tolist() + [tids.size]
            layout = (
                order,
                bounds,
                np.diff(bounds),
                np.argsort(order[starts]).tolist(),
            )
            self._layout = (key, layout)
        return self._layout[1]

    def _system_fairness(self, tids: np.ndarray, rates: np.ndarray) -> float:
        """Bandwidth-weighted mean of per-group access-rate cv over the
        running rows.

        See the module docstring for why this — not a raw global cv — is
        the faithful reading of the paper's ``getSystemFairness``.  Each
        group's members keep row order; groups are weighed and accumulated
        in order of first appearance, with the builtin ``sum`` and
        left-to-right addition, as the row-by-row formulation did.
        """
        if rates.size < 2:
            return float("nan")
        if self.groups is None:
            return coefficient_of_variation(rates)
        order, bounds, sizes, first_seen = self._group_layout(tids)
        grouped = rates[order]
        flat = grouped.tolist()
        sums = [sum(flat[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        total = sum(sums[g] for g in first_seen)
        if total <= 0.0:
            return 0.0  # nobody is using memory: trivially fair
        cvs = grouped_coefficient_of_variation(grouped, sizes).tolist()
        signal = 0.0
        for g in first_seen:
            if bounds[g + 1] - bounds[g] < 2:
                continue
            weight = sums[g] / total
            if math.isfinite(cvs[g]):
                signal += weight * cvs[g]
        return signal

    def _identify_high_bw(self, core_bw: np.ndarray) -> frozenset[int]:
        """Median split of capability estimates over all cores.

        Unprobed (optimistic) cores sit at the best probed value, so they
        land in the high half and attract exploration.
        """
        finite_mask = np.isfinite(core_bw)
        finite = np.sort(core_bw[finite_mask])
        if not finite.size:
            return frozenset()
        mid = finite.size // 2
        if finite.size % 2:
            median = finite[mid]
        else:
            median = (finite[mid - 1] + finite[mid]) / 2.0
        # ">= median and > min" keeps the split meaningful when estimates
        # tie at the top (e.g. many optimistically-initialised cores) and
        # returns the empty set when every core looks identical.
        high = finite_mask & (core_bw >= median) & (core_bw > finite[0])
        return frozenset(np.flatnonzero(high).tolist())
