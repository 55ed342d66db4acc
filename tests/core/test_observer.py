"""Tests for Dike's Observer: classification, CoreBW probing, fairness."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DikeConfig
from repro.core.observer import Observer, ObserverReport, classify
from repro.obs.events import (
    NULL_BUS,
    ClassificationChanged,
    EventBus,
    FairnessComputed,
    ObserverSample,
)
from repro.sim.counters import QuantumCounters, ThreadSample
from repro.util.stats import MovingMean, coefficient_of_variation


def make_counters(
    threads: dict[int, tuple[int, float, float]],
    n_vcores: int = 8,
    quantum_index: int = 0,
) -> QuantumCounters:
    """threads: tid -> (vcore, access_rate, miss_rate)."""
    samples = []
    core_bw = np.zeros(n_vcores)
    for tid, (vcore, rate, miss) in threads.items():
        accesses = max(rate, 1.0) / max(miss, 1e-9)
        samples.append(
            ThreadSample(
                tid=tid,
                vcore=vcore,
                instructions=1e8,
                llc_accesses=accesses * 0.5,
                llc_misses=rate * 0.5,
                runtime_s=0.5,
            )
        )
        core_bw[vcore] += rate
    return QuantumCounters(
        quantum_index=quantum_index,
        time_s=0.5 * (quantum_index + 1),
        quantum_length_s=0.5,
        samples=tuple(samples),
        core_bandwidth=core_bw,
    )


def make_observer(groups=None, n_vcores=8, **cfg_kwargs) -> Observer:
    return Observer(DikeConfig(**cfg_kwargs), n_vcores, groups)


class TestClassification:
    def test_threshold_boundary(self):
        obs = make_observer()
        counters = make_counters({0: (0, 1e6, 0.11), 1: (1, 1e6, 0.09)})
        report = obs.update(counters)
        assert report.classification[0] == "M"
        assert report.classification[1] == "C"

    def test_classify_exact_threshold_is_compute(self):
        # The paper's rule is "miss rate > 10% => M", *strictly* greater:
        # a thread sitting exactly on the boundary stays compute-bound.
        assert classify(0.10, 0.10) == "C"
        assert classify(0.10 + 1e-12, 0.10) == "M"
        assert classify(0.0, 0.10) == "C"
        assert classify(1.0, 0.10) == "M"

    def test_counts(self):
        obs = make_observer()
        counters = make_counters(
            {0: (0, 1e6, 0.3), 1: (1, 1e6, 0.4), 2: (2, 1e4, 0.05)}
        )
        report = obs.update(counters)
        assert report.n_memory() == 2
        assert report.n_compute() == 1

    def test_reclassified_every_quantum(self):
        obs = make_observer()
        r1 = obs.update(make_counters({0: (0, 1e6, 0.3)}))
        r2 = obs.update(make_counters({0: (0, 1e4, 0.02)}, quantum_index=1))
        assert r1.classification[0] == "M"
        assert r2.classification[0] == "C"


class TestCoreBW:
    def test_memory_occupant_probes_core(self):
        obs = make_observer()
        report = obs.update(make_counters({0: (3, 2e6, 0.4)}))
        assert report.core_bw[3] == pytest.approx(2e6)

    def test_compute_occupant_does_not_probe(self):
        obs = make_observer()
        obs.update(make_counters({0: (3, 2e6, 0.4)}))  # establish best probe
        report = obs.update(
            make_counters({0: (5, 1e4, 0.02)}, quantum_index=1)
        )
        # core 5 unprobed: falls back to the optimistic best probe
        assert report.core_bw[5] == pytest.approx(2e6)

    def test_unprobed_machine_is_nan(self):
        obs = make_observer()
        report = obs.update(make_counters({0: (0, 1e4, 0.02)}))
        assert math.isnan(report.core_bw[0])

    def test_moving_mean_tracks_contention(self):
        obs = make_observer(corebw_window=2)
        obs.update(make_counters({0: (0, 4e6, 0.4)}))
        obs.update(make_counters({0: (0, 2e6, 0.4)}, quantum_index=1))
        report = obs.update(make_counters({0: (0, 2e6, 0.4)}, quantum_index=2))
        assert report.core_bw[0] == pytest.approx(2e6)

    def test_high_bw_identification_median_split(self):
        obs = make_observer()
        report = obs.update(
            make_counters({0: (0, 4e6, 0.4), 1: (1, 1e6, 0.4)})
        )
        assert 0 in report.high_bw_cores
        assert 1 not in report.high_bw_cores
        # unprobed cores sit at the optimistic max -> high side
        assert 5 in report.high_bw_cores

    def test_reset_clears_probes(self):
        obs = make_observer()
        obs.update(make_counters({0: (0, 2e6, 0.4)}))
        obs.reset()
        report = obs.update(make_counters({0: (1, 1e4, 0.02)}, quantum_index=1))
        assert math.isnan(report.core_bw[0])


class TestFairnessSignal:
    def test_fair_when_groups_internally_equal(self):
        groups = {0: 0, 1: 0, 2: 1, 3: 1}
        obs = make_observer(groups=groups)
        # group rates internally equal, but groups differ from each other
        counters = make_counters(
            {0: (0, 2e6, 0.4), 1: (1, 2e6, 0.4), 2: (2, 5e5, 0.4), 3: (3, 5e5, 0.4)}
        )
        report = obs.update(counters)
        assert report.fairness < 0.1
        assert report.is_fair(0.1)

    def test_unfair_when_group_disperses(self):
        groups = {0: 0, 1: 0, 2: 1, 3: 1}
        obs = make_observer(groups=groups)
        counters = make_counters(
            {0: (0, 3e6, 0.4), 1: (1, 1e6, 0.4), 2: (2, 2e6, 0.4), 3: (3, 2e6, 0.4)}
        )
        report = obs.update(counters)
        assert report.fairness > 0.1

    def test_low_traffic_group_has_little_weight(self):
        groups = {0: 0, 1: 0, 2: 1, 3: 1}
        obs = make_observer(groups=groups)
        # group 1 is wildly dispersed but tiny; group 0 carries the traffic
        counters = make_counters(
            {0: (0, 2e6, 0.4), 1: (1, 2e6, 0.4), 2: (2, 2e3, 0.05), 3: (3, 10.0, 0.05)}
        )
        report = obs.update(counters)
        assert report.fairness < 0.1

    def test_without_groups_global_cv(self):
        obs = make_observer(groups=None)
        counters = make_counters({0: (0, 3e6, 0.4), 1: (1, 1e6, 0.4)})
        report = obs.update(counters)
        assert report.fairness == pytest.approx(0.5)

    def test_single_thread_is_nan_fair(self):
        obs = make_observer()
        report = obs.update(make_counters({0: (0, 1e6, 0.4)}))
        assert math.isnan(report.fairness)
        assert report.is_fair(0.1)

    def test_idle_threads_excluded(self):
        obs = make_observer(groups={0: 0, 1: 0, 2: 0})
        counters = make_counters({0: (0, 2e6, 0.4), 1: (1, 2e6, 0.4)})
        # add a barrier-idle thread with zero activity
        idle = ThreadSample(2, 2, 0.0, 0.0, 0.0, 0.5)
        counters = QuantumCounters(
            quantum_index=0,
            time_s=0.5,
            quantum_length_s=0.5,
            samples=tuple(counters.samples) + (idle,),
            core_bandwidth=counters.core_bandwidth,
        )
        report = obs.update(counters)
        assert report.fairness < 0.1


class TestDemandEstimate:
    def test_tracks_peak(self):
        obs = make_observer()
        obs.update(make_counters({0: (0, 3e6, 0.4)}))
        report = obs.update(make_counters({0: (0, 1e6, 0.4)}, quantum_index=1))
        est = report.demand_estimate[0]
        assert 1e6 < est <= 3e6

    def test_decays_toward_current(self):
        obs = make_observer()
        obs.update(make_counters({0: (0, 3e6, 0.4)}))
        for q in range(1, 20):
            report = obs.update(make_counters({0: (0, 1e6, 0.4)}, quantum_index=q))
        assert report.demand_estimate[0] == pytest.approx(1e6, rel=0.05)


class TestBarrierDuplicateRow:
    """Last-row-wins: a thread that hit a barrier mid-quantum is sampled
    as an active row and then an idle row (see QuantumCounters)."""

    def _counters(self):
        groups_rates = {0: (0, 4e6, 0.4), 1: (1, 2e6, 0.4)}
        base = make_counters(groups_rates)
        idle = ThreadSample(0, 0, 0.0, 0.0, 0.0, 0.5)
        return QuantumCounters(
            quantum_index=0,
            time_s=0.5,
            quantum_length_s=0.5,
            samples=tuple(base.samples) + (idle,),
            core_bandwidth=base.core_bandwidth,
        )

    def test_report_takes_the_idle_row(self):
        report = make_observer(groups={0: 0, 1: 0}).update(self._counters())
        assert list(report.access_rate) == [0, 1]
        assert report.access_rate[0] == 0.0
        assert report.miss_rate[0] == 0.0
        assert report.classification[0] == "C"

    def test_demand_and_fairness_take_the_active_row(self):
        report = make_observer(groups={0: 0, 1: 0}).update(self._counters())
        assert report.demand_estimate[0] == pytest.approx(4e6)
        # cv of the two *active* rates (4e6, 2e6), not of (0, 2e6)
        assert report.fairness == pytest.approx(1.0 / 3.0)

    def test_active_row_does_not_probe(self):
        report = make_observer(groups={0: 0, 1: 0}).update(self._counters())
        # vcore 0 was never probed: it reads the optimistic prior, which
        # is tid 1's probe of vcore 1, not tid 0's 4e6
        assert report.core_bw[0] == report.core_bw[1] == pytest.approx(2e6)


# ---------------------------------------------------------------------------
# Equivalence with a row-wise oracle


class _RowObserver:
    """The Observer written row by row over ThreadSample objects, with one
    MovingMean per vcore: the reference the array Observer must match
    bit for bit (reports and events)."""

    def __init__(self, config, n_vcores, groups=None):
        self.config = config
        self.n_vcores = n_vcores
        self.groups = dict(groups) if groups else None
        self.bus = NULL_BUS
        self._core_bw = [
            MovingMean(window=config.corebw_window) for _ in range(n_vcores)
        ]
        self._best_probe = float("nan")
        self._demand = {}
        self._prev_class = {}

    def update(self, counters):
        access_rate, miss_rate, classification = {}, {}, {}
        active = []
        threshold = self.config.classification_miss_threshold
        use_ipc = self.config.contention_metric == "ipc"
        cache_occupancy = None
        for s in counters.samples:
            access_rate[s.tid] = s.ips if use_ipc else s.access_rate
            miss_rate[s.tid] = s.miss_rate
            classification[s.tid] = classify(s.miss_rate, threshold)
            if s.cache_mb > 0.0:
                if cache_occupancy is None:
                    cache_occupancy = {}
                cache_occupancy[s.tid] = s.cache_mb
            if s.instructions > 0.0:
                active.append((s.tid, access_rate[s.tid]))
                prev = self._demand.get(s.tid, 0.0)
                self._demand[s.tid] = max(s.access_rate, 0.75 * prev)
        bw = counters.core_bandwidth
        for s in counters.samples:
            if classification[s.tid] == "M" and s.instructions > 0.0:
                probe = float(bw[s.vcore])
                self._core_bw[s.vcore].update(probe)
                if not math.isfinite(self._best_probe) or probe > self._best_probe:
                    self._best_probe = probe
        core_bw = {}
        for v in range(self.n_vcores):
            value = self._core_bw[v].value
            core_bw[v] = value if math.isfinite(value) else self._best_probe
        finite = sorted(b for b in core_bw.values() if math.isfinite(b))
        high = frozenset()
        if finite:
            mid = len(finite) // 2
            median = (
                finite[mid] if len(finite) % 2
                else (finite[mid - 1] + finite[mid]) / 2.0
            )
            high = frozenset(
                v for v, b in core_bw.items()
                if math.isfinite(b) and b >= median and b > finite[0]
            )
        fairness = self._fairness(active)
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

    def _fairness(self, active):
        if len(active) < 2:
            return float("nan")
        if self.groups is None:
            return coefficient_of_variation([r for _, r in active])
        by_group = {}
        for tid, rate in active:
            by_group.setdefault(self.groups.get(tid, -1), []).append(rate)
        total = sum(sum(rates) for rates in by_group.values())
        if total <= 0.0:
            return 0.0
        signal = 0.0
        for rates in by_group.values():
            if len(rates) < 2:
                continue
            weight = sum(rates) / total
            cv = coefficient_of_variation(rates)
            if math.isfinite(cv):
                signal += weight * cv
        return signal


class _ListSink:
    def __init__(self):
        self.events = []

    def accept(self, event):
        self.events.append(event)


def _canon(value):
    """Exact, order-preserving form: floats by repr (nan == nan, -0.0 !=
    0.0), dicts as item lists, sets sorted."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return [(_canon(k), _canon(v)) for k, v in value.items()]
    if isinstance(value, (frozenset, set)):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return [(f, _canon(getattr(value, f))) for f in value.__dataclass_fields__]
    return value


_rate = st.sampled_from([0.0]) | st.floats(min_value=1e-3, max_value=1e9)
_row = st.tuples(
    st.integers(0, 5),  # tid: few values, so duplicates are common
    st.integers(-1, 3),  # vcore, -1 indexing from the end like a list
    _rate,  # instructions (0 = idle)
    _rate | st.just(-1.0),  # llc_accesses
    _rate | st.floats(min_value=-1e9, max_value=-1e-3),  # noisy misses
    _rate,  # runtime_s (0 = zero runtime)
    _rate,  # cache_mb
)
_quantum = st.tuples(
    st.lists(_row, max_size=10),
    st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=4, max_size=4),
)


def _run_both(config, groups, quanta):
    """Feed the same quanta to both Observers with the bus on; return
    (reports, events) per implementation."""
    out = []
    for cls in (Observer, _RowObserver):
        obs = cls(config, 4, groups)
        sink = _ListSink()
        obs.bus = EventBus()
        obs.bus.attach(sink)
        reports = []
        for q, (rows, bw) in enumerate(quanta):
            counters = QuantumCounters(
                quantum_index=q,
                time_s=0.5 * (q + 1),
                quantum_length_s=0.5,
                samples=tuple(ThreadSample(*r) for r in rows),
                core_bandwidth=np.array(bw),
            )
            obs.bus.at(q, counters.time_s)
            reports.append(_canon(obs.update(counters)))
        out.append((reports, [(e.kind, _canon(e)) for e in sink.events]))
    return out


def _assert_equivalent(config, groups, quanta):
    (reports, events), (want_reports, want_events) = _run_both(config, groups, quanta)
    for got, want in zip(reports, want_reports):
        assert got == want
    assert events == want_events


class TestMatchesRowWiseOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        quanta=st.lists(_quantum, min_size=1, max_size=5),
        groups=st.none() | st.dictionaries(st.integers(0, 5), st.integers(0, 2)),
        metric=st.sampled_from(["access_rate", "ipc"]),
        window=st.integers(1, 3),
        threshold=st.sampled_from([0.1, 0.5]),
    )
    def test_random_quanta(self, quanta, groups, metric, window, threshold):
        config = DikeConfig(
            contention_metric=metric,
            corebw_window=window,
            classification_miss_threshold=threshold,
        )
        _assert_equivalent(config, groups, quanta)

    @pytest.mark.parametrize(
        "rows",
        [
            # duplicate tids: active then idle, and two active rows
            [(0, 0, 1e8, 1e6, 5e5, 0.5, 0.0), (0, 0, 0.0, 0.0, 0.0, 0.5, 0.0),
             (1, 1, 1e8, 1e6, 5e5, 0.4, 0.0), (1, 2, 2e8, 1e6, 6e5, 0.5, 0.0)],
            # zero runtime and zero accesses
            [(0, 0, 1e8, 0.0, 5e5, 0.0, 0.0), (1, 1, 1e8, 0.0, 0.0, 0.5, 0.0),
             (2, 2, 1e8, 1e6, 5e5, 0.5, 0.0)],
            # negative noisy misses
            [(0, 0, 1e8, 1e6, -4e5, 0.5, 0.0), (1, 1, 1e8, 1e6, 5e5, 0.5, 0.0)],
            # two probes on one vcore in one quantum
            [(0, 3, 1e8, 1e6, 5e5, 0.5, 0.0), (1, 3, 1e8, 1e6, 9e5, 0.5, 0.0),
             (2, -1, 1e8, 1e6, 7e5, 0.5, 0.0)],
            # allocated cache shares
            [(0, 0, 1e8, 1e6, 5e5, 0.5, 2.5), (1, 1, 1e8, 1e6, 5e5, 0.5, 0.0),
             (1, 1, 0.0, 0.0, 0.0, 0.5, 0.0)],
        ],
        ids=["duplicate-tids", "zero-runtime-accesses", "negative-misses",
             "two-probes-one-vcore", "cache-mb"],
    )
    @pytest.mark.parametrize("metric", ["access_rate", "ipc"])
    def test_edge_cases(self, rows, metric):
        bws = [[1e6, 2e6, 3e6, 4e6], [4e6, 3e6, 2e6, 1e6], [5e5, 5e5, 9e6, 0.0]]
        quanta = [(rows, bw) for bw in bws]
        for groups in (None, {0: 0, 1: 0, 2: 1}):
            _assert_equivalent(DikeConfig(contention_metric=metric), groups, quanta)
            _assert_equivalent(
                DikeConfig(contention_metric=metric, corebw_window=2), groups, quanta
            )


class TestCoreBWWindow:
    @settings(max_examples=50, deadline=None)
    @given(
        probes=st.lists(
            st.tuples(st.integers(0, 2), st.floats(min_value=0.0, max_value=1e9)),
            min_size=1,
            max_size=40,
        ),
        window=st.integers(1, 10),
    )
    def test_bit_equal_to_a_moving_mean_per_core(self, probes, window):
        """Each core's estimate is ``sum(deque) / len(deque)`` of its last
        ``window`` probes, including windows past NumPy's 8-wide pairwise
        blocks."""
        obs = make_observer(n_vcores=3, corebw_window=window)
        means = [MovingMean(window=window) for _ in range(3)]
        for q, (vcore, value) in enumerate(probes):
            bw = np.zeros(3)
            bw[vcore] = value
            counters = QuantumCounters(
                quantum_index=q, time_s=0.5 * (q + 1), quantum_length_s=0.5,
                samples=(ThreadSample(0, vcore, 1e8, 1e6, 5e5, 0.5),),
                core_bandwidth=bw,
            )
            report = obs.update(counters)
            means[vcore].update(value)
            assert repr(report.core_bw[vcore]) == repr(means[vcore].value)
