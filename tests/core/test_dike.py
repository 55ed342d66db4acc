"""Integration tests of the composed Dike scheduler."""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AdaptationGoal, DikeConfig
from repro.core.dike import DikeScheduler
from repro.core.selector import ThreadPair
from repro.schedulers.base import SchedulingContext, ThreadInfo
from repro.sim.results import PredictionRecord
from repro.policies import REGISTRY
from repro.metrics.fairness import fairness
from repro.schedulers.cfs import CFSScheduler
from repro.schedulers.static import StaticScheduler

from conftest import quick_run


class TestConstruction:
    def test_names(self):
        assert REGISTRY.build("dike").name == "dike"
        assert REGISTRY.build("dike-af").name == "dike-af"
        assert REGISTRY.build("dike-ap").name == "dike-ap"

    def test_goals(self):
        assert REGISTRY.build("dike").config.goal is AdaptationGoal.NONE
        assert REGISTRY.build("dike-af").config.goal is AdaptationGoal.FAIRNESS
        assert REGISTRY.build("dike-ap").config.goal is AdaptationGoal.PERFORMANCE

    def test_custom_config_carried(self):
        sched = REGISTRY.build("dike", {"swap_size": 4, "quanta_length_s": 0.2})
        assert sched.config.swap_size == 4
        assert sched.quantum_length_s() == 0.2

    def test_params_preserve_other_fields(self):
        sched = REGISTRY.build("dike-af", {"fairness_threshold": 0.25})
        assert sched.config.fairness_threshold == 0.25
        assert sched.config.goal is AdaptationGoal.FAIRNESS


class TestDeprecatedFactories:
    """The registry builds what the removed module-level factories did."""

    def test_names_and_goals(self):
        assert REGISTRY.build("dike").name == "dike"
        af = REGISTRY.build("dike-af")
        ap = REGISTRY.build("dike-ap")
        assert (af.name, ap.name) == ("dike-af", "dike-ap")
        assert af.config.goal is AdaptationGoal.FAIRNESS
        assert ap.config.goal is AdaptationGoal.PERFORMANCE

    def test_custom_config_carried(self):
        sched = REGISTRY.build("dike", {"swap_size": 4, "quanta_length_s": 0.2})
        assert sched.config.swap_size == 4
        assert sched.quantum_length_s() == 0.2


class TestEndToEnd:
    def test_completes_and_swaps(self, small_workload, paper_topology):
        result = quick_run(
            small_workload, DikeScheduler(), paper_topology, work_scale=0.01
        )
        assert all(
            math.isfinite(t)
            for b in result.benchmarks
            for t in b.thread_finish_times
        )
        assert result.swap_count > 0

    def test_far_fewer_swaps_than_dio(self, small_workload, paper_topology):
        from repro.schedulers.dio import DIOScheduler

        r_dike = quick_run(small_workload, DikeScheduler(), paper_topology, work_scale=0.02)
        r_dio = quick_run(
            small_workload, DIOScheduler(), paper_topology, work_scale=0.02
        )
        assert r_dike.swap_count < 0.5 * r_dio.swap_count

    def test_improves_fairness_over_cfs(self, small_workload, paper_topology):
        r_dike = quick_run(small_workload, DikeScheduler(), paper_topology, work_scale=0.02)
        r_cfs = quick_run(
            small_workload, CFSScheduler(), paper_topology, work_scale=0.02
        )
        assert fairness(r_dike) > fairness(r_cfs)

    def test_prediction_records_produced(self, small_workload, paper_topology):
        result = quick_run(small_workload, DikeScheduler(), paper_topology, work_scale=0.01)
        assert len(result.predictions) > 0
        for rec in result.predictions[:20]:
            assert rec.predicted_rate >= 0
            assert rec.actual_rate > 0

    def test_reusable_across_runs(self, small_workload, paper_topology):
        sched = DikeScheduler()
        a = quick_run(small_workload, sched, paper_topology, work_scale=0.01)
        b = quick_run(small_workload, sched, paper_topology, work_scale=0.01)
        assert a.makespan_s == pytest.approx(b.makespan_s)
        assert a.swap_count == b.swap_count

    def test_deterministic(self, small_workload, paper_topology):
        a = quick_run(small_workload, DikeScheduler(), paper_topology, work_scale=0.01)
        b = quick_run(small_workload, DikeScheduler(), paper_topology, work_scale=0.01)
        assert a.makespan_s == b.makespan_s
        assert a.swap_count == b.swap_count


class TestAdaptation:
    def test_af_changes_config_at_runtime(self, small_workload, paper_topology):
        result = quick_run(
            small_workload, REGISTRY.build("dike-af"), paper_topology, work_scale=0.05
        )
        history = result.info["config_history"]
        assert len(history) > 1  # adapted at least once

    def test_ap_grows_quanta(self, small_workload, paper_topology):
        result = quick_run(
            small_workload, REGISTRY.build("dike-ap"), paper_topology, work_scale=0.05
        )
        history = result.info["config_history"]
        final_qlen = history[-1][2]
        assert final_qlen >= 0.5

    def test_non_adaptive_never_changes(self, small_workload, paper_topology):
        result = quick_run(small_workload, DikeScheduler(), paper_topology, work_scale=0.02)
        assert len(result.info["config_history"]) == 1

    def test_ap_swaps_fewer_than_af(self, small_workload, paper_topology):
        r_af = quick_run(small_workload, REGISTRY.build("dike-af"), paper_topology, work_scale=0.05)
        r_ap = quick_run(small_workload, REGISTRY.build("dike-ap"), paper_topology, work_scale=0.05)
        assert r_ap.swap_count < r_af.swap_count


class TestHighFairnessThresholdDisablesScheduling:
    def test_huge_threshold_acts_static(self, small_workload, paper_topology):
        """With θ_f enormous the system is always 'fair': no swaps at all."""
        sched = DikeScheduler(DikeConfig(fairness_threshold=9.9))
        result = quick_run(small_workload, sched, paper_topology, work_scale=0.01)
        assert result.swap_count == 0


class TestPredictionBooks:
    """The array prediction books replay the dict books they replaced:
    same records, same order, including re-registration while pending."""

    class _DictBooks:
        def __init__(self, predictor):
            self.predictor = predictor
            self.pending = {}
            self.records = []

        def backfill(self, counters, report):
            done = []
            for tid, (q, t, predicted) in self.pending.items():
                if counters.quantum_index <= q:
                    continue
                actual = report.access_rate.get(tid)
                if actual is not None and actual > 0.0:
                    self.records.append(
                        PredictionRecord(t, q, tid, predicted, actual)
                    )
                done.append(tid)
            for tid in done:
                self.pending.pop(tid, None)

        def end_quantum(self, state):
            counters, report, placement = state.counters, state.report, state.placement
            demand = report.demand_estimate or {}
            for tid in placement:
                rate = report.access_rate.get(tid)
                if rate is not None and rate > 0.0:
                    self.pending[tid] = (counters.quantum_index, counters.time_s, rate)
            for pred in state.accepted:
                for tid, dest_bw in (
                    (pred.pair.t_l, report.core_bw.get(placement[pred.pair.t_h])),
                    (pred.pair.t_h, report.core_bw.get(placement[pred.pair.t_l])),
                ):
                    moved = dest_bw if dest_bw is not None else float("nan")
                    predicted = min(moved, demand.get(tid, float("inf")))
                    if predicted == predicted:
                        self.pending[tid] = (
                            counters.quantum_index,
                            counters.time_s,
                            max(predicted - self.predictor.overhead(predicted), 0.0),
                        )

    _rate = st.sampled_from([0.0, -1.0, float("nan")]) | st.floats(1e-3, 1e9)
    _step = st.tuples(
        st.integers(0, 6),  # quantum index: repeats and steps back too
        st.dictionaries(st.integers(0, 7), st.integers(0, 3), max_size=8),
        st.dictionaries(st.integers(0, 9), _rate, max_size=10),
        st.dictionaries(st.integers(0, 3), st.floats(0.0, 1e9), max_size=4),
        st.dictionaries(st.integers(0, 7), st.floats(0.0, 1e9), max_size=8),
        st.lists(st.integers(0, 7), max_size=6, unique=True),
    )

    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(_step, max_size=8))
    def test_matches_dict_books(self, steps, small_topology):
        sched = REGISTRY.build("dike")
        sched.prepare(
            SchedulingContext(
                topology=small_topology,
                threads=tuple(ThreadInfo(t, "b", 0, t) for t in range(8)),
            )
        )
        oracle = self._DictBooks(sched.predictor)
        for q, placement, rates, core_bw, demand, swapped in steps:
            counters = SimpleNamespace(quantum_index=q, time_s=0.5 * q + 0.25)
            report = SimpleNamespace(
                access_rate=rates, core_bw=core_bw, demand_estimate=demand
            )
            movers = [t for t in swapped if t in placement]
            accepted = [
                SimpleNamespace(pair=ThreadPair(t_l=a, t_h=b))
                for a, b in zip(movers[::2], movers[1::2])
            ]
            state = SimpleNamespace(
                counters=counters, report=report, placement=placement,
                accepted=accepted,
            )
            sched._backfill_predictions(counters, report)
            oracle.backfill(counters, report)
            sched.end_quantum(state)
            oracle.end_quantum(state)
        got = sched.drain_prediction_records()
        assert [repr(r) for r in got] == [repr(r) for r in oracle.records]
