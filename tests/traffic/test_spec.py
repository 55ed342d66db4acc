"""Traffic grids: specs, campaign planning, worker-side metric stamping."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.campaign.cachekey import cache_key
from repro.campaign.worker import execute_task
from repro.experiments.serialization import (
    run_result_from_dict,
    run_result_to_full_dict,
)
from repro.policies.registry import UnknownPolicyError
from repro.traffic import TrafficCampaignSpec, TrafficSpec, plan_traffic


class TestTrafficSpec:
    def test_at_rate_and_name(self):
        spec = TrafficSpec.at_rate(0.2, process="bursty", n_jobs=8, trace_seed=3)
        assert spec.mean_interarrival_s == 5.0
        assert spec.rate_per_s == pytest.approx(0.2)
        assert spec.name == "bursty-r0.2-n8-s3"

    def test_trace_is_deterministic_and_named(self):
        spec = TrafficSpec(n_jobs=4, trace_seed=1)
        assert spec.trace() == spec.trace()
        assert spec.trace().name == spec.name
        assert spec.workload().n_jobs == 4

    def test_params_reach_generator(self):
        spec = TrafficSpec(
            process="bursty", params=(("burst_factor", 3.0),), apps=("jacobi",)
        )
        proc = spec.arrival_process()
        assert proc.burst_factor == 3.0
        assert proc.apps == ("jacobi",)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            TrafficSpec(process="lunar")
        with pytest.raises(ValueError):
            TrafficSpec(n_jobs=0)


class TestTrafficCampaignSpec:
    def test_rejects_non_open_loop_policy(self):
        with pytest.raises(ValueError, match="not open-loop safe"):
            TrafficCampaignSpec(
                traffic=(TrafficSpec(n_jobs=2),), policies=("oracle",)
            )

    def test_rejects_unknown_policy(self):
        with pytest.raises(UnknownPolicyError):
            TrafficCampaignSpec(
                traffic=(TrafficSpec(n_jobs=2),), policies=("nope",)
            )

    def test_plan_shape_and_dedup(self):
        spec = TrafficCampaignSpec(
            traffic=(
                TrafficSpec(n_jobs=2, trace_seed=0),
                TrafficSpec(n_jobs=2, trace_seed=1),
            ),
            policies=("cfs", "dike"),
            seeds=(7, 8),
            work_scale=0.02,
        )
        plan = plan_traffic(spec)
        assert plan.n_requested == 8
        assert len(plan.tasks) == 8  # all distinct
        assert len(set(plan.keys)) == 8
        assert "traffic-grid" in plan.describe()
        # Same grid replanned => identical cache keys (content-addressed).
        assert plan_traffic(spec).keys == plan.keys

    def test_traffic_flag_separates_cache_keys(self):
        """A traffic task must not collide with the same workload run as a
        plain task (its result carries the extra info payload)."""
        from repro.spec import ExperimentSpec, SimParams

        wl = TrafficSpec(n_jobs=2).workload()
        traffic = ExperimentSpec.for_traffic(
            wl, "cfs", seed=7, sim=SimParams(work_scale=0.02)
        )
        plain = replace(traffic, traffic=False)
        assert cache_key(plain) != cache_key(traffic)


class TestExecution:
    @pytest.fixture(scope="class")
    def task(self):
        spec = TrafficCampaignSpec(
            traffic=(TrafficSpec(n_jobs=3, mean_interarrival_s=10.0),),
            policies=("cfs",),
            seeds=(7,),
            work_scale=0.02,
        )
        return plan_traffic(spec).tasks[0]

    def test_worker_stamps_traffic_summary(self, task):
        result = execute_task(task)
        summary = result.info["traffic"]
        assert summary["n_jobs"] == 3
        assert summary["n_completed"] == 3
        for key in ("slowdown_p50", "slowdown_p95", "slowdown_p99"):
            assert isinstance(summary[key], float)

    def test_summary_survives_serialisation(self, task):
        result = execute_task(task)
        round_tripped = run_result_from_dict(run_result_to_full_dict(result))
        assert round_tripped.info["traffic"] == result.info["traffic"]
        assert [b.arrival_s for b in round_tripped.benchmarks] == [
            b.arrival_s for b in result.benchmarks
        ]
