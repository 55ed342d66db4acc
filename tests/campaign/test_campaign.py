"""End-to-end campaign behaviour: determinism, caching, resume, sharing.

The load-bearing guarantee is that every execution path — in-process
serial, process-pool parallel, and cache replay — yields a `RunResult`
whose *full serialised form is byte-identical*.  Everything the campaign
subsystem does (dedup, parallel fan-out, disk persistence, resume) is
only sound because of that.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign.cachekey import cache_key, task_fingerprint
from repro.campaign.core import Campaign, CampaignError
from repro.campaign.executor import ExecutorConfig, TaskFailure
from repro.campaign.store import ResultStore
from repro.campaign.telemetry import Telemetry
from repro.experiments.fig1 import run_fig1
from repro.experiments.serialization import run_result_to_full_json
from repro.experiments.sweep import sweep_configurations
from repro.spec import ExperimentSpec, PolicyRef, SimParams, WorkloadRef
from repro.workloads.suite import WorkloadSpec, workload

TINY = WorkloadSpec(
    name="tiny", apps=("jacobi", "srad"), include_kmeans=False, threads_per_app=2
)
SIM = SimParams(work_scale=0.02)

#: Fails only at execution time: the app name resolves in the worker,
#: when the by-value WorkloadRef is rebuilt into a live WorkloadSpec.
BAD_WORKLOAD = WorkloadRef(
    name="bad", apps=("no-such-app",), include_kmeans=False, threads_per_app=2
)


def _tasks() -> list[ExperimentSpec]:
    return [
        ExperimentSpec.for_workload(TINY, policy, seed=7, sim=SIM)
        for policy in ("cfs", "dike", "dio")
    ]


class TestDeterminism:
    def test_parallel_results_are_bitwise_identical_to_serial(self):
        serial = Campaign.inline().gather(_tasks())
        parallel = Campaign(
            executor=ExecutorConfig(max_workers=2)
        ).gather(_tasks())
        for s, p in zip(serial, parallel):
            assert run_result_to_full_json(s) == run_result_to_full_json(p)

    def test_cached_results_are_bitwise_identical_to_fresh(self, tmp_path):
        fresh = Campaign.at(tmp_path, max_workers=1).gather(_tasks())
        replay = Campaign.at(tmp_path, max_workers=1).gather(_tasks())
        for f, r in zip(fresh, replay):
            assert run_result_to_full_json(f) == run_result_to_full_json(r)

    def test_duplicate_tasks_share_one_run(self):
        t = ExperimentSpec.for_workload(TINY, "cfs", seed=7, sim=SIM)
        res = Campaign.inline().gather([t, _tasks()[1], t])
        assert res[0] is res[2]


class TestCachingAndResume:
    def test_second_campaign_is_all_cache_hits(self, tmp_path):
        Campaign.at(tmp_path).gather(_tasks())
        telemetry = Telemetry(stream=None)
        camp = Campaign(store=ResultStore(tmp_path), telemetry=telemetry)
        camp.gather(_tasks())
        assert telemetry.cache_hits == 3
        assert telemetry.done == 0  # zero re-execution

    def test_resume_executes_only_the_missing_tasks(self, tmp_path):
        Campaign.at(tmp_path).gather(_tasks()[:2])
        telemetry = Telemetry(stream=None)
        camp = Campaign(store=ResultStore(tmp_path), telemetry=telemetry)
        camp.gather(_tasks())
        assert telemetry.cache_hits == 2
        assert telemetry.done == 1

    def test_corrupt_artifact_degrades_to_recomputation(self, tmp_path):
        task = _tasks()[0]
        store = ResultStore(tmp_path)
        Campaign(store=store).gather([task])
        store._object_path(cache_key(task)).write_text("{not json")
        telemetry = Telemetry(stream=None)
        out = Campaign(store=ResultStore(tmp_path), telemetry=telemetry).gather([task])
        assert telemetry.cache_hits == 0
        assert telemetry.done == 1
        assert out[0].n_quanta > 0

    def test_store_index_describes_every_artifact(self, tmp_path):
        store = ResultStore(tmp_path)
        Campaign(store=store).gather(_tasks())
        assert len(store) == 3
        entries = [
            json.loads(line)
            for line in store.index_path.read_text().splitlines()
        ]
        assert {e["policy"] for e in entries} == {"cfs", "dike", "dio"}
        assert set(store.keys()) == {e["key"] for e in entries}


class TestFailurePolicy:
    def test_strict_gather_raises_campaign_error(self):
        # Policy params are validated at spec-construction time now, so an
        # execution-time failure needs a workload that only fails in the
        # worker (WorkloadRef is by-value and unvalidated until rebuilt).
        bad = ExperimentSpec(BAD_WORKLOAD, PolicyRef("dike"), seed=7, work_scale=0.02)
        camp = Campaign(executor=ExecutorConfig(retries=0))
        with pytest.raises(CampaignError) as err:
            camp.gather([bad])
        assert err.value.failures[0].kind == "error"

    def test_lenient_gather_returns_failure_records_in_order(self):
        bad = ExperimentSpec(BAD_WORKLOAD, PolicyRef("dike"), seed=7, work_scale=0.02)
        good = _tasks()[0]
        out = Campaign(executor=ExecutorConfig(retries=0)).gather(
            [good, bad], strict=False
        )
        assert out[0].n_quanta > 0
        assert isinstance(out[1], TaskFailure)


class TestCrossExperimentSharing:
    def test_fig1_and_sweep_share_the_cfs_baseline(self, tmp_path):
        """The duplicated CFS baseline the figures used to each recompute
        is now one cached task: whoever runs second gets a cache hit."""
        telemetry = Telemetry(stream=None)
        camp = Campaign(store=ResultStore(tmp_path), telemetry=telemetry)
        spec = workload("wl2")
        sweep_configurations(
            spec, work_scale=0.02,
            quanta_choices=(0.5,), swap_choices=(4,), campaign=camp,
        )
        assert telemetry.cache_hits == 0
        run_fig1(
            cases=(("wl2", "jacobi"),), work_scale=0.02, campaign=camp
        )
        assert telemetry.cache_hits == 1  # wl2 CFS@heterogeneous reused


class TestContinuousInvariants:
    """The Figure 6 grid as a standing contract test (``invariants=``)."""

    def test_every_policy_reports_zero_violations(self):
        telemetry = Telemetry(stream=None)
        camp = Campaign(telemetry=telemetry, invariants=True)
        results = camp.gather(_tasks())
        for task, result in zip(_tasks(), results):
            digest = result.info["invariants"]
            assert digest["total"] == 0, f"{task.policy.name}: {digest}"
            assert digest["checked"] > 0
        assert telemetry.invariant_tasks == 3
        assert telemetry.invariant_violations == 0

    def test_counts_land_in_telemetry_jsonl(self, tmp_path):
        events = tmp_path / "events.jsonl"
        camp = Campaign(
            telemetry=Telemetry(events_path=events, stream=None),
            invariants=True,
        )
        camp.gather(_tasks())
        camp.telemetry.close()
        lines = [json.loads(l) for l in events.read_text().splitlines()]
        dones = [l for l in lines if l["event"] == "task_done"]
        assert len(dones) == 3
        for done in dones:
            assert done["invariants"]["total"] == 0
            assert done["invariants"]["rules"]
        summary = next(l for l in lines if l["event"] == "summary")
        assert summary["invariant_violations"] == 0
        assert summary["invariant_tasks"] == 3

    def test_invariant_tasks_have_distinct_cache_keys(self):
        plain = _tasks()[0]
        from dataclasses import replace

        checked = replace(plain, invariants=True)
        assert cache_key(plain) != cache_key(checked)
        # and the plain spec's fingerprint (hence key) is unchanged by the field
        assert "invariants" not in task_fingerprint(plain)

    def test_resume_replays_recorded_counts_instead_of_zero(self, tmp_path):
        events = tmp_path / "events.jsonl"
        Campaign.at(tmp_path / "cache", invariants=True).gather(_tasks())

        resumed = Campaign(
            store=ResultStore(tmp_path / "cache"),
            telemetry=Telemetry(events_path=events, stream=None),
            invariants=True,
        )
        results = resumed.gather(_tasks())
        resumed.telemetry.close()
        assert resumed.telemetry.done == 0  # nothing re-ran
        assert resumed.telemetry.cache_hits == 3
        # the recorded digests were replayed, not zeroed or dropped
        assert resumed.telemetry.invariant_tasks == 3
        for result in results:
            assert result.info["invariants"]["checked"] > 0
        lines = [json.loads(l) for l in events.read_text().splitlines()]
        hits = [l for l in lines if l["event"] == "cache_hit"]
        assert len(hits) == 3
        for hit in hits:
            assert hit["invariants"]["total"] == 0
            assert hit["invariants"]["checked"] > 0

    def test_trace_dir_writes_one_trace_per_executed_task(self, tmp_path):
        camp = Campaign(trace_dir=tmp_path / "traces")
        camp.gather(_tasks()[:2])
        traces = sorted(p.name for p in (tmp_path / "traces").iterdir())
        assert len(traces) == 2
        assert all(name.endswith(".jsonl") for name in traces)

    def test_specs_sharing_a_label_write_distinct_traces(self, tmp_path):
        """The label omits topology, scale, LLC and arrivals; the file
        name carries the cache key so such specs never overwrite."""
        specs = [
            ExperimentSpec.for_workload(
                TINY, "cfs", seed=7,
                sim=SimParams(work_scale=0.02, topology=topology),
            )
            for topology in ("heterogeneous", "homogeneous")
        ]
        assert specs[0].label() == specs[1].label()
        Campaign(trace_dir=tmp_path / "traces").gather(specs)
        traces = sorted(p.name for p in (tmp_path / "traces").iterdir())
        assert traces == sorted(
            f"tiny_cfs_s7-{spec.cache_key()[:12]}.jsonl" for spec in specs
        )
