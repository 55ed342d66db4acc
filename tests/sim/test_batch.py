"""Batched-engine equivalence: `repro.sim.batch` vs the scalar engine.

The batched engine's contract is *bit-equality*: for any batch of
compatible runs, every lane's ``RunResult`` — metrics, events, info —
serialises to exactly the bytes the scalar engine produces for the same
run, and the final ``SimState`` columns match bit-for-bit.  These tests
pin that down over randomized (seed, workload, policy) triples, mixed run
lengths (early finishers), open-loop arrivals, truncation and mixed LLC
models, plus the JSONL byte-identity of a traced lane.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.experiments.serialization import run_result_to_full_json
from repro.policies import REGISTRY
from repro.sim.batch import STACKED_COLUMNS, BatchEngine, batch_compatible
from repro.sim.engine import SimulationEngine
from repro.sim.topology import xeon_e5_heterogeneous
from repro.workloads.suite import workload

WORK_SCALE = 0.05


def _engine(
    wl: str,
    policy: str,
    seed: int,
    work_scale: float = WORK_SCALE,
    max_time_s: float = 36_000.0,
):
    spec = workload(wl)
    return SimulationEngine(
        topology=xeon_e5_heterogeneous(),
        groups=spec.build(seed=seed, work_scale=work_scale),
        scheduler=REGISTRY.factory(policy)(),
        seed=seed,
        max_time_s=max_time_s,
        workload_name=spec.name,
    )


class TestRandomizedTriples:
    def test_randomized_seed_workload_policy_triples(self):
        rng = random.Random(0xBA7C4)
        policies = sorted(s.name for s in REGISTRY)
        workloads = ["wl1", "wl7", "wl12"]
        configs = [
            (rng.choice(workloads), rng.choice(policies), rng.randrange(1000))
            for _ in range(10)
        ]
        scalar = [_engine(*c).run() for c in configs]
        lanes = [_engine(*c) for c in configs]
        batched = BatchEngine(lanes).run()
        for c, s, b in zip(configs, scalar, batched):
            assert run_result_to_full_json(s) == run_result_to_full_json(b), c

    def test_final_state_columns_bit_equal(self):
        configs = [("wl1", "cfs", 3), ("wl7", "dike", 5), ("wl12", "dio", 9)]
        ref_lanes = [_engine(*c) for c in configs]
        for lane in ref_lanes:
            lane.run()
        lanes = [_engine(*c) for c in configs]
        BatchEngine(lanes).run()
        for ref, lane, c in zip(ref_lanes, lanes, configs):
            for col in STACKED_COLUMNS:
                np.testing.assert_array_equal(
                    getattr(lane.state, col),
                    getattr(ref.state, col),
                    err_msg=f"column {col!r} diverged for {c}",
                )

    def test_mixed_run_lengths_finish_early(self):
        # Very different work scales: short lanes go inactive while the
        # batch continues, and must still match their scalar runs.
        configs = [
            ("wl1", "cfs", 1, 0.01),
            ("wl1", "cfs", 2, 0.08),
            ("wl7", "static", 3, 0.02),
            ("wl12", "dike", 4, 0.05),
        ]
        scalar = [_engine(*c).run() for c in configs]
        lanes = [_engine(*c) for c in configs]
        batched = BatchEngine(lanes).run()
        assert len({r.n_quanta for r in batched}) > 1  # genuinely ragged
        for s, b in zip(scalar, batched):
            assert run_result_to_full_json(s) == run_result_to_full_json(b)


class TestLifecycleEdges:
    def test_truncated_lane_matches_scalar(self):
        configs = [
            ("wl1", "cfs", 1, WORK_SCALE, 2.0),  # truncates at 2 s
            ("wl1", "cfs", 2, WORK_SCALE, 36_000.0),
        ]
        scalar = [_engine(*c).run() for c in configs]
        assert scalar[0].info["truncated"]
        lanes = [_engine(*c) for c in configs]
        batched = BatchEngine(lanes).run()
        for s, b in zip(scalar, batched):
            assert run_result_to_full_json(s) == run_result_to_full_json(b)

    def test_open_loop_arrivals_match_scalar(self):
        from repro.traffic import TrafficSpec

        wl = TrafficSpec.at_rate(0.25, n_jobs=6, trace_seed=3).workload()

        def build(policy, seed):
            return SimulationEngine(
                topology=xeon_e5_heterogeneous(),
                groups=wl.build(seed=seed, work_scale=0.05),
                scheduler=REGISTRY.factory(policy)(),
                seed=seed,
                workload_name=wl.name,
            )

        scalar = [build("cfs", 1).run(), build("dike", 2).run()]
        batched = BatchEngine([build("cfs", 1), build("dike", 2)]).run()
        for s, b in zip(scalar, batched):
            assert run_result_to_full_json(s) == run_result_to_full_json(b)

    def test_single_lane_batch(self):
        s = _engine("wl1", "dike", 11).run()
        (b,) = BatchEngine([_engine("wl1", "dike", 11)]).run()
        assert run_result_to_full_json(s) == run_result_to_full_json(b)


class TestCompatibility:
    def test_llc_and_no_llc_lanes_batch_together(self):
        # Occupancy-LLC lanes share the physics kernel with plain lanes;
        # each lane's result still serialises to its scalar bytes.
        configs = [
            ("wl1", "cfs", 1, "occupancy"),
            ("wl7", "dike", 2, None),
            ("wl12", "lfoc", 3, "occupancy"),
            ("wl1", "dio", 4, None),
        ]

        def build(wl, policy, seed, llc):
            spec = workload(wl)
            return SimulationEngine(
                topology=xeon_e5_heterogeneous(),
                groups=spec.build(seed=seed, work_scale=WORK_SCALE),
                scheduler=REGISTRY.factory(policy)(),
                seed=seed,
                workload_name=spec.name,
                llc=llc,
            )

        lanes = [build(*c) for c in configs]
        assert batch_compatible(lanes) is None
        scalar = [build(*c).run() for c in configs]
        batched = BatchEngine(lanes).run()
        for c, s, b in zip(configs, scalar, batched):
            assert ("llc" in b.info) == (c[3] is not None)
            assert run_result_to_full_json(s) == run_result_to_full_json(b), c

    def test_compatible_lanes_pass(self):
        assert (
            batch_compatible([_engine("wl1", "cfs", 1), _engine("wl7", "dike", 2)])
            is None
        )


class TestTraceByteIdentity:
    def test_traced_lane_produces_identical_jsonl(self, tmp_path):
        from repro.obs.events import EventBus
        from repro.obs.sinks import JsonlSink

        def run_traced(path, batched: bool, llc):
            bus = EventBus()
            sink = JsonlSink(str(path))
            bus.attach(sink)
            spec = workload("wl1")
            lane = SimulationEngine(
                topology=xeon_e5_heterogeneous(),
                groups=spec.build(seed=4, work_scale=WORK_SCALE),
                scheduler=REGISTRY.factory("dike")(),
                seed=4,
                workload_name=spec.name,
                llc=llc,
                bus=bus,
            )
            if batched:
                # Traced lane rides inside a batch with untraced peers.
                BatchEngine(
                    [_engine("wl1", "cfs", 1), lane, _engine("wl7", "dio", 2)]
                ).run()
            else:
                lane.run()
            sink.close()

        for llc in (None, "occupancy"):
            a = tmp_path / f"scalar-{llc}.jsonl"
            b = tmp_path / f"batched-{llc}.jsonl"
            run_traced(a, batched=False, llc=llc)
            run_traced(b, batched=True, llc=llc)
            assert a.read_bytes() == b.read_bytes(), llc
            # The LLC lane's cache-share events come from the shared kernel.
            assert (b'"cache_share_updated"' in b.read_bytes()) == (llc is not None)

    def test_trace_diff_exits_zero(self, tmp_path):
        from repro.obs.diff import diff_traces, load_events

        def run_traced(path):
            from repro.obs.events import EventBus
            from repro.obs.sinks import JsonlSink

            bus = EventBus()
            sink = JsonlSink(str(path))
            bus.attach(sink)
            spec = workload("wl1")
            lane = SimulationEngine(
                topology=xeon_e5_heterogeneous(),
                groups=spec.build(seed=4, work_scale=WORK_SCALE),
                scheduler=REGISTRY.factory("cfs")(),
                seed=4,
                workload_name=spec.name,
                bus=bus,
            )
            BatchEngine([lane]).run()
            sink.close()

        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_traced(a)
        run_traced(b)
        report = diff_traces(load_events(str(a)), load_events(str(b)))
        assert report.identical


class TestBatchedBench:
    def test_run_batch_case_reports_speedup_fields(self):
        from repro.benchmarking import BatchBenchCase, run_batch_case

        r = run_batch_case(
            BatchBenchCase(
                name="t", workload="wl1", policy="static", n_runs=3,
                work_scale=0.02,
            ),
            repeats=1,
        )
        assert r["n_runs"] == 3
        assert r["quanta_per_s"] > 0 and r["scalar_quanta_per_s"] > 0
        assert math.isclose(
            r["speedup_vs_scalar"],
            round(r["quanta_per_s"] / r["scalar_quanta_per_s"], 2),
            abs_tol=0.011,
        )
