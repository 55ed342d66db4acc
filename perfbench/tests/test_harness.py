"""Tests of the benchmark harness itself (not of the program).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

The workloads run here are shrunken copies of the real ones (fewer runs,
tiny work scale), so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import math
import re
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import plans  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class TinyGrid(plans.PaperGrid):
    work_scale = 0.05
    warm_passes = 1

    def grid(self):
        workloads, _, seeds = super().grid()
        return workloads[:1], ("cfs", "dike"), seeds


class TinyBatch(plans.SeedBatch):
    work_scale = 0.05
    warm_passes = 1

    def grid(self):
        workloads, policies, seeds = super().grid()
        return workloads[:1], policies, seeds[:4]


class TinyScale(plans.Scale512):
    work_scale = 0.02
    warm_passes = 1


class TinyOpenLoop(plans.OpenLoopLLC):
    work_scale = 0.05
    n_jobs = 4
    warm_passes = 1


TINY = {
    "paper-grid": TinyGrid,
    "seed-batch": TinyBatch,
    "scale512": TinyScale,
    "openloop-llc": TinyOpenLoop,
}


def rep(name: str, tmp_path: Path, seed: int = 1, traced: bool = False) -> dict:
    rec = tracing.Recorder() if traced else None
    plan = TINY[name](seed, tmp_path / f"store-{seed}-{traced}", rec)
    return worker.run_rep(plan, spawn_t=time.monotonic(), check_expected=False)


def layer_names() -> set[str]:
    return set(tracing.layer_metrics(tracing.Recorder())) | {"trace.overhead_ratio"}


def test_metric_names_and_units_are_well_formed():
    names = set(run.END_TO_END) | layer_names()
    names |= {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert all(NAME.fullmatch(n) for n in names), sorted(n for n in names if not NAME.fullmatch(n))
    units = set(run.END_TO_END.values()) | {run.layer_unit(n) for n in layer_names()}
    units |= {m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert all(UNIT.fullmatch(u) for u in units)


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(plans.PLANS) == set(TINY)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"] for m in SPEC["per_layer"]} == layer_names()
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        unit = run.END_TO_END.get(m["name"]) or run.layer_unit(m["name"])
        assert m["unit"] == unit, m


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_emits_every_metric_and_wrappers_keep_digests(name, tmp_path):
    untraced = rep(name, tmp_path)
    traced = rep(name, tmp_path, traced=True)
    assert untraced["failed"] == traced["failed"] == 0, untraced["errors"] + traced["errors"]
    assert untraced["attempted"] >= 1
    # The span wrappers must not change a single simulated output.
    assert traced["digests"] == untraced["digests"]

    e2e = run.end_to_end([untraced])
    assert list(e2e) == list(run.END_TO_END)
    assert all(v > 0 and math.isfinite(v) for v in e2e.values()), e2e

    layers = traced["layers"]
    assert set(layers) | {"trace.overhead_ratio"} == layer_names()
    assert all(math.isfinite(v) and v >= 0 for v in layers.values())
    assert layers["trace.spans"] > 0
    assert layers["campaign.store.hit_ratio"] == 1.0
    assert layers["campaign.store.get.calls"] >= untraced["attempted"]
    assert layers["workloads.build.ms_total"] > 0


def test_layers_run_where_the_workload_says(tmp_path):
    grid = rep("paper-grid", tmp_path, traced=True)["layers"]
    assert grid["core.observer.ms_total"] > 0 and grid["sim.memory.calls"] > 0
    assert grid["sim.llc.calls"] == 0 and grid["sim.batch.lanes"] == 0
    batch = rep("seed-batch", tmp_path, traced=True)["layers"]
    assert batch["sim.batch.lanes"] == 4 and batch["campaign.batch.units"] == 1
    assert batch["core.observer.ms_total"] == 0
    llc = rep("openloop-llc", tmp_path, traced=True)["layers"]
    assert llc["sim.llc.calls"] > 0 and llc["traffic.summarize.ms_total"] > 0


def test_same_seed_same_digests(tmp_path):
    first = rep("openloop-llc", tmp_path)
    again = rep("openloop-llc", tmp_path / "again")
    assert first["digests"] == again["digests"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_seed_changes_the_generated_inputs(name, tmp_path):
    def inputs(seed):
        plan = plans.PLANS[name](seed, tmp_path / "unused")
        plan.setup()
        return [spec.to_dict() for spec in plan.specs]

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)


def test_committed_digests_cover_every_default_seed_run():
    committed = json.loads((BENCH / "expected_digests.json").read_text())
    assert committed["seed"] == plans.DEFAULT_SEED
    sizes = {"paper-grid": 80, "seed-batch": 96, "scale512": 2, "openloop-llc": 3}
    assert {k: len(v) for k, v in committed["workloads"].items()} == sizes


def test_span_self_time_excludes_children():
    rec = tracing.Recorder()
    run_span = rec.wrap("sim.engine.run", lambda: quantum())
    quantum = rec.wrap("sim.engine.quantum", lambda: time.sleep(0.01))
    run_span()
    assert [s[0] for s in rec.spans] == ["sim.engine.run", "sim.engine.quantum"]
    assert rec.spans[0][3] == -1 and rec.spans[1][3] == 0
    m = tracing.layer_metrics(rec)
    assert m["sim.engine.quanta"] == 1
    assert m["share.counters_ms_per_quantum"] >= 10.0  # the child's own time
    assert m["sim.engine.self_ms_per_quantum"] < 5.0  # the parent minus its child


class _Scheduler:
    def quantum_length_s(self):
        return 0.01


def test_steps_leave_probe_time_out_and_take_their_chunk_factor():
    host = hostspeed.HostSpeed(chunk_s=0.0)  # a probe at every step
    steps: list = []
    scheduler = _Scheduler()
    tracing.stamp_steps(scheduler, steps, host)
    scheduler.quantum_length_s()
    t0, probed0 = time.perf_counter(), host.probe_s
    for _ in range(5):
        time.sleep(0.002)
        scheduler.quantum_length_s()
    elapsed = time.perf_counter() - t0
    assert len(steps) == 5 and len(host.chunks) == 6
    assert [i for _, i in steps] == [1, 2, 3, 4, 5]
    probed = host.probe_s - probed0
    assert probed > 0
    assert sum(s for s, _ in steps) <= elapsed - probed + 1e-6
    host.close("next")
    corrected, raw = host.seconds("setup")
    assert corrected == pytest.approx(sum(
        w * hostspeed.REFERENCE_PROBE_S / p for label, w, p in host.chunks if label == "setup"
    ))
    assert raw == pytest.approx(sum(w for label, w, _ in host.chunks if label == "setup"))
