"""Ablation benches for the design choices DESIGN.md §5 calls out.

Each ablation disables or perturbs one Dike mechanism and checks the
direction of the effect the paper's design rationale predicts.  Workloads:
one per class (B/UC/UM) at a reduced scale; aggregates are means over the
three.

All runs are submitted through one module-level campaign, whose in-memory
memo dedups the CFS baselines every ablation shares: each distinct
(workload, migration-model) baseline simulates once per session instead of
once per ablation.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from conftest import run_once

from repro.campaign.core import Campaign
from repro.core.config import DikeConfig
from repro.metrics.fairness import fairness
from repro.metrics.performance import speedup
from repro.sim.migration import MigrationModel
from repro.spec import ExperimentSpec, SimParams
from repro.workloads.suite import workload

SCALE = 0.2
WORKLOADS = ("wl2", "wl9", "wl14")

#: Shared across every ablation in the session (baseline dedup).
CAMPAIGN = Campaign.inline()


def _dike_params(config: DikeConfig | None) -> dict:
    """Non-default DikeConfig fields, as campaign policy parameters."""
    if config is None:
        return {}
    default = DikeConfig()
    return {
        f.name: getattr(config, f.name)
        for f in dataclasses.fields(config)
        if f.name != "goal" and getattr(config, f.name) != getattr(default, f.name)
    }


def _sim_params(migration: MigrationModel | None) -> SimParams:
    mig = (
        (migration.swap_overhead_s, migration.warmup_work, migration.warmup_miss_scale)
        if migration is not None
        else None
    )
    return SimParams(work_scale=SCALE, migration=mig)


def _evaluate(config: DikeConfig | None = None, migration=None):
    """Mean fairness / geomean speedup / mean swaps over the workload trio."""
    sim = _sim_params(migration)
    params = _dike_params(config)
    tasks = []
    for name in WORKLOADS:
        spec = workload(name)
        tasks.append(ExperimentSpec.for_workload(spec, "cfs", sim=sim))
        tasks.append(
            ExperimentSpec.for_workload(spec, "dike", policy_params=params, sim=sim)
        )
    results = iter(CAMPAIGN.gather(tasks))
    fair, speed, swaps = [], [], []
    for _ in WORKLOADS:
        base, res = next(results), next(results)
        fair.append(fairness(res))
        speed.append(speedup(res, base))
        swaps.append(res.swap_count)
    return (
        float(np.mean(fair)),
        float(np.exp(np.mean(np.log(speed)))),
        float(np.mean(swaps)),
    )


def test_ablation_predictor(benchmark, save_artefact):
    """Closed-loop profit filtering vs swap-whatever-the-selector-says.

    Without the Predictor/Decider profit gate Dike performs strictly more
    migrations for no performance gain — the mechanism the paper credits
    for beating DIO's overhead.
    """

    def run():
        full = _evaluate(DikeConfig())
        no_pred = _evaluate(DikeConfig(require_positive_profit=False))
        return full, no_pred

    (full, no_pred) = run_once(benchmark, run)
    save_artefact(
        "ablation_predictor",
        f"full predictor:  F={full[0]:.3f} S={full[1]:.3f} swaps={full[2]:.0f}\n"
        f"no profit gate:  F={no_pred[0]:.3f} S={no_pred[1]:.3f} swaps={no_pred[2]:.0f}",
    )
    assert no_pred[2] >= full[2]  # gate prevents needless migrations
    assert full[1] >= no_pred[1] - 0.03  # and does not cost performance


def test_ablation_decider_cooldown(benchmark, save_artefact):
    """Removing the cooldown lets threads thrash between cores."""

    def run():
        full = _evaluate(DikeConfig())
        no_cd = _evaluate(DikeConfig(cooldown_quanta=0, cooldown_s=0.0))
        return full, no_cd

    (full, no_cd) = run_once(benchmark, run)
    save_artefact(
        "ablation_decider",
        f"with cooldown:    F={full[0]:.3f} S={full[1]:.3f} swaps={full[2]:.0f}\n"
        f"without cooldown: F={no_cd[0]:.3f} S={no_cd[1]:.3f} swaps={no_cd[2]:.0f}",
    )
    assert no_cd[2] > full[2]  # strictly more migrations without cooldown


def test_ablation_fairness_threshold(benchmark, save_artefact):
    """θ_f sweep: a looser threshold swaps less and tolerates unfairness."""

    def run():
        return {
            theta: _evaluate(DikeConfig(fairness_threshold=theta))
            for theta in (0.05, 0.1, 0.4)
        }

    out = run_once(benchmark, run)
    lines = [
        f"theta={theta}: F={v[0]:.3f} S={v[1]:.3f} swaps={v[2]:.0f}"
        for theta, v in out.items()
    ]
    save_artefact("ablation_threshold", "\n".join(lines))
    # monotone swap response to the gate
    assert out[0.05][2] >= out[0.1][2] >= out[0.4][2]
    # an extremely loose gate costs fairness
    assert out[0.4][0] <= out[0.05][0] + 0.005


def test_ablation_rotation_fallback(benchmark, save_artefact):
    """Without gated rotation, saturated (UM-like) workloads keep their
    early progress debt and fairness drops."""

    def run():
        spec = workload("wl14")  # UM: deep saturation, rotation matters
        sim = SimParams(work_scale=SCALE)
        base, with_rot, without = CAMPAIGN.gather(
            [
                ExperimentSpec.for_workload(spec, "cfs", sim=sim),
                ExperimentSpec.for_workload(spec, "dike", sim=sim),
                ExperimentSpec.for_workload(
                    spec, "dike", policy_params={"rotation_fallback": False}, sim=sim
                ),
            ]
        )
        return (
            fairness(with_rot),
            fairness(without),
            fairness(base),
        )

    f_rot, f_plain, f_cfs = run_once(benchmark, run)
    save_artefact(
        "ablation_rotation",
        f"with rotation:    F={f_rot:.3f}\n"
        f"without rotation: F={f_plain:.3f}\n"
        f"cfs baseline:     F={f_cfs:.3f}",
    )
    assert f_rot > f_plain
    assert f_plain > f_cfs  # violator pairing alone still helps


def test_ablation_contention_metric(benchmark, save_artefact):
    """Access rate vs IPC as the contention signal (§III-A).

    IPC conflates core speed with progress on a heterogeneous machine; the
    paper argues access rate is the better signal.  The ablation checks
    access-rate Dike is at least as fair as IPC Dike.
    """

    def run():
        rate = _evaluate(DikeConfig(contention_metric="access_rate"))
        ipc = _evaluate(DikeConfig(contention_metric="ipc"))
        return rate, ipc

    rate, ipc = run_once(benchmark, run)
    save_artefact(
        "ablation_metric",
        f"access-rate metric: F={rate[0]:.3f} S={rate[1]:.3f} swaps={rate[2]:.0f}\n"
        f"ipc metric:         F={ipc[0]:.3f} S={ipc[1]:.3f} swaps={ipc[2]:.0f}",
    )
    assert rate[0] >= ipc[0] - 0.01


def test_ablation_migration_cost(benchmark, save_artefact):
    """Sensitivity to migration cost: with free migrations the performance
    penalty of swapping vanishes; with 4x costs it grows."""

    def run():
        out = {}
        for factor in (0.0, 1.0, 4.0):
            out[factor] = _evaluate(migration=MigrationModel().scaled(factor))
        return out

    out = run_once(benchmark, run)
    lines = [
        f"cost x{factor}: F={v[0]:.3f} S={v[1]:.3f} swaps={v[2]:.0f}"
        for factor, v in out.items()
    ]
    save_artefact("ablation_migration_cost", "\n".join(lines))
    # free migrations never hurt performance relative to expensive ones
    assert out[0.0][1] >= out[4.0][1] - 0.02
