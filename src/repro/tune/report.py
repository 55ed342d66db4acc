"""The tuning report: tuned-static vs paper-adaptive vs default-static.

Answers the ROADMAP's question — does an *offline-searched static*
configuration beat the paper's *online-adaptive* one? — by evaluating a
set of policy entries over the same workload suite × seeds through one
``Campaign.gather`` (so the tuned artifact's own evaluations are cache
hits, and baselines are shared with any earlier campaign at the same
scale):

* ``tuned-static`` — the searched policy pinned to the artifact's
  winning parameters;
* ``default-static`` — the same policy at registry defaults (for
  ``dike``: no online adaptation, the paper's fixed configuration);
* ``paper-adaptive`` — ``dike-af``, the paper's fairness-adaptive mode
  (§III-F Optimizer active);
* any further comparison policies (e.g. ``dike-lms``) at defaults.

Per entry the report records Eqn. 4 fairness per workload (averaged
over seeds) and the suite mean; the ``ranking`` lists entries best
first.  Deterministic: no timestamps, no cache statistics.
"""

from __future__ import annotations

import math

from repro.metrics.fairness import fairness
from repro.policies import REGISTRY
from repro.spec import ExperimentSpec, PolicyRef, TopologyRef
from repro.tune.driver import TuneConfig
from repro.util.validation import require
from repro.workloads.suite import workload

__all__ = ["REPORT_VERSION", "DEFAULT_COMPARISONS", "build_tuning_report"]

#: Version stamp of the tuning-report document.
REPORT_VERSION = 1

#: The ROADMAP comparison: the paper's adaptive mode plus the LMS
#: predictor variant, next to the tuned/default static entries.
DEFAULT_COMPARISONS: tuple[str, ...] = ("dike-af", "dike-lms")


def build_tuning_report(
    campaign,
    config: TuneConfig,
    tuned_params: dict,
    comparisons: tuple[str, ...] = DEFAULT_COMPARISONS,
) -> dict:
    """Evaluate every entry over the config's suite and rank them."""
    REGISTRY.get(config.policy).validate_params(tuned_params)
    entries: list[tuple[str, PolicyRef]] = [
        ("tuned-static", PolicyRef.of(config.policy, tuned_params)),
        ("default-static", PolicyRef.of(config.policy)),
    ]
    for name in comparisons:
        label = "paper-adaptive" if name == "dike-af" else name
        entries.append((label, PolicyRef.of(name)))
    labels = [label for label, _ in entries]
    require(len(set(labels)) == len(labels),
            f"duplicate report entries: {labels}")

    topology = TopologyRef.of(config.topology, dict(config.topology_params))
    cells = [
        (label, wl, seed)
        for label, _ in entries
        for wl in config.workloads
        for seed in config.eval_seeds
    ]
    ref_of = dict(entries)
    specs = [
        ExperimentSpec(
            workload=_workload_ref(wl),
            policy=ref_of[label],
            topology=topology,
            seed=seed,
            work_scale=config.work_scale,
            llc=config.llc,
            invariants=config.invariants,
        )
        for label, wl, seed in cells
    ]
    results = campaign.gather(specs)

    by_entry: dict[str, dict[str, list[float]]] = {
        label: {wl: [] for wl in config.workloads} for label in labels
    }
    for (label, wl, _seed), res in zip(cells, results):
        value = fairness(res)
        if math.isfinite(value):
            by_entry[label][wl].append(float(value))

    report_entries = {}
    for label, ref in entries:
        per_wl = {
            wl: (sum(v) / len(v) if v else None)
            for wl, v in by_entry[label].items()
        }
        finite = [v for v in per_wl.values() if v is not None]
        report_entries[label] = {
            "policy": ref.name,
            "params": dict(ref.params),
            "fairness_by_workload": per_wl,
            "mean_fairness": (sum(finite) / len(finite)) if finite else None,
        }
    ranking = sorted(
        labels,
        key=lambda l: (
            report_entries[l]["mean_fairness"]
            if report_entries[l]["mean_fairness"] is not None
            else float("-inf")
        ),
        reverse=True,
    )
    return {
        "report_version": REPORT_VERSION,
        "kind": "tuning-report",
        "objective": "Eqn-4 fairness (mean of per-workload values, "
                     "each averaged over seeds; higher is better)",
        "work_scale": config.work_scale,
        "workloads": list(config.workloads),
        "eval_seeds": list(config.eval_seeds),
        "topology": config.topology,
        "llc": config.llc,
        "entries": report_entries,
        "ranking": ranking,
    }


def _workload_ref(name: str):
    from repro.spec import WorkloadRef

    return WorkloadRef.from_spec(workload(name))
