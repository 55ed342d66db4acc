"""The tune driver: candidate evaluation, objective, artifact.

The `Tuner` turns a strategy's abstract search into campaign work: each
candidate point becomes one `repro.spec.ExperimentSpec` per
(workload, seed) cell, the whole batch resolves through
``Campaign.gather`` — deduplicated, cached, parallel — and the
objective is the **mean Eqn. 4 fairness** across cells (higher is
better, matching the paper's evaluation axis).

Because evaluation is content-addressed, the search is *resumable*: an
interrupted run re-planned with the same seed proposes the same points
in the same order, finds its earlier evaluations in the cache and pays
only for the remainder.  For the same reason the artifact is
deterministic — it records the search trajectory and the winner, never
wall-clock or cache statistics.

The emitted artifact is a tuned-policy JSON document whose
``(policy, params)`` pair validates against the policy registry — i.e.
a serialised parameterisation any verb accepts via
``--policy name:k=v,...`` or a campaign ``param_grid``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.metrics.fairness import fairness
from repro.policies import REGISTRY
from repro.spec import ExperimentSpec, PolicyRef, TopologyRef
from repro.tune.space import DEFAULT_TUNABLES, SearchSpace
from repro.tune.strategies import STRATEGIES, Evaluation
from repro.util.rng import DEFAULT_SEED
from repro.util.validation import require
from repro.workloads.suite import WORKLOAD_TABLE, workload

__all__ = ["ARTIFACT_VERSION", "TuneConfig", "TuneResult", "Tuner"]

#: Version stamp of the tuned-policy artifact document.
ARTIFACT_VERSION = 1

#: Objective value of a cell whose run produced no finite fairness —
#: pessimistic enough that no healthy configuration can lose to it.
_FAILED_SCORE = -1.0


@dataclass(frozen=True)
class TuneConfig:
    """Everything a search depends on (and the artifact echoes)."""

    policy: str = "dike"
    strategy: str = "ga"
    budget: int = 24
    seed: int = 0
    tunables: tuple[str, ...] = DEFAULT_TUNABLES
    workloads: tuple[str, ...] = tuple(WORKLOAD_TABLE)
    eval_seeds: tuple[int, ...] = (DEFAULT_SEED,)
    work_scale: float = 1.0
    quick_scale: float = 0.05
    topology: str = "heterogeneous"
    topology_params: tuple[tuple[str, object], ...] = ()
    llc: str | None = None
    invariants: bool = False
    #: GA population / halving promotion factor (strategy-specific)
    population: int = 8
    eta: int = 2

    def __post_init__(self) -> None:
        REGISTRY.get(self.policy)  # raises UnknownPolicyError early
        require(self.strategy in STRATEGIES,
                f"unknown strategy {self.strategy!r}; known: "
                f"{sorted(STRATEGIES)}")
        require(self.budget >= 1, "budget must be >= 1 evaluation")
        require(len(self.workloads) >= 1, "need >= 1 workload")
        require(len(self.eval_seeds) >= 1, "need >= 1 evaluation seed")
        for w in self.workloads:
            require(w in WORKLOAD_TABLE, f"unknown workload {w!r}")


@dataclass(frozen=True)
class TuneResult:
    """A finished search: the winner plus its full trajectory."""

    config: TuneConfig
    best_params: dict
    best_score: float
    history: tuple[Evaluation, ...]
    n_evaluations: int

    def to_artifact(self) -> dict:
        """The tuned-policy JSON document (see module docstring).

        Deterministic for a fixed config: no timestamps, no cache or
        host statistics.  ``(policy, params)`` validate against the
        registry before serialisation.
        """
        REGISTRY.get(self.config.policy).validate_params(self.best_params)
        cfg = self.config
        return {
            "artifact_version": ARTIFACT_VERSION,
            "kind": "tuned-policy",
            "policy": cfg.policy,
            "params": dict(sorted(self.best_params.items())),
            "score": self.best_score,
            "objective": "mean Eqn-4 fairness across workloads x seeds",
            "strategy": cfg.strategy,
            "budget": cfg.budget,
            "seed": cfg.seed,
            "tunables": list(cfg.tunables),
            "workloads": list(cfg.workloads),
            "eval_seeds": list(cfg.eval_seeds),
            "work_scale": cfg.work_scale,
            "topology": cfg.topology,
            "topology_params": [list(kv) for kv in cfg.topology_params],
            "llc": cfg.llc,
            "history": [
                {
                    "params": dict(sorted(e.params.items())),
                    "score": e.score,
                    "scale": e.scale,
                    "round": e.round,
                }
                for e in self.history
            ],
        }

    def policy_arg(self) -> str:
        """The winner as a ``--policy name:k=v,...`` CLI argument."""
        inner = ",".join(
            f"{k}={v}" for k, v in sorted(self.best_params.items())
        )
        return f"{self.config.policy}:{inner}" if inner else self.config.policy


class Tuner:
    """Drives one search: strategy in, tuned artifact out."""

    def __init__(self, campaign, config: TuneConfig, log=None) -> None:
        import numpy as np

        self.campaign = campaign
        self.config = config
        self.space = SearchSpace.for_policy(config.policy, config.tunables)
        self.log = log or (lambda msg: None)
        self._rng = np.random.default_rng(config.seed)
        #: (point key, scale) -> score; distinct entries = budget spent
        self._scores: dict[tuple, float] = {}

    # --------------------------------------------------------- evaluation

    def specs_for(self, point: dict, scale: float | None = None) -> list:
        """The candidate's evaluation cells, as `ExperimentSpec`s."""
        cfg = self.config
        policy = PolicyRef.of(cfg.policy, point)
        topology = TopologyRef.of(cfg.topology, dict(cfg.topology_params))
        return [
            ExperimentSpec(
                workload=_workload_ref(wl),
                policy=policy,
                topology=topology,
                seed=seed,
                work_scale=cfg.work_scale if scale is None else scale,
                llc=cfg.llc,
                invariants=cfg.invariants,
            )
            for wl in cfg.workloads
            for seed in cfg.eval_seeds
        ]

    def evaluate(self, point: dict, scale: float | None = None) -> float:
        """Objective at one point: mean Eqn. 4 fairness over all cells.

        Memoised by (point, scale) — revisits are free for the strategy
        *and* for the campaign (content-addressed cache hits).
        """
        key = (self.space.key(point), scale)
        if key in self._scores:
            return self._scores[key]
        results = self.campaign.gather(self.specs_for(point, scale))
        scores = []
        for res in results:
            value = fairness(res)
            scores.append(
                value if math.isfinite(value) else _FAILED_SCORE
            )
        score = float(sum(scores) / len(scores))
        self._scores[key] = score
        return score

    # ------------------------------------------------------------- search

    def run(self) -> TuneResult:
        cfg = self.config
        strategy = self._make_strategy()
        if cfg.strategy == "halving":
            history = strategy.run(
                self.space, self.evaluate, cfg.budget, self._rng,
                log=self.log, full_scale=cfg.work_scale,
            )
        else:
            history = strategy.run(
                self.space, self.evaluate, cfg.budget, self._rng,
                log=self.log,
            )
        require(len(history) >= 1, "the search evaluated no candidates")
        # The winner must hold at *full* scale: prefer full-scale
        # evaluations (every GA entry; halving's last rung), falling
        # back to the best anywhere only if none exist.
        full = [e for e in history if e.scale is None]
        best = max(full or history, key=lambda e: e.score)
        return TuneResult(
            config=cfg,
            best_params=dict(best.params),
            best_score=best.score,
            history=tuple(history),
            n_evaluations=len(self._scores),
        )

    def _make_strategy(self):
        cfg = self.config
        if cfg.strategy == "ga":
            return STRATEGIES["ga"](population=cfg.population)
        return STRATEGIES["halving"](
            eta=cfg.eta, quick_scale=cfg.quick_scale
        )


def _workload_ref(name: str):
    from repro.spec import WorkloadRef

    return WorkloadRef.from_spec(workload(name))
