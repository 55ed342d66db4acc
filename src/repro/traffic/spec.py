"""Declarative traffic grids: arrival process × policy × seed campaigns.

:class:`TrafficSpec` is the frozen description of one open-loop load
point — which arrival process, at what rate, how many jobs, generated at
which trace seed — and deterministically expands to a
:class:`~repro.traffic.trace.JobTrace` / workload on demand.
:class:`TrafficCampaignSpec` crosses a tuple of those load points with
policies and engine seeds, and :func:`plan_traffic` turns the grid into
the same deduplicated, cache-keyed
:class:`~repro.campaign.planner.CampaignPlan` closed-system campaigns
use, so ``repro traffic`` sweeps share the campaign cache, worker pool
and telemetry unchanged.

Only policies tagged ``"open-loop"`` in the registry may appear in a
traffic campaign: a policy whose initial placement requires the whole
thread population at t=0 (the oracle) cannot schedule a system where
most threads do not exist yet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.policies import REGISTRY
from repro.spec import ExperimentSpec, SimParams
from repro.topologies import TOPOLOGY_REGISTRY
from repro.traffic.generators import GENERATORS, make_process
from repro.traffic.replay import TrafficWorkload, workload_from_trace
from repro.traffic.trace import JobTrace
from repro.util.rng import DEFAULT_SEED
from repro.util.validation import check_positive, require

__all__ = ["TrafficSpec", "TrafficCampaignSpec", "plan_traffic"]


@dataclass(frozen=True)
class TrafficSpec:
    """One open-loop load point (a cell of a rate × process grid).

    ``trace_seed`` seeds the arrival sampling only; the engine seed (which
    jitters per-thread work) is a separate campaign axis.  ``apps`` empty
    means the generator's default pool (the full registry); ``params``
    carries process-specific knobs (``burst_factor`` etc.) as a sorted
    tuple so equal specs compare equal.
    """

    process: str = "poisson"
    mean_interarrival_s: float = 15.0
    n_jobs: int = 32
    trace_seed: int = 0
    n_threads: int = 8
    apps: tuple[str, ...] = ()
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        require(
            self.process in GENERATORS,
            f"unknown arrival process {self.process!r}; "
            f"known: {sorted(GENERATORS)}",
        )
        check_positive(self.mean_interarrival_s, "mean_interarrival_s")
        require(self.n_jobs >= 1, "n_jobs must be >= 1")
        require(self.n_threads >= 1, "n_threads must be >= 1")
        object.__setattr__(self, "params", tuple(sorted(self.params)))

    @classmethod
    def at_rate(cls, rate_per_s: float, **kwargs: Any) -> "TrafficSpec":
        """Construct from an arrival *rate* (jobs per second)."""
        check_positive(rate_per_s, "rate_per_s")
        return cls(mean_interarrival_s=1.0 / rate_per_s, **kwargs)

    @property
    def rate_per_s(self) -> float:
        return 1.0 / self.mean_interarrival_s

    @property
    def name(self) -> str:
        return (
            f"{self.process}-r{self.rate_per_s:g}"
            f"-n{self.n_jobs}-s{self.trace_seed}"
        )

    def arrival_process(self):
        extra: dict[str, Any] = dict(self.params)
        if self.apps:
            extra["apps"] = self.apps
        return make_process(self.process, self.mean_interarrival_s, **extra)

    def trace(self) -> JobTrace:
        """The (deterministic) job trace this spec describes."""
        return self.arrival_process().generate(
            n_jobs=self.n_jobs,
            seed=self.trace_seed,
            n_threads=self.n_threads,
            name=self.name,
        )

    def workload(self) -> TrafficWorkload:
        return workload_from_trace(self.trace())


@dataclass(frozen=True)
class TrafficCampaignSpec:
    """A traffic grid: load points × open-loop policies × engine seeds.

    Exposes the same planning-facing shape as
    :class:`~repro.campaign.planner.CampaignSpec` (``workloads`` /
    ``policies`` / ``seeds`` / ``sweep`` / ``param_grid``) so the
    resulting :class:`CampaignPlan`'s dry-run report works unmodified.
    """

    traffic: tuple[TrafficSpec, ...]
    name: str = "traffic-grid"
    policies: tuple[str, ...] = ("cfs", "dio", "dike")
    seeds: tuple[int, ...] = (DEFAULT_SEED,)
    work_scale: float = 1.0
    invariants: bool = False
    #: shared-LLC backend name (`repro.sim.llc`); ``None`` = NullLLC
    llc: str | None = None
    #: machine preset name (`repro.topologies.TOPOLOGY_REGISTRY`)
    topology: str = "heterogeneous"
    #: preset customisation, validated against the topology's schema
    topology_params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        require(len(self.traffic) >= 1, "a traffic campaign needs >= 1 load point")
        require(len(self.policies) >= 1, "a traffic campaign needs >= 1 policy")
        require(len(self.seeds) >= 1, "a traffic campaign needs >= 1 seed")
        # Raises UnknownTopologyError / ValueError on a bad name or params.
        TOPOLOGY_REGISTRY.get(self.topology).validate_params(
            dict(self.topology_params)
        )
        for p in self.policies:
            spec = REGISTRY.get(p)  # raises UnknownPolicyError on a bad name
            require(
                "open-loop" in spec.tags,
                f"policy {p!r} is not open-loop safe (its placement needs "
                "the full thread population at t=0); open-loop policies: "
                f"{sorted(s.name for s in REGISTRY.tagged('open-loop'))}",
            )

    # -- CampaignPlan.describe() compatibility -------------------------

    @property
    def workloads(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.traffic)

    @property
    def sweep(self) -> bool:
        return False

    @property
    def param_grid(self) -> tuple:
        return ()


def plan_traffic(
    spec: TrafficCampaignSpec, cached_keys: frozenset[str] | None = None
):
    """Expand a traffic grid into a deduplicated
    :class:`~repro.campaign.planner.CampaignPlan`.

    Every task carries ``traffic=True`` so workers stamp the
    tail-latency summary into ``RunResult.info["traffic"]`` before the
    result is cached — a cache hit replays percentiles for free.
    """
    # Late import: repro.campaign imports repro.traffic for replay
    # support, so the planner cannot be a module-level dependency here.
    from repro.campaign.planner import CampaignPlan, dedupe

    sim = SimParams(
        work_scale=spec.work_scale,
        llc=spec.llc,
        topology=spec.topology,
        topology_params=spec.topology_params,
    )
    requested: list[ExperimentSpec] = []
    for load in spec.traffic:
        wl = load.workload()
        for seed in spec.seeds:
            for policy in spec.policies:
                requested.append(
                    ExperimentSpec.for_traffic(
                        wl,
                        policy,
                        seed,
                        sim=sim,
                        invariants=spec.invariants,
                    )
                )
    tasks, keys = dedupe(requested)
    return CampaignPlan(
        spec=spec,
        tasks=tasks,
        keys=keys,
        n_requested=len(requested),
        cached=frozenset(k for k in keys if k in (cached_keys or frozenset())),
    )
