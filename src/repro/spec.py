"""The unified experiment specification layer.

One declarative, composable surface for "an experiment":

    ExperimentSpec = ⟨ workload/traffic ref, policy name+params,
                       topology name+params, simulator overrides ⟩

Every run — CLI verbs, campaign grids, traffic campaigns, the tuner —
describes work as an :class:`ExperimentSpec`, and the campaign layer
plans, hashes, batches, executes and stores exactly that type.  The spec
has **one validation path**: policy parameters check against
:data:`repro.policies.REGISTRY`'s declarative `ParamSpec` schemas,
topology parameters against :data:`repro.topologies.TOPOLOGY_REGISTRY`,
and the LLC backend name against :data:`repro.sim.llc.LLC_MODELS` —
validate-never-coerce, so the values a caller supplies are the values
that get hashed and run.

Two serializations: the schema-versioned wire form
(:meth:`ExperimentSpec.to_dict` / :meth:`ExperimentSpec.from_dict`) for
artifacts, and the cache-key fingerprint (:meth:`ExperimentSpec._fingerprint`),
whose layout predates this type and is frozen so historical object
stores stay warm (pinned by ``tests/golden/cache_keys.json``).

`PolicyRef` / `TopologyRef` also own the CLI grammar
(``name[:key=value,...]``) via :meth:`PolicyRef.from_arg` — the same
parser the ``--policy`` and ``--topology`` flags use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping

from repro.policies import REGISTRY, PolicySpec
from repro.sim.llc import LLC_MODELS
from repro.topologies import TOPOLOGY_REGISTRY, TopologySpec, parse_topology_arg
from repro.util.rng import DEFAULT_SEED
from repro.util.validation import require
from repro.workloads.suite import WorkloadSpec

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "WorkloadRef",
    "SimParams",
    "PolicyRef",
    "TopologyRef",
    "ExperimentSpec",
]

#: Version stamp of the :meth:`ExperimentSpec.to_dict` wire form.  Bump
#: only on a breaking change to the serialized layout; readers reject
#: unknown versions instead of guessing.
SPEC_SCHEMA_VERSION = 1


def _sorted_params(params: Mapping[str, Any] | Iterable[tuple[str, Any]] | None):
    if params is None:
        return ()
    items = params.items() if isinstance(params, Mapping) else params
    return tuple(sorted(items))


def _check_llc(llc: str | None) -> None:
    if llc is not None:
        require(
            llc in LLC_MODELS,
            f"unknown llc model {llc!r}; known: {sorted(LLC_MODELS)}",
        )


@dataclass(frozen=True)
class WorkloadRef:
    """A workload by value: the four `WorkloadSpec` fields, nothing more.

    Suite workloads (``wl1`` .. ``wl16``) and ad-hoc specs (standalone
    runs, test workloads) serialise identically — the reference carries
    the full recipe, so a worker process can rebuild the spec without any
    registry lookup.

    Open-system workloads add ``arrivals`` (one arrival time per entry of
    ``apps``, which then lists each *job's* application in order) and
    optionally ``sizes`` (per-job work multipliers); both serialise only
    when set, so closed workloads keep their historical cache keys.
    """

    name: str
    apps: tuple[str, ...]
    include_kmeans: bool = True
    threads_per_app: int = 8
    arrivals: tuple[float, ...] = ()
    sizes: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.arrivals:
            require(
                len(self.arrivals) == len(self.apps),
                "arrivals must align 1:1 with apps",
            )
            require(
                not self.include_kmeans,
                "open-system workloads carry no implicit kmeans instance",
            )
        if self.sizes:
            require(
                len(self.sizes) == len(self.apps),
                "sizes must align 1:1 with apps",
            )
            require(bool(self.arrivals), "sizes require arrivals")

    @classmethod
    def from_spec(cls, spec: WorkloadSpec) -> "WorkloadRef":
        return cls(
            name=spec.name,
            apps=tuple(spec.apps),
            include_kmeans=spec.include_kmeans,
            threads_per_app=spec.threads_per_app,
        )

    @classmethod
    def from_traffic(cls, workload) -> "WorkloadRef":
        """Reference an open-system `repro.traffic.TrafficWorkload`.

        Jobs must share one thread count (the grid path generates uniform
        jobs); per-job sizes are kept only when any differ from 1.0.
        """
        jobs = workload.jobs
        threads = {j.n_threads for j in jobs}
        require(
            len(threads) == 1,
            "campaign traffic workloads need a uniform per-job thread count",
        )
        sizes = tuple(j.size for j in jobs)
        return cls(
            name=workload.name,
            apps=tuple(j.app for j in jobs),
            include_kmeans=False,
            threads_per_app=threads.pop(),
            arrivals=tuple(j.arrival_s for j in jobs),
            sizes=sizes if any(s != 1.0 for s in sizes) else (),
        )

    def to_spec(self):
        if self.arrivals:
            # Late import: repro.traffic loads the engine and the solo
            # baseline cache, which closed-workload specs never need.
            from repro.traffic.replay import TrafficWorkload
            from repro.traffic.trace import Job

            sizes = self.sizes or (1.0,) * len(self.apps)
            return TrafficWorkload(
                name=self.name,
                jobs=tuple(
                    Job(
                        i,
                        app,
                        arrival,
                        n_threads=self.threads_per_app,
                        size=size,
                    )
                    for i, (app, arrival, size) in enumerate(
                        zip(self.apps, self.arrivals, sizes)
                    )
                ),
            )
        return WorkloadSpec(
            name=self.name,
            apps=self.apps,
            include_kmeans=self.include_kmeans,
            threads_per_app=self.threads_per_app,
        )

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "apps": list(self.apps),
            "include_kmeans": self.include_kmeans,
            "threads_per_app": self.threads_per_app,
        }
        # Only present when set, preserving historical closed-system keys.
        if self.arrivals:
            out["arrivals"] = list(self.arrivals)
        if self.sizes:
            out["sizes"] = list(self.sizes)
        return out


@dataclass(frozen=True)
class SimParams:
    """The ``sim=`` argument bundle of :meth:`ExperimentSpec.for_workload`
    and :meth:`ExperimentSpec.for_traffic`: every simulator setting one
    grid shares, spread onto the spec's flat fields.

    ``migration`` is the optional ``(swap_overhead_s, warmup_work,
    warmup_miss_scale)`` triple of a non-default `MigrationModel`;
    ``None`` means the engine default.  ``llc`` names the shared-LLC
    backend (`repro.sim.llc`, e.g. ``"occupancy"``); ``None`` is the
    default ``NullLLC``.  ``topology`` resolves through
    `repro.topologies.TOPOLOGY_REGISTRY` and ``topology_params``
    customises the named preset; both are validated here, so a bad grid
    setting fails once, where the bundle is built.
    """

    work_scale: float = 1.0
    topology: str = "heterogeneous"
    counter_noise: float = 0.06
    max_time_s: float = 36_000.0
    record_timeseries: bool = False
    migration: tuple[float, float, float] | None = None
    llc: str | None = None
    topology_params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        spec = TOPOLOGY_REGISTRY.get(self.topology)
        spec.validate_params(dict(self.topology_params))
        # Normalise parameter order so logically equal params hash equal.
        object.__setattr__(
            self, "topology_params", tuple(sorted(self.topology_params))
        )
        _check_llc(self.llc)


@dataclass(frozen=True)
class PolicyRef:
    """A policy by registry name plus a validated parameterisation.

    Parameters are validated against the policy's declarative
    `ParamSpec` schema at construction (unknown names raise
    ``UnknownPolicyError``, out-of-bounds values ``ValueError``) but
    stored **raw** — the campaign cache key hashes exactly the supplied
    values, never a coerced form.
    """

    name: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        spec = REGISTRY.get(self.name)
        spec.validate_params(dict(self.params))
        object.__setattr__(self, "params", _sorted_params(self.params))

    @classmethod
    def of(cls, name: str, params: Mapping[str, Any] | None = None) -> "PolicyRef":
        return cls(name=name, params=_sorted_params(params))

    @classmethod
    def from_arg(cls, arg: str) -> "PolicyRef":
        """Parse the CLI grammar ``name[:key=value,...]``."""
        name, params = parse_topology_arg(arg)
        return cls.of(name, params)

    @property
    def spec(self) -> PolicySpec:
        return REGISTRY.get(self.name)

    def build(self):
        """Instantiate the (stateful) scheduler this ref describes."""
        return REGISTRY.build(self.name, dict(self.params))

    def with_params(self, **overrides: Any) -> "PolicyRef":
        """A new ref with ``overrides`` merged over the current params."""
        merged = dict(self.params)
        merged.update(overrides)
        return PolicyRef.of(self.name, merged)

    def to_dict(self) -> dict:
        return {"name": self.name, "params": [[k, v] for k, v in self.params]}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "PolicyRef":
        return cls.of(d["name"], {k: v for k, v in d.get("params", ())})

    def describe(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}:{inner}"


@dataclass(frozen=True)
class TopologyRef:
    """A machine by topology-registry name plus a validated
    parameterisation (same contract as :class:`PolicyRef`)."""

    name: str = "heterogeneous"
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        spec = TOPOLOGY_REGISTRY.get(self.name)
        spec.validate_params(dict(self.params))
        object.__setattr__(self, "params", _sorted_params(self.params))

    @classmethod
    def of(cls, name: str, params: Mapping[str, Any] | None = None) -> "TopologyRef":
        return cls(name=name, params=_sorted_params(params))

    @classmethod
    def from_arg(cls, arg: str) -> "TopologyRef":
        """Parse the CLI grammar ``name[:key=value,...]``."""
        name, params = parse_topology_arg(arg)
        return cls.of(name, params)

    @property
    def spec(self) -> TopologySpec:
        return TOPOLOGY_REGISTRY.get(self.name)

    def build(self):
        return TOPOLOGY_REGISTRY.build(self.name, dict(self.params))

    def with_params(self, **overrides: Any) -> "TopologyRef":
        merged = dict(self.params)
        merged.update(overrides)
        return TopologyRef.of(self.name, merged)

    def to_dict(self) -> dict:
        return {"name": self.name, "params": [[k, v] for k, v in self.params]}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "TopologyRef":
        return cls.of(d["name"], {k: v for k, v in d.get("params", ())})

    def describe(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}:{inner}"


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment, fully declaratively: who runs what, where, how.

    Composes a :class:`WorkloadRef` (closed suite workload or open-loop
    traffic trace by value), a :class:`PolicyRef`, a :class:`TopologyRef`
    and the flat simulator overrides.  Frozen, picklable, JSON-able; the
    campaign layer plans, hashes, batches and executes it directly, and
    the tuner mutates it through :meth:`with_policy_params` /
    ``dataclasses.replace``.

    ``invariants=True`` makes the worker attach a zero-file-I/O
    :class:`~repro.obs.invariants.InvariantSink` carrying the policy's
    contract and stamp its digest into ``RunResult.info["invariants"]``;
    ``traffic=True`` (open-loop specs) makes it stamp the p50/p95/p99
    job-slowdown summary into ``RunResult.info["traffic"]``.  Both enter
    the cache key only when set.
    """

    workload: WorkloadRef
    policy: PolicyRef
    topology: TopologyRef = TopologyRef()
    seed: int = DEFAULT_SEED
    work_scale: float = 1.0
    counter_noise: float = 0.06
    max_time_s: float = 36_000.0
    record_timeseries: bool = False
    migration: tuple[float, float, float] | None = None
    llc: str | None = None
    invariants: bool = False
    traffic: bool = False

    def __post_init__(self) -> None:
        # The policy and topology refs validated themselves; the LLC
        # backend name and the migration triple are all that remain.
        _check_llc(self.llc)
        if self.migration is not None:
            require(
                len(self.migration) == 3,
                "migration override is a (swap_overhead_s, warmup_work, "
                "warmup_miss_scale) triple",
            )

    # -- constructors -------------------------------------------------

    @classmethod
    def for_workload(
        cls,
        spec: WorkloadSpec,
        policy: str | PolicyRef,
        seed: int = DEFAULT_SEED,
        policy_params: Mapping[str, Any] | None = None,
        sim: SimParams | None = None,
        invariants: bool = False,
    ) -> "ExperimentSpec":
        """The usual constructor: from a live closed-system `WorkloadSpec`
        plus an optional ``sim=SimParams(...)`` bundle."""
        return cls(
            workload=WorkloadRef.from_spec(spec),
            policy=cls._policy_ref(policy, policy_params),
            seed=seed,
            invariants=invariants,
            **cls._fields_from_sim(sim or SimParams()),
        )

    @classmethod
    def for_traffic(
        cls,
        workload,
        policy: str | PolicyRef,
        seed: int = DEFAULT_SEED,
        policy_params: Mapping[str, Any] | None = None,
        sim: SimParams | None = None,
        invariants: bool = False,
    ) -> "ExperimentSpec":
        """An open-loop spec from a live `repro.traffic.TrafficWorkload`."""
        return cls(
            workload=WorkloadRef.from_traffic(workload),
            policy=cls._policy_ref(policy, policy_params),
            seed=seed,
            invariants=invariants,
            traffic=True,
            **cls._fields_from_sim(sim or SimParams()),
        )

    @staticmethod
    def _policy_ref(
        policy: str | PolicyRef, params: Mapping[str, Any] | None
    ) -> PolicyRef:
        if not isinstance(policy, PolicyRef):
            return PolicyRef.of(policy, params)
        return policy.with_params(**dict(params)) if params else policy

    @staticmethod
    def _fields_from_sim(sim: SimParams) -> dict:
        return {
            "topology": TopologyRef.of(sim.topology, dict(sim.topology_params)),
            "work_scale": sim.work_scale,
            "counter_noise": sim.counter_noise,
            "max_time_s": sim.max_time_s,
            "record_timeseries": sim.record_timeseries,
            "migration": sim.migration,
            "llc": sim.llc,
        }

    # -- mutation helpers (the tuner's surface) ------------------------

    def with_policy_params(self, **overrides: Any) -> "ExperimentSpec":
        """A new spec with ``overrides`` merged into the policy params."""
        return replace(self, policy=self.policy.with_params(**overrides))

    def with_seed(self, seed: int) -> "ExperimentSpec":
        return replace(self, seed=seed)

    def with_scale(self, work_scale: float) -> "ExperimentSpec":
        return replace(self, work_scale=work_scale)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        """Schema-versioned, round-trippable wire form.

        Distinct from the cache-key fingerprint (:meth:`_fingerprint`,
        frozen for address stability): this form is for artifacts —
        tuned-spec JSON, plans, reports.
        """
        return {
            "spec_version": SPEC_SCHEMA_VERSION,
            "workload": self.workload.to_dict(),
            "policy": self.policy.to_dict(),
            "topology": self.topology.to_dict(),
            "seed": self.seed,
            "work_scale": self.work_scale,
            "counter_noise": self.counter_noise,
            "max_time_s": self.max_time_s,
            "record_timeseries": self.record_timeseries,
            "migration": list(self.migration) if self.migration else None,
            "llc": self.llc,
            "invariants": self.invariants,
            "traffic": self.traffic,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ExperimentSpec":
        version = d.get("spec_version")
        require(
            version == SPEC_SCHEMA_VERSION,
            f"unsupported ExperimentSpec schema version {version!r} "
            f"(this build reads version {SPEC_SCHEMA_VERSION})",
        )
        wl = d["workload"]
        migration = d.get("migration")
        return cls(
            workload=WorkloadRef(
                name=wl["name"],
                apps=tuple(wl["apps"]),
                include_kmeans=wl.get("include_kmeans", True),
                threads_per_app=wl.get("threads_per_app", 8),
                arrivals=tuple(wl.get("arrivals", ())),
                sizes=tuple(wl.get("sizes", ())),
            ),
            policy=PolicyRef.from_dict(d["policy"]),
            topology=TopologyRef.from_dict(d["topology"]),
            seed=d["seed"],
            work_scale=d.get("work_scale", 1.0),
            counter_noise=d.get("counter_noise", 0.06),
            max_time_s=d.get("max_time_s", 36_000.0),
            record_timeseries=d.get("record_timeseries", False),
            migration=tuple(migration) if migration else None,
            llc=d.get("llc"),
            invariants=d.get("invariants", False),
            traffic=d.get("traffic", False),
        )

    # -- identity ------------------------------------------------------

    def _fingerprint(self) -> dict:
        """The canonical dict the campaign cache key hashes.

        Its layout predates this class and is frozen: fields that were
        added later (``llc``, ``topology_params``, ``invariants``,
        ``traffic``, open-loop ``arrivals``/``sizes``) appear only when
        set, so every older spec keeps its byte-identical content
        address.  `repro.campaign.cachekey` drops ``record_timeseries``
        and adds the result-schema version before hashing.
        """
        sim = {
            "work_scale": self.work_scale,
            "topology": self.topology.name,
            "counter_noise": self.counter_noise,
            "max_time_s": self.max_time_s,
            "record_timeseries": self.record_timeseries,
            "migration": list(self.migration) if self.migration else None,
        }
        if self.llc is not None:
            sim["llc"] = self.llc
        if self.topology.params:
            sim["topology_params"] = [[k, v] for k, v in self.topology.params]
        out = {
            "workload": self.workload.to_dict(),
            "policy": self.policy.name,
            "policy_params": [[k, v] for k, v in self.policy.params],
            "seed": self.seed,
            "sim": sim,
        }
        if self.invariants:
            out["invariants"] = True
        if self.traffic:
            out["traffic"] = True
        return out

    def cache_key(self) -> str:
        """The campaign content address of this spec."""
        from repro.campaign.cachekey import cache_key

        return cache_key(self)

    def label(self) -> str:
        """Short human-readable id for telemetry lines and trace files."""
        extra = ""
        if self.policy.params:
            extra = "{" + ",".join(f"{k}={v}" for k, v in self.policy.params) + "}"
        return f"{self.workload.name}/{self.policy.name}{extra}@s{self.seed}"

    def to_task(self) -> "ExperimentSpec":
        # Kept for perfbench/plans.py only, which passes the result to
        # ResultStore.put; the spec is its own campaign task.
        return self
