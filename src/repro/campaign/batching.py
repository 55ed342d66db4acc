"""Campaign-side batching: group eligible tasks, run them in one engine.

The batched engine (`repro.sim.batch`) amortises per-quantum Python
overhead across independent runs, but it only pays off when the campaign
layer feeds it *groups* of compatible tasks.  This module is that glue:

* :func:`batchable` — the eligibility rule.  A task can join a batch when
  nothing about it needs the scalar per-run loop: no invariant contract
  and no per-task trace sink (both attach per-run observers whose
  per-quantum cost would defeat the batching anyway), no per-quantum
  timeseries.  Any LLC model batches: the physics kernel the batch
  shares with the scalar engine resolves each lane's LLC.
* :func:`plan_batches` — groups eligible ``(key, task)`` pairs by batch
  signature (policy + parameters, topology, migration model, scenario
  shape) and chunks each group into :class:`BatchTask` units of at most
  ``max_batch`` members.  Ineligible tasks and singleton groups pass
  through as plain scalar units, preserving first-seen order.
* :func:`execute_batch` / :func:`execute_unit` — the worker entry points.
  A batch builds one engine per member (exactly as
  :func:`~repro.campaign.spec.execute_task` would) and runs them through
  a :class:`~repro.sim.batch.BatchEngine`; on *any* batch-level error it
  falls back transparently to scalar per-member execution, so a batch can
  only fail if the individual tasks fail.

Batching changes execution strategy only: per-run results, cache keys and
cached bytes are identical either way (gated in CI by running a mixed
campaign both ways and comparing the stores).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.campaign.spec import (
    TaskSpec,
    execute_task,
)
from repro.policies import REGISTRY
from repro.sim.results import RunResult
from repro.topologies import TOPOLOGY_REGISTRY

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "BatchTask",
    "BatchResult",
    "batchable",
    "batch_signature",
    "plan_batches",
    "execute_batch",
    "execute_unit",
]

#: Largest number of runs stepped by one worker's BatchEngine.  Past this
#: size the shared kernel stops gaining (memory traffic dominates) while
#: scheduling granularity and retry blast radius get worse.
DEFAULT_BATCH_SIZE = 32


@dataclass(frozen=True)
class BatchTask:
    """One executor unit bundling several compatible tasks.

    Duck-types the slice of ``TaskSpec`` the executor uses (``label()``
    plus picklability), so it flows through
    :func:`~repro.campaign.executor.run_tasks` unchanged.
    """

    items: tuple[tuple[str, TaskSpec], ...]

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.items)

    @property
    def tasks(self) -> tuple[TaskSpec, ...]:
        return tuple(t for _, t in self.items)

    def label(self) -> str:
        first = self.items[0][1]
        seeds = [t.seed for _, t in self.items]
        return (
            f"batch[{len(self.items)}]:{first.workload.name}/{first.policy}"
            f"@s{min(seeds)}..s{max(seeds)}"
        )


@dataclass(frozen=True)
class BatchResult:
    """Per-member results of one executed batch, keyed by cache key.

    ``n_quanta`` aggregates the members so executor telemetry (which reads
    the attribute generically) reports real work for batch units.
    """

    results: dict[str, RunResult]
    n_quanta: int
    #: True when the batch engine failed and members ran scalar instead
    fallback: bool = False


def batchable(task: TaskSpec) -> bool:
    """Whether ``task`` may run inside a batch (see module docstring)."""
    if not isinstance(task, TaskSpec) and hasattr(task, "to_task"):
        task = task.to_task()
    return not task.invariants and not task.sim.record_timeseries


def batch_signature(task: TaskSpec) -> tuple:
    """Group key: tasks sharing it can run in one ``BatchEngine``.

    Policy family (name + parameters), machine model (topology name and
    migration triple — both enter the shared physics kernel) and scenario
    shape (per-job thread count, job count, open/closed).  Seeds, work
    scales, workload names and arrival processes may differ freely within
    a group; the engine supports ragged thread counts, but grouping by
    shape keeps lane lengths similar so stragglers don't serialise the
    batch.
    """
    if not isinstance(task, TaskSpec) and hasattr(task, "to_task"):
        task = task.to_task()
    wl = task.workload
    return (
        task.policy,
        task.policy_params,
        task.sim.topology,
        task.sim.topology_params,
        task.sim.migration,
        task.sim.counter_noise,
        wl.threads_per_app,
        len(wl.apps),
        bool(wl.arrivals),
    )


def plan_batches(
    items: Sequence[tuple[str, TaskSpec]],
    max_batch: int = DEFAULT_BATCH_SIZE,
) -> list[tuple[str, TaskSpec | BatchTask]]:
    """Group ``(key, task)`` pairs into executor units.

    Eligible tasks with a shared :func:`batch_signature` merge into
    :class:`BatchTask` units of at most ``max_batch`` members; everything
    else (ineligible tasks, singleton groups) stays a scalar unit.  Units
    keep the first-seen order of their first member.
    """
    groups: dict[tuple, list[tuple[str, TaskSpec]]] = {}
    order: list[tuple[str, object]] = []  # (kind, payload) in input order
    for key, task in items:
        if not batchable(task):
            order.append(("scalar", (key, task)))
            continue
        sig = batch_signature(task)
        if sig not in groups:
            groups[sig] = []
            order.append(("group", sig))
        groups[sig].append((key, task))

    units: list[tuple[str, TaskSpec | BatchTask]] = []
    for kind, payload in order:
        if kind == "scalar":
            units.append(payload)  # type: ignore[arg-type]
            continue
        members = groups[payload]  # type: ignore[index]
        if len(members) == 1:
            units.append(members[0])
            continue
        for i in range(0, len(members), max_batch):
            chunk = tuple(members[i : i + max_batch])
            if len(chunk) == 1:
                units.append(chunk[0])
            else:
                # The unit key only needs uniqueness and determinism; the
                # member cache keys inside are what the campaign persists.
                units.append((f"batch:{chunk[0][0]}", BatchTask(items=chunk)))
    return units


def _build_engine(task: TaskSpec):
    """One lane, wired exactly as ``execute_task``/``run_workload`` wire a
    scalar run (no observers: batchable tasks have none)."""
    from repro.sim.engine import SimulationEngine
    from repro.sim.migration import MigrationModel

    sim = task.sim
    spec = task.workload.to_spec()
    groups = spec.build(seed=task.seed, work_scale=sim.work_scale)
    return SimulationEngine(
        topology=TOPOLOGY_REGISTRY.build(sim.topology, dict(sim.topology_params)),
        groups=groups,
        scheduler=REGISTRY.build(task.policy, task.params),
        migration=MigrationModel(*sim.migration) if sim.migration else None,
        seed=task.seed,
        counter_noise=sim.counter_noise,
        max_time_s=sim.max_time_s,
        record_timeseries=sim.record_timeseries,
        workload_name=spec.name,
        llc=sim.llc,
    )


def _stamp_traffic(task: TaskSpec, result: RunResult) -> None:
    # Mirrors the tail of execute_task for open-loop tasks.
    from repro.traffic.tracker import summarize_result

    result.info["traffic"] = summarize_result(  # type: ignore[index]
        result,
        work_scale=task.sim.work_scale,
        topology=task.sim.topology,
        seed=task.seed,
        topology_params=task.sim.topology_params,
    ).to_dict()


def execute_batch(batch: BatchTask) -> BatchResult:
    """Run one batch in-process (the worker entry point for batch units).

    Builds a lane per member and steps them through one
    :class:`~repro.sim.batch.BatchEngine`.  Any failure at the batch level
    — incompatible lanes, an engine bug, a policy the batch cannot host —
    falls back to scalar per-member execution, so batching is never
    the reason a task fails.
    """
    from repro.sim.batch import BatchEngine

    try:
        engines = [_build_engine(task) for task in batch.tasks]
        run_results = BatchEngine(engines).run()
        results: dict[str, RunResult] = {}
        for (key, task), result in zip(batch.items, run_results):
            if task.traffic:
                _stamp_traffic(task, result)
            results[key] = result
        fallback = False
    except Exception:
        results = {key: execute_task(task) for key, task in batch.items}
        fallback = True
    return BatchResult(
        results=results,
        n_quanta=sum(r.n_quanta for r in results.values()),
        fallback=fallback,
    )


def execute_unit(
    unit: TaskSpec | BatchTask, trace_dir: str | None = None
) -> RunResult | BatchResult:
    """Dispatch one executor unit: scalar task or batch."""
    if isinstance(unit, BatchTask):
        return execute_batch(unit)
    return execute_task(unit, trace_dir=trace_dir)
