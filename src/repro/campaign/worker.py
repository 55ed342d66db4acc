"""The worker-process entry point: one `ExperimentSpec` in, one `RunResult` out.

A spec carries **no live objects** (schedulers are stateful, topologies
carry NumPy arrays), so workers rebuild them here.  :func:`build_engine`
is the one place a spec becomes a `SimulationEngine`: the scalar path
(:func:`execute_task`) and every lane of a batch
(`repro.campaign.batching`) are wired by it, and :func:`stamp_traffic`
is the one place an open-loop result gets its tail-latency summary.
"""

from __future__ import annotations

from pathlib import Path

from repro.campaign.cachekey import cache_key
from repro.sim.results import RunResult
from repro.spec import ExperimentSpec

__all__ = ["build_engine", "stamp_traffic", "execute_task"]


def build_engine(spec: ExperimentSpec, bus=None):
    """The engine that runs ``spec`` (``bus``: an optional event bus)."""
    # Imported here: the engine stack is only needed inside workers.
    from repro.sim.engine import SimulationEngine
    from repro.sim.migration import MigrationModel

    workload = spec.workload.to_spec()
    return SimulationEngine(
        topology=spec.topology.build(),
        groups=workload.build(seed=spec.seed, work_scale=spec.work_scale),
        scheduler=spec.policy.build(),
        migration=MigrationModel(*spec.migration) if spec.migration else None,
        seed=spec.seed,
        counter_noise=spec.counter_noise,
        max_time_s=spec.max_time_s,
        record_timeseries=spec.record_timeseries,
        workload_name=workload.name,
        llc=spec.llc,
        bus=bus,
    )


def stamp_traffic(spec: ExperimentSpec, result: RunResult) -> None:
    """Stamp an open-loop run's job-slowdown summary into its info."""
    from repro.traffic.tracker import summarize_result

    result.info["traffic"] = summarize_result(  # type: ignore[index]
        result,
        work_scale=spec.work_scale,
        topology=spec.topology.name,
        seed=spec.seed,
        topology_params=spec.topology.params,
    ).to_dict()


def execute_task(spec: ExperimentSpec, trace_dir: str | None = None) -> RunResult:
    """Run one spec to completion (the worker-process entry point).

    Module-level (picklable) and dependent only on the spec's value, so
    the same spec executes identically in-process and in a pool worker.
    With ``spec.invariants`` the run carries a zero-file-I/O
    :class:`~repro.obs.invariants.InvariantSink` with the policy's
    contract; its digest lands in ``RunResult.info["invariants"]``.
    ``trace_dir`` (a side effect, never part of the cache key — bind it
    with :func:`functools.partial`) additionally writes the run's JSONL
    event trace to ``<trace_dir>/<label>-<key[:12]>.jsonl``; the cache
    key prefix keeps specs that share a label (same workload, policy and
    seed on another machine, scale, LLC or arrival trace) apart.
    """
    attachment = None
    if spec.invariants or trace_dir is not None:
        from repro.obs.attach import attach

        trace_path = None
        if trace_dir is not None:
            safe = spec.label().replace("/", "_").replace("@", "_")
            name = f"{safe}-{cache_key(spec)[:12]}.jsonl"
            trace_path = str(Path(trace_dir) / name)
        swap_size = dict(spec.policy.params).get("swap_size")
        attachment = attach(
            trace=trace_path,
            invariants=spec.policy.name if spec.invariants else None,
            swap_size=swap_size if isinstance(swap_size, int) else None,
        )

    bus = attachment.bus if attachment is not None else None
    result = build_engine(spec, bus).run()
    if attachment is not None:
        attachment.close()
        attachment.finalize(result)
    if spec.traffic:
        stamp_traffic(spec, result)
    return result
