"""Host-time instrumentation for the benchmark: step stamps and spans.

Two instruments live here, both installed from the benchmark's own files
around calls into the program (nothing under ``src/`` knows about them):

* **Step stamps** (always on).  The engine asks its scheduler for the
  quantum length exactly once per engine step, in the scalar loop and in
  every lane of the batched loop alike, so stamping
  ``scheduler.quantum_length_s`` gives the host time of each step.  The
  stamp is two ``perf_counter`` calls and one list append per step, plus
  the host-speed probe every ~20 ms of work in untraced runs.
* **Spans** (traced runs only).  A :class:`Recorder` keeps every span in
  memory as ``(name, start, end, parent, run, phase)``; wrappers open a
  span around a call and close it when the call returns or raises.  The
  spans are written out once, when the process ends, and summarised into
  the per-layer metrics by :func:`layer_metrics`.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

#: Stage names a `StagePipeline` may declare, in pipeline order.
STAGES = (
    "observer", "optimizer", "cluster", "selector",
    "predictor", "decider", "rebalancer", "migrator",
)

#: Public `SimState` methods the engine calls; each gets its own span.
STATE_METHODS = (
    "runnable_indices", "live_indices", "idle_indices", "all_finished",
    "live_placement", "place", "migrate", "suspend", "tick_suspensions",
    "advance", "consume_quantum", "refresh_segments",
    "release_ready_barriers", "sync_threads",
)


# ------------------------------------------------------------ step stamps


def stamp_steps(scheduler, steps: list, host) -> None:
    """Append ``(host seconds, chunk index)`` of each engine step to ``steps``.

    The first call of a run only sets the reference point, so a run of
    ``n`` quanta contributes ``n - 1`` steps.  Each step is also a point
    where ``host`` (a `hostspeed.HostSpeed`) may probe; probe time, this
    lane's or another's, is left out of every step.
    """
    inner = scheduler.quantum_length_s
    last = [0.0, 0.0]  # perf_counter and host.probe_s after the previous step

    def quantum_length_s():
        now = perf_counter()
        if last[0]:
            steps.append((now - last[0] - (host.probe_s - last[1]), len(host.chunks)))
        host.tick()
        last[0], last[1] = perf_counter(), host.probe_s
        return inner()

    scheduler.quantum_length_s = quantum_length_s


# ------------------------------------------------------------------ spans


class Recorder:
    """Spans and boundary counters of one benchmark process, in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.phase = "setup"
        self.run = -1
        self._next_run = 0
        self._stack: list[int] = []

    def new_run(self) -> None:
        """Give the spans of the next simulation run their own id."""
        self.run = self._next_run
        self._next_run += 1

    def begin(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, perf_counter(), 0.0, parent, self.run, self.phase))
        self._stack.append(i)
        return i

    def end(self, i: int) -> None:
        t1 = perf_counter()
        self._stack.pop()
        name, t0, _, parent, run, phase = self.spans[i]
        self.spans[i] = (name, t0, t1, parent, run, phase)

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(result, args)`` records counts."""

        def wrapper(*args, **kwargs):
            i = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(i)
            if after is not None:
                after(out, args)
            return out

        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span around one of the benchmark's own blocks."""
        i = self.begin(name)
        try:
            yield
        finally:
            self.end(i)

    def write(self, path: Path) -> None:
        """One JSON line per span: name, start/end µs, parent index, run, phase."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, t0, t1, parent, run, phase in self.spans:
                fh.write(json.dumps(
                    [name, round(t0 * 1e6), round(t1 * 1e6), parent, run, phase]
                ) + "\n")


# ------------------------------------------------------- instrumentation


class _StageSpan:
    """A pipeline stage run inside a ``core.<name>`` span.

    Stage objects are module-level singletons shared by every scheduler
    of a policy, so the traced run swaps a scheduler's ``stages`` tuple
    for these proxies instead of patching the shared objects.
    """

    def __init__(self, stage, rec: Recorder) -> None:
        self.name = stage.name
        counts = rec.counts
        after = None
        if stage.name == "selector":
            def after(_, args):
                counts["core.selector.pairs"] += len(args[1].pairs or ())
        elif stage.name == "decider":
            def after(_, args):
                counts["core.decider.predictions"] += len(args[1].predictions or ())
                counts["core.decider.accepted"] += len(args[1].accepted or ())
        self.run = rec.wrap(f"core.{stage.name}", stage.run, after)


def instrument_scheduler(scheduler, rec: Recorder) -> None:
    """Span ``decide`` and, for stage pipelines, every stage."""
    from repro.schedulers.base import Swap

    counts = rec.counts

    def after(actions, args):
        counters = args[0]
        if counters is not None:
            counts["sim.counters.rows"] += len(counters.samples)
        counts["schedulers.swaps"] += sum(isinstance(a, Swap) for a in actions)

    scheduler.decide = rec.wrap("schedulers.decide", scheduler.decide, after)
    stages = getattr(scheduler, "stages", None)
    if stages is not None:
        scheduler.stages = tuple(_StageSpan(s, rec) for s in stages)


def instrument_engine(engine, rec: Recorder) -> None:
    """Span the physics, state and action layers of one scalar engine."""
    counts = rec.counts
    memory = engine.memory

    def after_solve(*_):
        counts["sim.memory.iterations"] += memory.last_iterations

    memory.solve = rec.wrap("sim.memory", memory.solve, after_solve)
    if engine.llc.active:
        engine.llc.resolve = rec.wrap("sim.llc", engine.llc.resolve)
    state = engine.state
    for method in STATE_METHODS:
        setattr(state, method, rec.wrap(f"sim.state.{method}", getattr(state, method)))
    engine._execute_quantum = rec.wrap("sim.engine.quantum", engine._execute_quantum)
    engine._apply_actions = rec.wrap("sim.engine.apply", engine._apply_actions)
    engine._place_arrivals = rec.wrap("sim.engine.arrivals", engine._place_arrivals)
    instrument_scheduler(engine.scheduler, rec)


class Patches:
    """Module- and class-level replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def install_engine_hooks(patches: Patches, steps: list | None, host,
                         rec: Recorder | None) -> None:
    """Hook every scalar and batched engine run in this process.

    Used where the program, not the benchmark, builds the schedulers (the
    campaign path).  ``steps`` receives step stamps from every run's
    scheduler, chunked by ``host`` (``None``
    leaves them unstamped); with a recorder each scalar run is also
    instrumented by :func:`instrument_engine`, and a batched run has its
    lanes' schedulers instrumented, so the batch engine's self time is its
    run minus the lanes' ``decide`` calls.
    """
    from repro.sim.batch import BatchEngine
    from repro.sim.engine import SimulationEngine

    scalar_run = SimulationEngine.run
    batch_run = BatchEngine.run

    def run(engine):
        if steps is not None:
            stamp_steps(engine.scheduler, steps, host)
        if rec is None:
            return scalar_run(engine)
        instrument_engine(engine, rec)
        rec.new_run()
        try:
            return rec.wrap("sim.engine.run", scalar_run)(engine)
        finally:
            rec.run = -1

    def run_batch(batch):
        for lane in batch.engines:
            if steps is not None:
                stamp_steps(lane.scheduler, steps, host)
            if rec is not None:
                instrument_scheduler(lane.scheduler, rec)
        if rec is None:
            return batch_run(batch)
        rec.counts["sim.batch.lanes"] += len(batch.engines)
        rec.new_run()
        try:
            return rec.wrap("sim.batch.run", batch_run)(batch)
        finally:
            rec.run = -1

    patches.set(SimulationEngine, "run", run)
    patches.set(BatchEngine, "run", run_batch)


def install_program_spans(patches: Patches, rec: Recorder) -> None:
    """Span the module and class entry points on the campaign path."""
    import repro.campaign.core as campaign_core
    import repro.campaign.store as store_mod
    import repro.sim.engine as engine_mod
    from repro.campaign.batching import BatchResult, BatchTask
    from repro.campaign.store import ResultStore
    from repro.traffic.replay import TrafficWorkload
    from repro.workloads.suite import WorkloadSpec

    counts = rec.counts
    patches.set(engine_mod, "smt_cycle_rates",
                rec.wrap("sim.smt", engine_mod.smt_cycle_rates))
    for cls in (WorkloadSpec, TrafficWorkload):
        patches.set(cls, "build", rec.wrap("workloads.build", cls.build))

    def after_get(result, _):
        if rec.phase == "warm":
            counts["campaign.store.warm_gets"] += 1
            counts["campaign.store.warm_hits"] += result is not None

    def after_put(path, _):
        counts["campaign.store.put.bytes"] += path.stat().st_size

    patches.set(ResultStore, "get",
                rec.wrap("campaign.store.get", ResultStore.get, after_get))
    patches.set(ResultStore, "put",
                rec.wrap("campaign.store.put", ResultStore.put, after_put))
    patches.set(campaign_core, "cache_key",
                rec.wrap("campaign.cache_key", campaign_core.cache_key))
    patches.set(store_mod, "run_result_to_full_dict",
                rec.wrap("experiments.serialization.to_dict",
                         store_mod.run_result_to_full_dict))
    patches.set(store_mod, "run_result_from_dict",
                rec.wrap("experiments.serialization.from_dict",
                         store_mod.run_result_from_dict))

    def after_plan(units, _):
        batches = [u for _, u in units if isinstance(u, BatchTask)]
        counts["campaign.batch.units"] += len(batches)
        counts["campaign.batch.members"] += sum(len(b.items) for b in batches)

    def after_unit(result, _):
        counts["campaign.batch.fallbacks"] += bool(
            isinstance(result, BatchResult) and result.fallback
        )

    patches.set(campaign_core, "plan_batches",
                rec.wrap("campaign.plan_batches", campaign_core.plan_batches,
                         after_plan))
    patches.set(campaign_core, "execute_unit",
                rec.wrap("campaign.execute_unit", campaign_core.execute_unit,
                         after_unit))


# ------------------------------------------------------ per-layer metrics


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Every per-layer metric, from the spans and counts of one traced run.

    Layers that did not run on this workload report 0.
    """
    spans = rec.spans
    child_ms = [0.0] * len(spans)
    durations: dict[str, list[float]] = defaultdict(list)
    self_ms: dict[str, float] = defaultdict(float)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child_ms[parent] += (t1 - t0) * 1e3
    for i, (name, t0, t1, _, _, _) in enumerate(spans):
        ms = (t1 - t0) * 1e3
        durations[name].append(ms)
        self_ms[name] += ms - child_ms[i]

    def calls(name):
        return float(len(durations.get(name, ())))

    def total(name):
        return sum(durations.get(name, ()))

    def pct(name, q):
        return _quantile(durations.get(name, []), q)

    c = rec.counts
    quanta = calls("sim.engine.quantum")
    per_q = 1.0 / quanta if quanta else 0.0
    state_ms = sum(total(f"sim.state.{m}") for m in STATE_METHODS)
    physics_ms = total("sim.smt") + total("sim.memory") + total("sim.llc") + state_ms
    memory_calls = calls("sim.memory")
    predictions = c["core.decider.predictions"]
    warm_gets = c["campaign.store.warm_gets"]
    batch_units = c["campaign.batch.units"]

    m: dict[str, float] = {
        "workloads.build.ms_total": total("workloads.build"),
        "spec.resolve.ms_total": total("spec.resolve"),
        "sim.smt.calls": calls("sim.smt"),
        "sim.smt.ms_total": total("sim.smt"),
        "sim.memory.calls": memory_calls,
        "sim.memory.ms_total": total("sim.memory"),
        "sim.memory.ms_p99": pct("sim.memory", 0.99),
        "sim.memory.iterations_mean":
            c["sim.memory.iterations"] / memory_calls if memory_calls else 0.0,
        "sim.llc.calls": calls("sim.llc"),
        "sim.llc.ms_total": total("sim.llc"),
        "sim.state.ms_total": state_ms,
        "sim.engine.quanta": quanta,
        "sim.engine.self_ms_per_quantum": self_ms["sim.engine.run"] * per_q,
        "sim.counters.rows": c["sim.counters.rows"],
        "sim.batch.lanes": c["sim.batch.lanes"],
        "sim.batch.self_ms_total": self_ms["sim.batch.run"],
        "schedulers.decide.calls": calls("schedulers.decide"),
        "schedulers.decide.ms_total": total("schedulers.decide"),
        "schedulers.decide.ms_p50": pct("schedulers.decide", 0.5),
        "schedulers.decide.ms_p99": pct("schedulers.decide", 0.99),
        "schedulers.swaps": c["schedulers.swaps"],
    }
    for stage in STAGES:
        m[f"core.{stage}.ms_total"] = total(f"core.{stage}")
        m[f"core.{stage}.ms_p50"] = pct(f"core.{stage}", 0.5)
    m.update({
        "core.selector.pairs": c["core.selector.pairs"],
        "core.decider.accepted": c["core.decider.accepted"],
        "core.decider.accept_ratio":
            c["core.decider.accepted"] / predictions if predictions else 0.0,
        "campaign.cache_key.calls": calls("campaign.cache_key"),
        "campaign.cache_key.ms_total": total("campaign.cache_key"),
        "campaign.store.get.calls": calls("campaign.store.get"),
        "campaign.store.get.ms_total": total("campaign.store.get"),
        "campaign.store.hit_ratio":
            c["campaign.store.warm_hits"] / warm_gets if warm_gets else 0.0,
        "campaign.store.put.calls": calls("campaign.store.put"),
        "campaign.store.put.ms_total": total("campaign.store.put"),
        "campaign.store.put.bytes": c["campaign.store.put.bytes"],
        "campaign.batch.units": batch_units,
        "campaign.batch.lanes_per_unit":
            c["campaign.batch.members"] / batch_units if batch_units else 0.0,
        "campaign.batch.fallbacks": c["campaign.batch.fallbacks"],
        "campaign.executor.retries": c["campaign.executor.retries"],
        "campaign.executor.failed": c["campaign.executor.failed"],
        "experiments.serialization.to_dict.ms_total":
            total("experiments.serialization.to_dict"),
        "experiments.serialization.from_dict.ms_total":
            total("experiments.serialization.from_dict"),
        "traffic.trace.ms_total": total("traffic.trace"),
        "traffic.summarize.ms_total": total("traffic.summarize"),
        "traffic.baseline.hits": c["traffic.baseline.hits"],
        "traffic.baseline.misses": c["traffic.baseline.misses"],
        # The per-quantum layer shares of the scale512 question: counter
        # samples are built in the engine's quantum body, so that span's
        # self time (after its physics children) is their cost.
        "share.counters_ms_per_quantum": self_ms["sim.engine.quantum"] * per_q,
        "share.observer_ms_per_quantum": total("core.observer") * per_q,
        "share.physics_ms_per_quantum": physics_ms * per_q,
        "trace.spans": float(len(spans)),
    })
    return m
