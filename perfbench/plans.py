"""The four benchmark workloads and the output check.

A workload is a :class:`Plan`: ``setup`` builds its inputs from the seed,
``cold`` simulates every run once (and persists it), ``warm`` serves the
same runs again from the warm on-disk store through a new ``Campaign``.
Every campaign uses the serial executor, so one benchmark process runs one
simulation at a time on one core and every layer runs in-process.

The simulated statistics are deterministic for a seed.  They are the
correctness check (:func:`run_digest`), never a metric: the model is
calibrated only to the paper's qualitative shapes and is unvalidated
against hardware.
"""

from __future__ import annotations

import hashlib
import json
import math
import traceback
from contextlib import nullcontext
from pathlib import Path

#: The seed whose per-run digests are committed in ``expected_digests.json``.
DEFAULT_SEED = 1

#: The paper's five policies (the registry's ``standard`` tag).
STANDARD = ("cfs", "dio", "dike", "dike-af", "dike-ap")

#: Barrier-free Rodinia apps cycled to fill a 512-vcore machine, as the
#: scaling suite of ``repro bench`` does (kmeans' barriers would make the
#: live population depend on the schedule).
SCALING_APPS = (
    "jacobi", "streamcluster", "stream_omp", "needle", "lavaMD",
    "leukocyte", "srad", "hotspot", "heartwall",
)


def run_digest(result) -> str:
    """Digest of the simulated outputs of one run.

    Covers the makespan, every thread's finish time, the quantum count,
    swap and migration counts and, for open-loop runs, the traffic
    summary (minus its process-local baseline-cache counters).
    """
    doc = {
        "makespan": repr(result.makespan_s),
        "finish": [[repr(t) for t in b.thread_finish_times] for b in result.benchmarks],
        "n_quanta": result.n_quanta,
        "swaps": result.swap_count,
        "migrations": result.migration_count,
    }
    traffic = result.info.get("traffic")
    if traffic is not None:
        doc["traffic"] = {k: v for k, v in traffic.items() if k != "baseline_cache"}
    blob = json.dumps(doc, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def run_problem(result) -> str | None:
    """Why a finished run is not a valid output, or None."""
    if result.info.get("truncated"):
        return "truncated"
    if result.n_quanta < 1 or not math.isfinite(result.makespan_s):
        return "no finite makespan"
    if not all(math.isfinite(t) for b in result.benchmarks for t in b.thread_finish_times):
        return "unfinished threads"
    return None


def label(result) -> str:
    return f"{result.workload_name}/{result.policy_name}@s{result.seed}"


class Plan:
    """One workload: its specs, its cold pass and its warm pass."""

    name = ""
    warm_passes = 3

    def __init__(self, seed: int, store_dir: Path, rec=None) -> None:
        from hostspeed import CHUNK_S, HostSpeed

        self.seed = seed
        self.store_dir = store_dir
        self.rec = rec
        self.specs: list = []
        #: ``(seconds, host chunk)`` of every engine step this process runs
        self.steps: list[tuple[float, int]] = []
        #: host-speed chunks of this repetition; a traced repetition only
        #: probes at phase boundaries, so no probe lands inside a span
        self.host = HostSpeed(CHUNK_S if rec is None else float("inf"))
        #: telemetry of every campaign this plan opened, in order
        self.telemetries: list = []

    def span(self, name: str):
        return nullcontext() if self.rec is None else self.rec.span(name)

    def campaign(self, batch: bool = False):
        from repro.campaign import Campaign, ExecutorConfig, ResultStore, Telemetry

        tel = Telemetry(stream=None)
        self.telemetries.append(tel)
        return Campaign(
            store=ResultStore(self.store_dir),
            executor=ExecutorConfig(max_workers=1),
            telemetry=tel,
            batch=batch,
        )

    def setup(self) -> None:
        raise NotImplementedError

    def cold(self) -> list:
        raise NotImplementedError

    def warm(self) -> list:
        """Every run again, from the warm store through a fresh campaign."""
        return self.campaign().gather(self.specs, strict=False)

    def check_inputs(self, workloads, n_threads: int) -> None:
        """Build each distinct input once and check its declared size."""
        for wl in workloads:
            groups = wl.build(seed=self.seed, work_scale=self.work_scale)
            got = sum(len(g.threads) for g in groups)
            if got != n_threads:
                raise ValueError(f"{wl.name}: {got} threads, expected {n_threads}")


class CampaignPlan(Plan):
    """A grid gathered through `Campaign` with a fresh on-disk store."""

    batch = False
    work_scale = 0.3

    def grid(self):
        raise NotImplementedError

    def setup(self) -> None:
        from repro.campaign import SimParams
        from repro.spec import ExperimentSpec

        workloads, policies, seeds = self.grid()
        with self.span("spec.resolve"):
            sim = SimParams(work_scale=self.work_scale)
            self.specs = [
                ExperimentSpec.for_workload(wl, p, seed=s, sim=sim)
                for wl in workloads for p in policies for s in seeds
            ]
        self.check_inputs(workloads, 40)

    def cold(self) -> list:
        return self.campaign(batch=self.batch).gather(self.specs, strict=False)


class PaperGrid(CampaignPlan):
    """Figure 6: wl1-wl16 x the five standard policies x one seed."""

    name = "paper-grid"

    def grid(self):
        from repro.workloads.suite import workload

        return [workload(f"wl{i}") for i in range(1, 17)], STANDARD, [self.seed]


class SeedBatch(CampaignPlan):
    """wl1, wl7, wl12 x cfs x 32 seeds through the batched engine."""

    name = "seed-batch"
    batch = True
    warm_passes = 25  # one pass reads 96 small results in ~10 ms

    def grid(self):
        from repro.workloads.suite import workload

        seeds = [self.seed * 32 + i for i in range(32)]
        return [workload(w) for w in ("wl1", "wl7", "wl12")], ("cfs",), seeds


class DirectPlan(Plan):
    """Runs that the benchmark simulates itself, through ``run_workload``.

    The benchmark builds each scheduler, so it stamps the engine steps on
    it directly.  Each result is persisted under its spec's cache key —
    the arguments below are the ones ``execute_task`` would pass — so the
    warm pass reads it back through a campaign like the grids do.
    """

    warm_passes = 5

    def simulate(self, spec):
        from repro.experiments.runner import run_workload
        from tracing import stamp_steps

        scheduler = spec.policy.build()
        stamp_steps(scheduler, self.steps, self.host)
        return run_workload(
            self.workload,
            scheduler,
            seed=spec.seed,
            work_scale=spec.work_scale,
            topology=spec.topology.build(),
            record_timeseries=False,
            llc=spec.llc,
        )

    def cold(self) -> list:
        from repro.campaign import ResultStore

        store = ResultStore(self.store_dir)
        out = []
        for spec in self.specs:
            try:
                result = self.finish(spec, self.simulate(spec))
            except Exception as exc:  # a raise counts as a failed run
                traceback.print_exc()
                out.append(exc)
                continue
            store.put(spec.cache_key(), result, spec.to_task())
            out.append(result)
        return out

    def finish(self, spec, result):
        return result


class Scale512(DirectPlan):
    """512 threads (64 apps x 8) on the scale512 preset, dike and dike-hier."""

    name = "scale512"
    work_scale = 0.5
    warm_passes = 3  # one pass reads two 512-thread results in ~0.5 s

    def setup(self) -> None:
        from repro.campaign import SimParams
        from repro.spec import ExperimentSpec
        from repro.workloads.suite import WorkloadSpec

        apps = tuple(SCALING_APPS[i % len(SCALING_APPS)] for i in range(64))
        self.workload = WorkloadSpec(
            name="scale512-closed", apps=apps, include_kmeans=False,
            threads_per_app=8,
        )
        with self.span("spec.resolve"):
            sim = SimParams(work_scale=self.work_scale, topology="scale512")
            self.specs = [
                ExperimentSpec.for_workload(self.workload, p, seed=self.seed, sim=sim)
                for p in ("dike", "dike-hier")
            ]
        self.check_inputs([self.workload], 512)


class OpenLoopLLC(DirectPlan):
    """A Poisson trace on the paper machine with the LLC occupancy model.

    Open loop in simulated time only: 24 jobs of 8 threads arriving at
    0.02 jobs/s.  The trace is drawn once, from trace seed 1; the benchmark
    seed seeds the simulation (per-thread work jitter, counter noise, solo
    baselines), as on the closed workloads.  Drawing the trace from the
    benchmark seed would change the offered load with the seed: over
    seeds 1-10 the median number of live threads per quantum under dike
    ranged from 20 to 49, so per-step times measured the seed, not the
    code.  The LLC model starts empty in every run.  Each run is
    summarised against solo baselines.
    """

    name = "openloop-llc"
    work_scale = 0.3
    warm_passes = 7
    rate_per_s = 0.02
    n_jobs = 24
    trace_seed = 1

    def setup(self) -> None:
        from repro.campaign import SimParams
        from repro.spec import ExperimentSpec
        from repro.traffic import TrafficSpec

        with self.span("traffic.trace"):
            self.workload = TrafficSpec.at_rate(
                self.rate_per_s, n_jobs=self.n_jobs, trace_seed=self.trace_seed
            ).workload()
        with self.span("spec.resolve"):
            sim = SimParams(work_scale=self.work_scale, llc="occupancy")
            self.specs = [
                ExperimentSpec.for_traffic(self.workload, p, seed=self.seed, sim=sim)
                for p in ("cfs", "dike", "lfoc")
            ]
        self.check_inputs([self.workload], self.n_jobs * 8)

    def finish(self, spec, result):
        from repro.traffic.tracker import summarize_result

        with self.span("traffic.summarize"):
            summary = summarize_result(
                result,
                work_scale=spec.work_scale,
                topology=spec.topology.name,
                seed=spec.seed,
            )
        result.info["traffic"] = summary.to_dict()
        if self.rec is not None:
            for k, v in (summary.baseline_cache or {}).items():
                self.rec.counts[f"traffic.baseline.{k}"] += v
        return result


PLANS = {p.name: p for p in (PaperGrid, SeedBatch, Scale512, OpenLoopLLC)}
