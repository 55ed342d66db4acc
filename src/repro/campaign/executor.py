"""Fault-tolerant task execution: process pool + retries + timeouts.

The executor runs ``(key, task)`` pairs through a worker function
(:func:`repro.campaign.worker.execute_task` in production; tests inject
crashing/hanging stand-ins) and returns ``key -> RunResult | TaskFailure``.
A failing *task* never aborts the campaign: it is retried with exponential
backoff up to ``retries`` extra attempts and then recorded as a clean
:class:`TaskFailure`.

Fault model
-----------
* **Task raises** — retried, then failed with ``kind="error"``.
* **Worker process dies** (segfault, OOM-kill) — `BrokenProcessPool`
  poisons every in-flight future indistinguishably, so nobody is charged
  an attempt: all victims are requeued as *suspects* and probed one at a
  time in singleton pools, where blame is exact.  A suspect whose
  singleton pool dies consumes an attempt (and is eventually a terminal
  ``kind="worker-lost"`` failure); innocent bystanders clear themselves
  by completing and never lose retry budget to a co-scheduled
  pool-killer.  Each pool death rebuilds the pool, at most
  ``max_pool_rebuilds`` times before degrading to serial in-process
  execution for the remainder.
* **Task exceeds** ``timeout_s`` — its future is cancelled and the task
  retried/failed with ``kind="timeout"``.  A genuinely *running* task
  cannot be preempted through `concurrent.futures`, so the pool is
  abandoned (the stuck worker keeps grinding until the simulation's own
  ``max_time_s`` bound fires) and a fresh pool takes over; other in-flight
  tasks are requeued without an attempt penalty.
* **Pool cannot be created at all** (restricted environments) — serial
  from the start.

Timeouts are measured from submission.  The submission window equals
``max_workers``, so queue delay is ~0 and submission time ≈ start time.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.campaign.telemetry import Telemetry
from repro.campaign.worker import execute_task
from repro.obs.attach import run_info_telemetry
from repro.spec import ExperimentSpec

__all__ = ["ExecutorConfig", "TaskFailure", "run_tasks"]


@dataclass(frozen=True)
class ExecutorConfig:
    """Execution policy of a campaign.

    ``retries`` counts *extra* attempts after the first (2 ⇒ up to three
    tries per task); ``timeout_s=None`` disables per-task timeouts (the
    simulator's ``max_time_s`` still bounds every run).
    """

    max_workers: int = 1
    timeout_s: float | None = None
    retries: int = 2
    backoff_s: float = 0.25
    backoff_factor: float = 2.0
    #: Pool deaths tolerated before serial degradation.  Must exceed
    #: ``retries + 2`` for a persistent pool-killer to be terminally
    #: failed by suspect probing (1 group death + retries+1 singleton
    #: deaths) instead of dragging everyone to the serial path.
    max_pool_rebuilds: int = 5

    @property
    def parallel(self) -> bool:
        return self.max_workers > 1

    def backoff_for(self, attempt: int) -> float:
        """Sleep before attempt ``attempt+1`` (attempts count from 1)."""
        return self.backoff_s * self.backoff_factor ** (attempt - 1)


@dataclass(frozen=True)
class TaskFailure:
    """Terminal per-task failure record (the campaign itself carries on)."""

    key: str
    label: str
    kind: str  # "error" | "timeout" | "worker-lost"
    error: str
    attempts: int

    def __bool__(self) -> bool:  # failures are falsy: `if result:` reads well
        return False


@dataclass
class _Pending:
    key: str
    task: ExperimentSpec
    attempt: int = 0  # completed attempts so far
    not_before: float = 0.0  # monotonic time gate (backoff)
    suspect: bool = False  # was in flight when a pool died (probe alone)


def run_tasks(
    items: Sequence[tuple[str, ExperimentSpec]],
    fn: Callable[[ExperimentSpec], object] = execute_task,
    config: ExecutorConfig | None = None,
    telemetry: Telemetry | None = None,
) -> dict[str, object]:
    """Execute every (key, task) pair; returns ``key -> result | TaskFailure``.

    ``items`` must already be deduplicated by key (the planner's job).
    """
    config = config or ExecutorConfig()
    telemetry = telemetry or Telemetry(stream=None)
    out: dict[str, object] = {}
    pending = [_Pending(key, task) for key, task in items]
    if config.parallel and pending:
        pending = _run_parallel(pending, fn, config, telemetry, out)
    _run_serial(pending, fn, config, telemetry, out)
    return out


# ----------------------------------------------------------------- serial


def _record_success(
    p: _Pending, result: object, telemetry: Telemetry, out: dict[str, object]
) -> None:
    out[p.key] = result
    obs = run_info_telemetry(result)
    telemetry.task_done(
        p.key,
        p.task.label(),
        getattr(result, "n_quanta", 0),
        metrics=obs.get("metrics"),
        invariants=obs.get("invariants"),
    )


def _record_failure(
    p: _Pending, kind: str, error: str, telemetry: Telemetry, out: dict[str, object]
) -> None:
    out[p.key] = TaskFailure(
        key=p.key, label=p.task.label(), kind=kind, error=error, attempts=p.attempt
    )
    telemetry.task_failed(p.key, p.task.label(), kind, error)


def _run_serial(
    pending: Sequence[_Pending],
    fn: Callable[[ExperimentSpec], object],
    config: ExecutorConfig,
    telemetry: Telemetry,
    out: dict[str, object],
) -> None:
    """In-process execution (also the degradation path — no preemption)."""
    for p in pending:
        while True:
            p.attempt += 1
            telemetry.task_started(p.key, p.task.label(), p.attempt)
            try:
                result = fn(p.task)
            except Exception as exc:  # noqa: BLE001 — any task error is retryable
                if p.attempt <= config.retries:
                    telemetry.task_retried(p.key, p.task.label(), p.attempt, repr(exc))
                    time.sleep(config.backoff_for(p.attempt))
                    continue
                _record_failure(p, "error", repr(exc), telemetry, out)
            else:
                _record_success(p, result, telemetry, out)
            break


# --------------------------------------------------------------- parallel


def _run_parallel(
    pending: list[_Pending],
    fn: Callable[[ExperimentSpec], object],
    config: ExecutorConfig,
    telemetry: Telemetry,
    out: dict[str, object],
) -> list[_Pending]:
    """Pool execution; returns tasks left over for the serial fallback."""
    try:
        pool = ProcessPoolExecutor(max_workers=config.max_workers)
    except (OSError, ValueError, NotImplementedError) as exc:
        telemetry.degraded(f"process pool unavailable: {exc!r}")
        return pending
    rebuilds = 0
    in_flight: dict[Future, _Pending] = {}
    try:
        while pending or in_flight:
            now = time.monotonic()
            # While any suspect of a past pool death is unresolved, probe
            # suspects one at a time in otherwise-empty pools: if the pool
            # dies again the lone occupant is the culprit beyond doubt.
            probing = any(p.suspect for p in pending) or any(
                p.suspect for p in in_flight.values()
            )
            window = 1 if probing else config.max_workers
            # Fill the window with backoff-eligible tasks.
            i = 0
            while i < len(pending) and len(in_flight) < window:
                if pending[i].not_before <= now and (
                    pending[i].suspect or not probing
                ):
                    p = pending.pop(i)
                    p.attempt += 1
                    telemetry.task_started(p.key, p.task.label(), p.attempt)
                    p.not_before = now  # reused as submission time
                    in_flight[pool.submit(fn, p.task)] = p
                else:
                    i += 1
            if not in_flight:
                eligible = [p for p in pending if p.suspect or not probing]
                wake = min(p.not_before for p in eligible)
                time.sleep(max(0.0, wake - now) + 0.001)
                continue

            done, timed_out = _wait_step(in_flight, config, now)

            broken = next(
                (
                    f.exception()
                    for f in done
                    if isinstance(f.exception(), BrokenProcessPool)
                ),
                None,
            )
            if broken is not None:
                # The whole in-flight set was poisoned at once.  Alone in
                # the pool ⇒ guilty (charge the attempt); in company ⇒
                # indistinguishable, so refund everyone and mark them
                # suspects for isolated probing.
                victims = list(in_flight.items())
                in_flight.clear()
                for fut, p in victims:
                    fut.cancel()
                    if len(victims) == 1:
                        _retry_or_fail(
                            p, "worker-lost", repr(broken), config, telemetry, out, pending
                        )
                    else:
                        p.attempt -= 1
                        p.suspect = True
                        telemetry.task_retried(
                            p.key, p.task.label(), p.attempt, "worker lost — probing suspects"
                        )
                        pending.append(p)
                pool, rebuilds = _rebuild_pool(pool, rebuilds, config, telemetry)
                if pool is None:
                    return pending
                continue

            for fut in done:
                p = in_flight.pop(fut)
                exc = fut.exception()
                if exc is None:
                    _record_success(p, fut.result(), telemetry, out)
                else:
                    _retry_or_fail(p, "error", repr(exc), config, telemetry, out, pending)
            abandon = False
            for fut in timed_out:
                p = in_flight.pop(fut)
                fut.cancel()
                _retry_or_fail(
                    p, "timeout",
                    f"exceeded {config.timeout_s}s", config, telemetry, out, pending,
                )
                abandon = True  # the worker may still be busy — abandon pool

            if abandon:
                # Survivors restart at no cost to their retry budget (the
                # culprit here is known — the timed-out task — so nobody
                # becomes a suspect either).
                for fut, p in in_flight.items():
                    fut.cancel()
                    p.attempt -= 1
                    telemetry.task_retried(p.key, p.task.label(), p.attempt, "pool reset")
                    pending.append(p)
                in_flight.clear()
                pool, rebuilds = _rebuild_pool(pool, rebuilds, config, telemetry)
                if pool is None:
                    return pending
        return []
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)


def _rebuild_pool(
    pool: ProcessPoolExecutor,
    rebuilds: int,
    config: ExecutorConfig,
    telemetry: Telemetry,
) -> tuple[ProcessPoolExecutor | None, int]:
    """Replace a dead/abandoned pool; None means degrade to serial."""
    pool.shutdown(wait=False, cancel_futures=True)
    rebuilds += 1
    if rebuilds > config.max_pool_rebuilds:
        telemetry.degraded(f"pool died {rebuilds} times — finishing serially")
        return None, rebuilds
    try:
        return ProcessPoolExecutor(max_workers=config.max_workers), rebuilds
    except (OSError, ValueError, NotImplementedError) as exc:
        telemetry.degraded(f"pool rebuild failed: {exc!r}")
        return None, rebuilds


def _wait_step(
    in_flight: dict[Future, _Pending], config: ExecutorConfig, now: float
) -> tuple[set[Future], list[Future]]:
    """Wait for progress; returns (completed futures, deadline-expired ones)."""
    if config.timeout_s is None:
        done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
        return done, []
    deadlines = {f: p.not_before + config.timeout_s for f, p in in_flight.items()}
    horizon = max(0.0, min(deadlines.values()) - now) + 0.005
    done, _ = wait(in_flight, timeout=horizon, return_when=FIRST_COMPLETED)
    t = time.monotonic()
    timed_out = [f for f in in_flight if f not in done and deadlines[f] <= t]
    return done, timed_out


def _retry_or_fail(
    p: _Pending,
    kind: str,
    error: str,
    config: ExecutorConfig,
    telemetry: Telemetry,
    out: dict[str, object],
    pending: list[_Pending],
) -> None:
    if p.attempt <= config.retries:
        telemetry.task_retried(p.key, p.task.label(), p.attempt, error)
        p.not_before = time.monotonic() + config.backoff_for(p.attempt)
        pending.append(p)
    else:
        _record_failure(p, kind, error, telemetry, out)
