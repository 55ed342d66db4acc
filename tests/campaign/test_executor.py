"""Fault handling in the campaign executor.

The worker function dispatched to pool processes must be picklable, so
every fault stand-in is module-level and *scripted by the task itself*:
the workload name selects the behaviour ("boom" crashes, "die" kills the
worker process, "slow" hangs, a ``*.marker`` path fails once then
succeeds).  Injected faults must end in clean per-task failure records —
never a campaign abort.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.campaign import executor as executor_mod
from repro.campaign.executor import ExecutorConfig, TaskFailure, run_tasks
from repro.campaign.telemetry import Telemetry
from repro.spec import ExperimentSpec, PolicyRef, WorkloadRef


def _task(name: str, seed: int = 0) -> ExperimentSpec:
    """A spec the scripted worker interprets; never actually simulated."""
    return ExperimentSpec(WorkloadRef(name=name, apps=()), PolicyRef("cfs"), seed=seed)


def _scripted(task: ExperimentSpec) -> str:
    name = task.workload.name
    if name == "boom":
        raise RuntimeError("injected crash")
    if name == "die":
        os._exit(13)  # segfault stand-in: the worker process vanishes
    if name == "slow":
        time.sleep(1.2)
        return "late"
    if name.endswith(".marker"):  # fails once, then succeeds (cross-process)
        marker = Path(name)
        if marker.exists():
            return "recovered"
        marker.touch()
        raise RuntimeError("first attempt fails")
    return f"ok:{name}:{task.seed}"


FAST = dict(backoff_s=0.001, backoff_factor=1.0)


class TestSerial:
    def test_success(self):
        out = run_tasks([("k", _task("a"))], fn=_scripted)
        assert out["k"] == "ok:a:0"

    def test_crash_is_retried_then_recorded_not_raised(self):
        telemetry = Telemetry(stream=None)
        out = run_tasks(
            [("bad", _task("boom")), ("good", _task("a"))],
            fn=_scripted,
            config=ExecutorConfig(retries=2, **FAST),
            telemetry=telemetry,
        )
        failure = out["bad"]
        assert isinstance(failure, TaskFailure)
        assert not failure  # falsy by design
        assert failure.kind == "error"
        assert failure.attempts == 3  # 1 + 2 retries
        assert "injected crash" in failure.error
        assert out["good"] == "ok:a:0"  # the campaign carried on
        assert telemetry.retries == 2
        assert telemetry.failed == 1

    def test_transient_crash_recovers(self, tmp_path):
        marker = str(tmp_path / "flaky.marker")
        out = run_tasks(
            [("k", _task(marker))],
            fn=_scripted,
            config=ExecutorConfig(retries=1, **FAST),
        )
        assert out["k"] == "recovered"


class TestParallel:
    def test_matches_serial_results(self):
        items = [(f"k{i}", _task(chr(97 + i), seed=i)) for i in range(6)]
        serial = run_tasks(items, fn=_scripted)
        parallel = run_tasks(
            items, fn=_scripted, config=ExecutorConfig(max_workers=2)
        )
        assert parallel == serial

    def test_crash_fails_cleanly_without_aborting_others(self):
        telemetry = Telemetry(stream=None)
        items = [("bad", _task("boom"))] + [
            (f"k{i}", _task(chr(97 + i))) for i in range(4)
        ]
        out = run_tasks(
            items,
            fn=_scripted,
            config=ExecutorConfig(max_workers=2, retries=1, **FAST),
            telemetry=telemetry,
        )
        assert isinstance(out["bad"], TaskFailure)
        assert out["bad"].kind == "error"
        assert out["bad"].attempts == 2
        for i in range(4):
            assert out[f"k{i}"] == f"ok:{chr(97 + i)}:0"
        assert telemetry.failed == 1
        assert telemetry.done == 4

    def test_transient_crash_recovers_across_processes(self, tmp_path):
        marker = str(tmp_path / "flaky.marker")
        telemetry = Telemetry(stream=None)
        out = run_tasks(
            [("k", _task(marker))],
            fn=_scripted,
            config=ExecutorConfig(max_workers=2, retries=2, **FAST),
            telemetry=telemetry,
        )
        assert out["k"] == "recovered"
        assert telemetry.retries == 1

    def test_dead_worker_alone_is_a_worker_lost_failure(self):
        out = run_tasks(
            [("dead", _task("die"))],
            fn=_scripted,
            config=ExecutorConfig(max_workers=2, retries=1, **FAST),
        )
        assert isinstance(out["dead"], TaskFailure)
        assert out["dead"].kind == "worker-lost"
        assert out["dead"].attempts == 2  # 1 + 1 retry, each a dead pool

    def test_dead_worker_never_takes_down_innocent_bystanders(self):
        """A pool death is unattributable, so suspects are probed alone:
        the recidivist is charged in isolation while co-scheduled tasks
        keep their full retry budget and complete."""
        items = [("dead", _task("die"))] + [
            (f"k{i}", _task(chr(97 + i))) for i in range(3)
        ]
        out = run_tasks(
            items,
            fn=_scripted,
            config=ExecutorConfig(max_workers=2, retries=1, **FAST),
        )
        assert isinstance(out["dead"], TaskFailure)
        assert out["dead"].kind == "worker-lost"
        assert out["dead"].attempts == 2
        for i in range(3):  # survivors of the broken pool still finish
            assert out[f"k{i}"] == f"ok:{chr(97 + i)}:0"

    def test_timeout_fails_the_stuck_task_only(self):
        items = [("stuck", _task("slow")), ("quick", _task("a"))]
        out = run_tasks(
            items,
            fn=_scripted,
            config=ExecutorConfig(max_workers=2, timeout_s=0.3, retries=0, **FAST),
        )
        assert isinstance(out["stuck"], TaskFailure)
        assert out["stuck"].kind == "timeout"
        assert "0.3" in out["stuck"].error
        assert out["quick"] == "ok:a:0"


class TestDegradation:
    def test_pool_unavailable_falls_back_to_serial(self, monkeypatch, tmp_path):
        def _no_pool(*args, **kwargs):
            raise OSError("no process support here")

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", _no_pool)
        events = tmp_path / "events.jsonl"
        telemetry = Telemetry(events_path=events, stream=None)
        items = [(f"k{i}", _task(chr(97 + i))) for i in range(3)]
        out = run_tasks(
            items, fn=_scripted, config=ExecutorConfig(max_workers=4), telemetry=telemetry
        )
        for i in range(3):
            assert out[f"k{i}"] == f"ok:{chr(97 + i)}:0"
        assert "degraded_to_serial" in events.read_text()
