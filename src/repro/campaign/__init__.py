"""Campaign orchestration: parallel, cached, fault-tolerant experiments.

The subsystem behind every figure/table regeneration and the
``repro campaign`` CLI verb.  Its unit of work is a
`repro.spec.ExperimentSpec`:

* `cachekey` — content-addressed keys over (workload, policy+params,
  seed, sim params, schema version);
* `worker` — the worker-process entry point that turns a spec into a
  run;
* `store` — on-disk JSON artifact store with a JSONL index;
* `executor` — process-pool execution with per-task timeouts, bounded
  retries with backoff, and graceful degradation to serial;
* `planner` — grid specs expanded into deduplicated spec lists;
* `batching` — compatible specs grouped into multi-run batch units;
* `telemetry` — structured progress events (stderr + JSONL);
* `core` — the `Campaign` facade gluing the above together.

See ``docs/campaign.md`` for the architecture walk-through.
"""

from repro.campaign.cachekey import cache_key, task_fingerprint
from repro.campaign.core import Campaign, CampaignError
from repro.campaign.executor import ExecutorConfig, TaskFailure, run_tasks
from repro.campaign.planner import CampaignPlan, CampaignSpec, dedupe, plan
from repro.campaign.store import ResultStore
from repro.campaign.telemetry import Telemetry
from repro.campaign.worker import execute_task
from repro.spec import SimParams, WorkloadRef

__all__ = [
    "Campaign",
    "CampaignError",
    "CampaignPlan",
    "CampaignSpec",
    "ExecutorConfig",
    "ResultStore",
    "SimParams",
    "TaskFailure",
    "Telemetry",
    "WorkloadRef",
    "cache_key",
    "dedupe",
    "execute_task",
    "plan",
    "run_tasks",
    "task_fingerprint",
]
