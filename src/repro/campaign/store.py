"""On-disk, content-addressed result store.

Layout under the store root::

    objects/<key[:2]>/<key>.json    one full-fidelity RunResult each
    index.jsonl                     append-only metadata, one line per put

Artifacts are written atomically (tmp file + ``os.replace``) so a killed
campaign never leaves a truncated object behind, and reads validate the
schema version — a stale or undecodable artifact is a *miss*, never an
error.  The JSONL index exists for humans and tooling (``wc -l``, grep by
workload/policy); the objects directory alone is authoritative.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.experiments.serialization import (
    run_result_from_dict,
    run_result_to_full_dict,
)
from repro.sim.results import RunResult
from repro.spec import ExperimentSpec

__all__ = ["ResultStore"]


class ResultStore:
    """Cache of finished runs keyed by :func:`repro.campaign.cachekey.cache_key`."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()
        self.objects = self.root / "objects"
        self.index_path = self.root / "index.jsonl"
        self.objects.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------- lookup

    def _object_path(self, key: str) -> Path:
        return self.objects / key[:2] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self._object_path(key).is_file()

    def get(self, key: str) -> RunResult | None:
        """The cached result for ``key``, or None (also on stale schema
        or a corrupt artifact — cache problems degrade to recomputation)."""
        path = self._object_path(key)
        if not path.is_file():
            return None
        try:
            return run_result_from_dict(json.loads(path.read_text()))
        except (ValueError, KeyError, TypeError, json.JSONDecodeError, OSError):
            return None

    # -------------------------------------------------------------- write

    def put(
        self, key: str, result: RunResult, task: ExperimentSpec | None = None
    ) -> Path:
        """Persist one result atomically and append an index line (with
        ``task.label()`` when the spec is given).

        The volatile ``info["traffic"]["baseline_cache"]`` hit counters
        (process-history-dependent observability, not a property of the
        run) are stripped from the artifact so cached bytes stay
        deterministic across execution strategies and worker layouts.
        """
        path = self._object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = run_result_to_full_dict(result)
        info = doc.get("info")
        if isinstance(info, dict) and isinstance(info.get("traffic"), dict):
            traffic = dict(info["traffic"])
            traffic.pop("baseline_cache", None)
            doc = dict(doc)
            doc["info"] = dict(info)
            doc["info"]["traffic"] = traffic
        payload = json.dumps(doc, sort_keys=True, allow_nan=False)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(payload)
        os.replace(tmp, path)
        entry = {
            "key": key,
            "workload": result.workload_name,
            "policy": result.policy_name,
            "seed": result.seed,
            "n_quanta": result.n_quanta,
            "bytes": len(payload),
        }
        if task is not None:
            entry["label"] = task.label()
        with self.index_path.open("a") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
        return path

    # ------------------------------------------------------------- admin

    def keys(self) -> list[str]:
        return sorted(p.stem for p in self.objects.glob("*/*.json"))

    def __len__(self) -> int:
        return sum(1 for _ in self.objects.glob("*/*.json"))
