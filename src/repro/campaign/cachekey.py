"""Content-addressed cache keys for experiment specs.

The key is a SHA-256 over the canonical JSON of the spec's value —
workload recipe, policy + parameters, seed, simulator parameters — plus
the result-schema version (`SCHEMA_VERSION`): simulations are
deterministic functions of exactly these inputs, so two specs with equal
keys produce bitwise-identical results and may share one cached artifact.

Stability notes:

* ``json.dumps(..., sort_keys=True)`` with explicit separators is the
  canonical form; Python's shortest-repr float formatting is itself
  deterministic, so float parameters serialise stably.
* The hashed dict is `ExperimentSpec._fingerprint`, whose layout is
  frozen (``tests/golden/cache_keys.json`` pins it).
* The schema version is hashed **into** the key (not just stored next to
  the artifact) so a version bump orphans old entries outright — a cache
  directory can safely outlive many code revisions.
* ``record_timeseries`` is excluded: it toggles trace *recording* only
  (never simulation dynamics) and traces are not cached, so both variants
  of a spec share one artifact.
"""

from __future__ import annotations

import hashlib
import json

from repro.experiments.serialization import SCHEMA_VERSION
from repro.spec import ExperimentSpec

__all__ = ["task_fingerprint", "cache_key"]


def task_fingerprint(spec: ExperimentSpec) -> dict:
    """The exact dict whose canonical JSON is hashed."""
    d = spec._fingerprint()
    del d["sim"]["record_timeseries"]
    d["schema_version"] = SCHEMA_VERSION
    return d


def cache_key(spec: ExperimentSpec) -> str:
    """Stable hex digest identifying a spec's result."""
    canonical = json.dumps(
        task_fingerprint(spec),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
