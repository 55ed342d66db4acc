"""Cache-key stability and sensitivity (the campaign cache's contract)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.campaign import cachekey
from repro.campaign.cachekey import cache_key, task_fingerprint
from repro.policies import REGISTRY
from repro.spec import ExperimentSpec, PolicyRef, SimParams, TopologyRef, WorkloadRef
from repro.topologies import TOPOLOGY_REGISTRY
from repro.workloads.suite import workload


def _task(**overrides) -> ExperimentSpec:
    base = dict(
        workload=WorkloadRef.from_spec(workload("wl2")),
        policy=PolicyRef(
            "dike", (("swap_size", 4), ("quanta_length_s", 0.2))
        ),
        seed=42,
        work_scale=0.1,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestStability:
    def test_identical_specs_hash_equal(self):
        assert cache_key(_task()) == cache_key(_task())

    def test_key_is_independent_of_param_order(self):
        a = _task(policy=PolicyRef.of("dike", {"swap_size": 4, "quanta_length_s": 0.2}))
        b = _task(policy=PolicyRef.of("dike", {"quanta_length_s": 0.2, "swap_size": 4}))
        assert cache_key(a) == cache_key(b)

    def test_key_is_a_sha256_hexdigest(self):
        key = cache_key(_task())
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")

    def test_known_value_pins_the_canonical_form(self):
        """Golden key: fails iff the canonical fingerprint form changes.

        That is exactly when SCHEMA_VERSION must be bumped (a silent
        format change would alias old cache entries to new keys).
        """
        fp = task_fingerprint(_task())
        assert fp["schema_version"] == 1
        assert set(fp) == {
            "workload", "policy", "policy_params", "seed", "sim", "schema_version",
        }


class TestSensitivity:
    @pytest.mark.parametrize(
        "override",
        [
            {"policy": PolicyRef("dike-af")},
            {"seed": 43},
            {"policy": PolicyRef("dike", (("swap_size", 8),))},
            {"work_scale": 0.2},
            {"topology": TopologyRef("homogeneous")},
            {"counter_noise": 0.0},
            {"migration": (0.01, 2.0, 3.0)},
            {"llc": "occupancy"},
            {"invariants": True},
            {"workload": WorkloadRef.from_spec(workload("wl3"))},
        ],
    )
    def test_any_input_change_changes_the_key(self, override):
        assert cache_key(_task(**override)) != cache_key(_task())

    def test_schema_version_participates(self, monkeypatch):
        base = cache_key(_task())
        monkeypatch.setattr(cachekey, "SCHEMA_VERSION", 99)
        assert cache_key(_task()) != base

    def test_record_timeseries_is_excluded(self):
        """Tracing toggles recording, never dynamics — variants share a key."""
        with_trace = _task(record_timeseries=True)
        without = _task(record_timeseries=False)
        assert cache_key(with_trace) == cache_key(without)

    def test_for_workload_matches_the_field_constructor(self):
        """The ``sim=`` bundle only spreads onto the flat fields."""
        bundled = ExperimentSpec.for_workload(
            workload("wl2"), "dike", seed=42,
            policy_params={"quanta_length_s": 0.2, "swap_size": 4},
            sim=SimParams(work_scale=0.1),
        )
        assert bundled == _task()


GOLDEN_KEYS = Path(__file__).resolve().parents[1] / "golden" / "cache_keys.json"


def _golden_entries() -> list[dict]:
    return json.loads(GOLDEN_KEYS.read_text())["entries"]


class TestGoldenKeyTable:
    """Every pinned wire form must still hash to its recorded address.

    The table (``tests/golden/cache_keys.json``) covers every policy and
    topology preset plus each field that enters the fingerprint only
    when set; its keys were computed by the original task constructor,
    so a pass here means historical object stores stay warm.
    """

    @pytest.mark.parametrize(
        "entry", _golden_entries(), ids=lambda e: e["name"]
    )
    def test_wire_form_keeps_its_recorded_key(self, entry):
        spec = ExperimentSpec.from_dict(entry["spec"])
        assert spec.cache_key() == entry["key"]
        assert cache_key(spec) == entry["key"]

    def test_table_covers_every_policy_and_topology(self):
        names = {e["name"] for e in _golden_entries()}
        assert {f"policy/{p}" for p in REGISTRY.names()} <= names
        assert {f"topology/{t}" for t in TOPOLOGY_REGISTRY.names()} <= names

    def test_record_timeseries_shares_its_twins_key(self):
        by_name = {e["name"]: e for e in _golden_entries()}
        twin = by_name["record_timeseries/true"]
        assert twin["spec"]["record_timeseries"] is True
        assert twin["key"] == by_name["policy/dike"]["key"]
