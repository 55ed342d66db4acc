"""Property suite for the unified spec layer (`repro.spec`).

Three contracts, each asserted over *every* registered policy and
topology rather than a hand-picked sample:

* **Round-trip** — a default- or fully-parameterised ref/spec survives
  ``to_dict`` → JSON → ``from_dict`` unchanged (the wire form is
  JSON-clean, schema-versioned, canonical).
* **Bounds** — the one validation path rejects out-of-schema values at
  construction: unknown parameter names always, out-of-range values for
  every `ParamSpec` that declares a bound.
* **Cache-key byte identity** — every policy and topology preset keeps
  the content address recorded in ``tests/golden/cache_keys.json`` (as
  computed before `ExperimentSpec` became the only spec type), so
  historical object stores stay warm.  A golden hex digest pins the
  canonical form against silent drift.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.campaign.cachekey import cache_key
from repro.policies import REGISTRY
from repro.spec import (
    SPEC_SCHEMA_VERSION,
    ExperimentSpec,
    PolicyRef,
    SimParams,
    TopologyRef,
)
from repro.topologies import TOPOLOGY_REGISTRY
from repro.workloads.suite import workload

POLICIES = tuple(REGISTRY.names())
TOPOLOGIES = tuple(TOPOLOGY_REGISTRY.names())


def _default_params(spec) -> dict:
    """Every declared parameter pinned explicitly to its default."""
    return {p.name: p.default for p in spec.params if p.default is not None}


def _violation(p):
    """A value outside ``p``'s declared bounds, or None if unbounded."""
    if p.choices is not None:
        candidates = [c for c in (0, 1, -999, "no-such-choice") if c not in p.choices]
        return candidates[0] if candidates else None
    if p.minimum is not None:
        below = p.minimum - (1 if p.type is int else 1.0)
        return p.type(below)
    if p.maximum is not None:
        return p.type(p.maximum + (1 if p.type is int else 1.0))
    return None


def _bounded_params():
    """(kind, registry-name, ParamSpec) for every bounded parameter."""
    out = []
    for name in POLICIES:
        for p in REGISTRY.get(name).params:
            if _violation(p) is not None:
                out.append(("policy", name, p))
    for name in TOPOLOGIES:
        for p in TOPOLOGY_REGISTRY.get(name).params:
            if _violation(p) is not None:
                out.append(("topology", name, p))
    return out


BOUNDED = _bounded_params()


def _json_round_trip(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


class TestPolicyRefRoundTrip:
    @pytest.mark.parametrize("name", POLICIES)
    def test_defaults_round_trip(self, name):
        ref = PolicyRef.of(name)
        assert PolicyRef.from_dict(_json_round_trip(ref.to_dict())) == ref

    @pytest.mark.parametrize("name", POLICIES)
    def test_every_declared_param_round_trips(self, name):
        ref = PolicyRef.of(name, _default_params(REGISTRY.get(name)))
        assert PolicyRef.from_dict(_json_round_trip(ref.to_dict())) == ref

    @pytest.mark.parametrize("name", POLICIES)
    def test_params_are_canonically_sorted(self, name):
        params = _default_params(REGISTRY.get(name))
        if len(params) < 2:
            pytest.skip("needs >= 2 params to exercise ordering")
        forward = PolicyRef.of(name, sorted(params.items()))
        backward = PolicyRef.of(name, sorted(params.items(), reverse=True))
        assert forward == backward

    @pytest.mark.parametrize("name", POLICIES)
    def test_unknown_param_rejected(self, name):
        with pytest.raises(ValueError):
            PolicyRef.of(name, {"no_such_param": 1})


class TestTopologyRefRoundTrip:
    @pytest.mark.parametrize("name", TOPOLOGIES)
    def test_defaults_round_trip(self, name):
        ref = TopologyRef.of(name)
        assert TopologyRef.from_dict(_json_round_trip(ref.to_dict())) == ref

    @pytest.mark.parametrize("name", TOPOLOGIES)
    def test_every_declared_param_round_trips(self, name):
        ref = TopologyRef.of(name, _default_params(TOPOLOGY_REGISTRY.get(name)))
        assert TopologyRef.from_dict(_json_round_trip(ref.to_dict())) == ref

    @pytest.mark.parametrize("name", TOPOLOGIES)
    def test_unknown_param_rejected(self, name):
        with pytest.raises(ValueError):
            TopologyRef.of(name, {"no_such_param": 1})


class TestBoundsEnforced:
    @pytest.mark.parametrize(
        "kind,name,param",
        BOUNDED,
        ids=[f"{k}:{n}:{p.name}" for k, n, p in BOUNDED],
    )
    def test_out_of_bounds_value_rejected(self, kind, name, param):
        bad = {param.name: _violation(param)}
        ref_cls = PolicyRef if kind == "policy" else TopologyRef
        with pytest.raises(ValueError):
            ref_cls.of(name, bad)

    def test_registries_declare_bounded_params(self):
        """The suite above is not vacuous: both registries contribute."""
        kinds = {k for k, _, _ in BOUNDED}
        assert kinds == {"policy", "topology"}


class TestExperimentSpecRoundTrip:
    @pytest.mark.parametrize("name", POLICIES)
    def test_policy_spec_round_trips_through_json(self, name):
        exp = ExperimentSpec.for_workload(
            workload("wl1"), name,
            policy_params=_default_params(REGISTRY.get(name)),
            sim=SimParams(work_scale=0.05),
        )
        assert ExperimentSpec.from_dict(_json_round_trip(exp.to_dict())) == exp

    @pytest.mark.parametrize("name", TOPOLOGIES)
    def test_topology_spec_round_trips_through_json(self, name):
        exp = ExperimentSpec.for_workload(
            workload("wl1"), "dike",
            sim=SimParams(
                work_scale=0.05, topology=name,
                topology_params=tuple(
                    sorted(_default_params(TOPOLOGY_REGISTRY.get(name)).items())
                ),
            ),
        )
        assert ExperimentSpec.from_dict(_json_round_trip(exp.to_dict())) == exp

    @pytest.mark.parametrize("name", POLICIES)
    def test_task_image_round_trips(self, name):
        """The spec is its own campaign task: ``to_task()`` (kept for the
        benchmark harness's ``ResultStore.put`` calls) returns it."""
        exp = ExperimentSpec.for_workload(workload("wl2"), name, seed=9)
        assert exp.to_task() is exp
        assert exp.to_task().label() == exp.label() == f"wl2/{name}@s9"

    def test_unknown_schema_version_rejected(self):
        doc = ExperimentSpec.for_workload(workload("wl1"), "dike").to_dict()
        doc["spec_version"] = SPEC_SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            ExperimentSpec.from_dict(doc)

    def test_non_triple_migration_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec.for_workload(
                workload("wl1"), "dike", sim=SimParams(migration=(0.01, 2.0))
            )


GOLDEN_KEYS = {
    e["name"]: e["key"]
    for e in json.loads(
        (Path(__file__).parent / "golden" / "cache_keys.json").read_text()
    )["entries"]
}


class TestCacheKeyByteIdentity:
    """`ExperimentSpec` must address the same cache objects as the spec
    layer did before it became the only spec type (keys recorded in
    ``tests/golden/cache_keys.json``)."""

    @pytest.mark.parametrize("name", POLICIES)
    def test_every_policy_keeps_its_legacy_key(self, name):
        exp = ExperimentSpec.for_workload(
            workload("wl3"), name, seed=11, sim=SimParams(work_scale=0.1)
        )
        assert exp.cache_key() == GOLDEN_KEYS[f"policy/{name}"]

    @pytest.mark.parametrize("name", TOPOLOGIES)
    def test_every_topology_keeps_its_legacy_key(self, name):
        exp = ExperimentSpec.for_workload(
            workload("wl3"), "dike", seed=11,
            sim=SimParams(work_scale=0.1, topology=name),
        )
        assert exp.cache_key() == GOLDEN_KEYS[f"topology/{name}"]

    def test_golden_key_pins_the_canonical_form(self):
        """Byte-for-byte pin of one known address.  Fails iff the hashed
        canonical form changes — exactly when cache SCHEMA_VERSION must
        be bumped, because old object stores would silently go cold."""
        exp = ExperimentSpec.for_workload(
            workload("wl2"), "dike", seed=42,
            policy_params={"swap_size": 4, "quanta_length_s": 0.2},
            sim=SimParams(work_scale=0.1),
        )
        golden = "00dd68e8c944462dc35b17db6368b99e0c5790f15336890695bb1a1a16f61a32"
        assert exp.cache_key() == cache_key(exp) == golden

    def test_record_timeseries_still_excluded(self):
        with_trace = ExperimentSpec.for_workload(
            workload("wl1"), "dike",
            sim=SimParams(work_scale=0.1, record_timeseries=True),
        )
        without = ExperimentSpec.for_workload(
            workload("wl1"), "dike", sim=SimParams(work_scale=0.1)
        )
        assert with_trace.cache_key() == without.cache_key()
