"""Tests for the topology registry (`repro.topologies`): resolution,
aliases, the CLI argument grammar, preset shapes, the deprecation shims
and the `SimParams` cache-key integration."""

from __future__ import annotations

import pytest

from repro.topologies import (
    TOPOLOGY_REGISTRY,
    TopologySpec,
    UnknownTopologyError,
    parse_topology_arg,
)


class TestRegistryResolution:
    def test_all_presets_registered(self):
        names = TOPOLOGY_REGISTRY.names()
        for expected in (
            "heterogeneous", "homogeneous", "multi-socket",
            "scale128", "scale256", "scale512", "scale1024",
        ):
            assert expected in names

    def test_alias_resolves_to_same_spec(self):
        assert (
            TOPOLOGY_REGISTRY.get("xeon_e5_heterogeneous")
            is TOPOLOGY_REGISTRY.get("heterogeneous")
        )
        assert "xeon_e5_heterogeneous" in TOPOLOGY_REGISTRY

    def test_unknown_name_raises_listing_known(self):
        with pytest.raises(UnknownTopologyError, match="martian.*heterogeneous"):
            TOPOLOGY_REGISTRY.get("martian")
        # UnknownTopologyError is a ValueError, so CLI/campaign handlers
        # that map bad user input keep working.
        with pytest.raises(ValueError):
            TOPOLOGY_REGISTRY.build("martian")

    def test_tagged_lookup(self):
        scale = [s.name for s in TOPOLOGY_REGISTRY.tagged("scale")]
        assert "scale1024" in scale and "heterogeneous" not in scale
        paper = [s.name for s in TOPOLOGY_REGISTRY.tagged("paper")]
        assert set(paper) == {"heterogeneous", "homogeneous"}

    def test_duplicate_registration_rejected(self):
        spec = TOPOLOGY_REGISTRY.get("heterogeneous")
        with pytest.raises(ValueError, match="already registered"):
            TOPOLOGY_REGISTRY.register(spec)


class TestPresetShapes:
    @pytest.mark.parametrize(
        "name,n_vcores",
        [
            ("heterogeneous", 40),
            ("homogeneous", 40),
            ("multi-socket", 128),
            ("scale128", 128),
            ("scale256", 256),
            ("scale512", 512),
            ("scale1024", 1024),
        ],
    )
    def test_default_vcore_counts(self, name, n_vcores):
        assert TOPOLOGY_REGISTRY.build(name).n_vcores == n_vcores

    def test_scale_presets_are_heterogeneous(self):
        topo = TOPOLOGY_REGISTRY.build("scale256")
        assert topo.is_heterogeneous
        assert topo.n_sockets == 8

    def test_params_resize_the_machine(self):
        topo = TOPOLOGY_REGISTRY.build("scale128", {"cores_per_socket": 4, "smt": 1})
        assert topo.n_vcores == 4 * 4 * 1

    def test_describe_is_json_ready(self):
        import json

        for spec in TOPOLOGY_REGISTRY:
            payload = spec.describe()
            assert json.dumps(payload)
            assert payload["n_vcores"] >= 1


class TestValidation:
    def test_unknown_parameter_rejected_at_planning_time(self):
        spec = TOPOLOGY_REGISTRY.get("scale128")
        with pytest.raises(ValueError, match="unknown parameter"):
            spec.from_params({"n_socketz": 4})

    def test_out_of_bounds_rejected(self):
        spec = TOPOLOGY_REGISTRY.get("heterogeneous")
        with pytest.raises(ValueError):
            spec.validate_params({"smt": 3})  # choices are (1, 2, 4)
        with pytest.raises(ValueError):
            spec.validate_params({"cores_per_socket": 0})

    def test_factory_is_annotated_and_prevalidated(self):
        fac = TOPOLOGY_REGISTRY.factory("scale128", {"smt": 1})
        assert fac.topology_name == "scale128"
        assert fac.topology_params == {"smt": 1}
        a, b = fac(), fac()
        assert a is not b and a.n_vcores == b.n_vcores == 64

    def test_defaults_round_trip(self):
        for spec in TOPOLOGY_REGISTRY:
            assert spec.validate_params(spec.defaults()) == spec.defaults()


class TestParseTopologyArg:
    def test_bare_name(self):
        assert parse_topology_arg("scale256") == ("scale256", {})

    def test_typed_values(self):
        name, params = parse_topology_arg("multi-socket:n_sockets=8,max_ghz=2.5,smt=2")
        assert name == "multi-socket"
        assert params == {"n_sockets": 8, "max_ghz": 2.5, "smt": 2}
        assert isinstance(params["n_sockets"], int)
        assert isinstance(params["max_ghz"], float)

    def test_bool_and_str_values(self):
        _, params = parse_topology_arg("x:flag=true,label=fast")
        assert params == {"flag": True, "label": "fast"}

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="empty name"):
            parse_topology_arg(":smt=2")

    def test_malformed_parameter_rejected(self):
        with pytest.raises(ValueError, match="expected key=value"):
            parse_topology_arg("scale128:smt")


class TestFacade:
    def test_top_level_exports(self):
        import repro

        assert repro.TOPOLOGY_REGISTRY is TOPOLOGY_REGISTRY
        for name in (
            "TopologyRegistry", "TopologySpec", "UnknownTopologyError",
            "parse_topology_arg", "multi_socket", "Topology",
            "run_scenario", "PolicyRegistry",
        ):
            assert hasattr(repro, name)
            assert name in repro.__all__


class TestSimParamsIntegration:
    @staticmethod
    def _fingerprint_sim(sim) -> dict:
        from repro.campaign.cachekey import task_fingerprint
        from repro.spec import ExperimentSpec
        from repro.workloads.suite import workload

        spec = ExperimentSpec.for_workload(workload("wl1"), "dike", sim=sim)
        return task_fingerprint(spec)["sim"]

    def test_topology_params_omitted_when_default(self):
        from repro.spec import SimParams

        out = self._fingerprint_sim(SimParams(work_scale=0.05))
        assert "topology_params" not in out  # pre-existing cache keys survive

    def test_topology_params_sorted_and_serialized_when_set(self):
        from repro.spec import SimParams

        sim = SimParams(
            work_scale=0.05,
            topology="scale128",
            topology_params=(("smt", 1), ("cores_per_socket", 4)),
        )
        assert sim.topology_params == (("cores_per_socket", 4), ("smt", 1))
        out = self._fingerprint_sim(sim)
        assert out["topology"] == "scale128"
        assert out["topology_params"] == [["cores_per_socket", 4], ["smt", 1]]

    def test_bad_topology_params_rejected_at_construction(self):
        from repro.spec import SimParams

        with pytest.raises(ValueError):
            SimParams(work_scale=0.05, topology="scale128",
                      topology_params=(("martian", 1),))
