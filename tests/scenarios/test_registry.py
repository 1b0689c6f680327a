"""Tests for the instance-family registry."""

from __future__ import annotations

import pytest

from repro import MaxMinLP
from repro.exceptions import ScenarioError
from repro.scenarios import (
    ScenarioSpec,
    build_instance,
    describe_families,
    get_suite,
    family_schema,
    get_family,
    list_families,
    param,
    register_family,
    unregister_family,
    validate_spec,
)

#: Every family the subsystem must cover (the issue's acceptance list).
EXPECTED_FAMILIES = [
    "cycle",
    "grid",
    "isp",
    "path",
    "random_bounded_degree",
    "random_regular_bipartite",
    "sensor",
    "sidon_bipartite",
    "torus",
    "unit_disk",
]

#: Small parameters per family so the whole zoo builds fast in tests.
SMALL_PARAMS = {
    "cycle": {"n": 8},
    "grid": {"shape": (3, 3)},
    "isp": {"n_customers": 3, "n_routers": 2},
    "path": {"n": 6},
    "random_bounded_degree": {"n_agents": 8},
    "random_regular_bipartite": {"n_side": 4, "degree": 2},
    "sensor": {"n_sensors": 6, "n_relays": 3, "n_areas": 2},
    "sidon_bipartite": {"degree": 2},
    "torus": {"shape": (3, 3)},
    "unit_disk": {"n": 10, "radius": 0.4},
}


class TestRegistryContents:
    def test_every_expected_family_is_registered(self):
        assert set(EXPECTED_FAMILIES) <= set(list_families())

    def test_list_families_is_sorted(self):
        assert list_families() == sorted(list_families())

    @pytest.mark.parametrize("family", EXPECTED_FAMILIES)
    def test_family_builds_an_instance(self, family):
        spec = ScenarioSpec(family=family, params=SMALL_PARAMS[family], seed=0)
        validate_spec(spec)
        problem = build_instance(spec)
        assert isinstance(problem, MaxMinLP)
        assert problem.n_agents > 0
        assert problem.n_resources > 0
        assert problem.n_beneficiaries > 0

    @pytest.mark.parametrize("family", EXPECTED_FAMILIES)
    def test_family_has_a_schema_and_description(self, family):
        schema = family_schema(family)
        assert schema, f"{family} has no parameter schema"
        assert get_family(family).description

    def test_builds_are_deterministic_given_the_seed(self):
        from repro.engine import fingerprint_instance

        spec = ScenarioSpec(
            family="random_bounded_degree", params={"n_agents": 10}, seed=7
        )
        assert fingerprint_instance(build_instance(spec)) == fingerprint_instance(
            build_instance(spec)
        )

    def test_describe_families_rows(self):
        rows = describe_families()
        assert [row["family"] for row in rows] == list_families()
        assert all({"family", "parameters", "description"} <= set(row) for row in rows)


class TestValidation:
    def test_unknown_family_raises(self):
        with pytest.raises(ScenarioError, match="unknown instance family"):
            validate_spec(ScenarioSpec(family="does-not-exist"))

    def test_unknown_parameter_raises(self):
        spec = ScenarioSpec(family="cycle", params={"n": 8, "bogus": 1})
        with pytest.raises(ScenarioError, match="bogus"):
            validate_spec(spec)

    def test_defaults_are_applied(self):
        problem = build_instance(ScenarioSpec(family="cycle"))
        assert problem.n_agents == 40  # the schema default


class TestCustomRegistration:
    def test_register_and_unregister_a_custom_family(self):
        from repro import path_instance

        @register_family(
            "test_tmp_family",
            description="temporary",
            params={"n": param(4, "agents")},
        )
        def _build(seed, *, n):
            return path_instance(n)

        try:
            assert "test_tmp_family" in list_families()
            problem = build_instance(ScenarioSpec(family="test_tmp_family"))
            assert problem.n_agents == 4
        finally:
            assert unregister_family("test_tmp_family")
        assert "test_tmp_family" not in list_families()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ScenarioError, match="already registered"):
            register_family("cycle")(lambda seed: None)


class TestBipartiteLifting:
    def test_incidence_instance_has_degree_bounds(self):
        problem = build_instance(
            ScenarioSpec(
                family="random_regular_bipartite",
                params={"n_side": 5, "degree": 3},
                seed=0,
            )
        )
        # Agents are the 15 edges; every resource/beneficiary support is Δ=3.
        assert problem.n_agents == 15
        assert problem.n_resources == 5
        assert problem.n_beneficiaries == 5
        bounds = problem.degree_bounds()
        assert bounds.max_resource_support == 3
        assert bounds.max_beneficiary_support == 3


class TestBuiltinSuites:
    @pytest.mark.parametrize("suite", ["paper", "stress"])
    def test_every_expanded_point_builds(self, suite):
        for spec in get_suite(suite).expand():
            problem = build_instance(spec)
            assert problem.n_agents > 0, spec.display_label
