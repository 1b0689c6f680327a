"""Golden digests of the local averaging output.

Every local LP is solved once per view orbit: the view is canonicalised,
one LP is solved per distinct canonical form and the solution is pulled
back to each agent.  The digests below were recorded with the per-agent
canonical path that this orbit path replaced, so they pin ``x``,
``local_objectives`` and ``beta`` of :func:`local_averaging_solution` —
and the :class:`SuiteRunner` payloads built on them — bit for bit across
that change, through both the vectorized and the scalar pipelines.
"""

from __future__ import annotations

import json
from hashlib import sha256

import pytest

from repro import (
    BatchSolver,
    ResultCache,
    ScenarioSpec,
    SuiteRunner,
    get_suite,
    grid_instance,
    local_averaging_solution,
)
from repro.scenarios.registry import build_instance


def _random_torus():
    return grid_instance((6, 6), torus=True, weights="random", seed=11)


def _unit_torus():
    return grid_instance((6, 6), torus=True)


def _grid():
    return grid_instance((8, 8))


def _bipartite():
    return build_instance(
        ScenarioSpec(
            family="random_regular_bipartite",
            params={"n_side": 8, "degree": 3},
            seed=0,
        )
    )


INSTANCES = {
    "random-torus": _random_torus,
    "unit-torus": _unit_torus,
    "grid": _grid,
    "bipartite": _bipartite,
}

#: (instance, R) -> sha256 over (agent, x, local objective, beta) per agent.
#: The vectorized and scalar pipelines share each digest.
AVERAGING_DIGESTS = {
    ("random-torus", 1): (
        "ed22300980664c7bdbbe99e3e05e47cd389dfa25811abc4567797ce800fd6d6e"
    ),
    ("random-torus", 2): (
        "90c19674e647748e6047f641bceaced441a8f7ae45c8be84a2c8000c6fd5b262"
    ),
    ("unit-torus", 1): (
        "b24e09006b227c7ef47fe046ca864d171ab7d2e9b8eeab9f51e2b0c1e7eae3cb"
    ),
    ("unit-torus", 2): (
        "03d369b608ade9fcbf167b75676226fff0698327c1e8d51f537604a80545a7df"
    ),
    ("grid", 1): (
        "a0f2d41096fc6576748871bcdd8c7ff78dcaa349e2b75e44f7cbbc2de2da5547"
    ),
    ("grid", 2): (
        "99414765d026a40f9b30f08f4e76d525dbcd85f43f0c0a6c4d80fa351724b579"
    ),
    ("bipartite", 1): (
        "bf7e3f26250ce21c7f67880150db2cb008d25973956ac76f7bcf0fec532f2345"
    ),
    ("bipartite", 2): (
        "dd054c38dbdb46675f4f6c65ad5a6261b0ce6a94b92155fbfbe3fd33cadc5257"
    ),
}

#: paper-suite family -> sha256 over its SuiteRunner payload (sans timing).
SUITE_DIGESTS = {
    "torus": (
        "294e1ade9f07899199e73150947e2b330c3286131d834d4fbb63a0ba2e54d173"
    ),
    "random_regular_bipartite": (
        "736eb2fd146c2faa587a9991b1380585c0fb996c6c668e4921612773e371d15e"
    ),
    "sensor": (
        "01b75882c892b2fc874a9115defa3b9ed84ff9fc245dbfc829765df9a4c714e9"
    ),
}


def _averaging_digest(problem, result) -> str:
    digest = sha256()
    for agent in problem.agents:
        digest.update(
            repr(
                (
                    agent,
                    result.x[agent],
                    result.local_objectives[agent],
                    result.beta[agent],
                )
            ).encode()
        )
    return digest.hexdigest()


def _payload_digest(result) -> str:
    payload = result.as_dict()
    del payload["seconds"]
    return sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "scalar"])
@pytest.mark.parametrize("case", sorted(AVERAGING_DIGESTS))
def test_local_averaging_matches_golden_digest(case, vectorized):
    name, R = case
    problem = INSTANCES[name]()
    result = local_averaging_solution(
        problem,
        R,
        engine=BatchSolver(cache=ResultCache()),
        vectorized=vectorized,
    )
    assert _averaging_digest(problem, result) == AVERAGING_DIGESTS[case]


def test_suite_payloads_match_golden_digests():
    scenarios = [
        spec
        for spec in get_suite("paper").expand()
        if spec.family in SUITE_DIGESTS
    ]
    assert sorted(spec.family for spec in scenarios) == sorted(SUITE_DIGESTS)
    results = SuiteRunner().run(scenarios)
    got = {result.family: _payload_digest(result) for result in results}
    assert got == SUITE_DIGESTS
