"""Golden keys for views whose colour refinement is already discrete.

When the stable WL colouring of a view gives every node its own colour,
that colouring is the canonical labelling and no individualisation search
runs.  The expected digests below were recorded with the search-based
labelling that preceded the short-circuit, so they pin the canonical output
(keys, orders, relabelled coefficients and agent positions) bit for bit
across both entry points: :meth:`ViewAtlas.canonical_forms` and
:meth:`CanonicalIndex.canonical_form_and_positions` on
:func:`view_local_structure`.
"""

from __future__ import annotations

from hashlib import sha256

import numpy as np
import pytest

from repro import MaxMinLP, communication_hypergraph, grid_instance
from repro.canon.labeling import (
    CANON_FORMAT_VERSION,
    CanonicalIndex,
    view_local_structure,
)
from repro.views import ViewAtlas


def _random_torus() -> MaxMinLP:
    return grid_instance((6, 6), torus=True, weights="random", seed=11)


def _unit_torus() -> MaxMinLP:
    return grid_instance((6, 6), torus=True)


def _perturbed_torus() -> MaxMinLP:
    """A unit torus with three rescaled coefficients: 13 of its 36 R=1
    views refine to a discrete colouring, the rest keep symmetric cells."""
    base = _unit_torus()
    consumption = dict(base.consumption_items())
    keys = sorted(consumption, key=repr)
    for idx, factor in ((0, 1.25), (7, 0.75), (40, 1.5)):
        consumption[keys[idx]] *= factor
    return MaxMinLP(
        base.agents,
        consumption,
        dict(base.benefit_items()),
        resources=base.resources,
        beneficiaries=base.beneficiaries,
    )


#: name -> (instance builder, views with a discrete colouring, golden digest)
CASES = {
    "random": (
        _random_torus,
        36,
        "046ab07b35ae65b4a74ec3a62ad869905afbc550962a5d86c60b572f5ac86b48",
    ),
    "unit": (
        _unit_torus,
        0,
        "cf23aa997e32ecf79901d0f248ca28af4ecb3dc157fd054dd507da3dce56289a",
    ),
    "mixed": (
        _perturbed_torus,
        13,
        "3157c0aa10315c19173db0a6be662025904915936a31dc4e444e8510e50fa7a6",
    ),
}


def _digest(problem, forms, agent_positions) -> str:
    """sha256 over every view's form and canonical agent positions."""
    digest = sha256()
    for root, positions in zip(problem.agents, agent_positions):
        form = forms[root]
        digest.update(
            repr(
                (
                    root,
                    form.key,
                    form.exact,
                    form.agent_order,
                    form.resource_order,
                    form.beneficiary_order,
                    form.consumption,
                    form.benefit,
                )
            ).encode()
        )
        digest.update(np.asarray(positions, dtype=np.int64).tobytes())
    return digest.hexdigest()


def _index_path(problem):
    """Every R=1 view through one shared index, view by view."""
    H = communication_hypergraph(problem)
    index = CanonicalIndex()
    forms, agent_positions = {}, []
    for u in problem.agents:
        form, positions = index.canonical_form_and_positions(
            *view_local_structure(problem, H.ball(u, 1))
        )
        forms[u] = form
        agent_positions.append(positions[: form.n_agents])
    return forms, agent_positions, index


def _atlas_path(problem):
    """Every R=1 view through the batch atlas and one shared index."""
    atlas = ViewAtlas.from_problem(problem, 1)
    index = CanonicalIndex()
    forms = atlas.canonical_forms(index)
    return forms, atlas._agent_positions_by_row, index


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("path", [_index_path, _atlas_path])
def test_golden_digest(name, path):
    build, _n_discrete, golden = CASES[name]
    problem = build()
    forms, agent_positions, _index = path(problem)
    assert _digest(problem, forms, agent_positions) == golden


def test_format_version_is_unchanged():
    # The discrete short-circuit reproduces the searched labelling exactly,
    # so keys written to disk caches before it stay valid.
    assert CANON_FORMAT_VERSION == 1


@pytest.mark.parametrize("name", sorted(CASES))
def test_index_stats(name):
    build, n_discrete, _golden = CASES[name]
    problem = build()
    _forms, _positions, index = _index_path(problem)
    stats = index.stats
    assert stats["discrete"] == n_discrete
    assert (
        stats["discrete"] + stats["searched"] + stats["matched"]
        + stats["memoized"] + stats["literal"]
    ) == problem.n_agents
    if name == "random":
        assert stats["searched"] == 0
        assert stats["discrete"] == problem.n_agents
    if name == "unit":
        assert stats["searched"] == 1


@pytest.mark.parametrize("name", sorted(CASES))
def test_atlas_stats(name):
    build, n_discrete, _golden = CASES[name]
    problem = build()
    _forms, _positions, index = _atlas_path(problem)
    stats = index.stats
    # The batch path counts its discrete representatives into the index.
    assert stats["discrete"] == n_discrete
    if name == "random":
        assert stats["searched"] == 0
        assert stats["discrete"] == problem.n_agents
    if name == "unit":
        assert stats["searched"] == 1
    if name == "mixed":
        assert stats["searched"] >= 1


def test_discrete_views_are_not_registered():
    problem = _random_torus()
    _forms, _positions, index = _index_path(problem)
    assert index._classes == {}
    assert index._structure_memo == {}
