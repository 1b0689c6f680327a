"""Property tests: canonical view keys are relabeling-invariant and
coefficient-sensitive (the two defining contracts of repro.canon), and the
discrete-colouring short-circuit agrees with the searched labelling."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MaxMinLP, canonical_view_key, communication_hypergraph
from repro.canon.labeling import (
    CanonicalIndex,
    canonicalize_local_lp,
    view_local_structure,
)
from repro.views import ViewAtlas

from .strategies import max_min_instances


def relabel(problem: MaxMinLP, permutation):
    """Rename every identifier of ``problem`` along a permuted agent order."""
    agents = list(problem.agents)
    shuffled = [agents[i] for i in permutation]
    rename = {a: f"renamed-{idx}" for idx, a in enumerate(shuffled)}
    consumption = {
        ((("r",) + ((i,) if not isinstance(i, tuple) else i)), rename[v]): value
        for (i, v), value in problem.consumption_items()
    }
    benefit = {
        ((("b",) + ((k,) if not isinstance(k, tuple) else k)), rename[v]): value
        for (k, v), value in problem.benefit_items()
    }
    copy = MaxMinLP([rename[a] for a in agents], consumption, benefit)
    return copy, rename


@st.composite
def instance_and_permutation(draw, **kwargs):
    problem = draw(max_min_instances(**kwargs))
    permutation = draw(st.permutations(range(problem.n_agents)))
    return problem, list(permutation)


@st.composite
def reweighted_instances(draw, *, share: float = 1.0):
    """A unit-weight instance with a random ``share`` of its coefficients
    replaced by distinct generic values.

    ``share=1`` gives generic weights, where every view's colour refinement
    is discrete; smaller shares mix discrete and symmetric views.
    """
    base = draw(max_min_instances(unit_weights=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def reweight(items):
        return {
            key: float(rng.uniform(0.5, 1.5)) if rng.random() < share else value
            for key, value in items
        }

    return MaxMinLP(
        base.agents,
        reweight(base.consumption_items()),
        reweight(base.benefit_items()),
    )


def view_structures(problem: MaxMinLP, radius: int):
    H = communication_hypergraph(problem)
    return [
        view_local_structure(problem, H.ball(u, radius)) for u in problem.agents
    ]


mixed_instances = st.floats(min_value=0.0, max_value=1.0).flatmap(
    lambda share: reweighted_instances(share=share)
)


class TestRelabelingInvariance:
    @settings(max_examples=30, deadline=None)
    @given(instance_and_permutation())
    def test_view_keys_invariant_under_relabeling(self, data):
        problem, permutation = data
        copy, rename = relabel(problem, permutation)
        H = communication_hypergraph(problem)
        H2 = communication_hypergraph(copy)
        for u in problem.agents:
            assert canonical_view_key(problem, u, 1, hypergraph=H) == (
                canonical_view_key(copy, rename[u], 1, hypergraph=H2)
            )

    @settings(max_examples=30, deadline=None)
    @given(instance_and_permutation(max_agents=6, max_resources=6))
    def test_whole_instance_form_invariant(self, data):
        problem, permutation = data
        copy, _rename = relabel(problem, permutation)
        original = canonicalize_local_lp(
            *view_local_structure(problem, frozenset(problem.agents))
        )
        relabelled = canonicalize_local_lp(
            *view_local_structure(copy, frozenset(copy.agents))
        )
        assert original.key == relabelled.key
        assert original.consumption == relabelled.consumption
        assert original.benefit == relabelled.benefit


class TestCoefficientSensitivity:
    @settings(max_examples=30, deadline=None)
    @given(
        max_min_instances(unit_weights=True),
        st.floats(min_value=1.5, max_value=4.0, allow_nan=False),
    )
    def test_perturbing_a_weight_changes_the_key(self, problem, factor):
        agents, cons, bens = view_local_structure(
            problem, frozenset(problem.agents)
        )
        base = canonicalize_local_lp(agents, cons, bens)
        perturbed_cons = list(cons)
        resource, agent, value = perturbed_cons[0]
        perturbed_cons[0] = (resource, agent, value * factor)
        perturbed = canonicalize_local_lp(agents, perturbed_cons, bens)
        assert base.key != perturbed.key

    @settings(max_examples=20, deadline=None)
    @given(max_min_instances())
    def test_key_is_deterministic(self, problem):
        structure = view_local_structure(problem, frozenset(problem.agents))
        assert (
            canonicalize_local_lp(*structure).key
            == canonicalize_local_lp(*structure).key
        )


class TestDiscreteShortCircuit:
    @settings(max_examples=30, deadline=None)
    @given(reweighted_instances(), st.data())
    def test_generic_keys_invariant_under_relabeling(self, problem, data):
        permutation = data.draw(st.permutations(range(problem.n_agents)))
        copy, rename = relabel(problem, list(permutation))
        index, copy_index = CanonicalIndex(), CanonicalIndex()
        H, H2 = communication_hypergraph(problem), communication_hypergraph(copy)
        for u in problem.agents:
            form = index.canonical_form(*view_local_structure(problem, H.ball(u, 1)))
            copy_form = copy_index.canonical_form(
                *view_local_structure(copy, H2.ball(rename[u], 1))
            )
            assert form.key == copy_form.key
            assert [rename[v] for v in form.agent_order] == list(
                copy_form.agent_order
            )
        # Generic weights leave no symmetry: every view took the fast path.
        assert index.stats["searched"] == copy_index.stats["searched"] == 0
        assert index.stats["discrete"] == problem.n_agents

    @settings(max_examples=30, deadline=None)
    @given(mixed_instances, st.integers(min_value=1, max_value=2))
    def test_shared_index_agrees_with_fresh_canonicalisation(self, problem, radius):
        shared = CanonicalIndex()
        for structure in view_structures(problem, radius):
            form = shared.canonical_form(*structure)
            fresh = canonicalize_local_lp(*structure)
            assert form.key == fresh.key
            assert form.consumption == fresh.consumption
            assert form.benefit == fresh.benefit
            assert form == CanonicalIndex().canonical_form(*structure)

    @settings(max_examples=30, deadline=None)
    @given(mixed_instances, st.integers(min_value=1, max_value=2))
    def test_batch_forms_equal_index_forms(self, problem, radius):
        atlas = ViewAtlas.from_problem(problem, radius)
        batch_index = CanonicalIndex()
        batch_forms = atlas.canonical_forms(batch_index)
        index = CanonicalIndex()
        for row, structure in enumerate(view_structures(problem, radius)):
            form, positions = index.canonical_form_and_positions(*structure)
            assert batch_forms[problem.agents[row]] == form
            assert np.array_equal(
                atlas._agent_positions_by_row[row], positions[: form.n_agents]
            )
        # Both paths saw the same discrete views (the batch counts one per
        # distinct literal structure, so never more).
        assert batch_index.stats["discrete"] <= index.stats["discrete"]
        assert (batch_index.stats["discrete"] > 0) == (index.stats["discrete"] > 0)
