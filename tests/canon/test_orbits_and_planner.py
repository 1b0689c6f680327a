"""Tests for view-orbit partitioning and the orbit solve planner."""

from __future__ import annotations

import math

import pytest

from repro import (
    BatchSolver,
    ResultCache,
    grid_instance,
    local_averaging_solution,
    partition_views,
)
from repro.canon import orbit_solve
from repro.generators import cycle_instance
from repro.hypergraph.communication import communication_hypergraph


class TestPartitionViews:
    def test_rejects_non_positive_radius(self, cycle8):
        with pytest.raises(ValueError, match="radius"):
            partition_views(cycle8, 0)

    def test_partition_covers_all_agents_exactly_once(self, grid4x4):
        partition = partition_views(grid4x4, 1)
        members = [u for orbit in partition.orbits for u in orbit.members]
        assert sorted(map(repr, members)) == sorted(map(repr, grid4x4.agents))
        assert partition.n_agents == grid4x4.n_agents

    def test_torus_collapses_to_one_orbit(self):
        problem = grid_instance((6, 6), torus=True)
        partition = partition_views(problem, 2)
        assert partition.n_orbits == 1
        assert partition.sharing_factor == problem.n_agents

    def test_grid_has_positional_classes(self):
        # 8x8 grid, R=1: corners, edges and interior rings at distinct
        # boundary distances give a handful of classes, far fewer than n.
        problem = grid_instance((8, 8))
        partition = partition_views(problem, 1)
        assert 1 < partition.n_orbits < problem.n_agents / 4
        summary = partition.summary()
        assert summary["agents"] == 64
        assert summary["orbits"] == partition.n_orbits
        assert summary["inexact"] == 0

    def test_orbit_of_and_representative(self, cycle8):
        partition = partition_views(cycle8, 2)
        orbit = partition.orbit_of(cycle8.agents[3])
        assert cycle8.agents[3] in orbit.members
        assert orbit.representative == orbit.members[0]

    def test_reused_index_does_not_change_partition(self, grid4x4):
        from repro.canon.labeling import CanonicalIndex

        index = CanonicalIndex()
        first = partition_views(grid4x4, 1, index=index)
        second = partition_views(grid4x4, 1, index=index)
        assert [orbit.key for orbit in first.orbits] == [
            orbit.key for orbit in second.orbits
        ]


def _planner_outcomes(problem, views, R, engine):
    """Per-agent outcomes through partition_views + orbit_solve."""
    partition = partition_views(problem, R, views=views)
    by_key, stats = orbit_solve(partition, engine=engine)
    outcomes = {}
    for u in views:
        form = partition.forms[u]
        solved = by_key[form.key]
        outcomes[u] = (form.pull_back(solved.x), solved.objective)
    return outcomes, stats


class TestOrbitPlanner:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: grid_instance((5, 5), torus=True),
            lambda: grid_instance((5, 5)),
            lambda: cycle_instance(10),
        ],
    )
    def test_outcomes_bit_identical_to_engine_path(self, factory):
        problem = factory()
        H = communication_hypergraph(problem)
        views = {u: H.ball(u, 2) for u in problem.agents}
        direct = BatchSolver().solve_local_lps(problem, views)
        shared, stats = _planner_outcomes(problem, views, 2, BatchSolver())
        assert stats.n_agents == problem.n_agents
        assert stats.n_orbits <= problem.n_agents
        for u in problem.agents:
            assert shared[u] == (direct[u].x, direct[u].objective)

    def test_rejects_non_positive_radius(self, cycle8):
        for vectorized in (True, False):
            with pytest.raises(ValueError, match="R >= 1"):
                local_averaging_solution(cycle8, 0, vectorized=vectorized)

    def test_distinct_solve_count_collapses_on_torus(self):
        problem = grid_instance((8, 8), torus=True)
        engine = BatchSolver(cache=ResultCache())
        result = local_averaging_solution(problem, 2, engine=engine)
        assert engine.stats.executed == 1
        assert engine.stats.units == 1
        assert result.orbit_stats == {
            "n_agents": 64,
            "n_orbits": 1,
            "shared": 63,
            "sharing_factor": 64.0,
            "inexact_orbits": 0,
        }

    def test_share_orbits_bit_identical_averaging(self):
        # The deprecated keyword selects nothing: every run shares orbits.
        for problem, R in [
            (grid_instance((6, 6), torus=True), 2),
            (grid_instance((5, 5)), 1),
            (cycle_instance(12), 2),
        ]:
            default = local_averaging_solution(problem, R, engine=BatchSolver())
            for share_orbits in (False, True):
                legacy = local_averaging_solution(
                    problem, R, engine=BatchSolver(), share_orbits=share_orbits
                )
                assert legacy.x == default.x
                assert legacy.objective == default.objective
                assert legacy.local_objectives == default.local_objectives
                assert legacy.beta == default.beta
                assert legacy.orbit_stats == default.orbit_stats
            assert default.orbit_stats["n_agents"] == problem.n_agents

    def test_share_orbits_on_random_instance(self, random_instance):
        default = local_averaging_solution(
            random_instance, 1, engine=BatchSolver(), vectorized=False
        )
        legacy = local_averaging_solution(
            random_instance,
            1,
            engine=BatchSolver(),
            vectorized=False,
            share_orbits=False,
        )
        assert legacy.x == default.x
        assert legacy.objective == default.objective
        assert default.orbit_stats is not None

    def test_accepts_view_subsets_like_the_engine_path(self, cycle8):
        # solve_local_lps accepts any view mapping, not just all-agents;
        # partition_views and the planner must mirror that.
        H = communication_hypergraph(cycle8)
        subset = dict(
            (u, H.ball(u, 1)) for u in list(cycle8.agents)[:3]
        )
        direct = BatchSolver().solve_local_lps(cycle8, subset)
        shared, stats = _planner_outcomes(cycle8, subset, 1, BatchSolver())
        assert stats.n_agents == 3
        assert set(shared) == set(subset) == set(direct)
        for u in subset:
            assert shared[u] == (direct[u].x, direct[u].objective)

    def test_vacuous_views_share_correctly(self):
        # Single-agent views have no complete beneficiary support: both
        # paths must pull back all-zero solutions with objective inf.
        problem = cycle_instance(6)
        views = {u: frozenset({u}) for u in problem.agents}
        engine = BatchSolver(cache=ResultCache())
        direct = engine.solve_local_lps(problem, views)
        assert engine.stats.units == engine.stats.executed == 1
        shared, stats = _planner_outcomes(problem, views, 1, BatchSolver())
        assert stats.n_orbits == 1
        for u in problem.agents:
            assert direct[u].x == {u: 0.0}
            assert direct[u].objective == math.inf
            assert shared[u] == (direct[u].x, direct[u].objective)
