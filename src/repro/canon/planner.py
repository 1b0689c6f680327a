"""Orbit-aware solve planning: one local LP per view-equivalence class.

This is the execution half of the canonicalisation subsystem.  Given the
partition of the agents into view orbits (:mod:`repro.canon.orbits`),
:func:`orbit_solve` submits exactly one *canonical* LP per orbit; the
solved canonical vector is then pulled back into every member's own vertex
names through that member's canonical position map.  Every local LP of the
reproduction is solved this way: the engine's per-view entry point
(:meth:`repro.engine.BatchSolver.solve_local_lps`) groups its views by
canonical key the same way before it submits anything.

Isomorphic views share their solution by construction, not by luck: they
have one canonical form, so they hand the solver the *same matrices* and
differ only in their pull-back maps.  Which member triggers the solve
therefore never changes a number.

The planner submits its one-LP-per-orbit batch through
:meth:`~repro.engine.BatchSolver.solve_canonical_local_lps`, so the orbit
representatives inherit the engine's whole solve stack: compiled sparse
reductions (no ``MaxMinLP`` is assembled for a representative), the
content-addressed cache, and the batched LP layer of :mod:`repro.lp.batch`
— under an engine configured with ``lp_strategy="stacked"`` all cache-miss
representatives of a batch go to HiGHS as one block-diagonal call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from ..lp.backends import DEFAULT_BACKEND
from ..obs.metrics import get_registry
from .orbits import OrbitPartition

__all__ = ["OrbitSolveStats", "orbit_solve"]


@dataclass(frozen=True)
class OrbitSolveStats:
    """What orbit sharing saved for one batch of local LPs.

    Attributes
    ----------
    n_agents:
        Local LPs requested (one per agent).
    n_orbits:
        Distinct LPs actually submitted to the engine (one per orbit).
    shared:
        Solves answered by a representative's solution (``n_agents -
        n_orbits``).
    inexact_orbits:
        Orbits whose canonical labeling hit the branch budget and fell back
        to the literal key (they still solve correctly, but may fail to
        merge with isomorphic twins).
    """

    n_agents: int
    n_orbits: int
    shared: int
    inexact_orbits: int

    @property
    def sharing_factor(self) -> float:
        return self.n_agents / self.n_orbits if self.n_orbits else 1.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "n_agents": self.n_agents,
            "n_orbits": self.n_orbits,
            "shared": self.shared,
            "sharing_factor": round(self.sharing_factor, 3),
            "inexact_orbits": self.inexact_orbits,
        }


def _stats_for(partition: OrbitPartition) -> OrbitSolveStats:
    """Sharing statistics of one orbit-solve batch."""
    stats = OrbitSolveStats(
        n_agents=len(partition.forms),
        n_orbits=partition.n_orbits,
        shared=len(partition.forms) - partition.n_orbits,
        inexact_orbits=sum(
            1 for orbit in partition.orbits if not orbit.form.exact
        ),
    )
    registry = get_registry()
    registry.counter("canon.orbit.agents").inc(stats.n_agents)
    registry.counter("canon.orbit.lps").inc(stats.n_orbits)
    registry.counter("canon.orbit.shared").inc(stats.shared)
    return stats


def orbit_solve(
    partition: OrbitPartition,
    *,
    engine=None,
    backend: str = DEFAULT_BACKEND,
) -> Tuple[Dict[str, "LocalLPOutcome"], OrbitSolveStats]:
    """One canonical solve per orbit of ``partition``.

    Returns the canonical-coordinate outcome of each orbit keyed by its
    canonical key, and the sharing statistics.  Callers assemble per-agent
    solutions through :meth:`repro.views.ViewAtlas.local_solution_matrix`
    or pull back individual members through their forms.
    """
    from ..engine.executor import get_default_engine

    eng = engine if engine is not None else get_default_engine()
    canonical = eng.solve_canonical_local_lps(
        [orbit.form for orbit in partition.orbits], backend=backend
    )
    by_key = {
        orbit.key: outcome for orbit, outcome in zip(partition.orbits, canonical)
    }
    return by_key, _stats_for(partition)
