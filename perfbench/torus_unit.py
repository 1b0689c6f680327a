"""torus-unit: the unit-weight 100x100 torus (10^4 agents) at R=1 and R=2.

Calls ``core.local_averaging_solution(..., share_orbits=True)`` directly,
not through ``SuiteRunner``: the reference optimum LP would dominate the
run, and the unit torus has a closed-form optimum anyway.  Orbit sharing
collapses the 10^4 views to one orbit, so ``lp`` does almost nothing and
view extraction and canonical labelling dominate.

A round is a cold pass at each radius, each with a fresh ``BatchSolver`` on
an empty disk cache, then a warm pass at each radius with another fresh
solver on the cache the cold passes wrote.  A run does one round per
:data:`ROUND_S` of ``--seconds``, and at least :data:`MIN_ROUNDS`.  The
count is fixed by ``--seconds`` rather than by a clock, so every run of a
seed does the same work and reaches the same peak memory.  The throughputs
are medians over rounds, so the first round, slower because it is the
first in the process, is one sample among the same number on every run.

A unit-weight instance has no random coefficients, so the seed changes
nothing here: every run solves the same torus.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

import numpy as np

import common
from repro import BatchSolver, ResultCache, communication_hypergraph, local_averaging_solution
from repro.lp import count_highs_calls
from repro.obs import span, tracing
from repro.scenarios import ScenarioSpec, build_instance

NAME = "torus-unit"
SPEC = ScenarioSpec(family="torus", params={"shape": (100, 100), "weights": "unit"})
RADII = (1, 2)
MIN_ROUNDS = 3
#: About the scaled time of one round on the reference machine.
ROUND_S = 5.0
SETUP_PROBES = 3
#: Feasibility tolerance of the output check, as in ``MaxMinLP.is_feasible``.
TOL = 1e-9


def build() -> Tuple[Any, Any]:
    with span("scenarios.build", scenario=SPEC.scenario_id):
        problem = build_instance(SPEC)
    with span("hypergraph.build", agents=problem.n_agents):
        hypergraph = communication_hypergraph(problem)
    return problem, hypergraph


def setup(seed: int) -> Dict[str, float]:
    start = time.perf_counter()
    build()
    return {"instance_s": time.perf_counter() - start}


def closed_form_optimum(problem: Any) -> float:
    """The optimum of a vertex-transitive instance.

    Averaging an optimal solution over the torus's translations keeps it
    feasible and optimal, so some optimum is uniform: x = 1 / max_i A_i·1,
    with objective min_k C_k·1 / max_i A_i·1.
    """
    ones = np.ones(problem.n_agents)
    return float((problem.C @ ones).min() / (problem.A @ ones).max())


class Phase:
    """Rounds of cold and warm passes, with the counters the trace needs."""

    def __init__(self) -> None:
        self.passes: List[Tuple[str, int, Any]] = []  # (kind, R, result or exception)
        self.timings: Dict[str, List[common.Timing]] = {"cold": [], "warm": []}
        self.engine: Dict[str, float] = {}
        self.cache: Dict[str, float] = {}
        self.orbit_stats: List[Dict[str, Any]] = []
        self.round_walls: List[float] = []  # raw seconds per round

    @property
    def scale(self) -> float:
        return common.speed_scale(self.timings["cold"] + self.timings["warm"])

    @property
    def raw_wall(self) -> float:
        return sum(t.raw_s for t in self.timings["cold"] + self.timings["warm"])

    def solve(self, problem: Any, hypergraph: Any, kind: str, R: int, cache_dir) -> None:
        engine = BatchSolver(cache=ResultCache(directory=cache_dir))
        with common.timed() as timing:
            try:
                with span("bench.local_averaging", kind=kind, radius=R):
                    result = local_averaging_solution(
                        problem, R, hypergraph=hypergraph, engine=engine, share_orbits=True
                    )
            except Exception as exc:  # contained: counted as a failed operation
                result = exc
        self.timings[kind].append(timing)
        self.passes.append((kind, R, result))
        common.add_counts(self.engine, engine.stats.as_dict())
        common.add_counts(self.cache, engine.cache.stats.as_dict())
        if not isinstance(result, Exception) and result.orbit_stats:
            self.orbit_stats.append(result.orbit_stats)


def run_phase(problem: Any, hypergraph: Any, rounds: int) -> Phase:
    phase = Phase()
    for _ in range(rounds):
        before = phase.raw_wall
        with common.scratch_dir("torus-unit-") as cache_dir:
            for kind in ("cold", "warm"):
                for R in RADII:
                    phase.solve(problem, hypergraph, kind, R, cache_dir)
        phase.round_walls.append(phase.raw_wall - before)
    return phase


def check(problem: Any, phase: Phase, outcome: common.Outcome) -> None:
    """x̃ is feasible, its objective is as reported, warm equals cold."""
    cold_x: Dict[int, np.ndarray] = {}
    for kind, R, result in phase.passes:
        where = f"{kind} R={R}"
        if isinstance(result, Exception):
            outcome.record(False, f"{where}: {result!r}")
            continue
        x = problem.to_array(result.x)
        usage = problem.resource_usage(x)
        objective = problem.objective(x)
        if not outcome.record(
            bool(np.all(x >= -TOL) and np.all(usage <= 1.0 + TOL)),
            f"{where}: infeasible (max usage {usage.max()!r}, min x {x.min()!r})",
        ):
            continue
        if not outcome.record(
            objective == result.objective,
            f"{where}: objective {result.objective!r} != recomputed {objective!r}",
        ):
            continue
        if kind == "cold":
            cold_x.setdefault(R, x)
        else:
            outcome.record(np.array_equal(x, cold_x.get(R)), f"{where}: differs from cold")


def agents_per_s(phase: Phase, kind: str, n_agents: int) -> float:
    """Median over rounds of agents / scaled time of the round's ``kind`` passes."""
    times = [phase.scale * t.raw_s for t in phase.timings[kind]]
    per_round = [sum(times[i: i + len(RADII)]) for i in range(0, len(times), len(RADII))]
    return common.median([len(RADII) * n_agents / t for t in per_round])


def run(seed: int, seconds: int, traced: bool) -> common.Outcome:
    outcome = common.Outcome()
    walls, phases = common.probe_setup(NAME, seed, SETUP_PROBES)
    problem, hypergraph = build()
    untraced = run_phase(problem, hypergraph, max(MIN_ROUNDS, round(seconds / ROUND_S)))
    check(problem, untraced, outcome)
    passes = len(untraced.timings["cold"])
    if not traced:
        optimum = closed_form_optimum(problem)
        ratios = [optimum / result.objective for kind, _, result in untraced.passes[: len(RADII)]
                  if not isinstance(result, Exception)]
        outcome.metrics = {
            "setup_s": common.setup_seconds(walls),
            "agents_per_s": agents_per_s(untraced, "cold", problem.n_agents),
            "warm_agents_per_s": agents_per_s(untraced, "warm", problem.n_agents),
            "peak_rss_mb": common.peak_rss_mb(),
            "approx_ratio": common.mean(ratios) if ratios else float("inf"),
        }
        outcome.notes = {
            "setup_s": f"median of {len(walls)} fresh processes; {common.speed_note(walls)}",
            "agents_per_s": f"median of {len(untraced.round_walls)} rounds, {passes} cold "
                            f"passes; {common.speed_note(untraced.timings['cold'])}",
            "warm_agents_per_s": f"median of {len(untraced.round_walls)} rounds, {passes} warm "
                                 f"passes; {common.speed_note(untraced.timings['warm'])}",
            "peak_rss_mb": "benchmark process",
            "approx_ratio": f"mean over R={RADII}, closed-form optimum {optimum:g}",
        }
        return outcome

    # The traced repeat skips the untraced phase's slower first round, so
    # both sides of the overhead ratio are rounds after the first.
    later = untraced.round_walls[1:]
    with tracing() as tracer, count_highs_calls() as highs:
        with span("bench.phase", workload=NAME):
            build()
            traced_phase = run_phase(problem, hypergraph, len(later))
    check(problem, traced_phase, outcome)
    rows = common.stage_rows(tracer.spans())
    path = common.write_trace(tracer, NAME, seed)
    scale, kernel = common.trace_scale(traced_phase.timings["cold"] + traced_phase.timings["warm"])
    outcome.metrics = {
        **kernel,
        **common.span_layers(rows, scale),
        **common.engine_layers(traced_phase.engine, traced_phase.cache),
        **common.orbit_layers(traced_phase.orbit_stats),
        **common.NO_SERVE_LAYERS,
        "lp.highs_calls": highs.calls,
        "setup.import_s": phases["import_s"],
        "setup.instance_s": phases["instance_s"],
        "obs.tracing_overhead": (traced_phase.scale * traced_phase.raw_wall)
                                / (untraced.scale * sum(later)) - 1.0,
    }
    outcome.notes = {"obs.tracing_overhead": f"{len(later)} rounds each side"}
    outcome.report.append(f"chrome trace: {path.relative_to(common.ROOT)}")
    return outcome
