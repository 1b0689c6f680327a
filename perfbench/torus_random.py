"""torus-random: random-weight 20x20 tori at R=1 through ``SuiteRunner``.

The runner is configured like ``repro suite run``'s defaults: serial, the
``per-lp`` strategy, no orbit sharing, a disk cache.  Each torus is solved
twice: a cold pass with a fresh runner writes the cache directory, then a
warm pass with another fresh runner on the same directory reads it.  On
generic weights every view is its own orbit, so ``lp`` and ``canon`` do the
work.  The tori come one at a time from a stream seeded by ``--seed``.  A
run solves one torus per :data:`TORUS_S` of ``--seconds``, and at least
:data:`MIN_TORI`.  The count is fixed by ``--seconds`` rather than by a
clock, so every run of a seed solves the same tori.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Dict, Iterable, Iterator, List

import common
from repro.engine import ResultCache
from repro.exceptions import VerificationError
from repro.lp import count_highs_calls
from repro.obs import span, tracing
from repro.scenarios import ScenarioSpec, SuiteRunner, build_instance, certify_scenario_result

NAME = "torus-random"
SHAPE = (20, 20)
MIN_TORI = 3
#: About the scaled time of one torus, cold and warm, on the reference machine.
TORUS_S = 3.5
SETUP_PROBES = 5


def setup(seed: int) -> Dict[str, float]:
    """Nothing beyond the imports: the runner builds its own instances."""
    return {"instance_s": 0.0}


def torus_stream(seed: int) -> Iterator[ScenarioSpec]:
    rng = random.Random(seed)
    while True:
        yield ScenarioSpec(
            family="torus",
            params={"shape": SHAPE, "weights": "random"},
            seed=rng.randrange(2**31),
            radii=(1,),
        )


class Phase:
    """Cold and warm passes over a sequence of tori, with engine counters."""

    def __init__(self) -> None:
        self.specs: List[ScenarioSpec] = []
        self.cold: List[Any] = []  # ScenarioResult, or the exception raised
        self.warm: List[Any] = []
        self.cold_t: List[common.Timing] = []
        self.warm_t: List[common.Timing] = []
        self.engine: Dict[str, float] = {}
        self.cache: Dict[str, float] = {}

    @property
    def scale(self) -> float:
        return common.speed_scale(self.cold_t + self.warm_t)

    @property
    def wall(self) -> float:
        """Scaled seconds of all passes."""
        return self.scale * sum(t.raw_s for t in self.cold_t + self.warm_t)

    def solve(self, spec: ScenarioSpec, cache_dir) -> None:
        self.specs.append(spec)
        for results, timings in ((self.cold, self.cold_t), (self.warm, self.warm_t)):
            runner = SuiteRunner(cache=ResultCache(directory=cache_dir))
            with common.timed() as timing:
                try:
                    with span("bench.run_suite", scenario=spec.scenario_id):
                        report = runner.run_suite([spec])
                    results.append(report.results[0])
                except Exception as exc:  # contained: counted as a failed operation
                    results.append(exc)
            timings.append(timing)
            common.add_counts(self.engine, runner.engine.stats.as_dict())
            common.add_counts(self.cache, runner.engine.cache.stats.as_dict())


def run_phase(specs: Iterable[ScenarioSpec]) -> Phase:
    phase = Phase()
    with common.scratch_dir("torus-random-") as cache_dir:
        for spec in specs:
            phase.solve(spec, cache_dir)
    return phase


def check(phase: Phase, outcome: common.Outcome) -> None:
    """Certify every payload; the warm answer must equal the cold one."""
    for spec, cold, warm in zip(phase.specs, phase.cold, phase.warm):
        payloads = []
        for label, result in (("cold", cold), ("warm", warm)):
            if isinstance(result, Exception):
                outcome.record(False, f"{label} {spec.scenario_id}: {result!r}")
                continue
            payload = result.as_dict()
            try:
                certify_scenario_result(spec, payload)
            except VerificationError as exc:
                outcome.record(False, f"{label} {spec.scenario_id}: {exc}")
                continue
            payload.pop("seconds")
            payloads.append(payload)
            ok = len(payloads) < 2 or payloads[0] == payloads[1]
            outcome.record(ok, f"warm {spec.scenario_id} differs from cold")


def agents_per_s(results: List[Any], timings: List[common.Timing], scale: float) -> float:
    """Median over tori of agents / scaled pass time."""
    return common.median([r.n_agents / (scale * t.raw_s) for r, t in zip(results, timings)
                          if not isinstance(r, Exception)])


def run(seed: int, seconds: int, traced: bool) -> common.Outcome:
    outcome = common.Outcome()
    walls, phases = common.probe_setup(NAME, seed, SETUP_PROBES)
    tori = max(MIN_TORI, round(seconds / TORUS_S))
    untraced = run_phase(itertools.islice(torus_stream(seed), tori))
    check(untraced, outcome)
    if not traced:
        ratios = [r.radii[0].ratio for r in untraced.cold if not isinstance(r, Exception)]
        outcome.metrics = {
            "setup_s": common.setup_seconds(walls),
            "agents_per_s": agents_per_s(untraced.cold, untraced.cold_t, untraced.scale),
            "warm_agents_per_s": agents_per_s(untraced.warm, untraced.warm_t, untraced.scale),
            "peak_rss_mb": common.peak_rss_mb(),
            "approx_ratio": common.mean(ratios) if ratios else float("inf"),
        }
        outcome.notes = {
            "setup_s": f"median of {len(walls)} fresh processes; {common.speed_note(walls)}",
            "agents_per_s": f"median of {tori} cold passes; {common.speed_note(untraced.cold_t)}",
            "warm_agents_per_s": f"median of {tori} warm passes; "
                                 f"{common.speed_note(untraced.warm_t)}",
            "peak_rss_mb": "benchmark process",
            "approx_ratio": f"mean over {len(ratios)} tori",
        }
        return outcome

    # The traced repeat solves the same tori with fresh caches.
    with tracing() as tracer, count_highs_calls() as highs:
        with span("bench.phase", workload=NAME):
            traced_phase = run_phase(untraced.specs)
        for spec in traced_phase.specs:
            with span("scenarios.build", scenario=spec.scenario_id):
                build_instance(spec)
    check(traced_phase, outcome)
    rows = common.stage_rows(tracer.spans())
    path = common.write_trace(tracer, NAME, seed)
    scale, kernel = common.trace_scale(traced_phase.cold_t + traced_phase.warm_t)
    outcome.metrics = {
        **kernel,
        **common.span_layers(rows, scale),
        **common.engine_layers(traced_phase.engine, traced_phase.cache),
        **common.orbit_layers([]),
        **common.NO_SERVE_LAYERS,
        "lp.highs_calls": highs.calls,
        "setup.import_s": phases["import_s"],
        "setup.instance_s": phases["instance_s"],
        "obs.tracing_overhead": traced_phase.wall / untraced.wall - 1.0,
    }
    outcome.notes = {"obs.tracing_overhead": f"{tori} tori, cold + warm"}
    outcome.report.append(f"chrome trace: {path.relative_to(common.ROOT)}")
    return outcome
