"""serve-zipf: a Zipf trace of ``POST /solve`` against a ``repro serve`` process.

The server runs as a subprocess with its defaults plus ``--cache-dir`` (a
fresh directory per server).  One client process with
:data:`CONNECTIONS` closed-loop connections replays the trace: each
connection sends its next request only after the previous reply, as the
service's callers (the CLI, ``examples/serve_client.py``) do.

The trace draws from a seeded catalogue of :data:`CATALOGUE` scenarios of
:data:`AGENTS` agents each over ``cycle``/``path``/``grid``/``torus``/
``random_bounded_degree``, all at R=1, with Zipf exponent :data:`ZIPF_S`.  The cold
replay walks the trace from its start, so it mixes first-time misses
(``scenarios`` -> ``engine`` -> ``lp`` on small instances) with hits that
use only ``serve``, the scheduler and the scenario cache.  The warm replay
cycles over the requests the cold replay has sent so far, all of them hits.
The run alternates :data:`SEGMENTS` cold and warm segments, so both replays
sample the whole run rather than one stretch of it.  The cold replay sends
a fixed number of requests, :data:`COLD_REQUESTS_PER_S` per second of
``--seconds``: its hit share grows as it walks the trace, so timing it
against a clock would let the machine's speed change the request mix.  The
warm segments, all alike, are timed: :data:`WARM_SHARE` of ``--seconds``
in all.
"""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import common
from repro.exceptions import VerificationError
from repro.obs import span, tracing
from repro.scenarios import ScenarioSpec, build_instance, certify_scenario_result

NAME = "serve-zipf"
CATALOGUE = 2000
#: Every catalogue scenario has this many agents and radius 1, so neither
#: agents/s nor the approximation ratio hinges on which scenarios happen to
#: sit at the head of the Zipf distribution.
AGENTS = 12
ZIPF_S = 1.1
TRACE_LENGTH = 50_000
CONNECTIONS = 2
#: About 75% of ``--seconds`` at the reference machine's speed.
COLD_REQUESTS_PER_S = 16
WARM_SHARE = 0.25
SEGMENTS = 8
SETUP_PROBES = 5
READY_TIMEOUT_S = 60.0


def setup(seed: int) -> Dict[str, float]:
    """The client side needs only the imports; the server is timed separately."""
    return {"instance_s": 0.0}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def catalogue(seed: int) -> List[ScenarioSpec]:
    rng = random.Random(seed)
    builders = (
        lambda: ("cycle", {"n": AGENTS, "weights": "random"}),
        lambda: ("path", {"n": AGENTS, "weights": "random"}),
        lambda: ("grid", {"shape": rng.choice(((3, 4), (4, 3), (2, 6), (6, 2))),
                          "weights": "random"}),
        lambda: ("torus", {"shape": rng.choice(((3, 4), (4, 3))), "weights": "random"}),
        lambda: ("random_bounded_degree", {"n_agents": AGENTS}),
    )
    specs = []
    for index in range(CATALOGUE):
        family, params = builders[index % len(builders)]()
        specs.append(
            ScenarioSpec(
                family=family,
                params=params,
                seed=rng.randrange(2**31),
                radii=(1,),
            )
        )
    rng.shuffle(specs)  # the Zipf rank of a scenario is its catalogue position
    return specs


def zipf_trace(seed: int) -> List[int]:
    rng = random.Random(seed + 1)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(CATALOGUE)]
    return rng.choices(range(CATALOGUE), weights=weights, k=TRACE_LENGTH)


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """A ``repro serve`` child process on an ephemeral port."""

    def __init__(self, cache_dir) -> None:
        with common.timed() as self.setup:
            deadline = time.perf_counter() + READY_TIMEOUT_S
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--cache-dir", str(cache_dir)],
                stdout=subprocess.PIPE,
                env=common.child_env(),
                cwd=str(common.ROOT),
                text=True,
            )
            try:
                line = self.proc.stdout.readline()
                match = re.search(r"serving on (http://\S+)", line)
                if match is None:
                    raise RuntimeError(f"repro serve did not start: {line!r}")
                self.url = match.group(1)
                while not self._healthy():
                    if time.perf_counter() > deadline or self.proc.poll() is not None:
                        raise RuntimeError("repro serve never became healthy")
                    time.sleep(0.005)
            except BaseException:
                self.stop()
                raise

    def _healthy(self) -> bool:
        try:
            with urllib.request.urlopen(self.url + "/healthz", timeout=5) as response:
                return response.status == 200
        except OSError:
            return False

    def metrics(self) -> Dict[str, Any]:
        with urllib.request.urlopen(self.url + "/metrics", timeout=30) as response:
            return json.loads(response.read())

    def peak_rss_mb(self) -> float:
        return common.process_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        common.stop_process(self.proc)


def setup_walls(probes: int) -> List[common.Timing]:
    """Set-up timings of ``probes`` fresh servers, each stopped once ready."""
    walls = []
    for _ in range(probes):
        with common.scratch_dir("serve-zipf-") as cache_dir:
            server = Server(cache_dir)
            server.stop()
        walls.append(server.setup)
    return walls


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class Record(NamedTuple):
    position: int  # in the trace
    latency: float  # seconds, as the client saw it
    reply: Any  # the envelope, or the error text


def served_agents(records: Iterable[Record]) -> int:
    return sum(r.reply["result"]["n_agents"] for r in records if isinstance(r.reply, dict))


class Replay:
    """Closed-loop replay over :data:`CONNECTIONS` threads, in segments.

    Request ``i`` of the replay, counted over all its segments, goes to
    trace position ``position_of(i)``.
    """

    def __init__(self, url: str, bodies: Sequence[bytes], trace: Sequence[int],
                 position_of: Callable[[int], int], debug_trace: bool) -> None:
        self.url = url + ("/solve?debug=trace" if debug_trace else "/solve")
        self.bodies = bodies
        self.trace = trace
        self.position_of = position_of
        self.records: List[Record] = []
        #: Per segment: (requests sent, agents served, timing).
        self.segments: List[Tuple[int, int, common.Timing]] = []
        self._lock = threading.Lock()

    @property
    def sent(self) -> int:
        return sum(segment[0] for segment in self.segments)

    @property
    def timings(self) -> List[common.Timing]:
        return [segment[2] for segment in self.segments]

    @property
    def raw_wall(self) -> float:
        return sum(timing.raw_s for timing in self.timings)

    def _post(self, body: bytes) -> Any:
        request = urllib.request.Request(
            self.url, data=body, method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=120) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as exc:
            return f"HTTP {exc.code}: {exc.read()[:200]!r}"
        except OSError as exc:
            return f"{type(exc).__name__}: {exc}"

    def segment(self, *, seconds: Optional[float] = None,
                count: Optional[int] = None) -> None:
        """Send the next ``count`` requests, or keep sending for ``seconds``."""
        first = self.sent
        taken = 0
        new: List[Record] = []
        deadline: Optional[float] = None

        def connection() -> None:
            nonlocal taken
            while True:
                with self._lock:
                    if (count is not None and taken >= count) or (
                        deadline is not None and time.perf_counter() >= deadline
                    ):
                        return
                    position = self.position_of(first + taken)
                    taken += 1
                sent = time.perf_counter()
                with span("bench.request", position=position) as request_span:
                    reply = self._post(self.bodies[self.trace[position]])
                    if isinstance(reply, dict):
                        request_span.tag(source=reply.get("source"))
                record = Record(position, time.perf_counter() - sent, reply)
                with self._lock:
                    new.append(record)

        with common.timed() as timing:
            if seconds is not None:
                deadline = time.perf_counter() + seconds
            threads = [threading.Thread(target=connection) for _ in range(CONNECTIONS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        self.segments.append((taken, served_agents(new), timing))
        self.records.extend(new)


def replay(url: str, bodies, trace, debug_trace: bool, seconds: int,
           warm_counts: Optional[List[int]] = None) -> Tuple[Replay, Replay]:
    """Alternate cold and warm segments.

    The warm segments are timed, or send ``warm_counts`` requests each.
    """
    cold_total = COLD_REQUESTS_PER_S * seconds
    cold = Replay(url, bodies, trace, lambda i: i, debug_trace)
    warm = Replay(url, bodies, trace, lambda i: i % cold.sent, debug_trace)
    for segment in range(SEGMENTS):
        cold.segment(count=cold_total * (segment + 1) // SEGMENTS - cold.sent)
        if warm_counts is None:
            warm.segment(seconds=WARM_SHARE * seconds / SEGMENTS)
        else:
            warm.segment(count=warm_counts[segment])
    return cold, warm


def check(replays: Sequence[Replay], specs: Sequence[ScenarioSpec], trace: Sequence[int],
          outcome: common.Outcome) -> Dict[int, Dict[str, Any]]:
    """Certify every envelope; every answer to one scenario must be the same.

    Identical payloads share one certificate, so each distinct answer is
    certified once.  Returns the first payload per catalogue index.
    """
    first: Dict[int, Dict[str, Any]] = {}
    certified: set = set()
    for one in replays:
        for position, _, reply in one.records:
            index = trace[position]
            if not isinstance(reply, dict):
                outcome.record(False, f"request {position}: {reply}")
                continue
            payload = reply["result"]
            key = json.dumps(payload, sort_keys=True)
            if key not in certified:
                try:
                    certify_scenario_result(specs[index], payload)
                except VerificationError as exc:
                    outcome.record(False, f"request {position}: {exc}")
                    continue
                certified.add(key)
            previous = first.setdefault(index, payload)
            outcome.record(previous == payload, f"request {position}: answer changed")
    return first


def latency_notes(one: Replay) -> List[str]:
    """Request rate and latency percentiles, each with its sample count."""
    latencies = [1e3 * record.latency for record in one.records]
    sources: Dict[str, int] = {}
    for record in one.records:
        reply = record.reply
        source = reply.get("source", "?") if isinstance(reply, dict) else "error"
        sources[source] = sources.get(source, 0) + 1
    lines = [
        f"{len(latencies) / one.raw_wall:.1f} requests/s "
        f"({len(latencies)} requests in {one.raw_wall:.2f} s; {sources})",
        f"latency p50 {common.percentile(latencies, 50):.3f} ms",
    ]
    tail = common.highest_percentile(latencies)
    if tail is not None:
        q, value = tail
        beyond = sum(1 for latency in latencies if latency > value)
        lines.append(f"latency p{q:g} {value:.3f} ms ({beyond} samples beyond)")
    return lines


def run(seed: int, seconds: int, traced: bool) -> common.Outcome:
    outcome = common.Outcome()
    specs = catalogue(seed)
    bodies = [spec.to_json().encode("utf-8") for spec in specs]
    trace = zipf_trace(seed)
    phases = common.probe_setup(NAME, seed, 3)[1] if traced else {}

    walls = setup_walls(SETUP_PROBES - 1) if not traced else []
    with common.scratch_dir("serve-zipf-") as cache_dir:
        server = Server(cache_dir)
        walls.append(server.setup)
        try:
            cold, warm = replay(server.url, bodies, trace, False, seconds)
            rss = server.peak_rss_mb()
        finally:
            server.stop()
    first = check((cold, warm), specs, trace, outcome)
    outcome.report += ["cold: " + line for line in latency_notes(cold)]
    outcome.report += ["warm: " + line for line in latency_notes(warm)]
    scale = common.speed_scale(cold.timings + warm.timings)
    if not traced:
        ratios = [payload["radii"][0]["ratio"] for payload in first.values()]
        outcome.metrics = {
            "setup_s": common.setup_seconds(walls),
            "agents_per_s": served_agents(cold.records) / (scale * cold.raw_wall),
            "warm_agents_per_s": common.median(
                [agents / (scale * timing.raw_s) for _, agents, timing in warm.segments]
            ),
            "peak_rss_mb": rss,
            "approx_ratio": common.mean(ratios) if ratios else float("inf"),
        }
        outcome.notes = {
            "setup_s": f"median of {len(walls)} server starts; {common.speed_note(walls)}",
            "agents_per_s": f"{cold.sent} requests in {SEGMENTS} segments; "
                            f"{common.speed_note(cold.timings)}",
            "warm_agents_per_s": f"median of {SEGMENTS} segments, {warm.sent} requests; "
                                 f"{common.speed_note(warm.timings)}",
            "peak_rss_mb": "server process",
            "approx_ratio": f"mean over the {len(ratios)} distinct scenarios served",
        }
        return outcome

    # The traced repeat: a fresh server and cache, the same requests in the
    # same segments, each with a per-request server trace (?debug=trace)
    # and a client span.
    warm_counts = [segment[0] for segment in warm.segments]
    with common.scratch_dir("serve-zipf-") as cache_dir, tracing() as tracer:
        server = Server(cache_dir)
        try:
            with span("bench.phase", workload=NAME):
                traced_cold, traced_warm = replay(
                    server.url, bodies, trace, True, seconds, warm_counts
                )
            metrics = server.metrics()
        finally:
            server.stop()
        for index in sorted({trace[position] for position in range(cold.sent)}):
            with span("scenarios.build", scenario=specs[index].scenario_id):
                build_instance(specs[index])
    check((traced_cold, traced_warm), specs, trace, outcome)
    replies = [(record.latency, record.reply) for one in (traced_cold, traced_warm)
               for record in one.records if isinstance(record.reply, dict)]
    rows: Dict[str, Dict[str, float]] = {}
    for _, reply in replies:
        for row in reply["trace"]["stages"]:
            common.add_counts(rows.setdefault(row["stage"], {}), row)
    for name, row in common.stage_rows(tracer.spans()).items():
        common.add_counts(rows.setdefault(name, {}), row)
    path = common.write_trace(tracer, NAME, seed)
    traced_scale, kernel = common.trace_scale(traced_cold.timings + traced_warm.timings)

    def mean_ms(values: List[float]) -> float:
        return 1e3 * common.mean(values) * traced_scale if values else 0.0

    service: Dict[str, List[float]] = {"cache": [], "solved": []}
    for _, reply in replies:
        service.setdefault(reply["source"], []).append(reply["seconds"])
    scenario_cache = metrics["scenarios"]["cache"]
    lookups = scenario_cache["hits"] + scenario_cache["misses"]
    outcome.metrics = {
        **kernel,
        **common.span_layers(rows, traced_scale),
        **common.engine_layers(metrics["engine"]["stats"], metrics["engine"]["cache"]),
        **common.orbit_layers([]),
        "lp.highs_calls": metrics["highs"]["total"],
        "serve.hit_ms": mean_ms(service["cache"]),
        "serve.miss_ms": mean_ms(service["solved"]),
        "serve.http_ms": mean_ms([latency - reply["seconds"] for latency, reply in replies]),
        "serve.cache.hit_rate": scenario_cache["hits"] / lookups if lookups else 0.0,
        "serve.scheduler.executed": metrics["scenarios"]["scheduler"]["executed"],
        "serve.scheduler.coalesced": metrics["scenarios"]["scheduler"]["coalesced"],
        "serve.shed": metrics["requests"]["shed"],
        "serve.errors": metrics["requests"]["errors"],
        "setup.import_s": phases["import_s"],
        "setup.instance_s": phases["instance_s"],
        "obs.tracing_overhead": traced_scale * (traced_cold.raw_wall + traced_warm.raw_wall)
                                / (scale * (cold.raw_wall + warm.raw_wall)) - 1.0,
    }
    outcome.notes = {
        "serve.hit_ms": f"mean in-service time of {len(service['cache'])} hits",
        "serve.miss_ms": f"mean in-service time of {len(service['solved'])} misses",
        "serve.http_ms": f"mean client latency minus service time, {len(replies)} requests",
        "obs.tracing_overhead": f"{cold.sent} cold + {warm.sent} warm requests",
    }
    outcome.report.append(f"chrome trace: {path.relative_to(common.ROOT)}")
    return outcome
