"""Shared plumbing of the benchmark: paths, calibration, child processes,
statistics, trace and stats readers, and the result record.

:func:`use_checkout_source` puts the checkout's ``src`` directory at the
front of ``sys.path`` (the benchmark measures the code of the checkout it
sits in, never an installed copy) and refuses to run when that directory
holds no ``repro`` package.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes (cache directories, traces) lives here,
#: inside the checkout; per-run subdirectories are removed on exit.
WORK = ROOT / ".perfbench"
RUN_PY = Path(__file__).resolve().parent / "run.py"

#: A percentile is only reported with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

#: The calibration kernel's median time on the reference machine (a shared
#: 2-core VM, Python 3.11).  Only the scale of the reported times hangs on
#: it; comparisons between runs do not.
REFERENCE_KERNEL_S = 0.030


class MissingSource(SystemExit):
    """The checkout has no ``src/repro`` package: nothing to measure."""


def use_checkout_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingSource(f"perfbench: no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's sources, a contained cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    env["REPRO_CACHE_DIR"] = str(WORK / "default-cache")
    env["PYTHONUNBUFFERED"] = "1"
    return env


@contextlib.contextmanager
def scratch_dir(prefix: str) -> Iterator[Path]:
    """A fresh directory under :data:`WORK`, removed afterwards."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
def calibration_kernel() -> float:
    """Seconds for a fixed pure-Python loop: the machine's speed right now."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return time.perf_counter() - start


@dataclass
class Timing:
    raw_s: float = 0.0  # wall seconds
    kernels: Tuple[float, ...] = ()  # calibration kernel times just before and after


@contextlib.contextmanager
def timed() -> Iterator[Timing]:
    """Time a block, with the calibration kernel run just before and after."""
    timing = Timing()
    before = calibration_kernel()
    start = time.perf_counter()
    try:
        yield timing
    finally:
        timing.raw_s = time.perf_counter() - start
        timing.kernels = (before, calibration_kernel())


def kernel_s(timings: Sequence[Timing]) -> float:
    """Median calibration kernel time around ``timings``: the run's speed."""
    return median([kernel for timing in timings for kernel in timing.kernels])


def speed_scale(timings: Sequence[Timing]) -> float:
    """The factor that turns the raw seconds of ``timings`` into seconds at
    the reference machine's speed.

    The machines this runs on are shared, and their speed drifts by tens of
    percent over minutes.  The kernel slows down with everything else, so
    scaling a run's times by its median kernel time removes most of that
    drift from run-to-run comparisons.  One factor per run, from every
    kernel sample in it, rather than one per operation: two samples of a
    short kernel also catch its own jitter.
    """
    return REFERENCE_KERNEL_S / kernel_s(timings)


def speed_note(timings: Sequence[Timing]) -> str:
    """Raw seconds and the machine speed behind a list of timings."""
    raw = sum(t.raw_s for t in timings)
    return (f"{raw:.2f} s raw, kernel {1e3 * kernel_s(timings):.1f} ms "
            f"(reference {1e3 * REFERENCE_KERNEL_S:g})")


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def stop_process(proc: subprocess.Popen, timeout: float = 15.0) -> None:
    """Interrupt, then terminate, then kill ``proc``; always reaps it."""
    if proc.poll() is None:
        for sender, wait_s in (
            (lambda: proc.send_signal(signal.SIGINT), timeout),  # clean shutdown
            (proc.terminate, 5.0),
            (proc.kill, 5.0),
        ):
            sender()
            try:
                proc.wait(timeout=wait_s)
                break
            except subprocess.TimeoutExpired:
                continue
    proc.wait()
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


def run_setup_probe(workload: str, seed: int) -> Tuple[Timing, Dict[str, float]]:
    """Start a fresh interpreter that performs ``workload``'s set-up.

    Times process start until the child reports that its first timed
    operation could be sent, and returns the child's own phase times
    (``import_s``, ``instance_s``).
    """
    with timed() as timing:
        proc = subprocess.Popen(
            [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
             "--setup-probe"],
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=str(ROOT),
            text=True,
        )
        try:
            line = proc.stdout.readline()
        except BaseException:
            stop_process(proc)
            raise
    try:
        proc.wait(timeout=120)
    finally:
        stop_process(proc)
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe for {workload} failed (rc={proc.returncode})")
    return timing, json.loads(line)


def probe_setup(
    workload: str, seed: int, probes: int
) -> Tuple[List[Timing], Dict[str, float]]:
    """Timings of ``probes`` fresh set-ups and the scaled median of each phase."""
    timings: List[Timing] = []
    phases: Dict[str, List[float]] = {}
    for _ in range(probes):
        timing, reported = run_setup_probe(workload, seed)
        timings.append(timing)
        for key, value in reported.items():
            phases.setdefault(key, []).append(value)
    scale = speed_scale(timings)
    return timings, {key: scale * median(values) for key, values in phases.items()}


def setup_seconds(timings: Sequence[Timing]) -> float:
    """``setup_s``: the median set-up time, at the reference speed."""
    return speed_scale(timings) * median([timing.raw_s for timing in timings])


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of another live process."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, refused without enough samples beyond it."""
    n = len(samples)
    rank = max(1, math.ceil(n * q / 100.0))  # nearest-rank definition
    if n - rank < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} needs {MIN_TAIL_SAMPLES} samples beyond it; "
            f"{n} samples give {n - rank}"
        )
    return sorted(samples)[rank - 1]


def highest_percentile(
    samples: Sequence[float], candidates: Sequence[float] = (99.0, 95.0, 90.0)
) -> Optional[Tuple[float, float]]:
    """``(q, value)`` for the highest candidate the sample supports, if any."""
    for q in candidates:
        try:
            return q, percentile(samples, q)
        except ValueError:
            continue
    return None


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values))


# ----------------------------------------------------------------------
# Trace helpers
# ----------------------------------------------------------------------
def stage_rows(spans: Sequence[Any]) -> Dict[str, Mapping[str, Any]]:
    """``obs.stage_summary`` of ``spans`` keyed by stage name."""
    from repro.obs import stage_summary

    return {row["stage"]: row for row in stage_summary(spans)}


def self_s(rows: Mapping[str, Mapping[str, Any]], *names: str) -> float:
    return float(sum(rows[name]["self_s"] for name in names if name in rows))


def total_s(rows: Mapping[str, Mapping[str, Any]], *names: str) -> float:
    return float(sum(rows[name]["total_s"] for name in names if name in rows))


def count(rows: Mapping[str, Mapping[str, Any]], name: str) -> int:
    return int(rows[name]["count"]) if name in rows else 0


def write_trace(tracer: Any, workload: str, seed: int) -> Path:
    """Dump ``tracer`` as a Chrome trace (``repro obs summary`` reads it)."""
    out_dir = WORK / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload}-seed{seed}.trace.json"
    path.write_text(json.dumps(tracer.chrome_trace()), encoding="utf-8")
    return path


def add_counts(into: Dict[str, float], source: Mapping[str, Any]) -> Dict[str, float]:
    """Sum the numeric counters of a stats dict into ``into``."""
    for key, value in source.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            into[key] = into.get(key, 0) + value
    return into


def trace_scale(timings: Sequence[Timing]) -> Tuple[float, Dict[str, float]]:
    """:func:`speed_scale` of a traced phase, and the ``calibration.kernel_ms``
    metric it comes from."""
    return speed_scale(timings), {"calibration.kernel_ms": 1e3 * kernel_s(timings)}


def span_layers(rows: Mapping[str, Mapping[str, Any]], scale: float) -> Dict[str, float]:
    """The per-layer metrics read off span stage rows, times scaled by ``scale``."""
    highs_spans = count(rows, "lp.highs")
    highs_s = scale * total_s(rows, "lp.highs")
    return {
        "views.atlas_s": scale * self_s(rows, "views.atlas.structures", "views.batch_balls"),
        "canon.forms_s": scale * self_s(rows, "canon.forms"),
        "canon.search_calls": count(rows, "canon.search"),
        "canon.search_s": scale * total_s(rows, "canon.search"),
        "lp.highs_s": highs_s,
        "lp.highs_ms_per_call": 1e3 * highs_s / highs_spans if highs_spans else 0.0,
        "lp.chunk_s": scale * self_s(rows, "lp.chunk"),
        "engine.schedule_s": scale * self_s(rows, "engine.schedule"),
        "scenarios.build_s": scale * total_s(rows, "scenarios.build"),
        "scenarios.optima_s": scale * total_s(rows, "suite.optima"),
        "core.averaging_s": scale * self_s(rows, "core.averaging"),
    }


def engine_layers(engine: Mapping[str, Any], cache: Mapping[str, Any]) -> Dict[str, float]:
    """The per-layer metrics read off ``EngineStats`` and ``CacheStats`` dicts."""
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    return {
        "engine.units": engine.get("units", 0),
        "engine.executed": engine.get("executed", 0),
        "engine.dedup_saved": engine.get("dedup_saved", 0),
        "engine.unit_failures": engine.get("unit_failures", 0),
        "engine.cache.hit_rate": cache.get("hits", 0) / lookups if lookups else 0.0,
        "engine.cache.disk_hits": cache.get("disk_hits", 0),
        "engine.cache.puts": cache.get("puts", 0),
        "engine.cache.quarantined": cache.get("quarantined", 0),
    }


def orbit_layers(orbit_stats: Sequence[Mapping[str, Any]]) -> Dict[str, float]:
    """Orbit-sharing metrics; zero when no solve took the orbit path."""
    views = sum(stats["n_agents"] for stats in orbit_stats)
    orbits = sum(stats["n_orbits"] for stats in orbit_stats)
    return {
        "canon.orbits": orbits,
        "canon.sharing_factor": views / orbits if orbits else 0.0,
    }


#: The serving-layer metrics of a workload that sends no requests.
NO_SERVE_LAYERS = {
    "serve.hit_ms": 0.0,
    "serve.miss_ms": 0.0,
    "serve.http_ms": 0.0,
    "serve.cache.hit_rate": 0.0,
    "serve.scheduler.executed": 0,
    "serve.scheduler.coalesced": 0,
    "serve.shed": 0,
    "serve.errors": 0,
}


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run measured and how many operations went wrong.

    ``attempted`` counts checked operations; ``failed`` those that raised,
    were refused or produced a wrong output.  ``notes`` holds the sample
    count behind each metric, printed beside it.
    """

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, str] = field(default_factory=dict)
    report: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    def record(self, ok: bool, problem: str = "") -> bool:
        """Count one checked operation; keep the first few failure messages."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(problem)
        return ok


def log(message: str) -> None:
    """Human-readable progress and tables; never the last stdout line."""
    print(message, flush=True)


def format_rows(rows: List[Tuple[str, str, str]]) -> str:
    widths = [max(len(row[col]) for row in rows) for col in range(3)]
    return "\n".join(
        f"  {name.ljust(widths[0])}  {value.rjust(widths[1])}  {note}"
        for name, value, note in rows
    )
