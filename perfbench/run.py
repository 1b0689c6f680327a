"""Benchmark entry point: one workload per process, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload torus-random --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A single workload prints a human-readable table and then, as the last line
of standard output, ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the ``end_to_end`` list of
``BENCHMARK.json`` (measured with tracing off); with ``--trace 1`` they are
the ``per_layer`` list, from a traced repeat of the same work.  ``--workload
all`` runs every workload in its own process and prints one combined table.

The exit code is 0 only when every output check passed.  A directory that
holds no ``src/repro`` package exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

#: Workload name -> module in this directory.
WORKLOADS = {
    "torus-random": "torus_random",
    "torus-unit": "torus_unit",
    "serve-zipf": "serve_zipf",
}


def load_spec() -> dict:
    with open(common.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def setup_probe(workload: str, seed: int) -> int:
    """Child side of :func:`common.run_setup_probe`: set up, report, exit."""
    start = time.perf_counter()
    module = importlib.import_module(WORKLOADS[workload])
    import_s = time.perf_counter() - start
    phases = module.setup(seed)
    print(json.dumps({"import_s": import_s, **phases}), flush=True)
    return 0


def run_one(args: argparse.Namespace) -> int:
    spec = load_spec()
    section = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[section]}
    module = importlib.import_module(WORKLOADS[args.workload])
    outcome = module.run(args.seed, args.seconds, bool(args.trace))

    if set(outcome.metrics) != set(units):
        missing = sorted(set(units) - set(outcome.metrics))
        extra = sorted(set(outcome.metrics) - set(units))
        raise RuntimeError(f"metric set mismatch: missing {missing}, extra {extra}")
    rows = [("metric", "value", "unit; samples")]
    for name in units:
        note = outcome.notes.get(name, "")
        rows.append(
            (name, f"{outcome.metrics[name]:.6g}", f"{units[name]}; {note}".rstrip("; "))
        )
    common.log(f"\n{args.workload} (seed {args.seed}, trace {args.trace}):")
    common.log(common.format_rows(rows))
    for line in outcome.report:
        common.log(f"  {line}")
    for problem in outcome.problems:
        common.log(f"  FAILED: {problem}")
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": float(outcome.metrics[name]), "unit": units[name]}
                    for name in units
                },
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh process of its own; one combined table."""
    results = {}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
            cwd=str(common.ROOT),
        )
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            common.log(line)
        if proc.returncode != 0 or not lines:
            status = 1
            common.log(f"{workload}: exit code {proc.returncode}")
            continue
        results[workload] = json.loads(lines[-1])
    names = sorted({name for result in results.values() for name in result["metrics"]})
    rows = [("metric", *results)]
    for name in names:
        rows.append(
            (name, *(
                f"{result['metrics'][name]['value']:.6g} {result['metrics'][name]['unit']}"
                for result in results.values()
            ))
        )
    rows.append(("correct", *(str(r["correct"]) for r in results.values())))
    rows.append(("attempted/failed", *(
        f"{r['attempted']}/{r['failed']}" for r in results.values()
    )))
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    common.log("\nall workloads:")
    for row in rows:
        common.log("  " + "  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    common.use_checkout_source()
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
