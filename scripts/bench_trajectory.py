#!/usr/bin/env python3
"""Write a ``BENCH_*.json`` trajectory file: a parent and a change, side by side.

Usage:

    python3 scripts/bench_trajectory.py --parent <checkout> --change <checkout> \
        --out BENCH_<n>.json

Each checkout is a directory holding ``perfbench/`` and ``src/``.  For
every workload of the change's ``BENCHMARK.json`` and each of ``SEEDS``,
the script runs each checkout's own ``perfbench/run.py --trace 0`` for
``SECONDS`` per run, ``RUNS`` times, parent and change alternating, and
records the median of each end-to-end metric.  Two scale cases, both with the ``-{I,.}``
cross-check, run in a fresh process per run on each checkout's ``src/``:
``betti_table(build("g_8_2_5_s"), 12)`` and ``betti_table(q, 6)`` over
all 17 catalog keys; the file holds the median wall time of each.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUNS = 3
SECONDS = 5.0
SEEDS = (1, 7919)
SCALE = {
    "g_8_2_5_s_degree_12_s": "qs = [build('g_8_2_5_s')]; k = 12",
    "sweep_17_keys_degree_6_s": "qs = [build(key) for key in catalog_keys()]; k = 6",
}
SCALE_RUN = (
    "import time\n"
    "from superquad import betti_table, build, catalog_keys\n"
    "{setup}\n"
    "t = time.perf_counter()\n"
    "for q in qs:\n"
    "    betti_table(q, k)\n"
    "print(time.perf_counter() - t)\n"
)


def run_workload(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{tree}: {workload} seed {seed} failed: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_scale(tree: Path, setup: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    code = SCALE_RUN.format(setup=setup)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return float(out.stdout)


def medians(samples: list[dict]) -> dict:
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    started = time.time()
    workloads: dict = {}
    for w in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            samples: dict[str, list] = {side: [] for side in trees}
            for _ in range(RUNS):
                for side, tree in trees.items():
                    samples[side].append(run_workload(tree, w, seed))
            workloads.setdefault(w, {})[str(seed)] = {side: medians(s) for side, s in samples.items()}
            print(w, seed, workloads[w][str(seed)], file=sys.stderr)
    scale: dict = {}
    for name, setup in SCALE.items():
        times: dict[str, list] = {side: [] for side in trees}
        for _ in range(RUNS):
            for side, tree in trees.items():
                times[side].append(run_scale(tree, setup))
        scale[name] = {side: statistics.median(t) for side, t in times.items()}
        print(name, scale[name], file=sys.stderr)
    report = {
        "settings": {
            "runs": RUNS,
            "seconds": SECONDS,
            "statistic": "median over runs, parent and change alternating",
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "wall_s": round(time.time() - started, 1),
        },
        "end_to_end": workloads,
        "scale_with_cross_check": scale,
    }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
