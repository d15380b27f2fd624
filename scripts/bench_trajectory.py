#!/usr/bin/env python3
"""Write a ``BENCH_*.json`` trajectory file: a parent and a change, side by side.

Usage:

    python3 scripts/bench_trajectory.py --parent <checkout> --change <checkout> \
        --out BENCH_<n>.json

Each checkout is a directory holding ``perfbench/`` and ``src/``.  For
every workload of the change's ``BENCHMARK.json`` and each of ``SEEDS``,
the script runs each checkout's own ``perfbench/run.py --trace 0`` for
``SECONDS`` per run, as ``RUNS`` pairs of parent and change, the side that
runs first alternating from pair to pair, and records the median of each
end-to-end metric, the quartiles of ``job_s`` and of ``setup_s`` on each
side and the number of pairs whose ``job_s``, and whose ``setup_s``, the
change won.  Start-up cost gets its own case, run first, before anything
can leave bytecode in ``src/``: a fresh process times
``import superquad, superquad.cli`` on each checkout's ``src/``, as
``IMPORT_PAIRS`` pairs alternating like the others, once with bytecode
off (``PYTHONDONTWRITEBYTECODE=1``, so ``src/`` is compiled on every
import, as in the benchmark's rounds) and once with the bytecode of a
private ``PYTHONPYCACHEPREFIX`` warmed by one import first; the file
holds the median and quartiles per side and the pairs the change won.
Five scale cases (``SCALE``),
all with the ``-{I,.}`` cross-check, run in a fresh process per run on
each checkout's ``src/``: ``betti_table(build("g_8_2_5_s"), 12)``,
``betti_table(q, 6)`` over all 17 catalog keys, and three frontier
cases, ``g_8_2_5_s`` to degree 30 (inner torus, deep), ``g_8_2_9_s`` to
degree 20 and ``g_6_s`` to degree 16 (no inner torus, every block
built).  Each runs as ``SCALE_PAIRS`` pairs of parent and change, the
side that runs first alternating from pair to pair; the file holds, per
side, the median and quartiles of the wall time and the median peak RSS
of the process, and the number of pairs the change won.  Last,
the Tier-1 suite (``TIER1``, the command of ROADMAP.md) runs once in each
checkout on its own ``src/``; the file holds its wall time, exit code and
pytest's summary line.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RUNS = 10
SCALE_PAIRS = 10
IMPORT_PAIRS = 10
SECONDS = 5.0
SEEDS = (1, 7919)
SCALE = {
    "g_8_2_5_s_degree_12_s": "qs = [build('g_8_2_5_s')]; k = 12",
    "sweep_17_keys_degree_6_s": "qs = [build(key) for key in catalog_keys()]; k = 6",
    "g_8_2_5_s_degree_30_s": "qs = [build('g_8_2_5_s')]; k = 30",
    "g_8_2_9_s_degree_20_s": "qs = [build('g_8_2_9_s')]; k = 20",
    "g_6_s_degree_16_s": "qs = [build('g_6_s')]; k = 16",
}
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")
SCALE_RUN = (
    "import resource, time\n"
    "from superquad import betti_table, build, catalog_keys\n"
    "{setup}\n"
    "t = time.perf_counter()\n"
    "for q in qs:\n"
    "    betti_table(q, k)\n"
    "print(time.perf_counter() - t, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)\n"
)
IMPORT_RUN = "import time\nt = time.perf_counter()\nimport superquad, superquad.cli\nprint(time.perf_counter() - t)\n"


def run_workload(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{tree}: {workload} seed {seed} failed: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_scale(tree: Path, setup: str) -> tuple[float, float]:
    """Wall seconds of one scale case and the peak RSS of its process in MB."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    code = SCALE_RUN.format(setup=setup)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    seconds, rss_mb = map(float, out.stdout.split())
    return seconds, rss_mb


def run_import(tree: Path, cache: Path | None) -> float:
    """Seconds of ``import superquad, superquad.cli`` in a fresh process on
    tree's ``src/``: with bytecode off for ``cache`` None, else with the
    bytecode kept under the directory ``cache``."""
    if (tree / "src" / "superquad" / "__pycache__").exists():
        raise SystemExit(f"{tree}/src/superquad holds a __pycache__: the import would not compile src/")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    if cache is not None:
        del env["PYTHONDONTWRITEBYTECODE"]
        env["PYTHONPYCACHEPREFIX"] = str(cache)
    out = subprocess.run([sys.executable, "-c", IMPORT_RUN], env=env, capture_output=True, text=True, check=True)
    return float(out.stdout)


def quartiles(seconds: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return {"median_s": median, "q1_s": q1, "q3_s": q3}


def spread(runs: list[tuple[float, float]]) -> dict:
    return {**quartiles([s for s, _ in runs]), "peak_rss_mb": statistics.median(m for _, m in runs)}


def run_tier1(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t = time.perf_counter()
    out = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t
    lines = out.stdout.strip().splitlines()
    return {"wall_s": round(wall, 2), "exit": out.returncode, "summary": lines[-1] if lines else ""}


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
    imports: dict = {}
    with tempfile.TemporaryDirectory() as caches:
        for bytecode in ("off", "cached"):
            cache = {side: None if bytecode == "off" else Path(caches, side) for side in trees}
            for side, tree in trees.items():
                run_import(tree, cache[side])  # warms the cache; with bytecode off, one untimed run too
            times: dict[str, list] = {side: [] for side in trees}
            for pair in range(IMPORT_PAIRS):
                for side in sorted(trees, reverse=bool(pair % 2)):
                    times[side].append(run_import(trees[side], cache[side]))
            imports[bytecode] = {side: quartiles(t) for side, t in times.items()}
            imports[bytecode]["change_wins"] = sum(c < p for p, c in zip(times["parent"], times["change"]))
            print("import", bytecode, imports[bytecode], file=sys.stderr)
    workloads: dict = {}
    for w in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            samples: dict[str, list] = {side: [] for side in trees}
            for pair in range(RUNS):
                for side in sorted(trees, reverse=bool(pair % 2)):
                    samples[side].append(run_workload(trees[side], w, seed))
            entry = {side: medians(s) for side, s in samples.items()}
            for metric in ("job_s", "setup_s"):
                for side, s in samples.items():
                    q1, _, q3 = statistics.quantiles([x[metric] for x in s], n=4, method="inclusive")
                    entry[side].update({f"{metric}_q1": q1, f"{metric}_q3": q3})
                entry[f"change_wins_{metric}"] = sum(
                    c[metric] < p[metric] for p, c in zip(samples["parent"], samples["change"])
                )
            workloads.setdefault(w, {})[str(seed)] = entry
            print(w, seed, workloads[w][str(seed)], file=sys.stderr)
    scale: dict = {}
    for name, setup in SCALE.items():
        runs: dict[str, list] = {side: [] for side in trees}
        for pair in range(SCALE_PAIRS):
            for side in sorted(trees, reverse=bool(pair % 2)):
                runs[side].append(run_scale(trees[side], setup))
        scale[name] = {side: spread(r) for side, r in runs.items()}
        scale[name]["change_wins"] = sum(c < p for (p, _), (c, _) in zip(runs["parent"], runs["change"]))
        print(name, scale[name], file=sys.stderr)
    tier1 = {side: run_tier1(tree) for side, tree in trees.items()}
    print("tier1", tier1, file=sys.stderr)
    report = {
        "settings": {
            "runs": RUNS,
            "scale_pairs": SCALE_PAIRS,
            "import_pairs": IMPORT_PAIRS,
            "seconds": SECONDS,
            "statistic": "median over pairs, the side that runs first alternating",
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "wall_s": round(time.time() - started, 1),
        },
        "end_to_end": workloads,
        "import_superquad_and_cli": imports,
        "scale_with_cross_check": scale,
        "tier1": tier1,
    }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
