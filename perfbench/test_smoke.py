"""Smoke test of the benchmark runner.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at its smallest size, untraced and traced, and
checks that each metric ``BENCHMARK.json`` names is printed with a unit
and that no operation failed.  Untraced runs must give every operation
a fresh set-up.  Traced runs must cover nearly all of the job with
spans and show work in exactly the layers each workload is meant to
load.  Also checks that the runner refuses to run when the sources are
missing.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from tracer import MODULES

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NONZERO = object()

# per-layer metrics of one traced round at --size smoke: NONZERO, or the
# exact value
LAYERS = {
    "catalog_sweep": {  # 17 keys to degree 1, with the -{I,.} cross-check
        "cochains.direct_calls": NONZERO,
        "cochains.poisson_calls": NONZERO,
        "linalg.rank_calls": NONZERO,
        "cohomology.delta_builds": 34,
        "cohomology.rejected": 0,
        "extensions.skew_space_s": 0,
        "serialization.bytes": 0,
    },
    "deep_complex": {  # g_8_2_5_s to degree 2, verify=False
        "cochains.direct_calls": NONZERO,
        "cochains.poisson_calls": 0,
        "cochains.poisson_s": 0,
        "linalg.rank_calls": NONZERO,
        "cohomology.delta_builds": 3,
        "cohomology.rep_yield": NONZERO,
        "extensions.skew_space_s": 0,
    },
    "class_queries": {  # 20 queries on (g_6_s, 2), 3 of them non-cocycles
        "cohomology.rejected": 3,
        "cohomology.delta_builds": NONZERO,
        "cohomology.query_s_incl": NONZERO,
        "cochains.poisson_calls": 0,
        "size.queries": 20,
        "extensions.skew_space_s": 0,
    },
    "extension_chain": {  # the write path for g_4_1_s
        "extensions.skew_space_s": NONZERO,
        "extensions.extend_s_incl": NONZERO,
        "quadratic.validate_s": NONZERO,
        "serialization.bytes": NONZERO,
        "serialization.load_s": NONZERO,
        "cli.self_s": NONZERO,
        "cochains.poisson_calls": NONZERO,
        "cohomology.delta_builds": 0,
        "size.extensions": 1,
    },
}


def _run(cwd: Path, workload: str, trace: int, size: str = "smoke"):
    cmd = list(SPEC["command"]) + [
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", size,
    ]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in expected}
    for spec in expected:
        got = metrics[spec["name"]]
        assert got["unit"] == spec["unit"], spec["name"]
        assert isinstance(got["value"], (int, float)), spec["name"]
    if trace:
        # spans must cover the job: a tracer that missed the engine's
        # calls would leave most of it unwrapped
        unwrapped = metrics["trace.unwrapped_s"]["value"]
        assert 0 <= unwrapped < 0.1 * metrics["trace.job_s"]["value"]
        for module in MODULES:
            assert metrics[f"{module}.errors"]["value"] == 0, module
        for name, want in LAYERS[workload].items():
            got = metrics[name]["value"]
            assert (got > 0 if want is NONZERO else got == want), (name, got, want)
    else:
        notes = dict(line.split(" ", 1) for line in proc.stdout.splitlines()[1:5])
        assert float(notes["runs_per_query"]) <= int(notes["setups"])


def test_runner_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
