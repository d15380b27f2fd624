"""Benchmark runner for superquad.

    python3 perfbench/run.py --workload catalog_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  One single-threaded process: it imports
``superquad`` from ``src/``, builds the workload's inputs from ``--seed``,
and runs rounds of the workload's operations for ``--seconds`` seconds
of busy time (set-ups and operations; always at least one full round).
Every round starts from a fresh set-up: ``superquad`` is imported anew
and the inputs are built again, so no cache, in a module or on an input
object, carries over from one round to the next.  Every answer is
checked exactly.  Times are rescaled to the host's reference speed (see
``HostSpeed``).  The runner prints each metric as ``name value unit``
and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs whole
untraced rounds for half the window, then whole rounds with the tracer
of ``tracer.py`` installed in each fresh import for the other half, and
reports the per-layer metrics of one round; the spans go to
``.perfbench/trace-<workload>-<seed>.jsonl``.
``--size smoke`` shrinks every workload for the runner's own test;
``bench``, the default, is the size measured.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import signal
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
DEFAULT_SEED = 1
MAX_REPORTED_FAILURES = 10

sys.path.insert(0, str(HERE))

from tracer import MODULES, Tracer, layer_metrics  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402


def fresh_import():
    """Import ``superquad`` anew from ``src/``: the package and its modules."""
    for name in [n for n in sys.modules if n == "superquad" or n.startswith("superquad.")]:
        del sys.modules[name]
    pkg = importlib.import_module("superquad")
    if Path(pkg.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"superquad was imported from {pkg.__file__}, not from {SRC}")
    return pkg, {m: importlib.import_module(f"superquad.{m}") for m in MODULES}


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# A calibration unit of pure-Python Fraction arithmetic, the kind of work
# the engine does, follows the host's speed from moment to moment.
CAL_REF_S = 0.0015  # the unit's typical time: 2.0 GHz Xeon VM, CPython 3.11
CAL_MIN_S = 0.001  # calibration just before and just after a timed call
CAL_EVERY_S = 0.05  # one unit every so often during a timed call


def _calibration_unit() -> int:
    acc = 0
    for i in range(1, 150):
        f = Fraction(i, i + 1) * Fraction(i + 2, i + 3) + Fraction(1, i)
        acc += f.numerator % 7
    return acc


class HostSpeed:
    """Rescales measured times to the reference speed of the host.

    The shared host this was tuned on runs the same code up to twice as
    slowly for minutes at a time.  So the runner times calibration units
    for ``CAL_MIN_S`` just before and just after every timed call and,
    from a timer signal, one unit every ``CAL_EVERY_S`` during it.  The
    call's time, less the units timed inside it, is rescaled by the mean
    unit time of all three.  The calibration after one call also serves
    as the one before the next.  A later change to ``superquad`` cannot
    move the units: they use only ``fractions``."""

    def __init__(self, sample_inside: bool = True) -> None:
        self.sample_inside = sample_inside
        self.spent = 0.0  # all calibration time
        self.elapsed = 0.0  # calibration time pooled for the current call
        self.units = 0
        self.inside = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        self._calibrate()

    def _unit(self) -> float:
        t0 = time.perf_counter()
        _calibration_unit()
        dt = time.perf_counter() - t0
        self.elapsed += dt
        self.units += 1
        self.spent += dt
        return dt

    def _sample(self, signum, frame) -> None:
        self.inside += self._unit()

    def _calibrate(self) -> None:
        start = self.elapsed
        while self.elapsed - start < CAL_MIN_S:
            self._unit()

    def start(self) -> float:
        """Start a timed call; returns its start time."""
        self.inside = 0.0
        if self.sample_inside:
            signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return time.perf_counter()

    def stop(self, t0: float) -> tuple[float, float]:
        """End the call started at ``t0``: its wall time and its time at
        the reference speed, both without the units timed inside it."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        dt = time.perf_counter() - t0 - self.inside
        pooled_s, pooled_units = self.elapsed, self.units
        self._calibrate()
        unit = self.elapsed / self.units
        self.elapsed -= pooled_s
        self.units -= pooled_units
        return dt, dt * CAL_REF_S / unit


class Measurement:
    def __init__(self) -> None:
        self.latencies: dict = defaultdict(list)
        self.wall: dict = defaultdict(list)
        self.setup_times: list[float] = []
        self.setup_wall: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.rounds = 0
        self.ops_s = 0.0
        self.busy_s = 0.0

    @property
    def per_op(self) -> list[float]:
        """Each operation's latency: the median of its rescaled runs.

        Every run is the operation's first call after a fresh set-up."""
        return [statistics.median(v) for v in self.latencies.values()]

    @property
    def job_s(self) -> float:
        return sum(self.per_op)

    @property
    def job_wall_s(self) -> float:
        return sum(statistics.median(v) for v in self.wall.values())


def setup(workload, seed, tracer=None):
    """Import the package afresh and build the workload's inputs."""
    pkg, modules = fresh_import()
    if tracer is not None:
        tracer.install(pkg, modules)
        tracer.phase = "setup"
        tracer.active = True
    inputs = workload.setup(pkg, modules, random.Random(seed))
    if tracer is not None:
        tracer.active = False
        tracer.phase = "job"
    return inputs


def measure(workload, seed, seconds, *, whole_rounds=False, deep=True, tracer=None):
    """Run rounds until ``seconds`` of busy time (set-ups, operations and
    calibration) have passed; the first round, and with ``whole_rounds``
    every round, completes.

    Each round starts with a fresh set-up, timed on its own.  ``deep``
    runs the costly answer checks on the first round's results.  Traced
    rounds take no calibration samples inside calls."""
    out = Measurement()
    order_rng = random.Random(f"order:{seed}")
    speed = HostSpeed(sample_inside=tracer is None)
    while True:
        gc.collect()
        t0 = speed.start()
        inputs = setup(workload, seed, tracer)
        dt, scaled = speed.stop(t0)
        out.setup_wall.append(dt)
        out.setup_times.append(scaled)
        out.busy_s += dt
        out.failures += workload.check_inputs(inputs)
        for key, op in workload.round_ops(inputs, order_rng):
            if out.rounds > 0 and not whole_rounds and out.busy_s + speed.spent >= seconds:
                return out, inputs
            if tracer is not None:
                tracer.active = True
            t0 = speed.start()
            try:
                result = op()
                error = None
            except Exception as exc:  # an operation failing is a result to report
                result = None
                error = f"{type(exc).__name__}: {exc}"
            dt, scaled = speed.stop(t0)
            if tracer is not None:
                tracer.active = False
            out.attempted += 1
            out.wall[key].append(dt)
            out.latencies[key].append(scaled)
            out.ops_s += dt
            out.busy_s += dt
            if error is None:
                try:
                    error = workload.check(inputs, key, result, deep and out.rounds == 0)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                out.failures.append(f"{key}: {error}")
        out.rounds += 1
        if out.busy_s + speed.spent >= seconds:
            return out, inputs


def run_untraced(workload, args):
    m, _ = measure(workload, args.seed, args.seconds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(m.setup_times), "s"),
        "job_s": (m.job_s, "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
        "query_p50_ms": (percentile(m.per_op, 0.50) * 1000, "ms"),
        "query_p95_ms": (percentile(m.per_op, 0.95) * 1000, "ms"),
    }
    notes = {
        "rounds": m.rounds,
        "setups": len(m.setup_times),
        "query_samples": len(m.per_op),
        "runs_per_query": round(m.attempted / len(m.per_op), 2),
        "job_wall_s": m.job_wall_s,
        "setup_wall_s": statistics.median(m.setup_wall),
    }
    return metrics, notes, m.attempted, m.failures


def run_traced(workload, args):
    """Whole untraced rounds for half the window, then whole traced rounds
    for the other half; layer metrics are per round."""
    base, _ = measure(workload, args.seed, args.seconds / 2, whole_rounds=True, deep=False)
    tracer = Tracer()
    traced, inputs = measure(
        workload, args.seed, args.seconds / 2, whole_rounds=True, tracer=tracer
    )
    base_round = base.ops_s / base.rounds
    traced_round = traced.ops_s / traced.rounds
    metrics = layer_metrics(tracer, traced_round, traced.rounds)
    metrics["trace.overhead_s"] = (traced_round - base_round, "s")
    for name, value in workload.size_counts(inputs).items():
        metrics[f"size.{name}"] = (value, "count")
    WORKDIR.mkdir(exist_ok=True)
    trace_path = WORKDIR / f"trace-{args.workload}-{args.seed}.jsonl"
    tracer.dump(trace_path)
    notes = {
        "untraced_rounds": base.rounds,
        "traced_rounds": traced.rounds,
        "untraced_round_s": base_round,
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    return metrics, notes, base.attempted + traced.attempted, base.failures + traced.failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="bench")
    args = parser.parse_args(argv)
    if not (SRC / "superquad" / "__init__.py").is_file():
        print(f"error: no superquad sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload](args.size, reference, str(WORKDIR / "work"))
    run = run_traced if args.trace else run_untraced
    metrics, notes, attempted, failures = run(workload, args)
    for failure in failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}")
    for key, value in notes.items():
        print(f"{key} {value}")
    print(f"failed_frac {len(failures) / attempted} ratio ({len(failures)} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
