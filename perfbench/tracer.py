"""In-memory spans around the public functions of each superquad module.

The tracer replaces every public function of a module with a wrapper
that records a span (name, start, end, parent) and, for a few
functions, counts taken from the arguments or the result.  Wrappers go
into the namespace where the caller looks the name up: the package
namespace and every other module that imported the function, so calls
the engine makes across modules are seen.  A module's own namespace is
patched only where its public functions are reached through it:

* ``cohomology``: ``betti_table`` calls ``differential_matrix`` and
  ``cohomology`` in the same module, and those calls are the phases;
* ``catalog`` and ``serialization``: ``cli`` uses them as module
  attributes (``serialization.load``);
* ``cli``: the benchmark calls ``cli.main``.

Other intra-module calls (``linalg.rank`` -> ``rref``,
``cochains.differential_direct`` -> ``evaluate``) stay inside the
caller's span, so each function's time is its own layer's work and the
hot helpers cost no span each.  Methods are attributed to their caller,
except ``LieSuperalgebra.bracket_pair``, which gets a count-only
wrapper.  ``sp2`` is not wrapped: no workload reaches it.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter

MODULES = (
    "cli",
    "catalog",
    "serialization",
    "algebra",
    "quadratic",
    "cochains",
    "cohomology",
    "linalg",
    "extensions",
)
SELF_PATCHED = ("cli", "catalog", "serialization", "cohomology")
MATRIX_ARG = {f"linalg.{f}" for f in ("rank", "nullspace", "echelon_basis", "rref", "solve", "inverse")}

# span fields
NAME, START, END, PARENT, PHASE, ERROR, INFO = range(7)


def _cells(m) -> int:
    if not isinstance(m, (list, tuple)) or not m:
        return 0
    return len(m) * len(m[0])


def _delta_info(d) -> dict:
    rows, cols = d.shape
    nnz = 0
    bits = 0
    for row in d.entries:
        for x in row:
            if x:
                nnz += 1
                bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    return {"cells": rows * cols, "nnz": nnz, "bits": bits}


class Tracer:
    """Collects spans for one imported copy of ``superquad``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.active = False
        self.phase = "setup"
        self.wrappers: dict = {}

    # -- installation -----------------------------------------------------
    def install(self, pkg, modules: dict) -> None:
        """Wrap the public functions of ``modules`` (name -> module)."""
        for mod_name in MODULES:
            mod = modules[mod_name]
            for attr, fn in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                ):
                    self.wrappers[fn] = self._wrap(f"{mod_name}.{attr}", fn)
        namespaces = [pkg] + list(modules.values())
        for ns in namespaces:
            own = ns.__name__.rsplit(".", 1)[-1]
            for attr, value in list(vars(ns).items()):
                wrapper = self._lookup(value)
                if wrapper is None:
                    continue
                defined_here = value.__module__ == ns.__name__
                if defined_here and own not in SELF_PATCHED:
                    continue
                setattr(ns, attr, wrapper)
        lie = modules["algebra"].LieSuperalgebra
        original = lie.bracket_pair
        tracer = self

        def bracket_pair(self_, i, j):
            if tracer.active and tracer.phase == "job":
                tracer.counts["algebra.bracket_pair_calls"] += 1
            return original(self_, i, j)

        lie.bracket_pair = bracket_pair

    def _lookup(self, value):
        try:
            return self.wrappers.get(value)
        except TypeError:  # unhashable module attribute
            return None

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            info = None
            if name in MATRIX_ARG and args:
                info = {"cells": _cells(args[0])}
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.phase, None, info]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = clock()
                stack.pop()
                rec[ERROR] = type(exc).__name__
                raise
            rec[END] = clock()
            stack.pop()
            if name == "cohomology.differential_matrix":
                rec[INFO] = _delta_info(out)
            elif name == "cohomology.cohomology":
                rec[INFO] = {"reps": len(out.representatives), "degree": out.degree}
            elif name == "serialization.dumps":
                rec[INFO] = {"bytes": len(out.encode("utf-8"))}
            elif name == "cli.main":
                rec[INFO] = {"exit": out}
            return out

        return wrapper

    # -- output -----------------------------------------------------------
    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": rec[NAME],
                            "start": rec[START],
                            "end": rec[END],
                            "parent": rec[PARENT],
                            "phase": rec[PHASE],
                            "error": rec[ERROR],
                            "info": rec[INFO],
                        }
                    )
                    + "\n"
                )


def layer_metrics(tracer: Tracer, job_s: float, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round and its set-up.

    ``job_s`` is the traced time of one round of operations; the part of
    it that no span covers is reported as ``trace.unwrapped_s``.  Sums
    over the ``rounds`` traced rounds, each with its own set-up, are
    divided by ``rounds``; maxima and ratios are not.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    self_s: Counter = Counter()
    calls: Counter = Counter()
    errors: Counter = Counter()
    rejected = 0
    cells = nnz = bits = 0
    lin_cells = 0
    out_bytes = 0
    reps = 0
    rank_in_coh = 0
    build_s = 0.0
    build_calls = 0
    root_s = 0.0
    query_fns = {"cohomology.is_cocycle", "cohomology.is_coboundary", "cohomology.class_vector"}
    for i, rec in enumerate(spans):
        name = rec[NAME]
        dur = rec[END] - rec[START]
        own = dur - child_time[i]
        if rec[PHASE] == "setup":
            if name == "catalog.build":
                build_s += own
                build_calls += 1
            continue
        module = name.split(".", 1)[0]
        parent = spans[rec[PARENT]] if rec[PARENT] >= 0 else None
        parent_name = parent[NAME] if parent is not None else None
        self_s[name] += own
        self_s[module] += own
        calls[name] += 1
        if parent is None:
            root_s += dur
        if rec[ERROR] is not None:
            if rec[ERROR] == "InputError":
                if name in query_fns and parent_name not in query_fns:
                    rejected += 1
            else:
                errors[module] += 1
        info = rec[INFO] or {}
        if name == "cohomology.differential_matrix":
            cells += info.get("cells", 0)
            nnz += info.get("nnz", 0)
            bits = max(bits, info.get("bits", 0))
        elif name == "cohomology.cohomology":
            reps += info.get("reps", 0)
        elif name == "serialization.dumps":
            out_bytes += info.get("bytes", 0)
        if module == "linalg":
            lin_cells += info.get("cells", 0)
        if name == "linalg.rank":
            j = rec[PARENT]
            while j >= 0 and spans[j][NAME] != "cohomology.cohomology":
                j = spans[j][PARENT]
            if j >= 0:
                rank_in_coh += 1

    def outer_incl(names):
        """Inclusive time of the calls to ``names`` not made from one of them."""
        return sum(
            rec[END] - rec[START]
            for rec in spans
            if rec[PHASE] == "job"
            and rec[NAME] in names
            and (rec[PARENT] < 0 or spans[rec[PARENT]][NAME] not in names)
        )

    def s(*names):
        return sum(self_s[n] for n in names)

    m: dict[str, tuple[float, str]] = {
        "cochains.direct_s": (s("cochains.differential_direct"), "s"),
        "cochains.direct_calls": (calls["cochains.differential_direct"], "count"),
        "cochains.poisson_s": (
            s("cochains.differential_via_poisson", "cochains.poisson_bracket"),
            "s",
        ),
        "cochains.poisson_calls": (
            calls["cochains.differential_via_poisson"]
            + calls["cochains.poisson_bracket"],
            "count",
        ),
        "cochains.three_form_s": (s("cochains.associated_three_form"), "s"),
        "algebra.bracket_pair_calls": (
            tracer.counts["algebra.bracket_pair_calls"],
            "count",
        ),
        "cohomology.assembly_self_s": (s("cohomology.differential_matrix"), "s"),
        "cohomology.delta_builds": (calls["cohomology.differential_matrix"], "count"),
        "cohomology.elim_self_s": (
            s("cohomology.cohomology", "cohomology.is_coboundary", "cohomology.class_vector"),
            "s",
        ),
        "cohomology.query_s_incl": (outer_incl(query_fns), "s"),
        "cohomology.rejected": (rejected, "count"),
        "cohomology.delta_cells": (cells, "count"),
        "cohomology.delta_nnz": (nnz, "count"),
        "cohomology.delta_coeff_bits": (bits, "bits"),
        "cohomology.rep_yield": (reps / rank_in_coh if rank_in_coh else 0.0, "ratio"),
        "linalg.rank_s": (s("linalg.rank"), "s"),
        "linalg.rank_calls": (calls["linalg.rank"], "count"),
        "linalg.nullspace_s": (s("linalg.nullspace"), "s"),
        "linalg.echelon_s": (s("linalg.echelon_basis", "linalg.rref"), "s"),
        "linalg.solve_s": (s("linalg.solve"), "s"),
        "linalg.cells": (lin_cells, "count"),
        "catalog.build_s": (build_s, "s"),
        "catalog.build_calls": (build_calls, "count"),
        "algebra.validate_s": (
            s(
                "algebra.validate_lie_superalgebra",
                "algebra.validate_super_jacobi",
                "algebra.validate_grading_and_skew",
            ),
            "s",
        ),
        "quadratic.validate_s": (
            s("quadratic.validate_quadratic", "quadratic.validate_form"),
            "s",
        ),
        "quadratic.darboux_s": (
            s("quadratic.darboux_frame", "quadratic.symplectic_darboux"),
            "s",
        ),
        "extensions.skew_space_s": (s("extensions.skew_superderivation_space"), "s"),
        "extensions.extend_s_incl": (outer_incl({"extensions.one_dim_double_extension"}), "s"),
        "serialization.load_s": (
            s("serialization.load", "serialization.loads", "serialization.algebra_from_dict"),
            "s",
        ),
        "serialization.dump_s": (
            s("serialization.save", "serialization.dumps", "serialization.algebra_to_dict"),
            "s",
        ),
        "serialization.bytes": (out_bytes, "bytes"),
    }
    for module in MODULES:
        m[f"{module}.self_s"] = (self_s[module], "s")
        m[f"{module}.errors"] = (errors[module], "count")
    m["trace.spans"] = (sum(1 for rec in spans if rec[PHASE] == "job"), "count")

    def per_round(name, value, unit):
        if unit == "s":
            value = float(value)
        if unit not in ("s", "count", "bytes"):
            return value
        return value // rounds if isinstance(value, int) and value % rounds == 0 else value / rounds

    out = {k: (per_round(k, v, unit), unit) for k, (v, unit) in m.items()}
    out["trace.job_s"] = (job_s, "s")
    out["trace.unwrapped_s"] = (job_s - root_s / rounds, "s")
    return out
