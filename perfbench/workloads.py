"""The four benchmark workloads.

Each workload builds its inputs from a seeded ``random.Random`` during
set-up, then offers one round of operations.  An operation is one
request a user would make (one key's Betti table, one class query, one
key's extension chain); the runner times each one and hands the result
to ``check``, which compares it with the exact expected answer outside
the timed region.  Every workload calls only the public API of
``superquad``: the package namespace and the public functions of its
modules.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
from fractions import Fraction

SIZES = ("smoke", "bench")


def table_rows(results) -> list[list[int]]:
    return [[r.dim_cochains, r.dim_cocycles, r.dim_coboundaries, r.betti] for r in results]


# b_2 of h(n, m) has the closed form below where n >= 2 or m >= 1; at
# (1, 0), the 3-dimensional Heisenberg Lie algebra, b_2 = 2 instead.
HEISENBERG_POINTS = ((1, 1), (1, 2), (2, 0), (2, 1), (2, 2))


def heisenberg_b2(n: int, m: int) -> int:
    return 2 * n * n - n + 2 * n * m + (m * m + m) // 2 - 1


class Workload:
    name = ""

    def __init__(self, size: str, reference: dict, workdir: str) -> None:
        self.size = size
        self.reference = reference
        self.workdir = workdir

    def setup(self, sq, modules, rng):
        raise NotImplementedError

    def round_ops(self, inputs, rng) -> list:
        """One round: a list of (key, zero-argument callable)."""
        raise NotImplementedError

    def check(self, inputs, key, out, deep: bool) -> str | None:
        """None if ``out`` is the exact expected answer, else a message.

        ``deep`` asks for the checks too costly to repeat every round.
        """
        raise NotImplementedError

    def check_inputs(self, inputs) -> list[str]:
        """Mismatches in results computed during set-up."""
        return []

    def size_counts(self, inputs) -> dict[str, int]:
        """Problem size of one round, as counts: the sum of dim C^k over
        the cochain spaces the round works in, queries, extensions."""
        raise NotImplementedError


class _BettiWorkload(Workload):
    """Shared checks for workloads whose operation is ``betti_table``."""

    def _check_table(self, key, results, q, deep) -> str | None:
        sq = self.sq
        want = self.reference["tables"][key][: self.DEGREE[self.size] + 1]
        got = table_rows(results)
        if got != want:
            return f"table {got} != reference {want}"
        for r in results:
            if len(r.representatives) != r.betti:
                return f"degree {r.degree}: {len(r.representatives)} representatives for b = {r.betti}"
        if not deep:
            return None
        for r in results:
            for rep in r.representatives:
                if not sq.is_cocycle(q, rep):
                    return f"degree {r.degree}: representative {rep} is not a cocycle"
                if sq.is_coboundary(q, rep):
                    return f"degree {r.degree}: representative {rep} is a coboundary"
        return None

    def _cochain_sum(self, sq, q, degree) -> int:
        return sum(sq.cochain_dimension(q.basis, k) for k in range(degree + 1))


class CatalogSweep(_BettiWorkload):
    """``betti_table`` with representatives and the default ``-{I,.}``
    cross-check, for every catalog key at default parameters."""

    name = "catalog_sweep"
    DEGREE = {"smoke": 1, "bench": 2}

    def setup(self, sq, modules, rng):
        self.sq = sq
        return {key: sq.build(key) for key in sq.catalog_keys()}

    def round_ops(self, inputs, rng):
        degree = self.DEGREE[self.size]
        betti_table = self.sq.betti_table
        keys = sorted(inputs)
        rng.shuffle(keys)
        return [(key, lambda q=inputs[key]: betti_table(q, degree)) for key in keys]

    def check(self, inputs, key, out, deep):
        err = self._check_table(key, out, inputs[key], deep)
        if err is None and deep and key == "h":
            for n, m in HEISENBERG_POINTS:
                b2 = self.sq.cohomology(self.sq.build("h", {"n": n, "m": m}), 2).betti
                if b2 != heisenberg_b2(n, m):
                    return f"h({n}, {m}): b_2 = {b2}, closed form gives {heisenberg_b2(n, m)}"
        return err

    def size_counts(self, inputs):
        degree = self.DEGREE[self.size]
        return {
            "cochain_dim_sum": sum(self._cochain_sum(self.sq, q, degree) for q in inputs.values()),
            "queries": 0,
            "extensions": 0,
        }


class DeepComplex(_BettiWorkload):
    """``betti_table(build("g_8_2_5_s"), K, verify=False)`` at high degree.

    The input is one fixed algebra, so the seed changes nothing here."""

    name = "deep_complex"
    KEY = "g_8_2_5_s"
    DEGREE = {"smoke": 2, "bench": 4}

    def setup(self, sq, modules, rng):
        self.sq = sq
        return {self.KEY: sq.build(self.KEY)}

    def round_ops(self, inputs, rng):
        degree = self.DEGREE[self.size]
        betti_table = self.sq.betti_table
        q = inputs[self.KEY]
        return [(self.KEY, lambda: betti_table(q, degree, verify=False))]

    def check(self, inputs, key, out, deep):
        return self._check_table(key, out, inputs[key], deep)

    def size_counts(self, inputs):
        degree = self.DEGREE[self.size]
        return {
            "cochain_dim_sum": self._cochain_sum(self.sq, inputs[self.KEY], degree),
            "queries": 0,
            "extensions": 0,
        }


class ClassQueries(Workload):
    """Seeded class queries against cohomology results computed in set-up.

    Each query is c = sum r_i rep_i + delta(b) for a random sparse b, or,
    for a fixed share of queries, that plus a cochain x with delta(x) != 0,
    which makes c a non-cocycle.  Every (key, degree) pair gets the same
    number of queries and of non-cocycles, so the mix, and with it the
    cost, is the same for every seed.
    """

    name = "class_queries"
    PAIRS = {
        "smoke": (("g_6_s", 2),),
        "bench": (
            ("g_6_s", 2),
            ("g_6_s", 3),
            ("g_6_1", 3),
            ("g_6_2", 3),
            ("g_dec", 2),
            ("g_8_2_5_s", 2),
        ),
    }
    PER_PAIR = {"smoke": (20, 3), "bench": (34, 5)}  # (queries, non-cocycles)
    COEFFS = (-3, -2, -1, 1, 2, 3)

    def _coeff(self, rng) -> Fraction:
        return Fraction(rng.choice(self.COEFFS), rng.choice((1, 1, 2)))

    def _sparse(self, q, monomials, rng, terms: int):
        picked = rng.sample(monomials, min(terms, len(monomials)))
        return self.sq.Cochain.from_terms(q.basis, {m: self._coeff(rng) for m in picked})

    def setup(self, sq, modules, rng):
        self.sq = sq
        pairs = self.PAIRS[self.size]
        per_pair, bad = self.PER_PAIR[self.size]
        algebras = {key: sq.build(key) for key, _ in pairs}
        results = {}
        queries = []
        for key, k in pairs:
            q = algebras[key]
            res = sq.cohomology(q, k, verify=False)
            results[(key, k)] = res
            lower = sq.monomials_of_degree(q.basis, k - 1)
            same = sq.monomials_of_degree(q.basis, k)
            for i in range(per_pair):
                cocycle = i >= bad
                # every fourth cocycle query is a pure coboundary (r = 0)
                if cocycle and i % 4 == 0:
                    r = [Fraction(0)] * res.betti
                else:
                    r = [Fraction(rng.choice(self.COEFFS)) for _ in range(res.betti)]
                c = sq.Cochain.zero(q.basis)
                for ri, rep in zip(r, res.representatives):
                    c = c + rep.scale(ri)
                db = sq.Cochain.zero(q.basis)
                while db.is_zero:
                    db = sq.differential_direct(q.algebra, self._sparse(q, lower, rng, 2))
                c = c + db
                if not cocycle:
                    dx = sq.Cochain.zero(q.basis)
                    while dx.is_zero:
                        x = self._sparse(q, same, rng, 1)
                        dx = sq.differential_direct(q.algebra, x)
                    c = c + x
                queries.append((key, k, c, r if cocycle else None))
        rng.shuffle(queries)
        return {"algebras": algebras, "results": results, "queries": queries}

    def round_ops(self, inputs, rng):
        sq = self.sq
        is_cocycle, is_coboundary, class_vector = sq.is_cocycle, sq.is_coboundary, sq.class_vector
        input_error = sq.InputError
        ops = []
        for i, (key, k, c, _) in enumerate(inputs["queries"]):
            q = inputs["algebras"][key]
            res = inputs["results"][(key, k)]

            def query(q=q, c=c, res=res):
                cocycle = is_cocycle(q, c)
                coboundary = is_coboundary(q, c)
                try:
                    vector = class_vector(q, c, result=res)
                except input_error:
                    vector = None
                return cocycle, coboundary, vector

            ops.append((i, query))
        return ops

    def check(self, inputs, key, out, deep):
        _, _, _, r = inputs["queries"][key]
        if r is None:
            want = (False, False, None)
        else:
            want = (True, not any(r), r)
        if tuple(out) != want:
            return f"answer {out} != expected {want}"
        return None

    def check_inputs(self, inputs):
        errors = []
        for (key, k), res in inputs["results"].items():
            want = self.reference["tables"][key][k]
            got = table_rows([res])[0]
            if got != want:
                errors.append(f"{key} degree {k}: {got} != reference {want}")
        return errors

    def size_counts(self, inputs):
        return {
            "cochain_dim_sum": sum(res.dim_cochains for res in inputs["results"].values()),
            "queries": len(inputs["queries"]),
            "extensions": 0,
        }


class ExtensionChain(Workload):
    """The write path, per quadratic key: skew superderivation spaces,
    a seeded combination of the degree-0 basis, a one-dimensional double
    extension, its validation, a JSON round-trip, and the ``validate``
    and ``poisson`` CLI verbs on the saved file."""

    name = "extension_chain"
    KEYS = {"smoke": ("g_4_1_s",)}
    MAX_COEFFS = 32  # seeded coefficients per key; the largest degree-0 space has dimension 14
    LABELS = ("E", "F")

    def setup(self, sq, modules, rng):
        self.sq = sq
        self.dumps = modules["serialization"].dumps
        self.cli_main = modules["cli"].main
        keys = self.KEYS.get(self.size) or tuple(
            k for k in sq.catalog_keys() if sq.get_entry(k).quadratic
        )
        os.makedirs(self.workdir, exist_ok=True)
        return {
            key: (
                sq.build(key),
                [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(self.MAX_COEFFS)],
            )
            for key in keys
        }

    def _chain(self, key, q, coeffs):
        sq = self.sq
        d0 = sq.skew_superderivation_space(q, 0)
        d1 = sq.skew_superderivation_space(q, 1)
        n = q.basis.dim
        zero = Fraction(0)
        matrix = tuple(
            tuple(sum((c * d.matrix[i][j] for c, d in zip(coeffs, d0)), zero) for j in range(n))
            for i in range(n)
        )
        deriv = sq.Superderivation(matrix=matrix, degree=0)
        ext = sq.one_dim_double_extension(q, deriv, labels=self.LABELS)
        report = sq.validate_quadratic(ext)
        back = sq.loads(self.dumps(ext))
        path = os.path.join(self.workdir, f"{key}.json")
        sq.save(path, ext)
        with contextlib.redirect_stdout(io.StringIO()):
            rc_validate = self.cli_main(["validate", path])
        poisson_out = io.StringIO()
        with contextlib.redirect_stdout(poisson_out):
            rc_poisson = self.cli_main(["poisson", path, "--format", "json", "--max-degree", "1"])
        return {
            "dims": [len(d0), len(d1)],
            "ext": ext,
            "valid": report.ok,
            "roundtrip": back == ext,
            "path": path,
            "rc": [rc_validate, rc_poisson],
            "poisson": poisson_out.getvalue(),
        }

    def round_ops(self, inputs, rng):
        keys = sorted(inputs)
        rng.shuffle(keys)
        return [
            (key, lambda key=key: self._chain(key, *inputs[key])) for key in keys
        ]

    def check(self, inputs, key, out, deep):
        q, _ = inputs[key]
        want_dims = self.reference["skew_dims"][key]
        if out["dims"] != want_dims:
            return f"skew superderivation dims {out['dims']} != reference {want_dims}"
        if out["ext"].basis.dim != q.basis.dim + 2:
            return "extension has the wrong dimension"
        if not out["valid"]:
            return "extension fails validate_quadratic"
        if not out["roundtrip"]:
            return "loads(dumps(ext)) != ext"
        if self.sq.load(out["path"]) != out["ext"]:
            return "load(saved file) != ext"
        if out["rc"] != [0, 0]:
            return f"cli exit codes {out['rc']} != [0, 0]"
        doc = json.loads(out["poisson"])
        if not (doc["i_i_zero"] and doc["differential_agreements"]):
            return "poisson verb: {I, I} != 0 or delta != -{I, .}"
        return None

    def size_counts(self, inputs):
        """The cochains counted are those the ``poisson`` verb checks:
        degrees 0 and 1 of each extension."""
        sq = self.sq
        total = 0
        for q, _ in inputs.values():
            ext = sq.GradedBasis(labels=self.LABELS + q.basis.labels, parities=(0, 0) + q.basis.parities)
            total += sum(sq.cochain_dimension(ext, k) for k in range(2))
        return {"cochain_dim_sum": total, "queries": 0, "extensions": len(inputs)}


WORKLOADS = {
    w.name: w for w in (CatalogSweep, DeepComplex, ClassQueries, ExtensionChain)
}
