"""The 2x2 traceless matrix Lie algebra over the rationals.

Elements are ((a, b), (c, -a)) stored by the three coordinates (a, b, c).
Basis H = ((1,0),(0,-1)), X = ((0,1),(0,0)), Y = ((0,0),(1,0)) with
[H,X] = 2X, [H,Y] = -2Y, [X,Y] = H.  A non-zero element is nilpotent
exactly when the discriminant a^2 + bc (the squared eigenvalue) vanishes
and semisimple otherwise; eigenvalues are +-sqrt(a^2+bc), reported as the
rational discriminant rather than radicals.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import EngineError, InputError
from .linalg import Rat, rat

__all__ = [
    "Sp2Element",
    "H",
    "X",
    "Y",
    "classify",
    "commutator",
    "check_commuting_dependence",
    "check_eigenvector_relation",
    "normal_form",
    "rational_sqrt",
]


@dataclass(frozen=True)
class Sp2Element:
    """The matrix ((a, b), (c, -a))."""

    a: Rat
    b: Rat
    c: Rat

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", rat(self.a))
        object.__setattr__(self, "b", rat(self.b))
        object.__setattr__(self, "c", rat(self.c))

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0

    @property
    def discriminant(self) -> Rat:
        return self.a * self.a + self.b * self.c

    def __add__(self, other: "Sp2Element") -> "Sp2Element":
        return Sp2Element(self.a + other.a, self.b + other.b, self.c + other.c)

    def __sub__(self, other: "Sp2Element") -> "Sp2Element":
        return Sp2Element(self.a - other.a, self.b - other.b, self.c - other.c)

    def scale(self, t) -> "Sp2Element":
        t = rat(t)
        return Sp2Element(t * self.a, t * self.b, t * self.c)

    def matrix(self) -> list[list[Rat]]:
        return [[self.a, self.b], [self.c, -self.a]]

    def coordinates(self) -> tuple[Rat, Rat, Rat]:
        """Coordinates in the (H, X, Y) basis: a*H + b*X + c*Y."""
        return (self.a, self.b, self.c)

    def __str__(self) -> str:
        return f"(({self.a}, {self.b}), ({self.c}, {-self.a}))"


H = Sp2Element(1, 0, 0)
X = Sp2Element(0, 1, 0)
Y = Sp2Element(0, 0, 1)


def classify(m: Sp2Element) -> tuple[str, Rat]:
    """(tag, discriminant) with tag in {'zero', 'nilpotent', 'semisimple'}.

    Non-zero traceless 2x2 matrices are nilpotent iff the discriminant
    a^2 + bc vanishes, semisimple otherwise.
    """
    disc = m.discriminant
    if m.is_zero:
        return ("zero", disc)
    return ("nilpotent" if disc == 0 else "semisimple", disc)


def commutator(m1: Sp2Element, m2: Sp2Element) -> Sp2Element:
    """[A, B] = (bc' - b'c) H + 2(ab' - a'b) X - 2(ac' - a'c) Y."""
    a, b, c = m1.a, m1.b, m1.c
    a2, b2, c2 = m2.a, m2.b, m2.c
    return Sp2Element(
        b * c2 - b2 * c,
        2 * (a * b2 - a2 * b),
        -2 * (a * c2 - a2 * c),
    )


def check_commuting_dependence(
    m1: Sp2Element, m2: Sp2Element
) -> tuple[Rat, Rat]:
    """A dependence certificate (mu, nu) != (0,0) with mu*A + nu*B = 0.

    Requires [A, B] = 0; commuting traceless 2x2 matrices are linearly
    dependent, so a certificate always exists.
    """
    if not commutator(m1, m2).is_zero:
        raise InputError("dependence certificate requires [A, B] = 0")
    if m1.is_zero:
        return (Fraction(1), Fraction(0))
    if m2.is_zero:
        return (Fraction(0), Fraction(1))
    # find a coordinate where m1 is non-zero and scale m2 against it
    for x1, x2 in ((m1.a, m2.a), (m1.b, m2.b), (m1.c, m2.c)):
        if x1 != 0:
            t = Fraction(x2, x1)
            if (m2 - m1.scale(t)).is_zero:
                return (t, Fraction(-1))
            raise EngineError(
                "commuting non-zero traceless 2x2 matrices must be "
                "linearly dependent; found a counterexample"
            )
    raise EngineError("non-zero element with all coordinates zero")


def check_eigenvector_relation(
    m1: Sp2Element, m2: Sp2Element
) -> tuple[bool, bool]:
    """Flags (discriminant(A) == 1/4, B nilpotent) for [A, B] = B, B != 0."""
    if m2.is_zero:
        raise InputError("eigenvector relation requires B != 0")
    if commutator(m1, m2) != m2:
        raise InputError("eigenvector relation requires [A, B] = B")
    tag, _ = classify(m2)
    return (m1.discriminant == Fraction(1, 4), tag == "nilpotent")


def rational_sqrt(value: Rat) -> Rat | None:
    """The non-negative rational square root, or None."""
    value = rat(value)
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn = _isqrt_exact(num)
    rd = _isqrt_exact(den)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def _isqrt_exact(n: int) -> int | None:
    from math import isqrt

    r = isqrt(n)
    return r if r * r == n else None


def normal_form(
    m: Sp2Element,
) -> tuple[str, Sp2Element | None, list[list[Rat]] | None]:
    """(tag, normal form, change of basis g with g^-1 A g = normal form).

    Nilpotent non-zero elements reduce to X (strictly upper triangular);
    semisimple elements with rational-square discriminant reduce to the
    diagonal sqrt(disc) * H.  Semisimple elements with irrational
    eigenvalues are reported as (tag, None, None): no rational
    change-of-basis exists.
    """
    tag, disc = classify(m)
    if tag == "zero":
        return ("zero", Sp2Element(0, 0, 0), [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
    if tag == "nilpotent":
        # columns: v with A v != 0 picked from the standard basis, then A v
        a, b, c = m.a, m.b, m.c
        if a != 0 or c != 0:
            v = [Fraction(1), Fraction(0)]
        else:
            v = [Fraction(0), Fraction(1)]
        image = [a * v[0] + b * v[1], c * v[0] - a * v[1]]
        g = [[image[0], v[0]], [image[1], v[1]]]
        return ("nilpotent", Sp2Element(0, 1, 0), g)
    root = rational_sqrt(disc)
    if root is None:
        return ("semisimple", None, None)
    # eigenvectors for +root and -root
    a, b, c = m.a, m.b, m.c
    def eigvec(lam: Rat) -> list[Rat]:
        # (a - lam) x + b y = 0; c x - (a + lam) y = 0
        if b != 0:
            return [b, lam - a]
        if c != 0:
            return [lam + a, c]
        # diagonal matrix: a = +-lam
        return [Fraction(1), Fraction(0)] if a == lam else [Fraction(0), Fraction(1)]

    vp = eigvec(root)
    vm = eigvec(-root)
    g = [[vp[0], vm[0]], [vp[1], vm[1]]]
    return ("semisimple", Sp2Element(root, 0, 0), g)
