"""Traceless 2x2 matrices: classification, certificates, normal forms."""
import random
from fractions import Fraction

import pytest

from superquad.errors import InputError
from helpers import inverse_dense, mat_mul, nullspace_dense
from superquad.sp2 import (
    H,
    Sp2Element,
    X,
    Y,
    check_commuting_dependence,
    check_eigenvector_relation,
    classify,
    commutator,
    normal_form,
    rational_sqrt,
)


def test_basis_relations():
    assert commutator(H, X) == X.scale(2)
    assert commutator(H, Y) == Y.scale(-2)
    assert commutator(X, Y) == H


def test_classify_examples():
    assert classify(Sp2Element(0, 0, 0)) == ("zero", 0)
    assert classify(X) == ("nilpotent", 0)
    tag, disc = classify(Sp2Element(1, 2, 3))
    assert tag == "semisimple" and disc == 7
    # a^2 + bc = 0 with all entries nonzero is still nilpotent
    assert classify(Sp2Element(2, 4, -1))[0] == "nilpotent"


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None
    assert rational_sqrt(Fraction(0)) == 0


def test_commuting_certificates_random():
    rng = random.Random(314)
    found_nonzero = 0
    for _ in range(1000):
        m1 = Sp2Element(
            Fraction(rng.randint(-4, 4)),
            Fraction(rng.randint(-4, 4)),
            Fraction(rng.randint(-4, 4)),
        )
        t = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        m2 = m1.scale(t)
        mu, nu = check_commuting_dependence(m1, m2)
        assert (mu, nu) != (0, 0)
        assert (m1.scale(mu) + m2.scale(nu)).is_zero
        if not m1.is_zero and not m2.is_zero:
            found_nonzero += 1
    assert found_nonzero > 500


def test_commuting_certificate_rejects_noncommuting():
    with pytest.raises(InputError):
        check_commuting_dependence(H, X)


def test_centralizer_via_nullspace_forces_dependence():
    # the linear map B -> [A, [A, B]] has a 1-dimensional kernel
    # intersected with {[A, B] = 0} for non-zero A: solving for all B
    # with [A, B] = 0 and checking each is proportional to A
    rng = random.Random(99)
    basis = (H, X, Y)
    for _ in range(200):
        m = Sp2Element(
            Fraction(rng.randint(-3, 3)),
            Fraction(rng.randint(-3, 3)),
            Fraction(rng.randint(-3, 3)),
        )
        if m.is_zero:
            continue
        rows = []
        for e in basis:
            com = commutator(m, e)
            rows.append([com.a, com.b, com.c])
        # columns of the commutator map in the (H, X, Y) coordinates
        mat = [[rows[j][i] for j in range(3)] for i in range(3)]
        kernel = nullspace_dense(mat, 3)
        assert len(kernel) == 1  # centralizer of a regular element is a line
        v = kernel[0]
        cand = H.scale(v[0]) + X.scale(v[1]) + Y.scale(v[2])
        mu, nu = check_commuting_dependence(m, cand)
        assert (m.scale(mu) + cand.scale(nu)).is_zero


def test_eigenvector_relation_flags():
    # [H/2, X] = X with H/2 of discriminant 1/4 and X nilpotent
    a = H.scale(Fraction(1, 2))
    flags = check_eigenvector_relation(a, X)
    assert flags == (True, True)
    # conjugating preserves both flags: use a = H/2 + X, still [a, b] = b
    # for b the nilpotent X (since [X, X] = 0)
    a2 = H.scale(Fraction(1, 2)) + X
    assert commutator(a2, X) == X
    assert check_eigenvector_relation(a2, X) == (True, True)


def test_eigenvector_relation_input_checks():
    with pytest.raises(InputError):
        check_eigenvector_relation(H, Sp2Element(0, 0, 0))
    with pytest.raises(InputError):
        check_eigenvector_relation(H, Y)  # [H, Y] = -2Y != Y


def test_normal_form_nilpotent():
    rng = random.Random(4)
    for _ in range(100):
        # random nilpotent: conjugate X by a random invertible matrix,
        # i.e. pick b, then a, c with a^2 = -bc
        a = Fraction(rng.randint(-3, 3))
        b = Fraction(rng.randint(1, 4))
        m = Sp2Element(a, b, -a * a / b)
        tag, nf, g = normal_form(m)
        assert tag == "nilpotent" and nf == X
        gi = inverse_dense(g)
        conj = mat_mul(gi, mat_mul(m.matrix(), g))
        assert conj == X.matrix()


def test_normal_form_semisimple_rational():
    m = Sp2Element(Fraction(5, 4), 1, 1)  # disc = 25/16 + 1 = 41/16: no
    tag, nf, g = normal_form(m)
    assert tag == "semisimple" and nf is None and g is None
    m2 = Sp2Element(0, 1, 1)  # disc = 1
    tag, nf, g = normal_form(m2)
    assert tag == "semisimple" and nf == H
    gi = inverse_dense(g)
    assert mat_mul(gi, mat_mul(m2.matrix(), g)) == H.matrix()


def test_normal_form_zero():
    tag, nf, g = normal_form(Sp2Element(0, 0, 0))
    assert tag == "zero" and nf == Sp2Element(0, 0, 0)
