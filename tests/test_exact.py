"""Exact cyclotomic arithmetic and quadratic embeddings.

The oracles are classical identities: vanishing sums of roots of unity,
Gauss sums squaring to +-D, and golden-ratio style quadratic values.
"""

from fractions import Fraction

import pytest

from ctrz.errors import InputError
from ctrz.exact import (Cyclotomic, jacobi, sqrt_embedding, QuadraticView,
                        to_quadratic, quadratic_candidates)


def rat(x, conductor=1):
    return Cyclotomic.from_rational(x, conductor)


def test_zeta3_satisfies_its_minimal_polynomial():
    z = Cyclotomic.zeta(3)
    assert (z * z + z + rat(1)).is_zero()


def test_zeta4_squares_to_minus_one():
    z = Cyclotomic.zeta(4)
    assert z * z == rat(-1)


def test_full_sum_of_roots_vanishes():
    for e in (2, 3, 4, 5, 6, 7, 12):
        total = rat(0, e)
        for k in range(e):
            total = total + Cyclotomic.zeta(e, k)
        assert total.is_zero()


def test_zeta_power_wraps_mod_conductor():
    assert Cyclotomic.zeta(7, 9) == Cyclotomic.zeta(7, 2)
    assert Cyclotomic.zeta(7, -1) == Cyclotomic.zeta(7, 6)


def test_equality_lifts_across_conductors():
    assert Cyclotomic.zeta(2) == rat(-1)
    assert Cyclotomic.zeta(6) ** 3 == rat(-1)
    assert Cyclotomic.zeta(2) * Cyclotomic.zeta(3) == Cyclotomic.zeta(6, 5)


def test_lift_preserves_value():
    z = Cyclotomic.zeta(3)
    w = z.lift(12)
    assert w.conductor == 12
    assert w == z
    with pytest.raises(InputError):
        z.lift(4)


def test_rational_detection():
    assert rat(Fraction(3, 4)).is_rational()
    assert rat(Fraction(3, 4)).as_rational() == Fraction(3, 4)
    z = Cyclotomic.zeta(5)
    assert not z.is_rational()
    with pytest.raises(InputError):
        z.as_rational()
    assert (z + rat(2, 5) - z).as_rational() == 2
    assert rat(7).as_integer() == 7
    with pytest.raises(InputError):
        rat(Fraction(1, 2)).as_integer()


def test_from_rational_rejects_floats():
    with pytest.raises(InputError):
        Cyclotomic.from_rational(1.5)


def test_wrong_coefficient_count_rejected():
    # A conductor-4 value has phi(4) = 2 coefficients, no more.
    with pytest.raises(InputError):
        Cyclotomic(4, [1, 0, 0])


def test_arithmetic_mixed_conductors():
    a = Cyclotomic.zeta(4)
    b = Cyclotomic.zeta(3)
    c = a * b
    assert c.conductor == 12
    assert c == Cyclotomic.zeta(12, 7)


def test_negative_powers():
    z = Cyclotomic.zeta(7)
    assert z ** -1 == Cyclotomic.zeta(7, 6)
    assert z ** 0 == rat(1)


def test_inverse():
    for v in (Cyclotomic.zeta(3), rat(Fraction(-2, 5)),
              Cyclotomic.zeta(8) + rat(2, 8)):
        assert v.inverse() * v == rat(1)
    with pytest.raises(InputError):
        rat(0).inverse()


def test_conjugation():
    z = Cyclotomic.zeta(7)
    assert z.conj() == Cyclotomic.zeta(7, 6)
    # |(-1+sqrt(-7))/2|^2 = (1 + 7)/4 = 2.
    v = (rat(-1, 7) + sqrt_embedding(-7, 7)) * rat(Fraction(1, 2), 7)
    assert (v * v.conj()).as_rational() == 2
    assert rat(Fraction(2, 3)).conj() == rat(Fraction(2, 3))


def test_sqrt_embedding_squares_back():
    """Gauss sums: the embedded square root really squares to D."""
    for D, conductor in ((-7, 7), (-3, 3), (5, 5), (21, 21), (-7, 84), (21, 84)):
        s = sqrt_embedding(D, conductor)
        assert s * s == rat(D, conductor)


def test_sqrt_embedding_needs_compatible_conductor():
    with pytest.raises(InputError):
        sqrt_embedding(-7, 5)


def test_jacobi_symbol():
    assert jacobi(2, 7) == 1
    assert jacobi(3, 7) == -1
    assert jacobi(3, 5) == -1
    assert jacobi(4, 15) == 1
    assert jacobi(0, 3) == 0


def test_quadratic_candidates():
    """Squarefree divisors d > 1 of the conductor contribute the D with
    D = d or -d chosen so that D = 1 mod 4 splits correctly; 84 and 168
    both give -3, -7, 21, and the conductor 30 gives -3, 5, -15."""
    assert quadratic_candidates(84) == [-3, -7, 21]
    assert quadratic_candidates(168) == [-3, -7, 21]
    assert quadratic_candidates(30) == [-3, 5, -15]
    assert quadratic_candidates(1) == []


def test_to_quadratic_round_trip():
    s = sqrt_embedding(-7, 84)
    v = (rat(-1, 84) + s) * rat(Fraction(1, 2), 84)
    q = to_quadratic(v, -7)
    assert q is not None
    assert (q.D, q.a, q.b) == (-7, Fraction(-1, 2), Fraction(1, 2))
    assert q.to_cyclotomic(84) == v


def test_to_quadratic_rational_case():
    q = to_quadratic(rat(Fraction(5, 3), 12), -3)
    assert q is not None and q.b == 0 and q.a == Fraction(5, 3)


def test_to_quadratic_rejects_outside_field():
    assert to_quadratic(Cyclotomic.zeta(7), -7) is None


def test_quadratic_view_strings():
    assert str(QuadraticView(-7, Fraction(-1, 2), Fraction(1, 2))) == "(-1+√-7)/2"
    assert str(QuadraticView(-7, Fraction(-1, 2), Fraction(-1, 2))) == "(-1-√-7)/2"
    assert str(QuadraticView(-7, Fraction(0), Fraction(-1))) == "-√-7"
    assert str(QuadraticView(5, Fraction(1, 3), Fraction(-2, 3))) == "(1-2√5)/3"
    assert str(QuadraticView(5, Fraction(3, 2), Fraction(0))) == "3/2"
