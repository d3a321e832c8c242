"""Exact cyclotomic arithmetic and quadratic embeddings.

The oracles are classical identities: vanishing sums of roots of unity,
the product of Phi_d over d | e being x^e - 1, Gauss sums squaring to
+-D, and golden-ratio style quadratic values.  Digests pin Phi_e and the
signs of the square roots to the values of the long-division and
Jacobi-symbol forms they replaced.
"""

import hashlib
from fractions import Fraction

import pytest

from ctrz.errors import InputError
from ctrz.exact import (Cyclotomic, cyclotomic_polynomial, sqrt_embedding,
                        QuadraticView, to_quadratic)
from ctrz.modp import prime_factors


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


def test_as_integer_errors_keep_their_text():
    assert rat(-12).as_integer() == -12
    for value, message in ((Cyclotomic.zeta(5), "value is not rational"),
                           (rat(Fraction(1, 2)), "value 1/2 is not an integer"),
                           (rat(Fraction(-3, 2), 4), "value -3/2 is not an integer")):
        with pytest.raises(InputError) as exc:
            value.as_integer()
        assert str(exc.value) == message


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
    """Nothing divides by a cyclotomic; division by a rational stays."""
    z = Cyclotomic.zeta(7)
    with pytest.raises(InputError):
        z ** -1
    with pytest.raises(InputError):
        z / z
    with pytest.raises(TypeError):
        1 / z
    assert z ** 0 == rat(1)
    assert z / Fraction(2, 3) == z * Fraction(3, 2)


def test_powers_square_only_while_bits_remain(monkeypatch):
    """v ** n of an irrational v makes bit_length(n) + popcount(n) - 2
    products, none for n = 0, and equals n - 1 repeated products."""
    for e in (4, 7, 84):
        v = rat(Fraction(1, 2), e) + Cyclotomic.zeta(e) * 3 - Cyclotomic.zeta(e, e // 4)
        assert not v.is_rational()
        repeated = [rat(1, e)]
        for _ in range(30):
            repeated.append(repeated[-1] * v)
        products = 0
        mul = Cyclotomic.__mul__

        def counted(a, b):
            nonlocal products
            products += 1
            return mul(a, b)

        monkeypatch.setattr(Cyclotomic, "__mul__", counted)
        for n in range(31):
            products = 0
            assert v ** n == repeated[n]
            assert products == max(0, n.bit_length() + bin(n).count("1") - 2), (e, n)
        monkeypatch.undo()


def test_division_by_zero_and_a_non_int_exponent_are_refused():
    z = Cyclotomic.zeta(3)
    with pytest.raises(InputError, match="division by zero"):
        z / 0
    with pytest.raises(InputError, match="division by zero"):
        z / Fraction(0, 5)
    for n in (1.5, 2.0, Fraction(1, 2)):
        with pytest.raises(InputError, match="exponent must be an integer"):
            z ** n


def test_a_rational_minus_a_cyclotomic():
    """1 - z goes through __rsub__: the negation of z plus 1."""
    z = Cyclotomic.zeta(3)
    d = 1 - z
    assert (d.conductor, d.coeffs) == (3, (1, -1))
    assert d + z == rat(1)
    assert Fraction(1, 2) - z == -(z - Fraction(1, 2))


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


def test_cyclotomic_polynomials_multiply_to_x_e_minus_one():
    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return out

    for e in range(1, 301):
        acc = [1]
        for d in range(1, e + 1):
            if e % d == 0:
                acc = mul(acc, cyclotomic_polynomial(d))
        assert acc == [-1] + [0] * (e - 1) + [1], e


def test_cyclotomic_polynomial_digest():
    h = hashlib.sha256()
    for e in range(1, 1001):
        h.update(repr(cyclotomic_polynomial(e)).encode())
    assert h.hexdigest()[:16] == "6996ba3006b8abaa"


def test_sqrt_embedding_digest():
    """One embedding per odd squarefree m < 200, sign included."""
    h = hashlib.sha256()
    count = 0
    for m in range(3, 200, 2):
        if any(m % (p * p) == 0 for p in prime_factors(m)):
            continue
        D = m if m % 4 == 1 else -m
        s = sqrt_embedding(D, m)
        h.update(repr((D, s.conductor, s.num, s.den)).encode())
        count += 1
    assert count == 80
    assert h.hexdigest()[:16] == "21dee0a64d247048"


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


def test_reduced_rational_goes_to_conductor_one():
    r = rat(Fraction(-3, 2), 840).reduced()
    assert r.conductor == 1 and r == Fraction(-3, 2)
    assert rat(0, 12).reduced().conductor == 1


def test_reduced_zeta_keeps_its_conductor_unless_2_mod_4():
    for e in range(3, 121):
        want = e // 2 if e % 4 == 2 else e
        assert Cyclotomic.zeta(e).reduced().conductor == want


def test_reduced_finds_the_values_own_field():
    s = sqrt_embedding(-7, 168)
    assert s.reduced().conductor == 7
    assert s.reduced() == s
    assert sqrt_embedding(5, 60).reduced().conductor == 5
    mixed = (Cyclotomic.zeta(4) + Cyclotomic.zeta(3)).lift(84)
    assert mixed.reduced().conductor == 12
    assert mixed.reduced() == mixed
