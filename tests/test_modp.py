"""Prime-field arithmetic and prime selection.

Polynomials are stored constant-term first, so a monic polynomial of
degree n has coefficient 1 in position n.
"""

import random

import pytest

from ctrz.errors import InputError
from ctrz.modp import (is_prime, prime_factors, poly_roots_mod_p,
                       choose_prime, primitive_root_mod_p)


def test_is_prime_small_range():
    primes = [x for x in range(2, 30) if is_prime(x)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(337)
    assert not is_prime(336)


def test_prime_factors():
    assert prime_factors(336) == [2, 3, 7]
    assert prime_factors(1) == []
    assert prime_factors(84) == [2, 3, 7]


def test_choose_prime_on_both_builtin_shapes():
    """Smallest p = 1 mod exponent with p*p > 4*order.

    For exponent 84 and order 1344 the candidates 85, 169, 253 are
    composite and 337 = 4*84 + 1 is prime with 337^2 well above 5376,
    so 337 is chosen; 168 divides 336 so the same prime serves the
    exponent-168 group.
    """
    assert choose_prime(84, 1344) == 337
    assert choose_prime(168, 1344) == 337


def test_choose_prime_small_cases():
    # Exponent 2, order 2: p = 3 is 1 mod 2 and 9 > 8.
    assert choose_prime(2, 2) == 3
    # Trivial group: every prime is 1 mod 1; p = 2 fails 4 > 4, so 3.
    assert choose_prime(1, 1) == 3
    assert choose_prime(6, 6) == 7
    with pytest.raises(InputError):
        choose_prime(10**7, 2, cap=1000)


def test_poly_roots():
    # x^2 - 1 over F_7.
    assert poly_roots_mod_p([6, 0, 1], 7) == [1, 6]
    # x^2 + 1 over F_7 has no roots.
    assert poly_roots_mod_p([1, 0, 1], 7) == []
    # x^2 + 1 over F_5 has roots 2 and 3.
    assert poly_roots_mod_p([1, 0, 1], 5) == [2, 3]


def _roots_by_definition(coeffs, p):
    return [x for x in range(p)
            if sum(c * pow(x, k, p) for k, c in enumerate(coeffs)) % p == 0]


def _drawn_polynomial(rng, p):
    """Half products of linear factors, whose roots repeat and include 0
    often, scaled by a unit; half free coefficients, of any length and
    the zero polynomial among them.  Coefficients are then shifted by
    multiples of p, and zero coefficients may follow the leading one."""
    if rng.random() < 0.5:
        coeffs = [rng.randrange(1, p)]
        for _ in range(rng.randrange(6)):
            root = rng.choice([0, rng.randrange(p), rng.randrange(p)])
            coeffs = [(a - root * b) % p
                      for a, b in zip([0] + coeffs, coeffs + [0])]
    else:
        coeffs = [rng.randrange(p) for _ in range(rng.randrange(7))]
    coeffs = [c + p * rng.randrange(-2, 3) for c in coeffs]
    return coeffs + [0, p][:rng.randrange(3)]


def test_poly_roots_agree_with_the_definition():
    """The division scan returns exactly the x in F_p with q(x) = 0 mod p,
    ascending and each once, on 3000 drawn polynomials."""
    rng = random.Random(20261020)
    for _ in range(3000):
        p = rng.choice([2, 3, 5, 7, 11, 13, 337])
        coeffs = _drawn_polynomial(rng, p)
        assert poly_roots_mod_p(coeffs, p) == _roots_by_definition(coeffs, p), (
            coeffs, p)
    assert poly_roots_mod_p([], 5) == [0, 1, 2, 3, 4]
    assert poly_roots_mod_p([7, 0, 14], 7) == [0, 1, 2, 3, 4, 5, 6]


def test_primitive_root_has_full_order():
    for p in (7, 13, 337):
        g = primitive_root_mod_p(p)
        for q in prime_factors(p - 1):
            assert pow(g, (p - 1) // q, p) != 1
        assert pow(g, p - 1, p) == 1
