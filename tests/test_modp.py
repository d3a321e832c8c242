"""Prime-field linear algebra and prime selection.

Characteristic polynomials are stored constant-term first, so a monic
polynomial of degree n has coefficient 1 in position n.
"""

import pytest

from ctrz.errors import InputError
from ctrz.modp import (is_prime, prime_factors, nullspace_mod_p,
                       charpoly_mod_p, poly_roots_mod_p, choose_prime,
                       primitive_root_mod_p)


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


def test_charpoly_identity():
    m = [[1, 0], [0, 1]]
    # (x - 1)^2 = x^2 - 2x + 1, reduced mod 5.
    assert charpoly_mod_p(m, 5) == [1, 3, 1]


def test_charpoly_companion_matrix():
    # Companion matrix of x^2 + 1 over F_7.
    c = [[0, 1], [6, 0]]
    assert charpoly_mod_p(c, 7) == [1, 0, 1]


def test_charpoly_small_prime_large_dimension():
    """The Hessenberg recurrence must stay correct when p <= n."""
    c = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    # x^3 - 1 mod 3.
    assert charpoly_mod_p(c, 3) == [2, 0, 0, 1]
    d = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    # (x - 1)^3 = x^3 + x^2 + x + 1 mod 2.
    assert charpoly_mod_p(d, 2) == [1, 1, 1, 1]


def test_charpoly_matches_trace_and_determinant():
    rows = [[2, 5, 1], [0, 3, 4], [6, 1, 2]]
    p = 11
    coeffs = charpoly_mod_p(rows, p)
    trace = sum(rows[i][i] for i in range(3)) % p
    det = (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
           - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
           + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])) % p
    assert coeffs[3] == 1
    assert coeffs[2] == (-trace) % p
    assert coeffs[0] == (-det) % p


def test_poly_roots():
    # x^2 - 1 over F_7.
    assert poly_roots_mod_p([6, 0, 1], 7) == [1, 6]
    # x^2 + 1 over F_7 has no roots.
    assert poly_roots_mod_p([1, 0, 1], 7) == []
    # x^2 + 1 over F_5 has roots 2 and 3.
    assert poly_roots_mod_p([1, 0, 1], 5) == [2, 3]


def test_nullspace_simple_rank_one():
    n = nullspace_mod_p([[1, 2], [2, 4]], 5)
    assert len(n) == 1
    v = n[0]
    assert (v[0] + 2 * v[1]) % 5 == 0
    assert v != (0, 0)


def test_nullspace_dimensions():
    full = nullspace_mod_p([[1, 0], [0, 1]], 7)
    assert full == []
    zero = nullspace_mod_p([[0, 0], [0, 0]], 7)
    assert len(zero) == 2
    for v in zero:
        assert any(x % 7 for x in v)


def test_nullspace_vectors_annihilate():
    m = [[1, 2, 3], [4, 5, 6], [5, 7, 9]]
    p = 11
    basis = nullspace_mod_p(m, p)
    assert len(basis) == 1
    for v in basis:
        for row in m:
            assert sum(r * x for r, x in zip(row, v)) % p == 0


def test_primitive_root_has_full_order():
    for p in (7, 13, 337):
        g = primitive_root_mod_p(p)
        for q in prime_factors(p - 1):
            assert pow(g, (p - 1) // q, p) != 1
        assert pow(g, p - 1, p) == 1
