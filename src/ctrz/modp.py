"""Arithmetic over a prime field F_p.

The choice of the prime, its primitive root and the roots of a
polynomial in F_p, found by scanning the field and dividing out each
root found: all the eigensplit of the character table computation
needs beside its own Krylov vectors.
"""

from __future__ import annotations

from math import isqrt

from .errors import InputError, InconsistencyError


def is_prime(n: int) -> bool:
    return prime_factors(n) == [n]


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def poly_roots_mod_p(coeffs: list[int], p: int) -> list[int]:
    """All roots in F_p, ascending, each once; every x for the zero
    polynomial.  The scan divides q by (t - x) at each root x, as often
    as x is one, and stops once q is a nonzero constant, or linear, with
    its one root above every root found."""
    q = [c % p for c in coeffs]
    while q and not q[-1]:
        q.pop()
    if not q:
        return list(range(p))

    def divided(q, x):  # (q / (t - x), q(x)), constant term first
        acc, out = 0, []
        for c in reversed(q):
            acc = (acc * x + c) % p
            out.append(acc)
        return out[-2::-1], acc

    roots = []
    for x in range(p):
        if len(q) <= 2:
            break
        value = 0
        for c in reversed(q):
            value = (value * x + c) % p
        if value:
            continue
        roots.append(x)
        quotient, value = divided(q, x)
        while not value:  # x as often as it is a root
            q = quotient
            quotient, value = divided(q, x)
    if len(q) == 2:
        roots.append(-q[0] * pow(q[1], p - 2, p) % p)
    return roots


def choose_prime(exponent: int, order: int, cap: int = 10**6) -> int:
    """Smallest prime p with p = 1 (mod exponent) and p > 2*sqrt(order).

    The congruence makes F_p contain all needed roots of unity; the size
    bound makes character degrees and digit lifts unambiguous.
    """
    if exponent < 1 or order < 1:
        raise InputError("exponent and order must be positive")
    # strict bound p > 2*sqrt(order), checked as p*p > 4*order exactly
    p = max(2, isqrt(4 * order))
    while True:
        p += 1
        if p > cap:
            raise InputError(f"no suitable prime below cap {cap}")
        if p % exponent == 1 % exponent and p * p > 4 * order and is_prime(p):
            return p


def primitive_root_mod_p(p: int) -> int:
    """Smallest primitive root of F_p*, by direct order checks."""
    if p == 2:
        return 1
    factors = prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise InconsistencyError(f"no primitive root found mod {p}")
