"""Facts the benchmark checks outputs against.

Everything here is known independently of the code under test: group
orders, class-size and degree multisets from the literature or from
closed formulas (partitions and the hook length formula for symmetric
groups), published dimension sequences, and Bell numbers for orbit counts
of highly transitive groups.  Nothing is derived by calling ctrz.
"""

from __future__ import annotations

from collections import Counter
from math import factorial, gcd


def partitions(n: int, largest: int | None = None):
    """Partitions of n as non-increasing tuples."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def symmetric_class_sizes(n: int) -> list[int]:
    """n! / prod(k^m_k m_k!) over cycle types."""
    sizes = []
    for lam in partitions(n):
        denom = 1
        for k, m in Counter(lam).items():
            denom *= k ** m * factorial(m)
        sizes.append(factorial(n) // denom)
    return sorted(sizes)


def symmetric_degrees(n: int) -> list[int]:
    """Irreducible degrees of S_n by the hook length formula."""
    degrees = []
    for lam in partitions(n):
        conj = [sum(1 for part in lam if part > j) for j in range(lam[0])]
        hooks = 1
        for i, part in enumerate(lam):
            for j in range(part):
                hooks *= (part - j - 1) + (conj[j] - i - 1) + 1
        degrees.append(factorial(n) // hooks)
    return sorted(degrees)


def bell(t: int) -> int:
    """Number of set partitions of t items: orbits of a t-transitive
    group on t-tuples."""
    row = [1]
    for _ in range(t):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


# Published dimensions of the centralizer algebras for k = 1..6.
PUBLISHED_DIMS = {
    "g1344-deg8": [2, 16, 342, 14606, 831982, 51656046],
    "g1344-deg14": [3, 82, 7328, 1159392, 217424128, 42262333952],
}

_G1344_SIZES = sorted(1344 // c for c in (1344, 192, 16, 32, 32, 6, 6, 8, 8, 7, 7))
_G1344_DEGREES = sorted([1, 3, 3, 6, 7, 8, 7, 7, 14, 21, 21])

# name -> degree, generators, order, class-size multiset, degree multiset
# (None where the benchmark never computes the table), and the conductor
# of the character field (the smallest m with every value in Q(zeta_m)).
GROUPS = {
    "c2^3": dict(degree=6, generators=["(1,2)", "(3,4)", "(5,6)"], order=8,
                 sizes=[1] * 8, degrees=[1] * 8, field=1),
    "c2xc4": dict(degree=6, generators=["(1,2)", "(3,4,5,6)"], order=8,
                  sizes=[1] * 8, degrees=[1] * 8, field=4),
    "d8": dict(degree=4, generators=["(1,2,3,4)", "(1,3)"], order=8,
               sizes=[1, 1, 2, 2, 2], degrees=[1, 1, 1, 1, 2], field=1),
    "s4": dict(degree=4, generators=["(1,2,3,4)", "(1,2)"], order=24,
               sizes=[1, 3, 6, 6, 8], degrees=[1, 1, 2, 3, 3], field=1),
    "psl(2,7)": dict(degree=7, generators=["(1,2,3,4,5,6,7)", "(2,3)(4,7)"],
                     order=168, sizes=[1, 21, 24, 24, 42, 56],
                     degrees=[1, 3, 3, 6, 7, 8], field=7),
    "g1344-deg8": dict(degree=8, generators=[
        "(5,7)(6,8)", "(2,3,5)(4,7,6)", "(1,2)(3,4)(5,6)(7,8)",
        "(1,5)(2,6)(3,7)(4,8)"], order=1344, sizes=_G1344_SIZES,
        degrees=_G1344_DEGREES, field=7),
    "g1344-deg14": dict(degree=14, generators=[
        "(1,2,3,4,5,6,7)(14,13,12,11,10,9,8)",
        "(1,4,7,9,14,11,8,6)(2,5,13,10)"], order=1344, sizes=_G1344_SIZES,
        degrees=_G1344_DEGREES, field=7),
    "s7": dict(degree=7, generators=["(1,2,3,4,5,6,7)", "(1,2)"], order=5040,
               sizes=symmetric_class_sizes(7), degrees=symmetric_degrees(7),
               field=1),
    "s8": dict(degree=8, generators=["(1,2,3,4,5,6,7,8)", "(1,2)"],
               order=40320, sizes=symmetric_class_sizes(8),
               degrees=symmetric_degrees(8), field=1),
    "m11": dict(degree=11, generators=["(1,2,3,4,5,6,7,8,9,10,11)",
                                       "(3,7,11,8)(4,10,5,6)"], order=7920,
                sizes=sorted([1, 165, 440, 990, 1584, 1320, 990, 990, 720, 720]),
                degrees=sorted([1, 10, 10, 10, 11, 16, 16, 44, 45, 55]),
                field=88),
}

# Largest t for which the group is t-transitive, so that its orbit count
# on t-tuples is the Bell number B(t).
TRANSITIVITY = {"s8": 8, "m11": 4}
