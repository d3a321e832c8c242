"""Linear algebra over a prime field F_p.

Small dense matrices as lists of int rows, everything reduced mod p.
The eigensplitting in the character table computation only ever needs
row reduction, nullspaces, characteristic polynomials, and root scans,
so that is all there is.  The characteristic polynomial goes through a
Hessenberg reduction, which stays valid for any p (no division by
integers up to n, only by field elements).
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


class PrimeFieldMatrix:
    """A rows x cols matrix over F_p."""

    __slots__ = ("p", "rows")

    def __init__(self, p: int, rows):
        self.p = p
        self.rows = [[x % p for x in row] for row in rows]
        if self.rows and any(len(r) != len(self.rows[0]) for r in self.rows):
            raise InputError("ragged matrix")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.rows[0]) if self.rows else 0

    def mat_vec(self, v: list[int]) -> list[int]:
        p = self.p
        return [sum(a * b for a, b in zip(row, v)) % p for row in self.rows]

    def rref(self) -> tuple[list[list[int]], list[int]]:
        """Reduced row echelon form and its pivot column list."""
        p = self.p
        m = [row[:] for row in self.rows]
        nrows, ncols = self.shape
        pivots = []
        r = 0
        for c in range(ncols):
            piv = next((i for i in range(r, nrows) if m[i][c]), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            inv = pow(m[r][c], p - 2, p)
            m[r] = [(x * inv) % p for x in m[r]]
            for i in range(nrows):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        return m, pivots


def nullspace_mod_p(matrix: PrimeFieldMatrix) -> list[tuple[int, ...]]:
    """Basis of the right nullspace, one vector per free column.

    Deterministic convention: columns scanned ascending; the vector for
    free column f has 1 at f, minus the reduced echelon entry at each
    pivot position, 0 elsewhere.  The zero matrix therefore yields the
    standard basis.
    """
    nrows, ncols = matrix.shape
    rref, pivots = matrix.rref()
    p = matrix.p
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [0] * ncols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-rref[r][f]) % p
        basis.append(tuple(v))
    return basis


def _hessenberg(m: list[list[int]], p: int) -> list[list[int]]:
    a = [row[:] for row in m]
    n = len(a)
    for c in range(n - 2):
        piv = next((r for r in range(c + 1, n) if a[r][c]), None)
        if piv is None:
            continue
        if piv != c + 1:
            a[c + 1], a[piv] = a[piv], a[c + 1]
            for r in range(n):
                a[r][c + 1], a[r][piv] = a[r][piv], a[r][c + 1]
        inv = pow(a[c + 1][c], p - 2, p)
        for r in range(c + 2, n):
            if a[r][c]:
                f = (a[r][c] * inv) % p
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[c + 1])]
                for i in range(n):
                    a[i][c + 1] = (a[i][c + 1] + f * a[i][r]) % p
    return a


def charpoly_mod_p(matrix: PrimeFieldMatrix) -> list[int]:
    """Monic characteristic polynomial det(xI - M) mod p, ascending
    coefficients, via the Hessenberg determinant recurrence."""
    n, ncols = matrix.shape
    if n != ncols:
        raise InputError("characteristic polynomial needs a square matrix")
    p = matrix.p
    if n == 0:
        return [1]
    h = _hessenberg(matrix.rows, p)
    # polys[k] = charpoly of leading k x k block, ascending coeffs
    polys = [[1]]
    for k in range(1, n + 1):
        d = h[k - 1][k - 1]
        term = [(-d * c) % p for c in polys[k - 1]] + [0]
        for i in range(1, len(term)):
            term[i] = (term[i] + polys[k - 1][i - 1]) % p
        prod = 1
        for i in range(k - 1, 0, -1):
            prod = (prod * h[i][i - 1]) % p
            coef = (h[i - 1][k - 1] * prod) % p
            if coef:
                for j, c in enumerate(polys[i - 1]):
                    term[j] = (term[j] - coef * c) % p
        polys.append(term)
    return polys[n]


def poly_roots_mod_p(coeffs: list[int], p: int) -> list[int]:
    """All roots in F_p by exhaustive scan, ascending."""
    roots = []
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
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
