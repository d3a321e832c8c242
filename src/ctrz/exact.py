"""Exact arithmetic in cyclotomic fields Q(zeta_e).

Elements are coefficient vectors of length phi(e) over the power basis
1, zeta, ..., zeta^(phi(e)-1) reduced modulo the e-th cyclotomic
polynomial, stored as FLINT's fmpq_poly stores a rational polynomial:
one tuple of int numerators over one positive int denominator, with
their gcd divided out once per operation.  Sums, products (an int
convolution reduced by cached int rows of x^k mod Phi_e), lifts and
conjugates stay in ints; the Fraction coefficients are built only when
read.  No floating point anywhere; float inputs are rejected.

Conductors embed upward: zeta_m == zeta_e**(e/m) whenever m divides e,
so mixed-conductor arithmetic lifts both operands to the lcm.  They also
descend: Cyclotomic.reduced rewrites a value at the least conductor
whose field holds it.  Each step down from e to e/p solves the integer
lift matrix of Q(zeta_(e/p)) into Q(zeta_e) exactly and keeps the result
only if it lifts back to the value (T. Breuer, "Integral bases for
subfields of cyclotomic fields", AAECC 8, 1997, for the subfield view).
Since Q(zeta_a) meets Q(zeta_b) in Q(zeta_gcd(a,b)), the conductors
holding a value are closed under gcd, so stepping down one prime at a
time while a step succeeds finds the least one.  Complex
conjugation is the substitution zeta -> zeta^(e-1).  Division multiplies
by the other Galois conjugates zeta -> zeta^j, j prime to e, and divides
by the norm, their product with the value: a rational, nonzero for a
nonzero value because Phi_e is irreducible over Q.

Square roots of squarefree D = 1 (mod 4) embed through the quadratic
Gauss sum over zeta_|D|: the sum of jacobi(t, |D|) * zeta_|D|**t squares
to D, giving the canonical embedding used by to_quadratic.  For D = -7
this constant is 2*(z + z**2 + z**4) + 1 with z = zeta_7.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

from .errors import InputError, InconsistencyError
from .modp import prime_factors

CYCLOTOMIC_CAP = 1000


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return out


def _poly_divmod_monic(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # den must be monic; exact division over Z
    num = list(num)
    dd = len(den) - 1
    q = [0] * max(1, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            q[i - dd] = c
            for j, y in enumerate(den):
                num[i - dd + j] -= c * y
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted({x for d in small for x in (d, n // d)})


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int, cap: int = CYCLOTOMIC_CAP) -> tuple[int, ...]:
    """Coefficients of the e-th cyclotomic polynomial, ascending degree.

    Computed by exact division: Phi_e = (x^e - 1) / prod of Phi_d over
    proper divisors d of e.  Degrees above the cap are refused so a typo
    in a conductor cannot trigger a huge recursion.
    """
    if e < 1:
        raise InputError("conductor must be positive")
    if e > cap:
        raise InputError(f"conductor {e} exceeds cap {cap}")
    if e == 1:
        return (-1, 1)
    num = [0] * (e + 1)
    num[0], num[e] = -1, 1
    den = [1]
    for d in _divisors(e)[:-1]:
        den = _poly_mul(den, list(cyclotomic_polynomial(d, cap)))
    q, rem = _poly_divmod_monic(num, den)
    if any(rem):
        raise InconsistencyError("cyclotomic polynomial division left a remainder")
    return tuple(q)


@lru_cache(maxsize=None)
def _field(e: int) -> tuple[int, tuple[int, ...], list[tuple[int, ...]]]:
    """Per-conductor reduction data (deg, phi, rows): the degree of
    Phi_e, its coefficients, and rows[m], the coefficient vector of
    x^(deg+m) reduced mod Phi_e, extended on demand by _power_row."""
    phi = cyclotomic_polynomial(e)
    return len(phi) - 1, phi, []


def _power_row(fld, m: int) -> tuple[int, ...]:
    # x^(deg + m) mod Phi_e as an int vector of length deg
    deg, phi, rows = fld
    while len(rows) <= m:
        if not rows:
            prev = [0] * deg + [1]          # x^deg, about to be reduced
        else:
            prev = [0] + list(rows[-1])     # shift x^(deg+k) -> x^(deg+k+1)
        top = prev[deg] if len(prev) > deg else 0
        vec = prev[:deg] + [0] * (deg - len(prev[:deg]))
        if top:
            for j in range(deg):
                vec[j] -= top * phi[j]
        rows.append(tuple(vec))
    return rows[m]


def _reduce_poly(e: int, poly: list) -> list:
    """An int polynomial in zeta_e, ascending coefficients, reduced mod
    Phi_e to its phi(e) power-basis coefficients."""
    fld = _field(e)
    deg = fld[0]
    out = list(poly[:deg]) + [0] * max(0, deg - len(poly))
    for m in range(deg, len(poly)):
        c = poly[m]
        if c:
            for j, r in enumerate(_power_row(fld, m - deg)):
                if r:
                    out[j] += c * r
    return out


@lru_cache(maxsize=None)
def _descent(t: int, e: int) -> tuple[tuple[tuple[tuple[int, int], ...], ...], int]:
    """How to read a value of Q(zeta_e) back at a conductor t dividing e.

    The lift zeta_t -> zeta_e**(e/t) is an integer matrix L with phi(t)
    columns and one row per power-basis coordinate at e.  Row reducing
    [L^T | I] picks phi(t) coordinates R where L is invertible and leaves
    the inverse of L[R] transposed on the right.  The result is (rows,
    scale): row i lists the (coordinate at e, integer weight) pairs whose
    weighted sum, divided by scale, is coefficient i at t, provided the
    value lies in Q(zeta_t) at all.
    """
    fld = _field(e)
    deg, step, n = fld[0], e // t, _field(t)[0]
    rows = []
    for i in range(n):
        k = i * step
        col = [int(j == k) for j in range(deg)] if k < deg else _power_row(fld, k - deg)
        rows.append([Fraction(x) for x in col] + [Fraction(int(i == j)) for j in range(n)])
    pivots = []
    for c in range(deg):
        r = len(pivots)
        if r == n:
            break
        pick = next((i for i in range(r, n) if rows[i][c]), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    scale = lcm(*(x.denominator for row in rows for x in row[deg:]))
    return tuple(tuple((pivots[k], int(rows[k][deg + i] * scale))
                       for k in range(n) if rows[k][deg + i])
                 for i in range(n)), scale


def _ratio(x) -> tuple[int, int]:
    """(numerator, positive denominator) of an exact rational."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise InputError(f"exact rational required, got {type(x).__name__}")


def _from_ints(conductor: int, num, den: int = 1) -> "Cyclotomic":
    """The value num/den at a conductor, num an int vector already
    reduced mod Phi_conductor and den positive; divides out
    gcd(den, *num) so equal values have equal (num, den)."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
    v = object.__new__(Cyclotomic)
    v.conductor = conductor
    v.num = tuple(num)
    v.den = den
    return v


class Cyclotomic:
    """An element of Q(zeta_e) as a reduced power-basis vector: the int
    numerators num over one positive denominator den, with
    gcd(den, *num) == 1."""

    __slots__ = ("conductor", "num", "den")
    __hash__ = None  # cross-conductor equality makes hashing a trap

    def __init__(self, conductor: int, coeffs):
        deg = _field(conductor)[0]
        pairs = [_ratio(c) for c in coeffs]
        if len(pairs) != deg:
            raise InputError(
                f"conductor {conductor} needs {deg} coefficients, got {len(pairs)}")
        den = lcm(*(q for _, q in pairs))
        self.conductor = conductor
        self.num = tuple(p * (den // q) for p, q in pairs)
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.num)

    @classmethod
    def from_rational(cls, value, conductor: int = 1) -> "Cyclotomic":
        p, q = _ratio(value)
        return _from_ints(conductor, (p,) + (0,) * (_field(conductor)[0] - 1), q)

    @classmethod
    def zeta(cls, conductor: int, power: int = 1) -> "Cyclotomic":
        _field(conductor)  # rejects a bad conductor before the modulus
        power %= conductor
        return _from_ints(conductor, _reduce_poly(conductor, [0] * power + [1]))

    def lift(self, conductor: int) -> "Cyclotomic":
        """Rewrite at a larger conductor; requires self.conductor | conductor."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor:
            raise InputError(
                f"cannot lift conductor {self.conductor} into {conductor}")
        step = conductor // self.conductor
        poly = [0] * ((len(self.num) - 1) * step + 1)
        for i, c in enumerate(self.num):
            poly[i * step] = c
        return _from_ints(conductor, _reduce_poly(conductor, poly), self.den)

    def _descend(self, conductor: int) -> "Cyclotomic | None":
        """The same value at a conductor dividing this one, or None when
        Q(zeta_conductor) does not hold it."""
        rows, scale = _descent(conductor, self.conductor)
        num = self.num
        down = _from_ints(conductor, [sum(w * num[j] for j, w in row) for row in rows],
                          self.den * scale)
        return down if down.lift(self.conductor) == self else None

    def reduced(self) -> "Cyclotomic":
        """The same value at its least conductor: 1 for a rational, else
        the smallest m whose field Q(zeta_m) holds it (never 2 mod 4)."""
        if self.is_rational():
            return _from_ints(1, self.num[:1], self.den)
        v = self
        while True:
            for p in prime_factors(v.conductor):
                down = v._descend(v.conductor // p)
                if down is not None:
                    v = down
                    break
            else:
                return v

    def _pair(self, other) -> tuple["Cyclotomic", "Cyclotomic"]:
        # Cyclotomic is tested first: isinstance against the abstract
        # Fraction costs far more than against a plain class
        if not isinstance(other, Cyclotomic):
            if isinstance(other, (int, Fraction)):
                return self, Cyclotomic.from_rational(other, self.conductor)
            raise InputError(f"cannot combine Cyclotomic with {type(other).__name__}")
        if self.conductor == other.conductor:
            return self, other
        e = lcm(self.conductor, other.conductor)
        if e > CYCLOTOMIC_CAP:
            raise InputError(f"common conductor {e} exceeds cap {CYCLOTOMIC_CAP}")
        return self.lift(e), other.lift(e)

    def __add__(self, other):
        a, b = self._pair(other)
        p, q = a.den, b.den
        return _from_ints(a.conductor, [x * q + y * p for x, y in zip(a.num, b.num)],
                          p * q)

    __radd__ = __add__

    def __neg__(self):
        return _from_ints(self.conductor, [-x for x in self.num], self.den)

    def __sub__(self, other):
        a, b = self._pair(other)
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Cyclotomic) and isinstance(other, (int, Fraction)):
            p, q = _ratio(other)
            return _from_ints(self.conductor, [p * x for x in self.num], self.den * q)
        a, b = self._pair(other)
        an, bn = a.num, b.num
        acc = [0] * (2 * len(an) - 1)
        for i, x in enumerate(an):
            if x:
                for j, y in enumerate(bn):
                    if y:
                        acc[i + j] += x * y
        return _from_ints(a.conductor, _reduce_poly(a.conductor, acc), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """1/self: the product of the other Galois conjugates divided by
        the norm, the product of all of them, a nonzero rational."""
        if self.is_zero():
            raise InputError("division by zero")
        e = self.conductor
        others = Cyclotomic.from_rational(1, e)
        for j in range(2, e):
            if gcd(j, e) == 1:
                others = others * self._galois(j)
        return others / (self * others).as_rational()

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = _ratio(other)
            if not p:
                raise InputError("division by zero")
            return self * Fraction(q, p)
        a, b = self._pair(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return Cyclotomic.from_rational(other, 1) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise InputError("exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        result = Cyclotomic.from_rational(1, self.conductor)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def _galois(self, j: int) -> "Cyclotomic":
        """The image under zeta -> zeta^j, for j prime to the conductor."""
        e = self.conductor
        poly = [0] * e
        for i, c in enumerate(self.num):
            poly[i * j % e] = c
        return _from_ints(e, _reduce_poly(e, poly), self.den)

    def conj(self) -> "Cyclotomic":
        """Complex conjugate: substitute zeta -> zeta^(e-1)."""
        return self._galois(self.conductor - 1)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise InputError("value is not rational")
        return Fraction(self.num[0], self.den)

    def as_integer(self) -> int:
        r = self.as_rational()
        if self.den != 1:
            raise InputError(f"value {r} is not an integer")
        return self.num[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, Cyclotomic):
            a, b = self._pair(other)
            return a.num == b.num and a.den == b.den
        if isinstance(other, (int, Fraction)):
            p, q = _ratio(other)
            return self.is_rational() and self.num[0] * q == p * self.den
        return NotImplemented

    def __repr__(self) -> str:
        return f"Cyclotomic({self.conductor}, {[str(c) for c in self.coeffs]})"


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n."""
    if n <= 0 or n % 2 == 0:
        raise InputError("jacobi symbol needs odd positive n")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        if n % d == 0:
            n //= d
        d += 1
    return True


def sqrt_embedding(D: int, conductor: int) -> Cyclotomic:
    """The canonical square root of D inside Q(zeta_conductor).

    Requires squarefree D = 1 (mod 4), D != 1, with |D| dividing the
    conductor.  Built from the quadratic Gauss sum over zeta_|D|, whose
    square is D exactly when D = 1 (mod 4).
    """
    m = abs(D)
    if D == 1 or D == 0 or D % 4 != 1 or not _is_squarefree(m):
        raise InputError(f"no canonical Gauss-sum embedding for D={D}")
    if conductor % m:
        raise InputError(f"sqrt({D}) does not lie in conductor {conductor}")
    total = Cyclotomic.from_rational(0, m)
    for t in range(1, m):
        j = jacobi(t, m)
        if j:
            total = total + Cyclotomic.zeta(m, t) * j
    s = total.lift(conductor)
    if s * s != Cyclotomic.from_rational(D, conductor):
        raise InconsistencyError("Gauss sum failed to square to D")
    return s


class QuadraticView:
    """A value presented as a + b*sqrt(D) with exact rational a, b."""

    __slots__ = ("D", "a", "b")

    def __init__(self, D: int, a, b):
        self.D = D
        self.a = Fraction(*_ratio(a))
        self.b = Fraction(*_ratio(b))

    def __eq__(self, other):
        return (isinstance(other, QuadraticView)
                and (self.D, self.a, self.b) == (other.D, other.a, other.b))

    def __repr__(self):
        return f"QuadraticView(D={self.D}, a={self.a}, b={self.b})"

    def __str__(self):
        if not self.b:
            return str(self.a)
        den = lcm(self.a.denominator, self.b.denominator)
        p, q = self.a * den, self.b * den
        root = f"√{self.D}"
        if q == 1:
            surd = root
        elif q == -1:
            surd = "-" + root
        else:
            surd = f"{q}{root}"
        if not p:
            body = surd
        elif q > 0:
            body = f"{p}+{surd}"
        else:
            body = f"{p}{surd}"
        return body if den == 1 else f"({body})/{den}"

    def to_cyclotomic(self, conductor: int) -> Cyclotomic:
        s = sqrt_embedding(self.D, conductor)
        return s * self.b + Fraction(self.a)


def to_quadratic(z: Cyclotomic, D: int) -> QuadraticView | None:
    """Express z as a + b*sqrt(D) if it lies in Q(sqrt(D)), else None."""
    if z.is_rational():
        return QuadraticView(D, z.coeffs[0], 0)
    try:
        s = sqrt_embedding(D, z.conductor)
    except InputError:
        return None
    sc, zc = s.coeffs, z.coeffs
    b = None
    for i in range(1, len(sc)):
        if sc[i]:
            b = zc[i] / sc[i]
            break
    if b is None:
        return None
    rest = z - s * b
    if not rest.is_rational():
        return None
    return QuadraticView(D, rest.coeffs[0], b)


def quadratic_candidates(conductor: int) -> list[int]:
    """Squarefree D = 1 (mod 4) whose sqrt lies in Q(zeta_conductor),
    ordered by |D| then sign, for display and serialization choices."""
    out = []
    for m in _divisors(conductor):
        if m < 3 or m % 2 == 0 or not _is_squarefree(m):
            continue
        for D in (m, -m):
            if D % 4 == 1:
                out.append(D)
    return sorted(set(out), key=lambda d: (abs(d), d))

