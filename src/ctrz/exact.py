"""Exact arithmetic in cyclotomic fields Q(zeta_e).

Elements are coefficient vectors of length phi(e) over the power basis
1, zeta, ..., zeta^(phi(e)-1) reduced modulo the e-th cyclotomic
polynomial, with Fraction coefficients throughout.  No floating point
anywhere; float inputs are rejected.

Conductors embed upward: zeta_m == zeta_e**(e/m) whenever m divides e,
so mixed-conductor arithmetic lifts both operands to the lcm.  Complex
conjugation is the substitution zeta -> zeta^(e-1).  Division inverts
through the extended Euclidean algorithm against the cyclotomic
polynomial, which is irreducible over Q.

Square roots of squarefree D = 1 (mod 4) embed through the quadratic
Gauss sum over zeta_|D|: the sum of jacobi(t, |D|) * zeta_|D|**t squares
to D, giving the canonical embedding used by to_quadratic.  For D = -7
this constant is 2*(z + z**2 + z**4) + 1 with z = zeta_7.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import InputError, InconsistencyError

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
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


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
    if any(rem[i] for i in range(len(rem))):
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


def _reduce_poly(e: int, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    fld = _field(e)
    deg = fld[0]
    out = list(coeffs[:deg]) + [Fraction(0)] * max(0, deg - len(coeffs))
    for m in range(deg, len(coeffs)):
        c = coeffs[m]
        if c:
            row = _power_row(fld, m - deg)
            for j, r in enumerate(row):
                if r:
                    out[j] += c * r
    return tuple(out)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise InputError(f"exact rational required, got {type(x).__name__}")


class Cyclotomic:
    """An element of Q(zeta_e) as a reduced power-basis coefficient vector."""

    __slots__ = ("conductor", "coeffs")
    __hash__ = None  # cross-conductor equality makes hashing a trap

    def __init__(self, conductor: int, coeffs):
        deg = _field(conductor)[0]
        coeffs = tuple(_as_fraction(c) for c in coeffs)
        if len(coeffs) != deg:
            raise InputError(
                f"conductor {conductor} needs {deg} coefficients, got {len(coeffs)}")
        self.conductor = conductor
        self.coeffs = coeffs

    @classmethod
    def from_rational(cls, value, conductor: int = 1) -> "Cyclotomic":
        v = _as_fraction(value)
        return cls(conductor, (v,) + (Fraction(0),) * (_field(conductor)[0] - 1))

    @classmethod
    def zeta(cls, conductor: int, power: int = 1) -> "Cyclotomic":
        _field(conductor)  # rejects a bad conductor before the modulus
        power %= conductor
        poly = [Fraction(0)] * power + [Fraction(1)]
        return cls(conductor, _reduce_poly(conductor, poly))

    def lift(self, conductor: int) -> "Cyclotomic":
        """Rewrite at a larger conductor; requires self.conductor | conductor."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor:
            raise InputError(
                f"cannot lift conductor {self.conductor} into {conductor}")
        step = conductor // self.conductor
        poly = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            if c:
                poly[i * step] += c
        return Cyclotomic(conductor, _reduce_poly(conductor, poly))

    def _pair(self, other) -> tuple["Cyclotomic", "Cyclotomic"]:
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other, 1)
        if not isinstance(other, Cyclotomic):
            raise InputError(f"cannot combine Cyclotomic with {type(other).__name__}")
        if self.conductor == other.conductor:
            return self, other
        e = lcm(self.conductor, other.conductor)
        if e > CYCLOTOMIC_CAP:
            raise InputError(f"common conductor {e} exceeds cap {CYCLOTOMIC_CAP}")
        return self.lift(e), other.lift(e)

    def __add__(self, other):
        a, b = self._pair(other)
        return Cyclotomic(a.conductor, (x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, (-x for x in self.coeffs))

    def __sub__(self, other):
        a, b = self._pair(other)
        return Cyclotomic(a.conductor, (x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            v = _as_fraction(other)
            return Cyclotomic(self.conductor, (v * c for c in self.coeffs))
        a, b = self._pair(other)
        deg = len(a.coeffs)
        acc = [Fraction(0)] * (2 * deg - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        acc[i + j] += x * y
        return Cyclotomic(a.conductor, _reduce_poly(a.conductor, acc))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise InputError("division by zero")
        phi = [Fraction(c) for c in _field(self.conductor)[1]]
        # extended gcd of self against Phi_e over Q[x]; gcd is a nonzero constant
        r0, r1 = phi, list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            while len(r1) > 1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                break
            q, rem = _frac_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _frac_sub(s0, _poly_mul(q, s1))
        if not r1[0]:
            raise InconsistencyError("unit inversion hit a zero gcd")
        inv_const = 1 / r1[0]
        coeffs = [c * inv_const for c in s1]
        return Cyclotomic(self.conductor, _reduce_poly(self.conductor, coeffs))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            v = _as_fraction(other)
            if not v:
                raise InputError("division by zero")
            return self * (1 / v)
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

    def conj(self) -> "Cyclotomic":
        """Complex conjugate: substitute zeta -> zeta^(e-1)."""
        e = self.conductor
        poly = [Fraction(0)] * e
        for i, c in enumerate(self.coeffs):
            if c:
                poly[(-i) % e] += c
        return Cyclotomic(e, _reduce_poly(e, poly))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise InputError("value is not rational")
        return self.coeffs[0]

    def as_integer(self) -> int:
        r = self.as_rational()
        if r.denominator != 1:
            raise InputError(f"value {r} is not an integer")
        return r.numerator

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if self.conductor == other.conductor:
            return self.coeffs == other.coeffs
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __repr__(self) -> str:
        return f"Cyclotomic({self.conductor}, {[str(c) for c in self.coeffs]})"


def _frac_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    while len(den) > 1 and not den[-1]:
        den = den[:-1]
    dd = len(den) - 1
    lead = den[-1]
    q = [Fraction(0)] * max(1, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        if num[i]:
            c = num[i] / lead
            q[i - dd] = c
            for j, y in enumerate(den):
                num[i - dd + j] -= c * y
    while len(num) > 1 and not num[-1]:
        num.pop()
    return q, num


def _frac_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    for j, y in enumerate(b):
        a[j] -= y
    return a


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
        self.a = _as_fraction(a)
        self.b = _as_fraction(b)

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

