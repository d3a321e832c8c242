"""Exact arithmetic in cyclotomic fields Q(zeta_e).

Elements are coefficient vectors of length phi(e) over the power basis
1, zeta, ..., zeta^(phi(e)-1) reduced modulo the e-th cyclotomic
polynomial, stored as FLINT's fmpq_poly stores a rational polynomial:
one tuple of int numerators over one positive int denominator, with
their gcd divided out once per operation.  Sums, products, powers
(p^n over q^n in one step for a rational p/q), lifts and conjugates
stay in ints; the Fraction coefficients are built only when read.  No
floating point anywhere; float inputs are rejected.

One int kernel serves every product and every sum of chartab and tensor:
_weighted_sums sums one line against many, a line being values at one
conductor over one denominator as a dense int list of constant terms
and sparse int vectors of the higher terms of the cells that have any.
Each sum pairs the constants off as one int dot product and convolves
only the higher terms, dividing by the monic Phi_e only when both lines
have some.  A product is one sum of two one-value lines; only this
module builds or reads a line, the direct route's line of powers too.

Conductors embed upward: zeta_m == zeta_e**(e/m) whenever m divides e,
so mixed-conductor arithmetic lifts both operands to the lcm.  They also
descend: Cyclotomic.reduced rewrites a value at the least conductor
whose field holds it.  Each step down from e to t = e/p, p prime, is a
closed form in ints.  If p divides t, Phi_e(x) = Phi_t(x^p), so the
coordinates at t are every p-th coordinate at e.  Otherwise Q(zeta_e)
has degree p-1 over Q(zeta_t), and a value x of Q(zeta_t) is its
relative trace over p-1; the trace of zeta_e^k is zeta_t^(k*p' mod t),
p' the inverse of p mod t, times p-1 when p divides k and -1 otherwise.
Either way the result is kept only if it lifts back to the value.
Since Q(zeta_a) meets Q(zeta_b) in Q(zeta_gcd(a,b)), the conductors
holding a value are closed under gcd, so stepping down one prime at a
time while a step succeeds finds the least one.  Complex
conjugation is the substitution zeta -> zeta^(e-1).  A value divides
only by a nonzero rational; nothing divides by a cyclotomic.

Phi_e, for e > 1, is the Moebius product over squarefree s | e of
(1 - x^(e/s))^mu(s), multiplied out in ints as a power series of degree
phi(e).  Square roots of squarefree D = 1 (mod 4) embed through the
quadratic Gauss sum over zeta_m, m = |D|: the sum of zeta_m**(t*t) over
t mod m squares to D.  For squarefree m it is the same value as the
sum of (t/m) * zeta_m**t, (t/m) the Jacobi symbol, and it is the
canonical embedding used by to_quadratic.  For D = -7 this constant is
2*(z + z**2 + z**4) + 1 with z = zeta_7.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from .errors import InputError, InconsistencyError
from .modp import prime_factors

CYCLOTOMIC_CAP = 1000


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Coefficients of the e-th cyclotomic polynomial, ascending degree.

    For e > 1 the product over squarefree s | e of (1 - x^(e/s))^mu(s),
    taken as a power series to degree phi(e): multiplying by 1 - x^d
    subtracts the series shifted by d, dividing adds it.  Conductors
    above the cap are refused so a typo in a conductor cannot build a
    huge field.
    """
    if e < 1:
        raise InputError("conductor must be positive")
    if e > CYCLOTOMIC_CAP:
        raise InputError(f"conductor {e} exceeds cap {CYCLOTOMIC_CAP}")
    if e == 1:
        return (-1, 1)
    terms = [(e, 1)]  # (e/s, mu(s)) for every squarefree s | e
    for p in prime_factors(e):
        terms += [(d // p, -mu) for d, mu in terms]
    deg = sum(mu * d for d, mu in terms)  # phi(e)
    out = [1] + [0] * deg
    for d, mu in terms:
        if mu < 0:
            for i in range(d, deg + 1):
                out[i] += out[i - d]
        else:
            for i in range(deg, d - 1, -1):
                out[i] -= out[i - d]
    return tuple(out)


@lru_cache(maxsize=None)
def _field(e: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(deg, terms): the degree of Phi_e and its nonzero terms below
    x^deg as (j, coefficient of x^j); Phi_e is monic."""
    phi = cyclotomic_polynomial(e)
    deg = len(phi) - 1
    return deg, tuple((j, c) for j, c in enumerate(phi[:deg]) if c)


def _reduce_poly(e: int, poly) -> list[int]:
    """An int polynomial in zeta_e, ascending coefficients, reduced mod
    Phi_e to its phi(e) power-basis coefficients: long division, the top
    coefficient c of x^m cleared by subtracting c * x^(m-deg) * Phi_e."""
    deg, terms = _field(e)
    out = list(poly)
    out += [0] * (deg - len(out))
    for m in range(len(out) - 1, deg - 1, -1):
        c = out[m]
        if c:
            shift = m - deg
            for j, p in terms:
                out[shift + j] -= c * p
    del out[deg:]
    return out


def _terms(v) -> list[tuple[int, int]]:
    """v's terms past the constant one as (k, coefficient of zeta**k) over v.den."""
    return [(k, x) for k, x in enumerate(v.num) if x and k]


def _line(cells, own=None) -> tuple[int, list[int], dict]:
    """(den, constants, rest): values at one conductor over their least
    common denominator, every cell's constant term and, per cell c with
    higher terms, its _terms scaled to den, own[c] shared if given."""
    den = lcm(*[v.den for v in cells])
    constants, rest = [], {}
    for c, v in enumerate(cells):
        f = den // v.den
        constants.append(v.num[0] * f)
        if u := (_terms(v) if own is None else own[c]):
            rest[c] = u if f == 1 else [(k, x * f) for k, x in u]
    return den, constants, rest


def _weighted_sums(w: int, a, lines, weights) -> list[tuple[list[int], int]]:
    """(num, den) per line b of lines: the sum of weights[c] * a[c] * b[c]
    at conductor w, a's constant terms weighted once.  The higher terms
    of either line meet the other's constants, and those of both are
    convolved and reduced mod Phi_w."""
    p, a0, ra = a
    wa = list(map(mul, weights, a0))
    # a line at conductor 1 or 2, where Phi has degree 1, has no higher terms
    pad = [0] * (_field(w)[0] - 1 if w > 2 else 0)
    out = []
    for q, b0, rb in lines:
        acc = [sum(map(mul, wa, b0)), *pad]
        if ra or rb:
            if ra and rb:
                acc += pad
            for c, x in ra.items():
                s = weights[c]
                t, y = s * b0[c], rb.get(c, ())
                for k, xk in x:
                    acc[k] += xk * t
                    xk *= s
                    for m, ym in y:
                        acc[k + m] += xk * ym
            for c, y in rb.items():
                t = wa[c]
                for m, ym in y:
                    acc[m] += t * ym
            if ra and rb:
                acc = _reduce_poly(w, acc)
        out.append((acc, p * q))
    return out


def _power_line(e: int, bases, k: int) -> tuple[int, list[int], dict]:
    """The line at conductor e of the k-th powers of bases, each at a
    conductor dividing e.  A rational base p/q, at conductor 1, is p^k
    over q^k and is not lifted, as a line reads only its constant term."""
    if e == 1:  # every base rational: the ints alone
        dens = [f.den ** k for f in bases]
        den = lcm(*dens)
        return den, [f.num[0] ** k * (den // q) for f, q in zip(bases, dens)], {}
    return _line([v if (v := f ** k).conductor == 1 else v.lift(e) for f in bases])


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
        """The same value at the conductor t = e/p, for a prime p, or
        None when Q(zeta_t) does not hold it."""
        e, t, num = self.conductor, conductor, self.num
        p = e // t
        if t % p == 0:
            # Phi_e(x) = Phi_t(x^p): read every p-th coordinate
            down = _from_ints(t, num[::p], self.den)
        else:
            # x = Tr(x)/(p-1), Tr(zeta_e^k) = (p-1 or -1) * zeta_t^(k*p' mod t)
            inv, poly = pow(p, -1, t), [0] * t
            for k, c in enumerate(num):
                if c:
                    poly[k * inv % t] += c * (p - 1) if k % p == 0 else -c
            down = _from_ints(t, _reduce_poly(t, poly), self.den * (p - 1))
        return down if down.lift(e) == self else None

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
        if isinstance(other, Cyclotomic):
            if 1 in (self.conductor, other.conductor):
                # a value at conductor 1 scales the other operand, as a rational does
                a, b = (self, other) if other.conductor == 1 else (other, self)
                return _from_ints(a.conductor, [b.num[0] * x for x in a.num],
                                  a.den * b.den)
        elif isinstance(other, (int, Fraction)):
            p, q = _ratio(other)
            return _from_ints(self.conductor, [p * x for x in self.num], self.den * q)
        a, b = self._pair(other)
        return _from_ints(a.conductor,
                          *_weighted_sums(a.conductor, _line([a]), [_line([b])], [1])[0])

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero rational, the only divisor allowed."""
        p, q = _ratio(other)
        if not p:
            raise InputError("division by zero")
        return self * Fraction(q, p)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise InputError("exponent must be an integer")
        if n < 0:
            raise InputError("exponent must be nonnegative")
        if self.is_rational():  # p^n / q^n, canonical as p / q is
            return _from_ints(self.conductor, (self.num[0] ** n,) + self.num[1:],
                              self.den ** n)
        if n == 0:
            return Cyclotomic.from_rational(1, self.conductor)
        # start from the power at n's lowest set bit and square only while
        # bits remain: bit_length(n) + popcount(n) - 2 products
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        result = base
        n >>= 1
        while n:
            base = base * base
            if n & 1:
                result = result * base
            n >>= 1
        return result

    def conj(self) -> "Cyclotomic":
        """Complex conjugate: substitute zeta -> zeta^(e-1)."""
        e = self.conductor
        poly = [0] * e
        for i, c in enumerate(self.num):
            poly[-i % e] = c
        return _from_ints(e, _reduce_poly(e, poly), self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise InputError("value is not rational")
        return Fraction(self.num[0], self.den)

    def as_integer(self) -> int:
        if self.den == 1 and self.is_rational():
            return self.num[0]
        raise InputError(f"value {self.as_rational()} is not an integer")

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


def sqrt_embedding(D: int, conductor: int) -> Cyclotomic:
    """The canonical square root of D inside Q(zeta_conductor).

    Requires squarefree D = 1 (mod 4), D != 1, with |D| dividing the
    conductor.  Built from the quadratic Gauss sum over zeta_|D|, the
    sum of zeta_|D|**(t*t) over t mod |D|, whose square is D exactly
    when D = 1 (mod 4).
    """
    return QuadraticView(D, 0, 1).to_cyclotomic(conductor).lift(conductor)


@lru_cache(maxsize=None)
def _gauss_sum(D: int) -> Cyclotomic:
    """sqrt(D) at conductor |D|, built once per D within the cap."""
    m = abs(D)
    # the cap refuses |D| before the factoring and the m-term sum
    _field(m)
    if any(m % (p * p) == 0 for p in prime_factors(m)):
        raise InputError(f"no canonical Gauss-sum embedding for D={D}")
    poly = [0] * m
    for t in range(m):
        poly[t * t % m] += 1
    s = _from_ints(m, _reduce_poly(m, poly))
    if s * s != D:
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
        """a + b*sqrt(D) at conductor |D| (1 if b = 0), checked to lie in conductor."""
        if self.D == 1 or self.D % 4 != 1:
            raise InputError(f"no canonical Gauss-sum embedding for D={self.D}")
        if conductor % abs(self.D):
            raise InputError(f"sqrt({self.D}) does not lie in conductor {conductor}")
        root = _gauss_sum(self.D)  # refuses a D that is not squarefree
        return root * self.b + self.a if self.b else Cyclotomic.from_rational(self.a)


def to_quadratic(z: Cyclotomic, D: int) -> QuadraticView | None:
    """Express z as a + b*sqrt(D) if it lies in Q(sqrt(D)), else None:
    b is read off the first coordinate past the constant one where
    sqrt(D) is nonzero, which an irrational sqrt(D) has."""
    if z.is_rational():
        return QuadraticView(D, Fraction(z.num[0], z.den), 0)
    try:
        s = sqrt_embedding(D, z.conductor)
    except InputError:
        return None
    i = next(i for i, c in enumerate(s.num) if i and c)
    b = Fraction(z.num[i] * s.den, z.den * s.num[i])
    rest = z - s * b
    if not rest.is_rational():
        return None
    return QuadraticView(D, Fraction(rest.num[0], rest.den), b)
