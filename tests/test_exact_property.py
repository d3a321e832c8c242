"""Property tests of the int storage of Cyclotomic: every operation agrees
with a plain Fraction reference, polynomial arithmetic mod Phi_e, and
every result keeps a positive denominator coprime to its numerators.
The reference reduces by the same long division as exact, and only up
to conductor 120, so the int kernel is also checked, up to the cap,
against identities of Phi_e that do not depend on how it divides."""

from fractions import Fraction
from math import gcd, lcm

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st

from ctrz import exact
from ctrz.errors import InputError
from ctrz.exact import (CYCLOTOMIC_CAP, Cyclotomic, _line, _reduce_poly, _terms,
                        _weighted_sums, cyclotomic_polynomial)


# -- the reference: Fraction coefficient lists, reduced by long division
def ref_reduce(e, poly):
    phi = cyclotomic_polynomial(e)
    deg = len(phi) - 1
    poly = [Fraction(c) for c in poly] + [Fraction(0)] * max(0, deg - len(poly))
    for m in range(len(poly) - 1, deg - 1, -1):
        c = poly[m]
        for j, p in enumerate(phi):  # Phi_e is monic: poly[m] becomes 0
            poly[m - deg + j] -= c * p
    return tuple(poly[:deg])


def ref_mul(e, a, b):
    acc = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            acc[i + j] += x * y
    return ref_reduce(e, acc)


def ref_map(src, dst, coeffs, power):
    # substitute zeta_src -> zeta_dst**(power * dst/src), reduced at dst
    poly = [Fraction(0)] * dst
    for i, c in enumerate(coeffs):
        poly[(i * power * (dst // src)) % dst] += c
    return ref_reduce(dst, poly)


@st.composite
def pairs(draw):
    e = draw(st.integers(min_value=1, max_value=120))
    divisors = [d for d in range(1, e + 1) if e % d == 0]
    out = []
    for _ in range(2):
        m = draw(st.sampled_from(divisors))
        deg = len(cyclotomic_polynomial(m)) - 1
        coeffs = draw(st.lists(
            st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)),
            min_size=deg, max_size=deg))
        out.append((m, coeffs))
    return e, out


def normalized(v):
    return v.den > 0 and gcd(v.den, *v.num) == 1


@settings(max_examples=150, deadline=None)
@given(pairs())
def test_int_storage_matches_the_fraction_reference(case):
    e, ((ma, ca), (mb, cb)) = case
    a, b = Cyclotomic(ma, ca), Cyclotomic(mb, cb)
    assert a.coeffs == tuple(ca) and b.coeffs == tuple(cb)
    assert all(type(c) is Fraction for c in a.coeffs)
    m = lcm(ma, mb)
    ra, rb = ref_map(ma, m, ca, 1), ref_map(mb, m, cb, 1)
    results = {
        "+": (a + b, tuple(x + y for x, y in zip(ra, rb))),
        "-": (a - b, tuple(x - y for x, y in zip(ra, rb))),
        "*": (a * b, ref_mul(m, ra, rb)),
        "scalar": (a * Fraction(-3, 4), tuple(x * Fraction(-3, 4) for x in ca)),
        "conj": (a.conj(), ref_map(ma, ma, ca, -1)),
        "lift": (a.lift(e), ref_map(ma, e, ca, 1)),
    }
    for name, (got, want) in results.items():
        assert got.coeffs == want, name
        assert normalized(got), name
    assert (a + b).conductor == m
    low = a.reduced()
    assert normalized(low) and ma % low.conductor == 0
    assert low.lift(ma).coeffs == tuple(ca)
    assert (a == b) == (ra == rb)
    assert a == a.lift(e)
    assert (a == a * Fraction(1, 2)) == a.is_zero()


@settings(max_examples=30, deadline=None)
@given(pairs())
def test_floats_are_still_refused(case):
    _, ((ma, ca), _) = case
    a = Cyclotomic(ma, ca)
    with pytest.raises(InputError):
        Cyclotomic(ma, [0.5] + list(ca[1:]))
    with pytest.raises(InputError):
        a * 0.5
    with pytest.raises(InputError):
        a + 0.5
    with pytest.raises(InputError):
        0.5 + a


@st.composite
def scalings(draw):
    """A value at a conductor e and a rational: zero, negative and
    fractional ones included."""
    e = draw(st.integers(min_value=1, max_value=120))
    deg = len(cyclotomic_polynomial(e)) - 1
    coeffs = draw(st.one_of(
        st.just([Fraction(0)] * deg),
        st.lists(st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)),
                 min_size=deg, max_size=deg)))
    q = draw(st.one_of(st.just(Fraction(0)),
                       st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))))
    return e, coeffs, q


@seed(20261018)
@settings(max_examples=100, deadline=None, database=None)
@given(scalings())
def test_a_factor_at_conductor_1_scales_the_other(case):
    """A conductor-1 operand multiplies as a scalar, in either order, to
    the product a rational scalar gives."""
    e, coeffs, q = case
    a = Cyclotomic(e, coeffs)
    s = Cyclotomic.from_rational(q, 1)
    want = tuple(x * q for x in coeffs)
    for got in (a * s, s * a):
        assert got.conductor == e
        assert got.coeffs == want
        assert normalized(got)
        assert (got.num, got.den) == ((a * q).num, (a * q).den)
    both = s * Cyclotomic.from_rational(Fraction(coeffs[0]), 1)
    assert both.conductor == 1 and normalized(both)
    assert both.coeffs == (q * coeffs[0],)


@seed(20261019)
@settings(max_examples=100, deadline=None, database=None)
@given(scalings())
def test_powers_are_repeated_products(case):
    """v ** n, for n = 0..12, is n repeated products at v's conductor
    with (num, den) canonical: for a value at e, for the rational q
    stored at e (one step, p^n over q^n) and for q at conductor 1."""
    e, coeffs, q = case
    for v in (Cyclotomic(e, coeffs), Cyclotomic.from_rational(q, e),
              Cyclotomic.from_rational(q, 1)):
        product = Cyclotomic.from_rational(1, v.conductor)
        for n in range(13):
            got = v ** n
            assert got.conductor == v.conductor
            assert (got.num, got.den) == (product.num, product.den)
            assert normalized(got)
            product = product * v


# -- the int kernel against identities that do not share its algorithm
def totient(e):
    return sum(1 for k in range(1, e + 1) if gcd(k, e) == 1)


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


@seed(20261020)
@settings(max_examples=40, deadline=None, database=None)
@pytest.mark.parametrize("fixed", [1, 2, 4, 420, 840, CYCLOTOMIC_CAP, None])
@given(data=st.data())
def test_the_reduction_kernel_keeps_the_identities_of_phi_e(fixed, data):
    """For int polynomials p, q of length at most 2e, e up to the cap:
    _reduce_poly returns phi(e) coefficients, leaves one of degree below
    phi(e) as it is, ignores exponents folded mod e (Phi_e divides
    x^e - 1), and reduces p*q as it reduces the product of the reduced
    p and q, the last both by convolution and through Cyclotomic.  Powers
    of zeta_e multiply by adding exponents."""
    e = fixed or data.draw(st.integers(1, CYCLOTOMIC_CAP), label="e")
    deg = totient(e)
    polys = []
    for name in "pq":
        terms = data.draw(st.dictionaries(st.integers(0, 2 * e - 1),
                                          st.integers(-10**20, 10**20),
                                          max_size=12), label=name)
        polys.append([terms.get(k, 0) for k in range(1 + max(terms, default=0))])
        folded = [0] * e
        for k, c in terms.items():
            folded[k % e] += c
        reduced = _reduce_poly(e, polys[-1])
        assert len(reduced) == deg
        assert _reduce_poly(e, folded) == reduced
        if len(polys[-1]) <= deg:
            assert reduced == polys[-1] + [0] * (deg - len(polys[-1]))
    p, q = polys
    rp, rq = _reduce_poly(e, p), _reduce_poly(e, q)
    want = _reduce_poly(e, convolve(p, q))
    assert _reduce_poly(e, convolve(rp, rq)) == want
    assert (Cyclotomic(e, rp) * Cyclotomic(e, rq)).coeffs == tuple(want)
    k, m = data.draw(st.integers(-2 * e, 2 * e)), data.draw(st.integers(-2 * e, 2 * e))
    assert Cyclotomic.zeta(e, k) * Cyclotomic.zeta(e, m) == Cyclotomic.zeta(e, k + m)


# -- the kernel: weighted sums of two lines against a dense reference
KERNEL_CONDUCTORS = (1, 4, 7, 88, 420)


@st.composite
def kernel_cells(draw, e, rational):
    """A list of values at conductor e, each zero, rational or (unless
    rational) irrational."""
    deg = len(cyclotomic_polynomial(e)) - 1
    frac = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    kinds = ["zero", "rational"] + ([] if rational else ["irrational"])
    cells = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=5)):
        if kind == "zero":
            coeffs = [0] * deg
        elif kind == "rational":
            coeffs = [draw(frac)] + [0] * (deg - 1)
        else:
            coeffs = [0] * deg
            for k in draw(st.lists(st.integers(0, deg - 1), min_size=1, max_size=4)):
                coeffs[k] = draw(frac)
        cells.append(Cyclotomic(e, coeffs))
    return cells


@st.composite
def kernel_cases(draw):
    """(e, a cells, one to three lists of b cells, weights): any line may
    be all rational, so in each pair one side alone, both or neither may
    have higher terms."""
    e = draw(st.sampled_from(KERNEL_CONDUCTORS))
    a = draw(kernel_cells(e, draw(st.booleans())))
    bs = [draw(kernel_cells(e, draw(st.booleans()))) for _ in range(draw(st.integers(1, 3)))]
    n = min(len(a), *map(len, bs))
    weights = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    return e, a[:n], [b[:n] for b in bs], weights


@seed(20261022)
@settings(max_examples=150, deadline=None, database=None)
@given(kernel_cases())
def test_weighted_sum_against_the_dense_product(case):
    """_weighted_sums gives, per line b, the sum of w * a * b over the
    cells, each product multiplied out densely and reduced by long
    division by Phi_e, for lines built from the values and from their
    kept _terms alike."""
    e, a, bs, weights = case
    wants = []
    for b in bs:
        want = [Fraction(0)] * len(a[0].num)
        for s, x, y in zip(weights, a, b):
            want = [u + s * v for u, v in zip(want, ref_mul(e, x.coeffs, y.coeffs))]
        wants.append(want)
    for line in (_line, lambda cells: _line(cells, [_terms(v) for v in cells])):
        sums = _weighted_sums(e, line(a), [line(b) for b in bs], weights)
        assert [[Fraction(x, den) for x in num] for num, den in sums] == wants


def test_weighted_sum_of_rational_lines_reduces_nothing(monkeypatch):
    """A sum with a line whose cells are all rational is one int dot
    product of the constant terms and the higher terms of the other line
    scaled, with no division by Phi_e, at any conductor; one irrational
    cell on each side takes the division.  One call sums a line with an
    irrational cell against a rational line and an irrational one, so
    it divides once."""
    calls = []
    real, z = exact._reduce_poly, Cyclotomic.zeta(7)
    monkeypatch.setattr(exact, "_reduce_poly", lambda *args: calls.append(1) or real(*args))
    a = [Cyclotomic.from_rational(x, 7) for x in (1, -2, 3)]
    b = [Cyclotomic.from_rational(x, 7) for x in (Fraction(1, 2), 5, 0)]
    assert _weighted_sums(7, _line(a), [_line(b)], [1, 3, -2]) == \
        [([1 - 60, 0, 0, 0, 0, 0], 2)]
    assert calls == []
    (num, den), _ = _weighted_sums(7, _line(a[:2] + [z]), [_line(b), _line(b[:2] + [z])],
                                   [1, 3, -2])
    assert (num, den) == ([1 - 60, 0, 0, 0, 0, 0], 2) and calls == [1]
