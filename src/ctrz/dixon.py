"""Exact character tables from the class algebra, computed modulo a prime.

Pipeline: the class multiplication constants a[i][j][k] count, for fixed
z in class k, the pairs (x, y) in C_i x C_j with x*y == z.  The matrices
M_i with (M_i)[j][k] = a[i][j][k] commute, and their simultaneous
eigenvectors mod a well-chosen prime p are, after normalizing the entry
at the identity class to 1, exactly the vectors of class-sum eigenvalues
omega_i = |C_i| chi(g_i) / chi(1) reduced mod p, one per irreducible
character chi.  The split keeps one vector per common eigenspace,
starting from the unit vector at the identity class, and splits each
by the minimal polynomial of the next M_i on it until it keeps r
vectors, so only the matrices it uses are built, M_i at |C_i| * r
products (J. D. Dixon, Numer. Math. 10 (1967) 446-450; G. J. A.
Schneider, J. Symbolic Comput. 9 (1990) 601-606).  It takes M_i in
class order, smallest class first, until one splits no kept vector;
from then on the next is the smallest unbuilt class with a twin,
none of whose twins is built yet, classes that a power map moves
first, and class order again once no such class is left.  Twins are
classes of one shape: the same size and element order, and so for
the class of each power g**t.  Two characters that a Galois or an
outer automorphism swaps agree on every class it fixes, and it maps
each class to one of its shape, so only a class with a twin can
tell them apart.

The prime is the smallest p = 1 (mod exponent) with p > 2*sqrt(|G|):
then F_p holds the needed roots of unity, degrees satisfy d <= sqrt(|G|)
< p/2 so the congruence d^2 = |G| / sum(omega_i * omega_i* / |C_i|)
determines d uniquely, and eigenvalue multiplicities of each rep matrix
lie in [0, d] and lift uniquely from their residues.  The exact value at
a class of element order o is recovered digit by digit: with eta_o a
primitive o-th root of unity mod p, every one a power of one fixed
primitive root,

    chi(g) = sum over m of c_m * zeta_o**m,
    c_m = (1/o) * sum over t of chi(g**t) * eta_o**(-m*t)  (mod p),

using the power maps to read chi(g**t) off the same eigenvector.  All
lifted digits must land in [0, d] and sum to d; anything else signals
inconsistent input and raises.

Each column is lifted at its own least conductor, the least divisor f
of o such that g**a is conjugate to g for every unit a = 1 (mod f): the
automorphisms zeta_o -> zeta_o**a that fix g's class fix every value
in its column, and they permute the digits, c_m = c_(a*m mod o), so a
digit is computed once per orbit of them.  A rational column (f = 1)
takes the value mod p lifted into the symmetric range and builds no
polynomial; any other builds its value from the digits at o and
descends to its least conductor.  The table declares, and stores its
values at, the group exponent where the cyclotomic cap admits it, and
above the cap the field conductor, the lcm of the column conductors,
refused only when that exceeds the cap too, before any class constant.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd, isqrt, lcm
from operator import mul

from .chartab import CharacterTable, ClassInfo, validate
from .errors import InconsistencyError, InputError
from .exact import (CYCLOTOMIC_CAP, Cyclotomic, _from_ints, _reduce_poly,
                    cyclotomic_polynomial)
from .modp import choose_prime, poly_roots_mod_p, primitive_root_mod_p
from .perm import ClassSet, FiniteGroup


class ClassAlgebra:
    """Class multiplication data of a finite group, built on demand.

    matrix(i) is M_i, (M_i)[j][k] = a[i][j][k], built on first use from
    the |C_i| * r products x^-1 * z, x in C_i and z the representative
    of class k; inverse_class[i] is the class of inverses of class i.
    kinds[i] is (fixed, size, shape) of class i, which the split
    chooses its matrices by: fixed is false when a power map moves the
    class to another, and shape holds the size and element order of
    the class of g**t for t < o, g in class i of element order o.
    """

    def __init__(self, class_set: ClassSet):
        self.class_set = class_set
        self.inverse_class = class_set.power_map(-1)
        classes = class_set.classes
        self.kinds = []
        for i, c in enumerate(classes):
            # least conductor 1: every unit power of g is conjugate to g
            fixed = _column(class_set, i)[0] == 1
            shape = tuple((classes[k].size, classes[k].order)
                          for k in class_set.powers(i))
            self.kinds.append((fixed, c.size, shape))
        self._matrices: dict[int, list[list[int]]] = {}
        if sum(class_set.sizes()) != class_set.group.order:
            raise InconsistencyError("class sizes do not sum to the group order")

    @property
    def size(self) -> int:
        return len(self.class_set)

    def matrix(self, i: int) -> list[list[int]]:
        """M_i, built on first use and checked against the structural
        identities every class algebra satisfies, then kept."""
        if i not in self._matrices:
            m = self._build(i)
            sizes = self.class_set.sizes()
            for j, row in enumerate(m):
                total = sum(map(mul, row, sizes))
                if total != sizes[i] * sizes[j]:
                    raise InconsistencyError(
                        f"weighted constants at ({i},{j}) sum to {total}, "
                        f"expected {sizes[i] * sizes[j]}")
            if m[self.inverse_class[i]][0] != sizes[i]:
                raise InconsistencyError(
                    f"identity coefficient of class {i} times its inverse class "
                    "does not equal the class size")
            self._matrices[i] = m
        return self._matrices[i]

    def _build(self, i: int) -> list[list[int]]:
        cs = self.class_set
        g = cs.group
        ident, n = g.identity, g.degree
        # maketrans(x, ident) sends x[a] to a: x's inverse, padded
        inverses = [bytes.maketrans(x, ident)[:n] for x in cs.classes[i].words()]
        # column k counts the classes of the products x^-1 * z_k
        columns = [cs.class_counts(map(bytes.translate, inverses,
                                       repeat(g.translation_table(ck.representative))))
                   for ck in cs.classes]
        return [list(row) for row in zip(*columns)]


def class_constants(class_set: ClassSet) -> ClassAlgebra:
    """The class algebra, its matrices built as they are asked for."""
    return ClassAlgebra(class_set)


def _split(m: list[list[int]], x: list[int], p: int) -> list[list[int]]:
    """The components of x on the eigenspaces of m mod p, up to nonzero
    scalars: with q the minimal polynomial of m on x, of degree k, one
    h(m) x per root w of q, ascending, h = q / (t - w); x itself when
    k is 1.  Raises unless q has k distinct roots in F_p."""
    krylov, echelon = [], []  # echelon rows: (pivot, row, its polynomial)
    y = x
    while True:  # reduce y = m**k x against x, ..., m**(k-1) x
        k = len(krylov)
        z, q = y, [0] * k + [1]
        for c, row, poly in echelon:  # each poly of degree below k
            f = z[c]
            if f:
                z = [(a - f * b) % p for a, b in zip(z, row)]
                q[:len(poly)] = [(a - f * b) % p for a, b in zip(q, poly)]
        if not any(z):
            break
        c = next(c for c, a in enumerate(z) if a)
        inv = pow(z[c], p - 2, p)
        echelon.append((c, [a * inv % p for a in z], [a * inv % p for a in q]))
        krylov.append(y)
        y = [sum(map(mul, row, y)) % p for row in m]
    if k == 1:
        return [x]
    roots = poly_roots_mod_p(q, p)
    if len(roots) != k:
        raise InconsistencyError(
            "eigenspace splitting stalled: matrix not diagonalizable mod p")
    parts = []
    for w in roots:
        h, acc = [0] * k, 0
        for j in range(k, 0, -1):  # q / (t - w)
            acc = (q[j] + w * acc) % p
            h[j - 1] = acc
        parts.append([sum(map(mul, h, column)) % p for column in zip(*krylov)])
    return parts


def common_eigenbasis(algebra: ClassAlgebra,
                      p: int) -> tuple[int, list[tuple[int, ...]]]:
    """The r common eigenvectors of the class-sum matrices mod p, found
    by splitting one vector, with one vector kept per common eigenspace.
    Deterministic throughout.

    The split starts from the unit vector at the identity class, class
    0.  That vector is the sum over the characters t of chi_t(1)**2 / |G|
    times the vectors v_t below, every coefficient nonzero mod p, so
    each kept vector has a nonzero component on every v_t in its common
    eigenspace.  Each kept vector x is split by the next matrix M_i
    until r vectors are kept.  M_i is taken in class order until one
    splits no kept vector; from then on it is the unbuilt class with a
    twin, another class of its shape (algebra.kinds), whose shape no
    built class has, least by kind (a class a power map moves first,
    then the smallest), or the next in class order when there is
    none.  The first Krylov vector M_i**k x that is a combination of
    the earlier ones gives q, the minimal polynomial of M_i on x, which
    must have k distinct roots in F_p; for each root w, ascending,
    h(M_i) x with h = q / (t - w) is h(w) != 0 times the component of x
    on the eigenspace of w.  A q of degree 1 leaves x whole.  Only the
    matrices the split uses are built.

    Returns (p, vectors), one vector per character t, scaled to 1 at
    the identity class, so its entry at class i is
    omega_i = |C_i| chi_t(g_i)/chi_t(1) mod p.  M_i v = v[i] * v is
    checked for every returned v and every matrix the split built.
    """
    r = algebra.size
    kinds = algebra.kinds
    shapes = [kind[2] for kind in kinds]
    vectors, used, unbuilt = [[1] + [0] * (r - 1)], [], list(range(1, r))
    stalled = False
    while unbuilt and len(vectors) < r:  # more only from inconsistent matrices
        built = {shapes[j] for j, _ in used}
        twins = [j for j in unbuilt if stalled and shapes.count(shapes[j]) > 1
                 and shapes[j] not in built]
        i = min(twins, key=kinds.__getitem__, default=unbuilt[0])
        unbuilt.remove(i)
        m = algebra.matrix(i)
        used.append((i, m))
        split = [part for x in vectors for part in _split(m, x, p)]
        stalled = stalled or len(split) == len(vectors)
        vectors = split
    if len(vectors) != r:
        raise InconsistencyError(
            f"expected {r} common eigenvectors, got {len(vectors)}")
    for n, x in enumerate(vectors):
        if not x[0]:
            raise InconsistencyError("eigenvector vanishes at the identity class")
        inv = pow(x[0], p - 2, p)
        vectors[n] = tuple(a * inv % p for a in x)
    for i, m in used:
        for v in vectors:
            if [sum(map(mul, row, v)) % p for row in m] != [v[i] * a % p for a in v]:
                raise InconsistencyError(
                    f"class-sum matrix {i} does not scale a returned "
                    f"vector by its entry at class {i}")
    if len(set(vectors)) != r:
        raise InconsistencyError("eigenvalue vectors are not pairwise distinct")
    return p, vectors


def _column(class_set: ClassSet, j: int) -> tuple[int, list[int]]:
    """(f, fixed) for class j, of element order o: fixed holds the units
    a mod o with g**a conjugate to g, the Galois automorphisms zeta ->
    zeta**a that fix every value in the column, and f, the column's
    least conductor, is the least f | o such that fixed holds every unit
    a = 1 (mod f)."""
    powers = class_set.powers(j)
    o = len(powers)
    units = [a for a in range(o) if gcd(a, o) == 1]
    fixed = [a for a in units if powers[a] == j]
    f = next(f for f in range(1, o + 1) if o % f == 0 and all(
        powers[a] == j for a in units if (a - 1) % f == 0))
    return f, fixed


def declared_conductor(class_set: ClassSet) -> int:
    """The conductor a computed table declares and stores its values at:
    the group exponent where the cyclotomic cap admits it, else the field
    conductor, the lcm of the column conductors, refused above the cap.
    A column's conductor divides that of every class it is a power of,
    so the field conductor reads only classes that are no power of a
    class of larger element order."""
    e = class_set.exponent
    if e > CYCLOTOMIC_CAP:
        e, covered = 1, set()
        for j in sorted(range(len(class_set)),
                        key=lambda j: -class_set.classes[j].order):
            if j not in covered:
                e = lcm(e, _column(class_set, j)[0])
                covered.update(class_set.powers(j))
    cyclotomic_polynomial(e)  # the cap, before any class constant
    return e


def lift_character_values(eigen: tuple[int, list[tuple[int, ...]]],
                          class_set: ClassSet,
                          conductor: int) -> list[tuple[int, list[Cyclotomic]]]:
    """Exact character values from the (p, vectors) pair that
    common_eigenbasis returns, stored at the given conductor, which
    every column conductor divides.

    Returns one (degree, values) pair per character, in eigenvector
    order, equal values sharing one object.  All roots of unity are
    powers of one fixed primitive root mod p, so values at different
    classes cohere.  A digit is computed once per orbit of the column's
    fixed units on the digit positions, which it is constant on.  A
    rational column takes the value mod p lifted into the symmetric
    range; any other builds it from its digits at the element order and
    descends to its least conductor before the lift.
    """
    p, vectors = eigen
    if (p - 1) % class_set.exponent:
        raise InputError("prime does not admit the required roots of unity")
    root = primitive_root_mod_p(p)
    inv_sizes = [pow(s, p - 2, p) for s in class_set.sizes()]
    inv_map = class_set.power_map(-1)
    # per class j of element order o: the classes of g**t for t < o, and
    # per orbit of the digit positions, from its least member s, the
    # orbit and the kernel eta_o**(-s*t) / o mod p for t < o, with
    # eta_o = root**((p-1)/o); and whether the column is rational
    columns = []
    for j, c in enumerate(class_set.classes):
        o = c.order
        f, fixed = _column(class_set, j)
        eta_o, inv_o = pow(root, (p - 1) // o, p), pow(o % p, p - 2, p)
        scaled = [pow(eta_o, s, p) * inv_o % p for s in range(o)]
        orbits, seen = [], set()
        for s in range(o):
            if s not in seen:
                orbit = {a * s % o for a in fixed}
                seen |= orbit
                orbits.append((orbit, [scaled[-s * t % o] for t in range(o)]))
        columns.append((class_set.powers(j), orbits, f == 1))
    out, built = [], {}
    for omega in vectors:
        d = _degree_for(omega, inv_map, inv_sizes, class_set.group.order, p)
        modvals = [d * w * q % p for w, q in zip(omega, inv_sizes)]
        values = []
        for (powers, orbits, rational), x in zip(columns, modvals):
            o = len(powers)
            chi = [modvals[k] for k in powers]
            digits = [0] * o
            for orbit, kernel in orbits:
                c = sum(map(mul, chi, kernel)) % p
                if c > d:
                    raise InconsistencyError(
                        f"digit {c} exceeds degree {d}; inputs inconsistent")
                for k in orbit:
                    digits[k] = c
            if sum(digits) != d:
                raise InconsistencyError("digits do not sum to the degree")
            # the value itself in a rational column, else its digits
            if rational:
                key = x if 2 * x < p else x - p
            else:
                key = (o, tuple(digits))
            if key not in built:  # equal values, one build
                built[key] = (Cyclotomic.from_rational(key, conductor) if rational
                              else _from_ints(o, _reduce_poly(o, digits))
                              .reduced().lift(conductor))
            values.append(built[key])
        if values[0] != d:
            raise InconsistencyError("identity value does not equal the degree")
        out.append((d, values))
    return out


def _degree_for(omega: tuple[int, ...], inv_map: list[int],
                inv_sizes: list[int], order: int, p: int) -> int:
    s = 0
    for i, w in enumerate(omega):
        s = (s + w * omega[inv_map[i]] * inv_sizes[i]) % p
    if s == 0:
        raise InconsistencyError("degree congruence degenerated")
    target = (order % p) * pow(s, p - 2, p) % p
    for d in range(1, isqrt(order) + 1):
        if (d * d) % p == target:
            return d
    raise InconsistencyError("no degree in range satisfies the congruence")


def compute_character_table(group: FiniteGroup,
                            class_set: ClassSet | None = None,
                            name: str = "") -> CharacterTable:
    """Full exact character table in canonical row and column order.

    Rows are sorted by degree, then lexicographically on negated
    coefficient vectors at the declared conductor, which puts the
    trivial character first and keeps the order deterministic.  The
    result carries verified=True only because it is validated right
    here; any violation raises instead of returning.
    """
    cs = class_set if class_set is not None else ClassSet(group)
    # the prime cap, then the conductor cap, refuse before the costly
    # class constants
    p = choose_prime(cs.exponent, group.order)
    conductor = declared_conductor(cs)
    algebra = class_constants(cs)
    eigen = common_eigenbasis(algebra, p)
    lifted = lift_character_values(eigen, cs, conductor)
    # every lifted value has den 1, so num orders as the coefficients;
    # equal values are one object, negated once
    neg = {}
    for _, values in lifted:
        for v in values:
            if id(v) not in neg:
                neg[id(v)] = tuple(-c for c in v.num)
    lifted.sort(key=lambda item: (item[0], tuple(neg[id(v)] for v in item[1])))
    classes = [
        ClassInfo(label=c.label, size=c.size, order=c.order,
                  representative=str(c.representative))
        for c in cs.classes]
    rows = [tuple(values) for _, values in lifted]
    labels = [f"chi{i + 1}" for i in range(len(rows))]
    table = CharacterTable(name=name or "computed", group_order=group.order,
                           conductor=conductor, classes=classes,
                           characters=labels, values=rows, verified=False)
    problems = validate(table)
    if problems:
        raise InconsistencyError(
            "computed table failed validation: " + "; ".join(
                v.describe() for v in problems[:4]))
    table.verified = True
    return table

