"""Exact character tables from the class algebra, computed modulo a prime.

Pipeline: the class multiplication constants a[i][j][k] count, for fixed
z in class k, the pairs (x, y) in C_i x C_j with x*y == z.  The matrices
M_i with (M_i)[j][k] = a[i][j][k] commute, and their simultaneous
eigenvectors mod a well-chosen prime p are, after normalizing the entry
at the identity class to 1, exactly the vectors of class-sum eigenvalues
omega_i = |C_i| chi(g_i) / chi(1) reduced mod p, one per irreducible
character chi.  The split takes the M_i in class order, smallest class
first, and stops once every eigenspace is one-dimensional, so only the
matrices it uses are built, M_i at |C_i| * r products (J. D. Dixon,
Numer. Math. 10 (1967) 446-450; G. J. A. Schneider, J. Symbolic
Comput. 9 (1990) 601-606).

The prime is the smallest p = 1 (mod exponent) with p > 2*sqrt(|G|):
then F_p holds the needed roots of unity, degrees satisfy d <= sqrt(|G|)
< p/2 so the congruence d^2 = |G| / sum(omega_i * omega_i* / |C_i|)
determines d uniquely, and eigenvalue multiplicities of each rep matrix
lie in [0, d] and lift uniquely from their residues.  The exact value at
a class of element order o is recovered digit by digit: with eta a fixed
primitive e-th root of unity mod p and eta_o = eta**(e/o),

    chi(g) = sum over m of c_m * zeta_o**m,
    c_m = (1/o) * sum over t of chi(g**t) * eta_o**(-m*t)  (mod p),

using the power maps to read chi(g**t) off the same eigenvector.  All
lifted digits must land in [0, d] and sum to d; anything else signals
inconsistent input and raises.
"""

from __future__ import annotations

from math import isqrt

from .chartab import CharacterTable, ClassInfo, validate
from .errors import InconsistencyError, InputError
from .exact import (Cyclotomic, _from_ints, _reduce_poly,
                    cyclotomic_polynomial)
from .modp import (charpoly_mod_p, choose_prime, nullspace_mod_p,
                   poly_roots_mod_p, primitive_root_mod_p, rref)
from .perm import ClassSet, FiniteGroup


class ClassAlgebra:
    """Class multiplication data of a finite group, built on demand.

    matrix(i) is M_i, (M_i)[j][k] = a[i][j][k], built on first use from
    the |C_i| * r products x^-1 * z, x in C_i and z the representative
    of class k.  constants is the full tensor, every matrix built;
    inverse_class[i] is the class of inverses of class i.
    """

    def __init__(self, class_set: ClassSet):
        self.class_set = class_set
        self.inverse_class = class_set.power_map(-1)
        self._matrices: dict[int, list[list[int]]] = {}
        if sum(class_set.sizes()) != class_set.group.order:
            raise InconsistencyError("class sizes do not sum to the group order")

    @property
    def size(self) -> int:
        return len(self.class_set)

    @property
    def constants(self) -> list[list[list[int]]]:
        return [self.matrix(i) for i in range(self.size)]

    def matrix(self, i: int) -> list[list[int]]:
        """M_i, built on first use and checked against the structural
        identities every class algebra satisfies, then kept."""
        if i not in self._matrices:
            m = self._build(i)
            sizes = self.class_set.sizes()
            for j, row in enumerate(m):
                total = sum(a * s for a, s in zip(row, sizes))
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
        words, index, cls_of = g.words, g.index, cs.class_of
        ident, n = words[0], g.degree
        # maketrans(x, ident) sends x[a] to a: x's inverse, padded
        inverses = [bytes.maketrans(words[x], ident)[:n]
                    for x in cs.classes[i].members]
        m = [[0] * self.size for _ in range(self.size)]
        for k, ck in enumerate(cs.classes):
            z_table = g.translation_table(ck.representative)
            for x_inv in inverses:  # y = x^-1 * z
                m[cls_of[index[x_inv.translate(z_table)]]][k] += 1
        return m

    def check_consistency(self) -> None:
        """Build, and so check, every matrix."""
        for i in range(self.size):
            self.matrix(i)


def class_constants(class_set: ClassSet) -> ClassAlgebra:
    """The class algebra, its matrices built as they are asked for."""
    return ClassAlgebra(class_set)


def _restriction(matrix: list[list[int]], basis: list[list[int]],
                 p: int) -> list[list[int]]:
    """Matrix of the action on span(basis), basis rows in RREF, each
    pivot its first nonzero entry.  Verifies invariance and raises
    otherwise."""
    d = len(basis)
    r = len(matrix)
    pivots = [next(c for c, x in enumerate(v) if x) for v in basis]
    images = []
    for v in basis:
        img = [sum(matrix[row][c] * v[c] for c in range(r) if v[c]) % p
               for row in range(r)]
        images.append(img)
    rest = [[images[j][pivots[m]] for j in range(d)] for m in range(d)]
    # invariance check: the image must reconstruct from coordinates
    for j in range(d):
        for row in range(r):
            acc = sum(rest[m][j] * basis[m][row] for m in range(d)) % p
            if acc != images[j][row]:
                raise InconsistencyError(
                    "class-sum matrix does not preserve a common eigenspace")
    return rest


def common_eigenbasis(algebra: ClassAlgebra,
                      p: int) -> tuple[int, list[tuple[int, ...]]]:
    """Split F_p^r into the r common one-dimensional eigenspaces of the
    class-sum matrices, eigenvalues found by root-scanning characteristic
    polynomials mod p.  Deterministic throughout.

    Each subspace is kept as its RREF rows.  Returns (p, vectors), one
    vector per character t: the RREF row of its eigenspace, which leads
    with 1 at the identity class, so its entry at class i is
    omega_i = |C_i| chi_t(g_i)/chi_t(1) mod p and M_i v = v[i] * v for
    every i.
    """
    r = algebra.size
    subspaces = [[[1 if i == j else 0 for j in range(r)] for i in range(r)]]
    for i in range(1, r):
        if all(len(b) == 1 for b in subspaces):
            break
        m_i = algebra.matrix(i)
        refined = []
        for basis in subspaces:
            if len(basis) == 1:
                refined.append(basis)
                continue
            rest = _restriction(m_i, basis, p)
            roots = poly_roots_mod_p(charpoly_mod_p(rest, p), p)
            found = 0
            for w in roots:
                shifted = [[x - w if a == b else x for b, x in enumerate(row)]
                           for a, row in enumerate(rest)]
                coords = nullspace_mod_p(shifted, p)
                if not coords:
                    continue
                ambient = []
                for cvec in coords:
                    v = [0] * r
                    for m, c in enumerate(cvec):
                        if c:
                            for col in range(r):
                                v[col] = (v[col] + c * basis[m][col]) % p
                    ambient.append(v)
                reduced, pivots = rref(ambient, p)
                refined.append(reduced[:len(pivots)])
                found += len(pivots)
            if found != len(basis):
                raise InconsistencyError(
                    "eigenspace splitting stalled: matrix not diagonalizable mod p")
        subspaces = refined
    if len(subspaces) != r or any(len(b) != 1 for b in subspaces):
        raise InconsistencyError(
            f"expected {r} one-dimensional common eigenspaces, "
            f"got {[len(b) for b in subspaces]}")
    vectors = [tuple(basis[0]) for basis in subspaces]
    if any(v[0] != 1 for v in vectors):
        raise InconsistencyError("eigenvector vanishes at the identity class")
    if len(set(vectors)) != r:
        raise InconsistencyError("eigenvalue vectors are not pairwise distinct")
    return p, vectors


def lift_character_values(eigen: tuple[int, list[tuple[int, ...]]],
                          class_set: ClassSet,
                          conductor: int) -> list[tuple[int, list[Cyclotomic]]]:
    """Exact character values from the (p, vectors) pair that
    common_eigenbasis returns.

    Returns one (degree, values) pair per character, in eigenvector
    order.  All roots of unity are expressed through one fixed primitive
    e-th root eta mod p, so values at different classes cohere.
    """
    p, vectors = eigen
    if (p - 1) % conductor:
        raise InputError("prime does not admit the required roots of unity")
    eta = pow(primitive_root_mod_p(p), (p - 1) // conductor, p)
    inv_sizes = [pow(s, p - 2, p) for s in class_set.sizes()]
    # per class j of element order o: the classes of g**t for t < o,
    # eta_o**s for s < o, and 1/o mod p
    columns = []
    for j, c in enumerate(class_set.classes):
        o = c.order
        eta_o = pow(eta, conductor // o, p)
        columns.append(([class_set.power_map(t)[j] for t in range(o)],
                        [pow(eta_o, s, p) for s in range(o)],
                        pow(o % p, p - 2, p)))
    out, built = [], {}
    for omega in vectors:
        d = _degree_for(omega, class_set, p)
        modvals = [d * w * q % p for w, q in zip(omega, inv_sizes)]
        values = []
        for powers, roots, inv_o in columns:
            o = len(roots)
            chi = [modvals[k] for k in powers]
            digits = []
            for m in range(o):
                acc = sum(x * roots[-m * t % o] for t, x in enumerate(chi))
                c = acc % p * inv_o % p
                if c > d:
                    raise InconsistencyError(
                        f"digit {c} exceeds degree {d}; inputs inconsistent")
                digits.append(c)
            if sum(digits) != d:
                raise InconsistencyError("digits do not sum to the degree")
            key = (o, tuple(digits))
            if key not in built:  # equal digits, one reduction
                poly = [0] * conductor
                for m, c in enumerate(digits):
                    poly[(conductor // o) * m] = c
                built[key] = _from_ints(conductor, _reduce_poly(conductor, poly))
            values.append(built[key])
        if values[0] != d:
            raise InconsistencyError("identity value does not equal the degree")
        out.append((d, values))
    return out


def _degree_for(omega: tuple[int, ...], class_set: ClassSet, p: int) -> int:
    order = class_set.group.order
    sizes = class_set.sizes()
    inv_map = class_set.power_map(-1)
    s = 0
    for i, w in enumerate(omega):
        s = (s + w * omega[inv_map[i]] * pow(sizes[i], p - 2, p)) % p
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
    coefficient vectors, which puts the trivial character first and
    keeps the order deterministic.  The result carries verified=True
    only because it is validated right here; any violation raises
    instead of returning.
    """
    cs = class_set if class_set is not None else ClassSet(group)
    conductor = cs.exponent
    # the prime cap, then the conductor cap, refuse before the costly
    # class constants
    p = choose_prime(conductor, group.order)
    cyclotomic_polynomial(conductor)
    algebra = class_constants(cs)
    eigen = common_eigenbasis(algebra, p)
    lifted = lift_character_values(eigen, cs, conductor)

    def sort_key(item):
        degree, values = item
        # every lifted value has den 1, so num orders as the coefficients
        neg = tuple(tuple(-c for c in v.num) for v in values)
        return (degree, neg)

    lifted.sort(key=sort_key)
    classes = [
        ClassInfo(label=c.label, size=c.size, order=c.order,
                  representative=str(c.representative),
                  power_profile=_power_profile(cs, idx))
        for idx, c in enumerate(cs.classes)]
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


def _power_profile(cs: ClassSet, class_index: int) -> tuple[tuple[int, int], ...]:
    """Sizes and orders of the power classes, a column-matching invariant."""
    o = cs.classes[class_index].order
    prof = []
    for t in range(2, o + 1):
        k = cs.power_map(t)[class_index]
        prof.append((cs.classes[k].size, cs.classes[k].order))
    return tuple(prof)
