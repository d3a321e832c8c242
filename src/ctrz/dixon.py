"""Exact character tables from the class algebra, computed modulo a prime.

Pipeline: the class multiplication constants a[i][j][k] count, for fixed
z in class k, the pairs (x, y) in C_i x C_j with x*y == z.  The matrices
M_i with (M_i)[j][k] = a[i][j][k] commute, and their simultaneous
eigenvectors mod a well-chosen prime p are, after normalizing the entry
at the identity class to 1, exactly the vectors of class-sum eigenvalues
omega_i = |C_i| chi(g_i) / chi(1) reduced mod p, one per irreducible
character chi.

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

from fractions import Fraction
from math import isqrt

from .chartab import CharacterTable, ClassInfo, validate
from .errors import InconsistencyError, InputError
from .exact import Cyclotomic, _reduce_poly
from .modp import (PrimeFieldMatrix, charpoly_mod_p, choose_prime,
                   nullspace_mod_p, poly_roots_mod_p, primitive_root_mod_p)
from .perm import ClassSet, FiniteGroup


class ClassAlgebra:
    """Class multiplication data of a finite group.

    constants[i][j][k] = a[i][j][k], so constants[i] is the matrix M_i;
    inverse_class[i] is the class of inverses of class i.
    """

    def __init__(self, class_set: ClassSet):
        self.class_set = class_set
        g = class_set.group
        r = len(class_set)
        inv_idx = g.inverse_index()
        cls_of = class_set.class_of
        self.inverse_class = class_set.power_map(-1)
        counts = [[[0] * r for _ in range(r)] for _ in range(r)]
        elements = g.elements
        index = g.index
        for k, ck in enumerate(class_set.classes):
            z = ck.representative
            for i, ci in enumerate(class_set.classes):
                row = counts[i]
                for xi in ci.members:
                    y = elements[inv_idx[xi]] * z
                    row[cls_of[index[y.images]]][k] += 1
        self.constants = counts

    @property
    def size(self) -> int:
        return len(self.constants)

    def check_consistency(self) -> None:
        """Structural identities every class algebra satisfies."""
        cs = self.class_set
        sizes = cs.sizes()
        order = cs.group.order
        r = self.size
        for i in range(r):
            for j in range(r):
                total = sum(self.constants[i][j][k] * sizes[k] for k in range(r))
                if total != sizes[i] * sizes[j]:
                    raise InconsistencyError(
                        f"weighted constants at ({i},{j}) sum to {total}, "
                        f"expected {sizes[i] * sizes[j]}")
            if self.constants[i][self.inverse_class[i]][0] != sizes[i]:
                raise InconsistencyError(
                    f"identity coefficient of class {i} times its inverse class "
                    "does not equal the class size")
        if sum(sizes) != order:
            raise InconsistencyError("class sizes do not sum to the group order")


class EigenData:
    """Common eigendata of the class-sum matrices modulo p.

    vectors[t] is the normalized eigenvector of character t: its entry at
    class i is omega_i = |C_i| chi_t(g_i)/chi_t(1) mod p, and it satisfies
    M_i v = v[i] * v for every i.
    """

    def __init__(self, prime: int, vectors: list[tuple[int, ...]]):
        self.prime = prime
        self.vectors = vectors


def class_constants(class_set: ClassSet) -> ClassAlgebra:
    ca = ClassAlgebra(class_set)
    ca.check_consistency()
    return ca


def _restriction(matrix: list[list[int]], basis: list[tuple[int, ...]],
                 pivots: list[int], p: int) -> list[list[int]]:
    """Matrix of the action on span(basis), basis rows in RREF with the
    given pivot columns.  Verifies invariance and raises otherwise."""
    d = len(basis)
    r = len(matrix)
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


def _echelon_basis(vectors: list[list[int]], p: int) -> tuple[list[tuple[int, ...]], list[int]]:
    m, pivots = PrimeFieldMatrix(p, vectors).rref()
    rows = [tuple(r) for r in m[: len(pivots)]]
    return rows, pivots


def common_eigenbasis(algebra: ClassAlgebra, p: int) -> EigenData:
    """Split F_p^r into the r common one-dimensional eigenspaces of the
    class-sum matrices, eigenvalues found by root-scanning characteristic
    polynomials mod p.  Deterministic throughout."""
    r = algebra.size
    full = [tuple(1 if i == j else 0 for j in range(r)) for i in range(r)]
    subspaces = [(full, list(range(r)))]
    for i in range(1, r):
        if all(len(b) == 1 for b, _ in subspaces):
            break
        m_i = algebra.constants[i]
        refined = []
        for basis, pivots in subspaces:
            if len(basis) == 1:
                refined.append((basis, pivots))
                continue
            rest = _restriction(m_i, basis, pivots, p)
            cp = charpoly_mod_p(PrimeFieldMatrix(p, rest))
            roots = poly_roots_mod_p(cp, p)
            found = 0
            for w in roots:
                shifted = [[(rest[a][b] - (w if a == b else 0)) % p
                            for b in range(len(rest))] for a in range(len(rest))]
                coords = nullspace_mod_p(PrimeFieldMatrix(p, shifted))
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
                eb, ep = _echelon_basis(ambient, p)
                refined.append((eb, ep))
                found += len(eb)
            if found != len(basis):
                raise InconsistencyError(
                    "eigenspace splitting stalled: matrix not diagonalizable mod p")
        subspaces = refined
    if len(subspaces) != r or any(len(b) != 1 for b, _ in subspaces):
        raise InconsistencyError(
            f"expected {r} one-dimensional common eigenspaces, "
            f"got {[len(b) for b, _ in subspaces]}")
    vectors = []
    for basis, _ in subspaces:
        v = basis[0]
        if v[0] == 0:
            raise InconsistencyError("eigenvector vanishes at the identity class")
        scale = pow(v[0], p - 2, p)
        vectors.append(tuple((x * scale) % p for x in v))
    if len(set(vectors)) != r:
        raise InconsistencyError("eigenvalue vectors are not pairwise distinct")
    return EigenData(p, vectors)


def lift_character_values(eigen: EigenData, class_set: ClassSet,
                          conductor: int) -> list[tuple[int, list[Cyclotomic]]]:
    """Exact character values from eigenvectors mod p.

    Returns one (degree, values) pair per character, in eigenvector
    order.  All roots of unity are expressed through one fixed primitive
    e-th root eta mod p, so values at different classes cohere.
    """
    p = eigen.prime
    if (p - 1) % conductor:
        raise InputError("prime does not admit the required roots of unity")
    eta = pow(primitive_root_mod_p(p), (p - 1) // conductor, p)
    sizes = class_set.sizes()
    orders = [c.order for c in class_set.classes]
    r = len(class_set)
    out = []
    for omega in eigen.vectors:
        d = _degree_for(omega, class_set, p)
        modvals = [d * w * pow(sizes[j], p - 2, p) % p for j, w in enumerate(omega)]
        values = []
        for j in range(r):
            o = orders[j]
            eta_o = pow(eta, conductor // o, p)
            inv_o = pow(o % p, p - 2, p)
            digits = []
            powers = [class_set.power_map(t)[j] for t in range(o)]
            for m in range(o):
                acc = 0
                for t in range(o):
                    acc = (acc + modvals[powers[t]]
                           * pow(eta_o, (-m * t) % (p - 1), p)) % p
                c = (acc * inv_o) % p
                if c > d:
                    raise InconsistencyError(
                        f"digit {c} exceeds degree {d}; inputs inconsistent")
                digits.append(c)
            if sum(digits) != d:
                raise InconsistencyError("digits do not sum to the degree")
            coeffs = [Fraction(0)] * conductor
            for m, c in enumerate(digits):
                if c:
                    coeffs[(conductor // o) * m] += c
            values.append(Cyclotomic(conductor, _reduce_poly(conductor, coeffs)))
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
    algebra = class_constants(cs)
    conductor = cs.exponent
    p = choose_prime(conductor, group.order)
    eigen = common_eigenbasis(algebra, p)
    lifted = lift_character_values(eigen, cs, conductor)

    def sort_key(item):
        degree, values = item
        neg = tuple(tuple(-c for c in v.coeffs) for v in values)
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
