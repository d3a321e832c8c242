"""Exact character tables computed from scratch, checked against
hand-verifiable groups.

The small-group oracles cover every branch that matters for larger
runs: rational tables (S3, S4, dihedral), cube roots of unity (C3),
values in a quadratic field (the Frobenius group of order 21, A5),
and a prime p smaller than the matrix dimension (Klein four-group).
"""

import time
from fractions import Fraction

import pytest

from ctrz import dixon
from ctrz.errors import InconsistencyError
from ctrz.exact import Cyclotomic, to_quadratic
from ctrz.modp import choose_prime
from ctrz.perm import FiniteGroup, ClassSet, parse_cycles
from ctrz.dixon import (ClassAlgebra, canonical_table, class_constants,
                        common_eigenbasis, compute_character_table,
                        declared_conductor, dixon_characters)
from ctrz.chartab import validate, decompose, permutation_character
from ctrz.datasets import builtin_group

from conftest import class_matrices, counting_builds


def rat(x, conductor=1):
    return Cyclotomic.from_rational(x, conductor)


def group(texts, degree):
    return FiniteGroup([parse_cycles(t, degree) for t in texts])


def test_class_constants_weighted_row_sums():
    """sum_k a[i][j][k] |C_k| = |C_i| |C_j| for every i, j."""
    g = group(["(1,2)", "(1,2,3,4)"], 4)
    cs = ClassSet(g)
    ca = class_constants(cs)
    constants = class_matrices(ca)
    sizes = cs.sizes()
    r = ca.size
    for i in range(r):
        for j in range(r):
            total = sum(constants[i][j][k] * sizes[k] for k in range(r))
            assert total == sizes[i] * sizes[j]


def test_class_constants_commute():
    """Class sums span a commutative algebra: a[i][j][k] = a[j][i][k]."""
    g = group(["(1,2,3,4,5,6,7)", "(2,3,5)(4,7,6)"], 7)
    constants = class_matrices(class_constants(ClassSet(g)))
    r = len(constants)
    for i in range(r):
        for j in range(r):
            assert constants[i][j] == constants[j][i]


def test_class_constants_inverse_pairing():
    g = group(["(1,2)", "(1,2,3,4)"], 4)
    cs = ClassSet(g)
    ca = class_constants(cs)
    constants = class_matrices(ca)
    for i in range(ca.size):
        j = ca.inverse_class[i]
        # Only the inverse class reaches the identity, |C_i| many ways.
        for k in range(ca.size):
            expected = cs.sizes()[i] if k == j else 0
            assert constants[i][k][0] == expected


def test_trivial_group_table():
    g = FiniteGroup([], degree=1)
    ct = compute_character_table(g)
    assert ct.degrees() == [1]
    assert ct.values[0][0] == rat(1)
    assert ct.verified


def test_c2_table():
    ct = compute_character_table(group(["(1,2)"], 2))
    assert ct.degrees() == [1, 1]
    assert [[v.as_rational() for v in row] for row in ct.values] == [
        [1, 1], [1, -1]]


def test_c3_table_has_cube_roots():
    ct = compute_character_table(group(["(1,2,3)"], 3))
    assert ct.degrees() == [1, 1, 1]
    assert ct.conductor == 3
    z = Cyclotomic.zeta(3)
    assert ct.values[0] == (rat(1, 3), rat(1, 3), rat(1, 3))
    assert ct.values[1][1] in (z, z * z)
    # The two nontrivial rows are complex conjugates of each other.
    assert ct.values[1][1] == ct.values[2][2]
    assert ct.values[1][2] == ct.values[2][1]


def test_klein_four_group_table():
    """Four linear characters; the chosen prime 3 is below the matrix
    dimension 4, which exercises the small-prime path end to end."""
    ct = compute_character_table(group(["(1,2)(3,4)", "(1,3)(2,4)"], 4))
    assert ct.degrees() == [1, 1, 1, 1]
    values = [[v.as_rational() for v in row] for row in ct.values]
    assert values[0] == [1, 1, 1, 1]
    for row in values[1:]:
        assert sorted(row) == [-1, -1, 1, 1]
        assert row[0] == 1
    assert len(set(map(tuple, values))) == 4


def test_s3_table_exact():
    ct = compute_character_table(group(["(1,2)", "(1,2,3)"], 3))
    # Canonical classes: identity, 3-cycles (size 2), transpositions (3).
    assert [(c.size, c.order) for c in ct.classes] == [(1, 1), (2, 3), (3, 2)]
    rows = [[v.as_rational() for v in row] for row in ct.values]
    assert rows == [[1, 1, 1], [1, 1, -1], [2, -1, 0]]


def test_s4_table_degrees_and_permutation_character():
    g = group(["(1,2)", "(1,2,3,4)"], 4)
    cs = ClassSet(g)
    ct = compute_character_table(g, cs)
    assert sorted(ct.degrees()) == [1, 1, 2, 3, 3]
    assert sum(d * d for d in ct.degrees()) == 24
    # Natural character = trivial + standard, so multiplicities are 0/1
    # with exactly two ones.
    chi = permutation_character(g, cs, ct)
    d = decompose(chi, ct)
    assert sorted(d) == [0, 0, 0, 1, 1]
    assert d[0] == 1


def test_d4_table():
    ct = compute_character_table(group(["(1,2,3,4)", "(1,3)"], 4))
    assert sorted(ct.degrees()) == [1, 1, 1, 1, 2]
    assert ct.verified


def test_frobenius21_table():
    """Order 21 = 1 + 3 + 3 + 7 + 7, degrees 1, 1, 1, 3, 3.

    The two degree-3 characters take (-1 +- sqrt(-7))/2 on the two
    classes of 7-elements, the classical small instance of quadratic
    irrationalities produced by an index-2 pairing of Galois orbits.
    """
    g = group(["(1,2,3,4,5,6,7)", "(2,3,5)(4,7,6)"], 7)
    assert g.order == 21
    ct = compute_character_table(g)
    assert ct.degrees() == [1, 1, 1, 3, 3]
    assert ct.conductor == 21
    assert [(c.size, c.order) for c in ct.classes] == [
        (1, 1), (3, 7), (3, 7), (7, 3), (7, 3)]
    seen = set()
    for i in (3, 4):
        for j in (1, 2):
            q = to_quadratic(ct.values[i][j], -7)
            assert q is not None
            assert q.a == Fraction(-1, 2)
            assert abs(q.b) == Fraction(1, 2)
            seen.add((i, j, q.b))
    # Each row carries both signs, one per class.
    assert len(seen) == 4


def test_a5_table():
    g = group(["(1,2,3,4,5)", "(3,4,5)"], 5)
    assert g.order == 60
    ct = compute_character_table(g)
    assert ct.degrees() == [1, 3, 3, 4, 5]
    assert ct.conductor == 30
    golden = set()
    for i in (1, 2):
        for j in (1, 2):
            q = to_quadratic(ct.values[i][j], 5)
            assert q is not None and q.a == Fraction(1, 2)
            golden.add((i, j, q.b))
    assert len(golden) == 4
    # Degree-4 row: -1 on 5-classes, 0 on involutions, 1 on 3-cycles.
    assert [v.as_rational() for v in ct.values[3]] == [4, -1, -1, 0, 1]


def test_tables_pass_validation_independently():
    for texts, degree in ((["(1,2)", "(1,2,3)"], 3),
                          (["(1,2,3,4)", "(1,3)"], 4),
                          (["(1,2,3,4,5)", "(3,4,5)"], 5)):
        ct = compute_character_table(group(texts, degree))
        assert validate(ct) == []


def test_canonical_row_order_puts_trivial_first():
    for texts, degree in ((["(1,2)", "(1,2,3)"], 3),
                          (["(1,2,3,4,5,6,7)", "(2,3,5)(4,7,6)"], 7)):
        ct = compute_character_table(group(texts, degree))
        assert all(v == rat(1, ct.conductor) for v in ct.values[0])
        degrees = ct.degrees()
        assert degrees == sorted(degrees)


def test_builtin_tables_shape(g8, g14):
    for a in (g8, g14):
        ct = a.canonical_table
        assert ct.group_order == 1344
        assert len(ct.classes) == 11
        assert sorted(ct.degrees()) == [1, 3, 3, 6, 7, 7, 7, 8, 14, 21, 21]
        assert sum(d * d for d in ct.degrees()) == 1344
        assert ct.verified
    assert g8.canonical_table.conductor == 84
    assert g14.canonical_table.conductor == 168


def test_builtin_class_profiles(g8, g14):
    expected_sizes = [1, 7, 42, 42, 84, 168, 168, 192, 192, 224, 224]
    g_orders = [1, 2, 2, 2, 4, 4, 4, 7, 7, 3, 6]
    h_orders = [1, 2, 4, 4, 2, 8, 8, 7, 7, 3, 6]
    for a, orders in ((g8, g_orders), (g14, h_orders)):
        cs = a.class_set
        assert [c.size for c in cs.classes] == expected_sizes
        assert [c.order for c in cs.classes] == orders


def test_class_matrices_are_built_on_demand(monkeypatch):
    """The eigensplit of S8 is done after the two smallest non-identity
    classes, so Dixon's route builds at most those two of its 22
    matrices.  compute_character_table takes S8's rows from the
    Murnaghan-Nakayama rule, so this calls Dixon's entry point."""
    built = counting_builds(monkeypatch)
    g = group(["(1,2,3,4,5,6,7,8)", "(1,2)"], 8)
    cs = ClassSet(g)
    ct = canonical_table(cs, *dixon_characters(cs))
    assert len(ct.classes) == 22 and ct.verified
    assert len(built) <= 2 and len(set(built)) == len(built)
    assert set(built) <= {1, 2}


@pytest.mark.parametrize("name, texts, degree, most", [
    ("g1344-deg8", None, None, 5),
    ("g1344-deg14", None, None, 5),
    ("m11", ["(1,2,3,4,5,6,7,8,9,10,11)", "(3,7,11,8)(4,10,5,6)"], 11, 4),
    ("a9", ["(1,2,3)", "(1,2,3,4,5,6,7,8,9)"], 9, 5),
])
def test_the_split_builds_few_class_matrices(monkeypatch, name, texts, degree,
                                             most):
    """Once a matrix splits nothing, the split takes the classes with an
    unbuilt twin: the order-1344 builtins build M1-M4 and M7, where
    class order builds M1-M7, M11 builds 4 of 9 and A9 5 of 17, where
    class order builds 14."""
    if texts is None:
        spec = builtin_group(name)
        texts, degree = spec["generators"], spec["degree"]
    g = group(texts, degree)
    cs = ClassSet(g)
    built = counting_builds(monkeypatch)
    ct = compute_character_table(g, cs)
    assert ct.verified
    assert len(built) <= most and len(set(built)) == len(built)


def test_full_tensor_builds_each_matrix_once(monkeypatch):
    built = counting_builds(monkeypatch)
    ca = class_constants(ClassSet(group(["(1,2)", "(1,2,3,4)"], 4)))
    assert built == []
    first = class_matrices(ca)
    assert class_matrices(ca) == first
    assert sorted(built) == list(range(ca.size))


def test_corrupted_class_matrix_raises(monkeypatch):
    """One count off in a built matrix breaks the weighted row sums,
    checked on every matrix as it is built."""
    original = ClassAlgebra._build

    def corrupted(self, i):
        m = original(self, i)
        if i == 1:
            m[2][3] += 1
        return m

    monkeypatch.setattr(ClassAlgebra, "_build", corrupted)
    g = group(["(1,2)", "(1,2,3,4)"], 4)
    with pytest.raises(InconsistencyError, match=r"weighted constants at \(1,2\)"):
        dixon_characters(ClassSet(g))
    ca = class_constants(ClassSet(g))
    ca.matrix(2)
    with pytest.raises(InconsistencyError):
        class_matrices(ca)


def test_s9_constants_and_eigensplit_are_fast():
    """Two-generator S9, order 362880 with 30 classes: the class algebra
    and the eigensplit at the table's prime, within a generous bound."""
    g = group(["(1,2,3,4,5,6,7,8,9)", "(1,2)"], 9)
    cs = ClassSet(g)
    assert (g.order, len(cs)) == (362880, 30)
    start = time.perf_counter()
    algebra = class_constants(cs)
    _, vectors = common_eigenbasis(algebra, choose_prime(cs.exponent, g.order))
    elapsed = time.perf_counter() - start
    assert len(set(vectors)) == 30
    assert elapsed < 1.5, f"constants and eigensplit took {elapsed:.2f}s"


class StubAlgebra:
    """The three members the split reads, size, kinds and matrix(i), over
    given matrices: the refusals below need data no group yields.  Each
    class has a shape of its own, so none has a twin and the split takes
    the matrices in class order."""

    def __init__(self, matrices):
        self.matrices = matrices
        self.size = len(matrices)
        self.kinds = [(True, 1, ((1, i + 1),)) for i in range(self.size)]

    def matrix(self, i):
        return self.matrices[i]


def _identity(r, scale=1):
    return [[scale if i == j else 0 for j in range(r)] for i in range(r)]


def test_the_split_refuses_a_matrix_not_diagonalizable_mod_p():
    """A Jordan block: the identity class's vector has minimal
    polynomial (t - 1)**2, one root for degree 2."""
    stub = StubAlgebra([_identity(2), [[1, 0], [1, 1]]])
    with pytest.raises(InconsistencyError, match="not diagonalizable mod p"):
        common_eigenbasis(stub, 7)


def test_the_split_refuses_matrices_that_do_not_commute():
    """M1 has eigenvectors (1,1,0) and (0,0,1) for 1 and (1,6,0) for 2;
    M2 has (1,6,0) for 0, (2,0,1) for 1 and (6,1,6) for 2, mod 7.  So the
    split finds three vectors, but M2's split of (1,1,0) leaves M1's
    eigenspace, which the eigen-equation check on M1 catches."""
    m1 = [[5, 3, 0], [3, 5, 0], [0, 0, 1]]
    m2 = [[0, 0, 2], [1, 1, 5], [3, 3, 2]]

    def times(a, b):
        return [[sum(x * y for x, y in zip(row, col)) % 7 for col in zip(*b)]
                for row in a]

    assert times(m1, m2) != times(m2, m1)
    stub = StubAlgebra([_identity(3), m1, m2])
    with pytest.raises(InconsistencyError, match="class-sum matrix 1 does not"):
        common_eigenbasis(stub, 7)


def test_the_split_refuses_scalar_matrices():
    """Scalar matrices leave the identity class's vector whole, one
    vector where three are needed."""
    stub = StubAlgebra([_identity(3, s) for s in (1, 2, 3)])
    with pytest.raises(InconsistencyError,
                       match="expected 3 common eigenvectors, got 1"):
        common_eigenbasis(stub, 7)


def _counting_reductions(monkeypatch):
    conductors = []
    original = dixon._reduce_poly

    def reduce_poly(e, poly):
        conductors.append(e)
        return original(e, poly)

    monkeypatch.setattr(dixon, "_reduce_poly", reduce_poly)
    return conductors


def test_rational_columns_build_no_reduction(monkeypatch):
    """Every value of S5 is an integer: Dixon's lift reduces no
    polynomial, although the table is stored at the exponent 60."""
    conductors = _counting_reductions(monkeypatch)
    cs = ClassSet(group(["(1,2)", "(1,2,3,4,5)"], 5))
    ct = canonical_table(cs, *dixon_characters(cs))
    assert ct.conductor == 60 and ct.verified
    assert conductors == []


def test_irrational_columns_reduce_at_the_element_order(monkeypatch):
    """F21's irrational columns are its classes of elements of order 7
    and 3: the lift reduces at 7 and 3, once per distinct value of each
    order's columns, never at the exponent 21."""
    conductors = _counting_reductions(monkeypatch)
    ct = compute_character_table(group(["(1,2,3,4,5,6,7)", "(2,3,5)(4,7,6)"], 7))
    assert ct.conductor == 21 and ct.verified
    assert set(conductors) == {3, 7}
    values = {(c.order, v.num) for row in ct.values
              for c, v in zip(ct.classes, row) if c.order > 1}
    assert len(conductors) == len(values)


def test_declared_conductor_is_the_exponent_within_the_cap():
    """A group whose exponent is within the cap declares the exponent;
    above it, the field conductor, which reads the column conductors of
    the classes that are no power of another."""
    assert declared_conductor(ClassSet(group(["(1,2,3)(4,5)"], 5))) == 6
    agl = group(["(1,2,3,4,5,6,7)", "(2,4,3,7,5,6)",
                 "(8,9,10,11,12,13,14,15,16,17,18)",
                 "(9,10,12,16,13,18,17,15,11,14)"], 18)
    cs = ClassSet(agl)
    # AGL(1,7) x AGL(1,11): exponent 2310, values in Q(zeta_3, zeta_5)
    assert (agl.order, cs.exponent) == (4620, 2310)
    assert declared_conductor(cs) == 15
