"""Permutations, group enumeration, conjugacy classes, orbit counts.

Oracles here are small groups whose structure is known by hand: S3,
S4, the Klein four-group, a cyclic group, and dihedral groups.  The
builtins and S7 are pinned by digests of their classes, power maps and
class constants.
"""

import hashlib
import json
import time
import tracemalloc

import pytest

from ctrz.dixon import class_constants
from ctrz.errors import InputError
from ctrz.perm import (MAX_DEGREE, Permutation, parse_cycles, format_cycles,
                       FiniteGroup, ClassSet, orbit_count_tuples)
from ctrz.pipeline import builtin_analysis


def test_parse_simple_cycle():
    # Images are stored 0-based; the action is queried 1-based.
    p = parse_cycles("(1,2,3)", 3)
    assert p.images == (1, 2, 0)
    assert [p(x) for x in (1, 2, 3)] == [2, 3, 1]


def test_parse_product_of_cycles():
    p = parse_cycles("(1,2)(3,4)", 4)
    assert [p(x) for x in (1, 2, 3, 4)] == [2, 1, 4, 3]


def test_parse_identity_forms():
    assert parse_cycles("()", 3).is_identity()
    assert parse_cycles("", 3).is_identity()
    assert parse_cycles("  ", 5).is_identity()


def test_parse_tolerates_whitespace():
    p = parse_cycles(" (1, 2)( 3 ,4 ) ", 4)
    assert p == parse_cycles("(1,2)(3,4)", 4)


def test_parse_rejects_unbalanced():
    with pytest.raises(InputError):
        parse_cycles("(1,2", 3)
    with pytest.raises(InputError):
        parse_cycles("1,2)", 3)


def test_parse_rejects_point_repeated_within_one_cycle():
    with pytest.raises(InputError):
        parse_cycles("(1,2,1)", 3)


def test_parse_composes_overlapping_cycles_left_to_right():
    # Cycles need not be disjoint; "(1,2)(2,3)" sends 1 to 2 to 3.
    p = parse_cycles("(1,2)(2,3)", 3)
    assert p == parse_cycles("(1,3,2)", 3)


def test_parse_rejects_point_out_of_range():
    with pytest.raises(InputError):
        parse_cycles("(1,5)", 4)
    with pytest.raises(InputError):
        parse_cycles("(0,1)", 4)


def test_parse_rejects_garbage():
    with pytest.raises(InputError):
        parse_cycles("(1,x)", 4)


def test_format_round_trip():
    for text in ["(1,2,3)", "(1,2)(3,4)", "(2,4)", "()"]:
        p = parse_cycles(text, 4)
        assert parse_cycles(format_cycles(p), 4) == p


def test_format_identity():
    assert format_cycles(Permutation.identity(3)) == "()"


def test_product_applies_left_factor_first():
    # (p * q)(x) = q(p(x)): the left factor acts first.
    p = parse_cycles("(1,2)", 3)
    q = parse_cycles("(2,3)", 3)
    r = p * q
    assert r(1) == 3
    assert r(3) == 2
    assert r(2) == 1


def test_inverse_and_order():
    p = parse_cycles("(1,2,3,4,5)(6,7)", 7)
    assert p.order() == 10
    assert (p * p.inverse()).is_identity()
    q = Permutation.identity(7)
    for _ in range(10):
        q = q * p
    assert q.is_identity()


def test_cycle_type_and_fixed_points():
    # cycle_type lists nontrivial cycle lengths only, descending.
    p = parse_cycles("(1,2,3)(4,5)", 6)
    assert p.cycle_type() == (3, 2)
    assert p.fixed_points() == 1
    assert Permutation.identity(4).cycle_type() == ()
    assert Permutation.identity(4).fixed_points() == 4


def test_mixed_degree_product_rejected():
    with pytest.raises(InputError):
        parse_cycles("(1,2)", 2) * parse_cycles("(1,2)", 3)


def test_s3_enumeration():
    g = FiniteGroup([parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)])
    assert g.order == 6
    assert g.degree == 3


def test_trivial_group_needs_degree():
    g = FiniteGroup([], degree=4)
    assert g.order == 1
    with pytest.raises(InputError):
        FiniteGroup([])


def test_element_index_round_trip():
    g = FiniteGroup([parse_cycles("(1,2,3,4)", 4)])
    inv = g.inverse_index()
    for i, e in enumerate(g.elements):
        assert g.element_index(e) == i
        assert g.elements[inv[i]] == e.inverse()
    assert parse_cycles("(1,3)(2,4)", 4) in g
    assert parse_cycles("(1,2)", 4) not in g
    with pytest.raises(InputError):
        g.element_index(parse_cycles("(1,2)", 4))


def test_order_cap():
    with pytest.raises(InputError):
        FiniteGroup([parse_cycles("(1,2)", 5), parse_cycles("(1,2,3,4,5)", 5)],
                    order_cap=100)


def test_s3_classes_in_canonical_order():
    """Classes sort by (size, element order, smallest member)."""
    g = FiniteGroup([parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)])
    cs = ClassSet(g)
    data = [(c.size, c.order) for c in cs.classes]
    assert data == [(1, 1), (2, 3), (3, 2)]
    assert cs.classes[0].representative.is_identity()
    assert cs.exponent == 6


def test_s4_classes():
    g = FiniteGroup([parse_cycles("(1,2)", 4), parse_cycles("(1,2,3,4)", 4)])
    cs = ClassSet(g)
    assert g.order == 24
    assert [(c.size, c.order) for c in cs.classes] == [
        (1, 1), (3, 2), (6, 2), (6, 4), (8, 3)]
    assert sum(c.size for c in cs.classes) == 24


def test_klein_four_group_classes():
    g = FiniteGroup([parse_cycles("(1,2)(3,4)", 4), parse_cycles("(1,3)(2,4)", 4)])
    cs = ClassSet(g)
    assert g.order == 4
    assert [c.size for c in cs.classes] == [1, 1, 1, 1]
    assert cs.exponent == 2


def test_class_of_element_consistent_under_conjugation():
    g = FiniteGroup([parse_cycles("(1,2)", 4), parse_cycles("(1,2,3,4)", 4)])
    cs = ClassSet(g)
    x = parse_cycles("(1,2,3)", 4)
    i = cs.class_of_element(x)
    for t in g.elements:
        assert cs.class_of_element(t.inverse() * x * t) == i


def test_centralizer_order_times_size_is_group_order():
    g = FiniteGroup([parse_cycles("(1,2)", 4), parse_cycles("(1,2,3,4)", 4)])
    cs = ClassSet(g)
    for i, c in enumerate(cs.classes):
        assert cs.centralizer_order(i) * c.size == g.order


def test_power_map_s3():
    g = FiniteGroup([parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)])
    cs = ClassSet(g)
    # Classes: identity, 3-cycles, transpositions.
    squares = cs.power_map(2)
    assert squares == [0, 1, 0]
    cubes = cs.power_map(3)
    assert cubes == [0, 0, 2]
    inverses = cs.power_map(-1)
    assert inverses == [0, 1, 2]


def test_orbit_counts_symmetric_groups_are_bell_numbers():
    """S_n acting on n points has Bell(t) orbits on t-tuples for t <= n.

    An orbit is determined by the equality pattern of the tuple, so the
    count is the number of set partitions of t positions.
    """
    s3 = FiniteGroup([parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)])
    s4 = FiniteGroup([parse_cycles("(1,2)", 4), parse_cycles("(1,2,3,4)", 4)])
    bell = {1: 1, 2: 2, 3: 5, 4: 15}
    for t in (1, 2, 3):
        assert orbit_count_tuples(s3, t, method="burnside") == bell[t]
        assert orbit_count_tuples(s3, t, method="direct") == bell[t]
    for t in (1, 2, 3, 4):
        assert orbit_count_tuples(s4, t, method="burnside") == bell[t]
        assert orbit_count_tuples(s4, t, method="direct") == bell[t]


def test_orbit_count_cyclic_group():
    """C4 on pairs: only the identity fixes any pair (16 of them), and
    averaging over the four group elements gives 16/4 = 4 orbits."""
    c4 = FiniteGroup([parse_cycles("(1,2,3,4)", 4)])
    assert orbit_count_tuples(c4, 2, method="burnside") == 4
    assert orbit_count_tuples(c4, 2, method="direct") == 4


def test_orbit_count_direct_cap():
    s3 = FiniteGroup([parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)])
    with pytest.raises(InputError):
        orbit_count_tuples(s3, 20, method="direct", tuple_cap=1000)


def test_orbit_count_bad_method():
    s3 = FiniteGroup([parse_cycles("(1,2)", 3)])
    with pytest.raises(InputError):
        orbit_count_tuples(s3, 2, method="magic")


def test_orbit_count_direct_cap_checked_before_maps_are_built():
    # 4**8 = 65536 tuples: the image maps alone would take 512 KiB
    s4 = FiniteGroup([parse_cycles("(1,2)", 4), parse_cycles("(1,2,3,4)", 4)])
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="exceed cap 1000"):
            orbit_count_tuples(s4, 8, method="direct", tuple_cap=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024


def test_degree_above_limit_refused_before_enumeration():
    n = MAX_DEGREE + 1
    gens = [parse_cycles("(1,2)", n),
            parse_cycles("(" + ",".join(map(str, range(1, n + 1))) + ")", n)]
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="limit of 256 points"):
            FiniteGroup(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024
    with pytest.raises(InputError, match="limit of 256 points"):
        FiniteGroup([], degree=n)
    assert FiniteGroup([parse_cycles("(1,256)", 256)]).order == 2


def _digest(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pinned_group(name):
    if name == "s7":
        g = FiniteGroup([parse_cycles("(1,2)", 7),
                         parse_cycles("(1,2,3,4,5,6,7)", 7)])
        return g, ClassSet(g)
    a = builtin_analysis(name)
    return a.group, a.class_set


# Digests of the output of the tuple-based permutation layer this one
# replaced, taken on that code.  They pin the enumeration order, the
# canonical class order and everything read off it.
PINNED = {
    "g1344-deg8": {
        "elements": "ec722d155c3e1943", "classes": "c579048a550f622d",
        "class_of": "ef1cb66def4921d6", "power_inverse": "05ca343357782a84",
        "power_square": "c7d690fd2c239836", "constants": "86f713d76964794e"},
    "g1344-deg14": {
        "elements": "31e57b0c0dd6e937", "classes": "d2a7d18cb50fa253",
        "class_of": "9a45944bccbce4fa", "power_inverse": "05ca343357782a84",
        "power_square": "2f34439eb9e892a8", "constants": "86f713d76964794e"},
    "s7": {
        "elements": "4c925289e8b96ac3", "classes": "6164c46e2f4778a9",
        "class_of": "a2519ae50beca8c7", "power_inverse": "e994167b45cad608",
        "power_square": "266d475c2a929905", "constants": "29b054aeccbb72c9"},
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_classes_power_maps_and_constants_pinned(name):
    g, cs = _pinned_group(name)
    got = {
        "elements": _digest([list(e.images) for e in g.elements]),
        "classes": _digest([[c.label, c.size, c.order, str(c.representative)]
                            for c in cs.classes]),
        "class_of": _digest(cs.class_of),
        "power_inverse": _digest(cs.power_map(-1)),
        "power_square": _digest(cs.power_map(2)),
        "constants": _digest(class_constants(cs).constants),
    }
    assert got == PINNED[name]


def _s(n):
    return FiniteGroup([parse_cycles("(1,2)", n),
                        parse_cycles("(" + ",".join(map(str, range(1, n + 1)))
                                     + ")", n)])


@pytest.mark.parametrize("group, t, want", [
    # a walk over every tuple took 5.4, 4.1 and 3.6 s on these
    (lambda: FiniteGroup([parse_cycles("(1,2)", 2)]), 23, 2**22),
    (lambda: FiniteGroup([], degree=3), 14, 3**14),
    (lambda: _s(3), 14, None),
], ids=["c2", "identity3", "s3"])
def test_orbit_count_direct_on_many_tuples_is_fast(group, t, want):
    g = group()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        got = orbit_count_tuples(g, t, method="direct")
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (want or orbit_count_tuples(g, t, method="burnside"))
    assert elapsed < 0.5, f"direct count took {elapsed:.2f}s"
    assert peak < 1 << 20


M11_GENERATORS = ["(1,2,3,4,5,6,7,8,9,10,11)", "(3,7,11,8)(4,10,5,6)"]


@pytest.mark.parametrize("group, t, want", [
    (lambda: _s(8), 6, 203),  # Bell(6): S8 is 6-transitive
    (lambda: FiniteGroup([parse_cycles(x, 11) for x in M11_GENERATORS]), 5, 58),
], ids=["s8", "m11"])
def test_orbit_count_direct_on_large_groups(group, t, want):
    g = group()
    start = time.perf_counter()
    got = orbit_count_tuples(g, t, method="direct")
    elapsed = time.perf_counter() - start
    assert got == want == orbit_count_tuples(g, t, method="burnside")
    assert elapsed < 1.0, f"direct count took {elapsed:.2f}s"


def test_orbit_count_direct_stack_does_not_grow_with_t():
    """A run of repeated points keeps the subgroup, so the descent is as
    deep as a stabilizer chain, not as the tuple length."""
    s3 = _s(3)
    assert (orbit_count_tuples(s3, 5000, method="direct", tuple_cap=3**5000)
            == orbit_count_tuples(s3, 5000, method="burnside"))
