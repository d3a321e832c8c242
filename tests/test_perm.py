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

from ctrz.dixon import class_constants, compute_character_table
from ctrz.errors import InconsistencyError, InputError
from ctrz.perm import (MAX_DEGREE, Permutation, parse_cycles, format_cycles,
                       FiniteGroup, ClassSet, orbit_count_tuples)
from ctrz.pipeline import builtin_analysis

from conftest import class_matrices


def test_parse_simple_cycle():
    # Images are stored 0-based; the action is queried 1-based.
    p = parse_cycles("(1,2,3)", 3)
    assert p.images == (1, 2, 0)
    assert [p(x) for x in (1, 2, 3)] == [2, 3, 1]


def test_parse_product_of_cycles():
    p = parse_cycles("(1,2)(3,4)", 4)
    assert [p(x) for x in (1, 2, 3, 4)] == [2, 1, 4, 3]


def test_parse_identity_forms():
    assert parse_cycles("()", 3) == Permutation.identity(3)
    assert parse_cycles("", 3) == Permutation.identity(3)
    assert parse_cycles("  ", 5) == Permutation.identity(5)


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


@pytest.mark.parametrize("text", ["(1,\u00b2)", "(\u0661,2)", "(1,\uff12)"],
                         ids=["superscript", "arabic-indic", "fullwidth"])
def test_parse_accepts_only_ascii_digits(text):
    """str.isdigit passes a superscript two, an Arabic-Indic one and a
    fullwidth two; none is a point."""
    with pytest.raises(InputError, match="bad point"):
        parse_cycles(text, 4)


def test_parse_refuses_a_point_too_long_before_reading_it():
    """int() refuses more than 4300 digits with a ValueError; a point with
    more digits than the degree is out of range before int() sees it."""
    with pytest.raises(InputError, match="out of range"):
        parse_cycles("(1," + "9" * 5000 + ")", 4)
    with pytest.raises(InputError, match="out of range"):
        parse_cycles("(1,10)", 9)
    assert parse_cycles("(1,10)", 10) == parse_cycles("(10,1)", 10)
    # leading zeros still name the same point
    assert parse_cycles("(01,0002)", 4) == parse_cycles("(1,2)", 4)
    assert parse_cycles("(" + "0" * 5000 + "1,2)", 4) == parse_cycles("(1,2)", 4)
    with pytest.raises(InputError, match="point 0 out of range"):
        parse_cycles("(00,1)", 4)


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
    assert p * p.inverse() == Permutation.identity(7)
    q = Permutation.identity(7)
    for _ in range(10):
        q = q * p
    assert q == Permutation.identity(7)


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


def test_products_round_trip_through_membership_and_classes():
    g = FiniteGroup([parse_cycles("(1,2,3,4)", 4)])
    cs = ClassSet(g)
    words = list(g.products())
    assert len(set(words)) == len(words) == g.order == 4
    assert words[0] == g.identity
    for w in words:
        assert Permutation(w) in g
        assert w in cs.classes[cs.class_of_element(Permutation(w))].words()
    assert parse_cycles("(1,3)(2,4)", 4) in g
    assert parse_cycles("(1,2)", 4) not in g
    with pytest.raises(InputError):
        cs.class_of_element(parse_cycles("(1,2)", 4))


def test_order_cap():
    with pytest.raises(InputError):
        FiniteGroup([parse_cycles("(1,2)", 5), parse_cycles("(1,2,3,4,5)", 5)],
                    order_cap=100)


def _symmetric_generators(n):
    return [parse_cycles("(1,2)", n),
            parse_cycles("(" + ",".join(map(str, range(1, n + 1))) + ")", n)]


def _traced(make):
    """(seconds, peak traced bytes, the exception) of a refused make()."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(InputError) as info:
            make()
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return elapsed, peak, info.value


def test_order_cap_at_the_order_enumerates_and_one_below_refuses_early():
    gens = _symmetric_generators(8)
    assert FiniteGroup(gens, order_cap=40320).order == 40320
    _, peak, exc = _traced(lambda: FiniteGroup(gens, order_cap=40319))
    assert str(exc) == "group order exceeds cap 40319; raise order_cap if intended"
    # 40320 words of 8 bytes would be 40320 * 41 bytes as bytes objects
    assert peak < 64 << 10


@pytest.mark.parametrize("n", [20, 256])
def test_order_cap_refuses_large_symmetric_groups_fast(n):
    gens = _symmetric_generators(n)
    elapsed, peak, exc = _traced(lambda: FiniteGroup(gens))
    assert "exceeds cap 10000000" in str(exc)
    assert elapsed < 1, f"refusal took {elapsed:.2f}s"
    assert peak < 2 << 20


E3 = b"\x00\x01\x02"  # the identity of S3 as a word


@pytest.mark.parametrize("chain, message", [
    # level 0 lists the identity under keys 0 and 1
    ([{0: E3, 1: E3, 2: b"\x02\x01\x00"}, {1: E3, 2: b"\x00\x02\x01"}],
     "stabilizer chain lists an element twice"),
    # the level-1 word at key 2 moves point 1, level 0's base point
    ([{0: E3, 1: b"\x01\x00\x02", 2: b"\x02\x01\x00"},
      {1: E3, 2: b"\x01\x02\x00"}],
     "stabilizer chain moves base point 1 below its level"),
], ids=["identity-under-two-keys", "deeper-word-moves-base-point"])
def test_corrupt_stabilizer_chain_refused(monkeypatch, chain, message):
    monkeypatch.setattr(FiniteGroup, "_transversals", lambda self, cap: chain)
    with pytest.raises(InconsistencyError, match=message):
        FiniteGroup(_symmetric_generators(3))


def test_class_walk_refuses_a_chain_short_of_the_group(monkeypatch):
    # a consistent chain of the subgroup <(1,2)> for the generators of S3:
    # the class of (1,2) alone holds three transpositions
    chain = [{0: E3, 1: b"\x01\x00\x02"}]
    monkeypatch.setattr(FiniteGroup, "_transversals", lambda self, cap: chain)
    g = FiniteGroup(_symmetric_generators(3))
    assert g.order == 2
    with pytest.raises(InconsistencyError,
                       match="conjugacy classes hold 4 elements, the stabilizer chain 2"):
        ClassSet(g)


@pytest.mark.parametrize("gens", [
    ["(1,2,3,4,5,6,7)", "(2,3)(4,7)"],
    ["(1,2)", "(1,2,3,4,5,6,7)"],
], ids=["psl(2,7)", "s7"])
def test_table_builds_no_element_index_and_no_class_of(gens):
    g = FiniteGroup([parse_cycles(c, 7) for c in gens])
    cs = ClassSet(g)
    table = compute_character_table(g, cs)
    assert table.verified
    for name in ("words", "elements", "index", "element_index"):
        assert not hasattr(g, name)
    assert not hasattr(cs, "class_of")
    *_, last = g.products()
    x = Permutation(last)
    assert x in g
    assert (parse_cycles("(1,2)", 7) in g) == (g.order == 5040)
    assert last in cs.classes[cs.class_of_element(x)].words()


def test_membership_sifts_through_the_chain():
    s9 = FiniteGroup(_symmetric_generators(9))
    a9 = FiniteGroup([parse_cycles("(1,2,3)", 9),
                      parse_cycles("(1,2,3,4,5,6,7,8,9)", 9)])
    assert a9.order == 181440
    odd = parse_cycles("(1,9,2)(3,4)", 9)
    even = parse_cycles("(1,9,2)(3,4)(5,6)", 9)
    assert odd in s9 and even in s9 and Permutation.identity(9) in s9
    assert odd not in a9 and even in a9
    assert parse_cycles("(1,2)", 8) not in s9
    assert odd.images not in s9
    for g in (s9, a9):
        assert not hasattr(g, "words")
        assert not hasattr(g, "index")


def test_s8_classes_peak_traced_memory():
    # with a word -> index dict, its index ints and member index lists the
    # two peaked at 4.88 MiB (Python 3.11); the packed classes at 4.07 MiB;
    # with the walk's dict the only copy of the elements, 3.11 MiB
    gens = _symmetric_generators(8)
    tracemalloc.start()
    try:
        cs = ClassSet(FiniteGroup(gens))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cs) == 22
    assert peak < 4.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_s7_classes_do_not_depend_on_the_generator_count():
    # two generators make one pair sweep, three add a lone one, four a
    # second pair; the classes are the same group's
    gens = ["(1,2,3,4,5,6,7)", "(1,2)", "(2,3)", "(3,4)"]
    seen = []
    for count in (2, 3, 4):
        g = FiniteGroup([parse_cycles(c, 7) for c in gens[:count]])
        cs = ClassSet(g)
        seen.append(([(c.label, c.size, c.order, c.representative)
                      for c in cs.classes], cs.class_counts(g.products())))
    assert len(seen[0][0]) == 15 and sum(seen[0][1]) == 5040
    assert seen[0] == seen[1] == seen[2]


def test_s3_classes_in_canonical_order():
    """Classes sort by (size, element order, smallest member)."""
    g = FiniteGroup([parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)])
    cs = ClassSet(g)
    data = [(c.size, c.order) for c in cs.classes]
    assert data == [(1, 1), (2, 3), (3, 2)]
    assert cs.classes[0].representative == Permutation.identity(3)
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
    for t in map(Permutation, g.products()):
        assert cs.class_of_element(t.inverse() * x * t) == i


def test_centralizer_order_times_size_is_group_order():
    g = FiniteGroup([parse_cycles("(1,2)", 4), parse_cycles("(1,2,3,4)", 4)])
    cs = ClassSet(g)
    for c in cs.classes:
        assert g.order == (g.order // c.size) * c.size


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
    if name in PINNED_GENERATORS:
        degree, gens = PINNED_GENERATORS[name]
        g = FiniteGroup([parse_cycles(c, degree) for c in gens])
        return g, ClassSet(g)
    a = builtin_analysis(name)
    return a.group, a.class_set


PINNED_GENERATORS = {
    "s7": (7, ["(1,2)", "(1,2,3,4,5,6,7)"]),
    "m11": (11, ["(1,2,3,4,5,6,7,8,9,10,11)", "(3,7,11,8)(4,10,5,6)"]),
}

# Digests of the output of the tuple-based permutation layer this one
# replaced, taken on that code; M11's were taken on the element-index
# class walk that the word-keyed one replaced.  They pin the canonical
# class order and everything read off it.  The element order is not
# pinned: "elements" digests the sorted element images and "class_of"
# the class of each of them, by class_of_element, in that sorted order,
# both taken on the breadth-first enumeration that the stabilizer chain
# replaced.
PINNED = {
    "g1344-deg8": {
        "elements": "d9780b9c35e70201", "classes": "c579048a550f622d",
        "class_of": "d2b4c395038c0738", "power_inverse": "05ca343357782a84",
        "power_square": "c7d690fd2c239836", "constants": "86f713d76964794e"},
    "g1344-deg14": {
        "elements": "bf03062d7deba49f", "classes": "d2a7d18cb50fa253",
        "class_of": "899ebeb31eb4bb29", "power_inverse": "05ca343357782a84",
        "power_square": "2f34439eb9e892a8", "constants": "86f713d76964794e"},
    "s7": {
        "elements": "94f197ca91eeb80d", "classes": "6164c46e2f4778a9",
        "class_of": "80ea29ab3554a918", "power_inverse": "e994167b45cad608",
        "power_square": "266d475c2a929905", "constants": "29b054aeccbb72c9"},
    "m11": {
        "elements": "ff493684ff6a65c2", "classes": "393fcba974172aab",
        "class_of": "dafd7dac57a82813", "power_inverse": "d7556efb42925f72",
        "power_square": "13d4011ab6179290", "constants": "03d9cbee99a043de"},
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_classes_power_maps_and_constants_pinned(name):
    g, cs = _pinned_group(name)
    words = sorted(g.products())
    got = {
        "elements": _digest([list(w) for w in words]),
        "classes": _digest([[c.label, c.size, c.order, str(c.representative)]
                            for c in cs.classes]),
        "class_of": _digest([cs.class_of_element(Permutation(w))
                             for w in words]),
        "power_inverse": _digest(cs.power_map(-1)),
        "power_square": _digest(cs.power_map(2)),
        "constants": _digest(class_matrices(class_constants(cs))),
    }
    assert got == PINNED[name]


def _s(n):
    return FiniteGroup(_symmetric_generators(n))


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


def test_orbit_count_direct_takes_the_top_stabilizer_from_the_chain(monkeypatch):
    """The orbit of the chain's first base point is counted through the
    chain's deeper products, not through FiniteGroup.stabilizer."""
    g = FiniteGroup([parse_cycles(c, 7) for c in ["(2,3)", "(1,2,3,4,5,6,7)"]])
    b = next(iter(g._chain[0]))
    assert b == 1  # point 2, not point 1
    orbit = set(g._chain[0])
    stabilizer = FiniteGroup.stabilizer

    def refusing(self, p):
        if p in orbit:
            raise AssertionError(f"stabilizer of point {p + 1} rebuilt")
        return stabilizer(self, p)

    want = [orbit_count_tuples(g, t, method="burnside") for t in range(7)]
    monkeypatch.setattr(FiniteGroup, "stabilizer", refusing)
    assert [orbit_count_tuples(g, t, method="direct") for t in range(7)] == want


def test_orbit_count_direct_stack_does_not_grow_with_t():
    """A run of repeated points keeps the subgroup, so the descent is as
    deep as a stabilizer chain, not as the tuple length."""
    s3 = _s(3)
    assert (orbit_count_tuples(s3, 5000, method="direct", tuple_cap=3**5000)
            == orbit_count_tuples(s3, 5000, method="burnside"))
