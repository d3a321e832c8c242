"""Property tests of the permutation layer on random small groups.

Each group is generated by one to four random permutations of degree
at most six, so that the class walk meets a lone odd generator and a
second pair.  Every oracle is built from Permutation.__mul__ alone: the
element set by naive closure, inverses as the last power before the
identity, classes by conjugating with every element, powers and class
constants by repeated products.  The direct orbit count on t-tuples,
t <= 5, is checked against a walk over all degree**t tuples under the
generators, with ClassSet replaced so that reading class data fails,
and against Burnside on intransitive groups with fixed points.
Membership is checked against the closure on every permutation of the
degree, non-members included.  The eigensplit's vectors are checked
against every class matrix.  The same checks run on identity, repeated
and degree-1 generators, where the stabilizer chain that enumerates the
group has its edge cases, and on S_1 to S_6 from fixed generating sets,
whose classes come from their cycle types with no walk.
"""

import itertools
from math import factorial

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from ctrz.dixon import class_constants, common_eigenbasis
from ctrz.errors import InputError
from ctrz.modp import choose_prime
from ctrz.perm import (ClassSet, FiniteGroup, Permutation, orbit_count_tuples,
                       parse_cycles)

from conftest import class_matrices


@st.composite
def generator_lists(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    images = st.permutations(range(n))
    return [Permutation(p) for p in
            draw(st.lists(images, min_size=1, max_size=4))]


def closure(gens):
    ident = Permutation.identity(gens[0].degree)
    seen = {ident}
    frontier = [ident]
    while frontier:
        frontier = [x * g for x in frontier for g in gens]
        frontier = [x for x in set(frontier) if x not in seen]
        seen.update(frontier)
    return seen


def power(x, t):
    q = Permutation.identity(x.degree)
    for _ in range(t):
        q = q * x
    return q


def inverse(x):
    prev, q = Permutation.identity(x.degree), x
    while q != Permutation.identity(x.degree):
        prev, q = q, q * x
    return prev


def check_group(gens):
    g = FiniteGroup(gens)
    elems = closure(gens)
    products = list(g.products())
    assert len(set(products)) == len(products) == g.order == len(elems)
    assert {Permutation(w) for w in products} == elems
    assert products[0] == g.identity
    assert all(x in g for x in elems)
    for p in range(g.degree):
        assert (sorted(g.stabilizer(p))
                == sorted(bytes(x.images) for x in elems if x.images[p] == p))
    inv = {x: inverse(x) for x in elems}

    cs = ClassSet(g)
    members = []
    for c in cs.classes:
        conj = {inv[t] * c.representative * t for t in elems}
        words = c.words()
        assert len(set(words)) == len(words) == c.size
        assert sorted(words) == sorted(bytes(x.images) for x in conj)
        assert c.size == len(conj)
        assert c.order == c.representative.order()
        assert c.representative.images == min(x.images for x in conj)
        members.extend(words)
    assert sorted(members) == sorted(products)
    assert cs.classes[0].representative == Permutation.identity(g.degree)
    keys = [(c.size, c.order, c.representative.images) for c in cs.classes]
    assert keys == sorted(keys)
    for w in products:
        assert w in cs.classes[cs.class_of_element(Permutation(w))].words()
    outside = [x for x in map(Permutation, itertools.permutations(range(g.degree)))
               if x not in elems][:1] + [Permutation.identity(g.degree + 1)]
    for x in outside:
        assert x not in g
        with pytest.raises(InputError):
            cs.class_of_element(x)

    for t in (-1, 0, 1, 2, 3, 5, cs.exponent + 1):
        want = []
        for c in cs.classes:
            x = c.representative
            y = inverse(x) if t == -1 else power(x, t)
            want.append(cs.class_of_element(y))
        assert cs.power_map(t) == want

    for t in range(5):
        assert (orbit_count_tuples(g, t, method="direct")
                == orbit_count_tuples(g, t, method="burnside", classes=cs))

    ca = class_constants(cs)
    r = len(cs)
    counts = [[[0] * r for _ in range(r)] for _ in range(r)]
    for k, ck in enumerate(cs.classes):
        for x in elems:
            y = inv[x] * ck.representative
            counts[cs.class_of_element(x)][cs.class_of_element(y)][k] += 1
    assert class_matrices(ca) == counts
    return cs


@settings(max_examples=100, deadline=None)
@given(generator_lists())
def test_random_groups_agree_with_product_oracles(gens):
    check_group(gens)


def symmetric_generating_sets(n):
    """Generating sets of S_n by name: three generators in each, and one,
    two or the n - 1 adjacent transpositions."""
    if n <= 2:
        t = "(1,2)" if n == 2 else "()"
        return {"one": [t], "three": [t, "()", t]}
    cycle = "(" + ",".join(map(str, range(1, n + 1))) + ")"
    return {"two": ["(1,2)", cycle], "three": [cycle, "(1,2)", "(2,3)"],
            "adjacent": [f"({i},{i + 1})" for i in range(1, n)]}


@pytest.mark.parametrize("n, gens", [
    pytest.param(n, gens, id=f"s{n}-{name}")
    for n in range(1, 7) for name, gens in symmetric_generating_sets(n).items()])
def test_symmetric_groups_from_cycle_types_agree_with_product_oracles(n, gens):
    """A full symmetric group's classes come from its cycle types, and
    its class lookup holds no word, class matrices built; every oracle
    still holds."""
    cs = check_group([parse_cycles(c, n) for c in gens])
    assert cs.group.order == factorial(n)
    assert len(cs._orbit_of) == 0


@settings(max_examples=100, deadline=None)
@given(generator_lists())
def test_kept_fixed_points_are_the_representatives(gens):
    """ClassSet computes each representative's fixed-point count on first
    use and keeps the list."""
    cs = ClassSet(FiniteGroup(gens))
    fixed = cs.fixed_points
    assert fixed == [c.representative.fixed_points() for c in cs.classes]
    assert cs.fixed_points is fixed


@settings(max_examples=100, deadline=None)
@given(generator_lists())
def test_membership_agrees_with_the_closure(gens):
    """``in`` sifts through the chain: every permutation of the degree,
    members and non-members, against the closure, and nothing built."""
    g = FiniteGroup(gens)
    elems = closure(gens)
    n = g.degree
    for images in itertools.permutations(range(n)):
        assert (Permutation(images) in g) == (Permutation(images) in elems)
    assert Permutation.identity(n + 1) not in g
    assert not hasattr(g, "words")
    assert not hasattr(g, "index")


@st.composite
def intransitive_generator_lists(draw):
    """One to three generators, each permuting the points within fixed
    blocks: two or three blocks of one to three points, one more point
    that every generator fixes, and the points relabelled at random."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=3),
                          min_size=2, max_size=3))
    n = sum(sizes) + 1
    relabel = draw(st.permutations(range(n)))
    blocks, start = [], 0
    for size in sizes:
        blocks.append([relabel[start + i] for i in range(size)])
        start += size
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        images = list(range(n))
        for block in blocks:
            for x, y in zip(block, draw(st.permutations(block))):
                images[x] = y
        gens.append(Permutation(images))
    return gens


@settings(max_examples=100, deadline=None)
@given(intransitive_generator_lists())
def test_direct_count_on_intransitive_groups(gens):
    """The direct count's top level takes the point orbits from the
    generators and each stabilizer from the chain; with fixed points and
    several orbits it must still equal Burnside's average."""
    g = FiniteGroup(gens)
    cs = ClassSet(g)
    for t in range(5):
        assert (orbit_count_tuples(g, t, method="direct")
                == orbit_count_tuples(g, t, method="burnside", classes=cs))


@pytest.mark.parametrize("gens", [
    [Permutation.identity(4)],
    [Permutation((1, 0, 2, 3))] * 3 + [Permutation.identity(4),
                                       Permutation((1, 2, 3, 0))] * 2,
    [Permutation((0,))],
], ids=["identity", "repeated", "degree-1"])
def test_chain_order_equals_the_closure_on_edge_cases(gens):
    check_group(gens)


def test_trivial_group_from_a_degree_alone():
    g = FiniteGroup([], degree=3)
    assert list(g.products()) == [g.identity]
    assert ({Permutation(w) for w in g.products()}
            == closure([Permutation.identity(3)]))
    assert g.order == 1


@settings(max_examples=100, deadline=None)
@given(generator_lists())
def test_the_eigensplit_returns_common_eigenvectors(gens):
    """What the split returns, whichever matrices it used: r pairwise
    distinct vectors, each 1 at the identity class, and M_i v = v[i] * v
    mod p for every class matrix M_i."""
    cs = ClassSet(FiniteGroup(gens))
    algebra = class_constants(cs)
    p = choose_prime(cs.exponent, cs.group.order)
    prime, vectors = common_eigenbasis(algebra, p)
    assert prime == p
    assert len(vectors) == len(set(vectors)) == len(cs)
    assert all(v[0] == 1 for v in vectors)
    for i, m in enumerate(class_matrices(algebra)):
        for v in vectors:
            assert ([sum(a * x for a, x in zip(row, v)) % p for row in m]
                    == [v[i] * x % p for x in v])


def orbits_by_walk(gens, n, t):
    """Components of the generator action on all n**t tuples."""
    seen = set()
    orbits = 0
    for start in itertools.product(range(n), repeat=t):
        if start in seen:
            continue
        orbits += 1
        seen.add(start)
        stack = [start]
        while stack:
            x = stack.pop()
            for g in gens:
                y = tuple(g.images[i] for i in x)
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return orbits


def refuse_class_data(*args, **kwargs):
    raise AssertionError("the direct count read class data")


@settings(max_examples=60, deadline=None)
@given(generator_lists(), st.integers(min_value=1, max_value=5))
@example([Permutation.identity(4)], 5)                 # trivial
@example([Permutation((1, 0, 2, 4, 3, 5))], 4)          # intransitive
@example([Permutation((1, 2, 0, 3, 4, 5)),
          Permutation((0, 1, 2, 4, 5, 3))], 4)          # two orbits, C3 x C3
def test_direct_orbit_count_equals_a_walk_over_every_tuple(gens, t):
    g = FiniteGroup(gens)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("ctrz.perm.ClassSet", refuse_class_data)
        got = orbit_count_tuples(g, t, method="direct")
    assert got == orbits_by_walk(gens, g.degree, t)
