"""Property tests of the permutation layer on random small groups.

Each group is generated by one to three random permutations of degree
at most six.  Every oracle is built from Permutation.__mul__ alone: the
element set by naive closure, inverses as the last power before the
identity, classes by conjugating with every element, powers and class
constants by repeated products.  The direct orbit count on t-tuples,
t <= 5, is checked against a walk over all degree**t tuples under the
generators, with ClassSet replaced so that reading class data fails.
"""

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from ctrz.dixon import class_constants
from ctrz.perm import ClassSet, FiniteGroup, Permutation, orbit_count_tuples


@st.composite
def generator_lists(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    images = st.permutations(range(n))
    return [Permutation(p) for p in
            draw(st.lists(images, min_size=1, max_size=3))]


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
    while not q.is_identity():
        prev, q = q, q * x
    return prev


def check_group(gens):
    g = FiniteGroup(gens)
    elems = closure(gens)
    assert set(g.elements) == elems
    assert g.order == len(elems)
    assert [g.element_index(e) for e in g.elements] == list(range(g.order))
    inv = {x: inverse(x) for x in elems}
    assert [g.elements[i] for i in g.inverse_index()] == [
        inv[e] for e in g.elements]

    cs = ClassSet(g)
    members = []
    for c in cs.classes:
        conj = {inv[t] * c.representative * t for t in elems}
        assert {g.elements[i] for i in c.members} == conj
        assert c.size == len(conj)
        assert c.order == c.representative.order()
        assert c.representative.images == min(x.images for x in conj)
        members.extend(c.members)
    assert sorted(members) == list(range(g.order))
    assert cs.classes[0].representative.is_identity()
    keys = [(c.size, c.order, c.representative.images) for c in cs.classes]
    assert keys == sorted(keys)
    for i, e in enumerate(g.elements):
        assert i in cs.classes[cs.class_of[i]].members

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
    assert ca.constants == counts


@settings(max_examples=100, deadline=None)
@given(generator_lists())
def test_random_groups_agree_with_product_oracles(gens):
    check_group(gens)


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
