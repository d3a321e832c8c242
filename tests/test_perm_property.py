"""Property tests of the permutation layer on random small groups.

Each group is generated by one to three random permutations of degree
at most six.  Every oracle is built from Permutation.__mul__ alone: the
element set by naive closure, inverses as the last power before the
identity, classes by conjugating with every element, powers and class
constants by repeated products.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

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
