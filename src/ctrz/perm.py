"""Permutations on {1..n}, finite groups from generators, conjugacy classes.

Permutations are stored as image tuples (0-based internally, 1-based in
all text I/O).  Products compose left to right: ``(p * q)(x) == q(p(x))``,
so a cycle string like ``(1,2)(2,3)`` applies its leftmost cycle first.
For products of disjoint cycles, the only kind appearing in the embedded
datasets, the convention makes no difference.

Group enumeration is a breadth-first closure under right multiplication
by the generators, capped so a typo cannot eat all memory.  Conjugacy
classes are conjugation orbits under the generators, reported in a
canonical order: size ascending, then element order ascending, then the
lexicographically smallest member.
"""

from __future__ import annotations

import itertools
from math import lcm

from .errors import InputError, InconsistencyError

DEFAULT_ORDER_CAP = 10**7
DEFAULT_TUPLE_CAP = 10**7


class Permutation:
    """A permutation of {1..degree} held as a tuple of 0-based images."""

    __slots__ = ("images",)

    def __init__(self, images):
        self.images = tuple(images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        # apply self first, then other
        if len(self.images) != len(other.images):
            raise InputError("degree mismatch in product")
        o = other.images
        return Permutation(o[i] for i in self.images)

    def __call__(self, point: int) -> int:
        # 1-based action
        return self.images[point - 1] + 1

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, 1-based, each starting at its smallest point,
        sorted by that point."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = []
            i = start
            while not seen[i]:
                seen[i] = True
                cyc.append(i + 1)
                i = self.images[i]
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        """Lengths of nontrivial cycles, descending.  Class invariant."""
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def order(self) -> int:
        return lcm(1, *(len(c) for c in self.cycles()))

    def fixed_points(self) -> int:
        return sum(1 for i, j in enumerate(self.images) if i == j)

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r})"

    def __str__(self) -> str:
        return format_cycles(self)


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse cycle notation like ``(1,5)(2,6,3)`` into a Permutation.

    Grammar: zero or more parenthesised cycles of 1-based points,
    whitespace ignored.  The empty string and ``()`` both denote the
    identity.  Cycles need not be disjoint; they apply left to right.
    Raises InputError for syntax errors, points out of range, or a point
    repeated within one cycle.
    """
    if degree < 1:
        raise InputError("degree must be at least 1")
    s = "".join(text.split())
    pos = 0
    images = list(range(degree))
    while pos < len(s):
        if s[pos] != "(":
            raise InputError(f"expected '(' at position {pos} in {text!r}")
        end = s.find(")", pos)
        if end < 0:
            raise InputError(f"unclosed cycle in {text!r}")
        body = s[pos + 1 : end]
        pos = end + 1
        if not body:
            continue  # "()" is the identity factor
        points = []
        for part in body.split(","):
            if not part.isdigit():
                raise InputError(f"bad point {part!r} in {text!r}")
            p = int(part)
            if not 1 <= p <= degree:
                raise InputError(f"point {p} out of range 1..{degree}")
            points.append(p - 1)
        if len(set(points)) != len(points):
            raise InputError(f"repeated point within a cycle in {text!r}")
        nxt = {points[i]: points[(i + 1) % len(points)] for i in range(len(points))}
        images = [nxt.get(img, img) for img in images]
    return Permutation(images)


def format_cycles(p: Permutation) -> str:
    """Canonical disjoint-cycle string; identity formats as ``()``.

    parse_cycles(format_cycles(p), p.degree) == p for every p.
    """
    cycs = p.cycles()
    if not cycs:
        return "()"
    return "".join("(" + ",".join(str(x) for x in c) + ")" for c in cycs)


class FiniteGroup:
    """A finite permutation group enumerated from its generators."""

    def __init__(self, generators: list[Permutation], degree: int | None = None,
                 order_cap: int = DEFAULT_ORDER_CAP):
        if degree is None:
            if not generators:
                raise InputError("degree required when no generators are given")
            degree = generators[0].degree
        for g in generators:
            if g.degree != degree:
                raise InputError("generators act on different degrees")
        self.degree = degree
        self.generators = list(generators)
        self.elements: list[Permutation] = []
        self.index: dict[tuple[int, ...], int] = {}
        self._enumerate(order_cap)
        self._inverse_index: list[int] | None = None

    def _enumerate(self, cap: int) -> None:
        ident = Permutation.identity(self.degree)
        self.elements = [ident]
        self.index = {ident.images: 0}
        frontier = 0
        while frontier < len(self.elements):
            cur = self.elements[frontier]
            frontier += 1
            for g in self.generators:
                w = cur * g
                if w.images not in self.index:
                    if len(self.elements) >= cap:
                        raise InputError(
                            f"group order exceeds cap {cap}; raise order_cap if intended")
                    self.index[w.images] = len(self.elements)
                    self.elements.append(w)

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_index(self, p: Permutation) -> int:
        try:
            return self.index[p.images]
        except KeyError:
            raise InputError(f"{p} is not an element of this group") from None

    def __contains__(self, p: Permutation) -> bool:
        return isinstance(p, Permutation) and p.images in self.index

    def inverse_index(self) -> list[int]:
        """index of the inverse of element i, cached."""
        if self._inverse_index is None:
            self._inverse_index = [
                self.index[e.inverse().images] for e in self.elements]
        return self._inverse_index


class ConjugacyClass:
    __slots__ = ("label", "size", "order", "representative", "members")

    def __init__(self, label, size, order, representative, members):
        self.label = label
        self.size = size
        self.order = order              # common element order
        self.representative = representative
        self.members = members          # sorted element indices

    def __repr__(self):
        return f"ConjugacyClass({self.label}, size={self.size}, order={self.order})"


class ClassSet:
    """Conjugacy classes of a FiniteGroup in canonical order.

    Canonical order: class size ascending, element order ascending, then
    the lexicographically smallest member image tuple.  The identity
    class is always first.  class_of maps element index to class index;
    power_map(t)[c] is the class of t-th powers of class c.
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        raw = self._orbits()
        keyed = []
        for members in raw:
            rep_min = min(group.elements[i].images for i in members)
            p = group.elements[members[0]]
            keyed.append((len(members), p.order(), rep_min, members))
        keyed.sort(key=lambda t: t[:3])
        self.classes: list[ConjugacyClass] = []
        self.class_of = [0] * group.order
        for ci, (size, order, rep_min, members) in enumerate(keyed):
            rep = Permutation(rep_min)
            cls = ConjugacyClass(f"C{ci + 1}", size, order, rep, sorted(members))
            self.classes.append(cls)
            for ei in members:
                self.class_of[ei] = ci
        self.exponent = lcm(1, *(c.order for c in self.classes))
        self._power_maps: dict[int, list[int]] = {}

    def _orbits(self) -> list[list[int]]:
        g = self.group
        assigned = [False] * g.order
        gen_pairs = [(gen.inverse(), gen) for gen in g.generators]
        orbits = []
        for start in range(g.order):
            if assigned[start]:
                continue
            orbit = [start]
            assigned[start] = True
            queue = [start]
            while queue:
                ei = queue.pop()
                x = g.elements[ei]
                for ginv, gen in gen_pairs:
                    w = (ginv * x) * gen
                    wi = g.index[w.images]
                    if not assigned[wi]:
                        assigned[wi] = True
                        orbit.append(wi)
                        queue.append(wi)
            orbits.append(orbit)
        return orbits

    def __len__(self) -> int:
        return len(self.classes)

    def class_of_element(self, p: Permutation) -> int:
        return self.class_of[self.group.element_index(p)]

    def power_map(self, t: int) -> list[int]:
        """Class index of t-th powers, per class.  Defined for every
        integer t; t = -1 gives the inverse classes."""
        t = t % self.exponent if self.exponent else 0
        cached = self._power_maps.get(t)
        if cached is not None:
            return cached
        out = []
        for c in self.classes:
            q = Permutation.identity(self.group.degree)
            for _ in range(t):
                q = q * c.representative
            out.append(self.class_of[self.group.element_index(q)])
        self._power_maps[t] = out
        return out

    def centralizer_order(self, class_index: int) -> int:
        size = self.classes[class_index].size
        if self.group.order % size:
            raise InconsistencyError("class size does not divide group order")
        return self.group.order // size

    def sizes(self) -> list[int]:
        return [c.size for c in self.classes]


def orbit_count_tuples(group: FiniteGroup, t: int, method: str = "burnside",
                       classes: ClassSet | None = None,
                       tuple_cap: int = DEFAULT_TUPLE_CAP) -> int:
    """Number of orbits of the group acting diagonally on t-tuples of points.

    method "burnside" averages fixed-point counts over the group, summed
    per conjugacy class; method "direct" enumerates all degree**t tuples
    and merges them with union-find under the generator action.  Both are
    exact; "direct" refuses to build more than tuple_cap tuples.
    """
    if t < 0:
        raise InputError("tuple length must be nonnegative")
    if t == 0:
        return 1
    if method == "burnside":
        cs = classes if classes is not None else ClassSet(group)
        total = sum(c.size * (c.representative.fixed_points() ** t)
                    for c in cs.classes)
        if total % group.order:
            raise InconsistencyError("orbit count is not an integer")
        return total // group.order
    if method != "direct":
        raise InputError(f"unknown orbit method {method!r}")

    n = group.degree
    count = n**t
    if count > tuple_cap:
        raise InputError(
            f"{n}**{t} tuples exceed cap {tuple_cap}; use method='burnside'")
    parent = list(range(count))

    def find(i):
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    digits = list(itertools.product(range(n), repeat=t))
    for g in group.generators:
        img = g.images
        for i, tup in enumerate(digits):
            j = 0
            for d in tup:
                j = j * n + img[d]
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    return sum(1 for i in range(count) if find(i) == i)
