"""Permutations on {1..n}, finite groups from generators, conjugacy classes.

Products compose left to right: ``(p * q)(x) == q(p(x))``, so a cycle
string like ``(1,2)(2,3)`` applies its leftmost cycle first.  For
products of disjoint cycles, the only kind appearing in the embedded
datasets, the convention makes no difference.

Storage.  ``Permutation`` holds a tuple of 0-based images; it is the
public view and the form of all text I/O (1-based cycle strings).  The
group layer holds each element as a *word*: ``bytes`` of its 0-based
images.  A product is one C call, ``p * q == p.translate(q + pad)`` with
``pad = bytes(range(degree, 256))`` filling the translation table to 256
entries, and bytes compare exactly like the image tuples they encode, so
``min`` over words picks the same element as ``min`` over tuples.  A
word has one byte per point, so a group acts on at most ``MAX_DEGREE`` =
256 points; FiniteGroup refuses a larger degree before it allocates
anything.

Group enumeration is a breadth-first closure under right multiplication
by the generators, capped so a typo cannot eat all memory.  Conjugacy
classes are conjugation orbits under the generators, reported in a
canonical order: size ascending, then element order ascending, then the
lexicographically smallest member.  Orbits on t-tuples are counted by
Burnside's average over the classes, or by a descent through point
stabilizers of the enumerated words that reads no class data.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm

from .errors import InputError, InconsistencyError

DEFAULT_ORDER_CAP = 10**7
DEFAULT_TUPLE_CAP = 10**7
MAX_DEGREE = 256  # one byte per image point


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


def check_degree(degree: int) -> None:
    """Refuse a degree that a word cannot hold."""
    if degree > MAX_DEGREE:
        raise InputError(
            f"degree {degree} exceeds the limit of {MAX_DEGREE} points")


class FiniteGroup:
    """A finite permutation group enumerated from its generators.

    words[i] is element i as a word (bytes of 0-based images), index maps
    a word back to i; elements[i] is the same element as a Permutation,
    built on first use.
    """

    def __init__(self, generators: list[Permutation], degree: int | None = None,
                 order_cap: int = DEFAULT_ORDER_CAP):
        if degree is None:
            if not generators:
                raise InputError("degree required when no generators are given")
            degree = generators[0].degree
        check_degree(degree)
        for g in generators:
            if g.degree != degree:
                raise InputError("generators act on different degrees")
        self.degree = degree
        self.generators = list(generators)
        self.pad = bytes(range(degree, 256))
        self.words, self.index = self._enumerate(order_cap)
        self._inverse_index: list[int] | None = None

    def translation_table(self, p: Permutation) -> bytes:
        """256-entry table with ``w.translate(table) == word of w * p``."""
        return bytes(p.images) + self.pad

    def _enumerate(self, cap: int) -> tuple[list[bytes], dict[bytes, int]]:
        ident = bytes(range(self.degree))
        words = [ident]
        index = {ident: 0}
        tables = [self.translation_table(g) for g in self.generators]
        for cur in words:  # grows while iterated: a breadth-first queue
            for t in tables:
                w = cur.translate(t)
                if w not in index:
                    if len(words) >= cap:
                        raise InputError(
                            f"group order exceeds cap {cap}; raise order_cap if intended")
                    index[w] = len(words)
                    words.append(w)
        return words, index

    @cached_property
    def elements(self) -> list[Permutation]:
        return [Permutation(w) for w in self.words]

    @property
    def order(self) -> int:
        return len(self.words)

    def element_index(self, p: Permutation) -> int:
        i = self.index.get(bytes(p.images)) if p.degree == self.degree else None
        if i is None:
            raise InputError(f"{p} is not an element of this group")
        return i

    def __contains__(self, p: Permutation) -> bool:
        return (isinstance(p, Permutation) and p.degree == self.degree
                and bytes(p.images) in self.index)

    def inverse_index(self) -> list[int]:
        """index of the inverse of element i, cached."""
        if self._inverse_index is None:
            ident = self.words[0]
            n = self.degree
            index = self.index
            # maketrans(w, ident) sends w[i] to i: w's inverse, padded
            self._inverse_index = [
                index[bytes.maketrans(w, ident)[:n]] for w in self.words]
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
        words = group.words
        keyed = []
        for members in self._orbits():
            rep = Permutation(min(words[i] for i in members))
            keyed.append((len(members), rep.order(), rep.images, rep, members))
        keyed.sort(key=lambda t: t[:3])
        self.classes: list[ConjugacyClass] = []
        self.class_of = [0] * group.order
        for ci, (size, order, _, rep, members) in enumerate(keyed):
            cls = ConjugacyClass(f"C{ci + 1}", size, order, rep, sorted(members))
            self.classes.append(cls)
            for ei in members:
                self.class_of[ei] = ci
        self.exponent = lcm(1, *(c.order for c in self.classes))
        self._power_maps: dict[int, list[int]] = {}

    def _orbits(self) -> list[list[int]]:
        g = self.group
        words, index, pad = g.words, g.index, g.pad
        assigned = bytearray(g.order)
        # x -> gen^-1 * x * gen, as word translations
        gen_pairs = [(bytes(gen.inverse().images), g.translation_table(gen))
                     for gen in g.generators]
        orbits = []
        start = 0
        while (start := assigned.find(0, start)) >= 0:
            orbit = [start]
            assigned[start] = 1
            queue = [start]
            while queue:
                x = words[queue.pop()] + pad
                for ginv, gen in gen_pairs:
                    wi = index[ginv.translate(x).translate(gen)]
                    if not assigned[wi]:
                        assigned[wi] = 1
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
        integer t; t = -1 gives the inverse classes.  x**t is read off
        the cycles of x: a point at position i of a cycle of length L
        goes to the point at position (i + t) mod L."""
        t = t % self.exponent if self.exponent else 0
        cached = self._power_maps.get(t)
        if cached is not None:
            return cached
        out = []
        for c in self.classes:
            images = list(range(self.group.degree))
            for cyc in c.representative.cycles():
                for i, point in enumerate(cyc):
                    images[point - 1] = cyc[(i + t) % len(cyc)] - 1
            out.append(self.class_of[self.group.index[bytes(images)]])
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
    per conjugacy class.  Method "direct" reads no class data: it descends
    through point stabilizers of the enumerated words.  H has as many
    orbits on m-tuples as the sum, over its orbits on points with
    representative p, of those of H_p = [w for w in H if w[p] == p] on
    (m-1)-tuples; a trivial H has n**m.  A point fixed by all of H keeps
    H, so each subgroup gives its counts for every length up to m at
    once, and the recursion is only as deep as a chain of stabilizers.
    It refuses degree**t > tuple_cap tuples before any work, which bounds
    it: the descent has at most as many leaves as there are orbits.  It
    holds one stabilizer list per level, each at most the group order of
    references, and per level at most degree lists of t + 1 counts.
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
    # 2**t already exceeds the cap once t reaches its bit length
    if (n > 1 and t >= tuple_cap.bit_length()) or n**t > tuple_cap:
        raise InputError(
            f"{n}**{t} tuples exceed cap {tuple_cap}; use method='burnside'")

    def counts(h: list[bytes], m: int) -> list[int]:
        """Orbits of h on k-tuples for k = 0..m."""
        if len(h) == 1 or m == 0:
            return [n**k for k in range(m + 1)]
        fixed, below, seen = 0, [], set()
        for p in range(n):
            if p not in seen:
                orbit = {w[p] for w in h}
                seen |= orbit
                if len(orbit) == 1:
                    fixed += 1
                else:
                    below.append(counts([w for w in h if w[p] == p], m - 1))
        c = [1]
        for k in range(m):
            c.append(fixed * c[k] + sum(b[k] for b in below))
        return c

    return counts(group.words, t)[t]
