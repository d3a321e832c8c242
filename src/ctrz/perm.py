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

A group is held as a stabilizer chain (Schreier-Sims) built from its
generators, and the order cap is checked while the chain grows, before
any element is made, so a typo cannot eat all memory.  The order is the
product of the chain's orbit lengths.  The group keeps no list of its
elements and no index into one; each answer has one way:
``FiniteGroup.products()`` lists the elements, ``p in group`` tests
membership by a sift through the chain, and
``ClassSet.class_of_element`` and ``ClassSet.class_counts`` give
classes.  The elements are the products of one transversal word per
level of the chain, one product each, made lazily and not kept; the
identity comes first, and the order of the rest follows the chain and
means nothing else.  The chain, not a hash of every word, shows that
none is listed twice.  A group of order degree! is the full symmetric
group on its points, and its conjugacy classes come from its cycle
types, one per partition of the degree, each with its size and least
member in closed form: no element is made, no element dict is built,
and the class of a word is read off its cycle type.  Every other
group's conjugacy classes are conjugation orbits under the generators,
walked over words with one word-to-class dict that grows from empty and
is the only place that holds every element.  The walk conjugates each
word by two generators at a time, written out, in one sweep of the
growing queue per pair, the last of an odd number alone; the sweeps
repeat until none adds a word, so a two-generator group's walk is one
sweep.  Each class is a run of its keys in that pair-sweep order.  The
classes are reported in a canonical order: size ascending, then element
order ascending, then the lexicographically smallest member.  Orbits on
t-tuples are counted by Burnside's average over the classes, or by a
descent through point stabilizers, taken from the chain at the top,
that reads no class data.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property
from itertools import chain, islice, repeat
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
        return _cycle_type(self.images)

    def order(self) -> int:
        return lcm(1, *(len(c) for c in self.cycles()))

    def fixed_points(self) -> int:
        return sum(1 for i, j in enumerate(self.images) if i == j)

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r})"

    def __str__(self) -> str:
        return format_cycles(self)


def _cycle_type(images) -> tuple[int, ...]:
    """The lengths of the nontrivial cycles, descending, of the
    permutation with these 0-based images, a tuple or a word."""
    seen = bytearray(len(images))
    lengths = []
    for start, image in enumerate(images):
        if image != start and not seen[start]:
            length, i = 0, start
            while not seen[i]:
                seen[i] = 1
                length += 1
                i = images[i]
            lengths.append(length)
    lengths.sort(reverse=True)
    return tuple(lengths)


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse cycle notation like ``(1,5)(2,6,3)`` into a Permutation.

    Grammar: zero or more parenthesised cycles of 1-based points,
    whitespace ignored.  The empty string and ``()`` both denote the
    identity.  Cycles need not be disjoint; they apply left to right.
    A point is ASCII digits.  Raises InputError for syntax errors, points
    out of range, or a point repeated within one cycle.
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
            # ASCII digits only: str.isdigit also passes "²" and "١"
            if not (part.isascii() and part.isdigit()):
                raise InputError(f"bad point {part!r} in {text!r}")
            digits = part.lstrip("0")
            # refused before int(), which fails past 4300 digits
            if len(digits) > len(str(degree)):
                raise InputError(f"point of {len(digits)} digits out of "
                                 f"range 1..{degree}")
            p = int(digits or "0")
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


def _sift(g: bytes, points: list[int], orbits: list[dict[int, bytes]],
          start: int, ident: bytes) -> tuple[bytes, int]:
    """Divide g by the transversal word u of each chain level from start
    on, g * u^-1 with u[b] == g[b] at the level's base point b; return
    the residue and the level whose orbit lacks g[b], len(points) if
    none does.  g is an element of the chain's group exactly when the
    residue is ident."""
    for level in range(start, len(points)):
        u = orbits[level].get(g[points[level]])
        if u is None:
            return g, level
        g = g.translate(bytes.maketrans(u, ident))  # g * u^-1
    return g, len(points)


class FiniteGroup:
    """A finite permutation group, held as a stabilizer chain built from
    its generators.

    The chain is built and checked at init and kept; order is the
    product of its orbit lengths.  An order above order_cap raises
    InputError before any element is made, and a chain that would list
    an element twice raises InconsistencyError.  The group keeps no
    element: products() makes every element once as a word (bytes of
    0-based images), the identity first, and ``p in group`` sifts p
    through the chain.  Those are the one way to list the elements and
    the one way to test membership.
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
        self.identity = bytes(range(degree))  # the identity word
        self._chain = self._checked_chain(order_cap)
        self._base = [next(iter(orbit)) for orbit in self._chain]
        self.order = 1  # the product of the chain's orbit lengths
        for orbit in self._chain:
            self.order *= len(orbit)

    def translation_table(self, p: Permutation) -> bytes:
        """256-entry table with ``w.translate(table) == word of w * p``."""
        return bytes(p.images) + self.pad

    def _checked_chain(self, cap: int) -> list[dict[int, bytes]]:
        """The transversals of the stabilizer chain, checked so that the
        products of one word from each level are pairwise distinct.

        They are when, at each level i with base point b_i (its first
        key), every word u has u[b_i] equal to its key and every word of
        a deeper level fixes b_i: then a product sends b_i where its u_i
        does, so two products with different words at some level differ
        at that level's base point."""
        levels = self._transversals(cap)
        for i, orbit in enumerate(levels):
            b = next(iter(orbit))
            if any(u[b] != x for x, u in orbit.items()):
                raise InconsistencyError("stabilizer chain lists an element twice")
            if any(u[b] != b for deeper in levels[i + 1:] for u in deeper.values()):
                raise InconsistencyError(
                    f"stabilizer chain moves base point {b + 1} below its level")
        return levels

    def _levels(self) -> tuple[list[bytes], list[bytes]]:
        """The products of the chain's deeper levels, built as a list,
        are the stabilizer of the top base point; the top level's words
        are a transversal of it.  Return both."""
        words = [self.identity]
        for orbit in reversed(self._chain[1:]):
            tables = [u + self.pad for u in orbit.values()]
            words = [w.translate(t) for t in tables for w in words]
        top = list(self._chain[0].values()) if self._chain else [self.identity]
        return words, top

    def products(self) -> Iterator[bytes]:
        """Every element once, as the products u_k * ... * u_0 of one word
        u_i from the transversal of each level i of the chain, the
        identity first: one translate each.  The deeper levels' products
        are built as a list at the call; the top level's are made as the
        iterator is read, and not kept."""
        deeper, top = self._levels()
        return chain.from_iterable(map(bytes.translate, deeper, repeat(u + self.pad))
                                   for u in top)

    def stabilizer(self, p: int) -> list[bytes]:
        """The words that fix point p."""
        return self._fixing(p, *self._levels())

    def _fixing(self, p: int, deeper: list[bytes], top: list[bytes]) -> list[bytes]:
        """The words that fix point p, from the levels of _levels().  A
        product d * u of a deeper word d and a top-level word u fixes p
        exactly when d[p] == q, u[q] == p, so only those are made."""
        by_image: dict[int, list[bytes]] = {}
        for d in deeper:
            by_image.setdefault(d[p], []).append(d)
        return [d.translate(u + self.pad) for u in top
                for d in by_image.get(u.index(p), ())]

    def _transversals(self, cap: int) -> list[dict[int, bytes]]:
        """The transversals of a stabilizer chain, top level first, by the
        incremental Schreier-Sims algorithm (Seress, *Permutation Group
        Algorithms*, 2003, ch. 4).

        Level i has a base point b_i, strong generators that fix b_0 ..
        b_{i-1}, and a dict from each point of b_i's orbit under them to
        a word u with u[b_i] == point, filled breadth first from the
        identity.  A generator, and each Schreier generator u * s *
        u_{s(x)}^-1 of a level, is sifted through the deeper levels; a
        residue other than the identity becomes a strong generator of
        every level it passed and of the one where it stopped, a new
        level if it fixes every base point, whose base point is then the
        first point the residue moves.  Each pair of orbit point and
        strong generator is sifted once: levels only grow and keep the
        words they hold, so a sift that ended at the identity still
        would.  The product of the orbit lengths is a lower bound on the
        order, exact at the end, and is compared with cap after every
        orbit update, before any element is stored.
        """
        n, pad = self.degree, self.pad
        ident = bytes(range(n))
        points: list[int] = []              # base points
        strong: list[list[bytes]] = []      # strong generators, as tables
        orbits: list[dict[int, bytes]] = []
        sifted: list[dict[int, int]] = []   # per point: generators sifted

        def add(h: bytes, first: int, last: int) -> None:
            if last == len(points):
                points.append(next(p for p in range(n) if h[p] != p))
                strong.append([])
                orbits.append({points[-1]: ident})
                sifted.append({})
            t = h + pad
            for level in range(first, last + 1):
                tables, orbit = strong[level], orbits[level]
                tables.append(t)
                old = len(orbit)
                queue = list(orbit)
                for i, x in enumerate(queue):  # grows while iterated
                    u = orbit[x]
                    for s in tables if i >= old else (t,):
                        if s[x] not in orbit:
                            orbit[s[x]] = u.translate(s)
                            queue.append(s[x])
                bound = 1
                for o in orbits:
                    bound *= len(o)
                if bound > cap:
                    raise InputError(
                        f"group order exceeds cap {cap}; raise order_cap if intended")

        def schreier(level: int) -> int | None:
            """Sift the level's untested Schreier generators; return the
            deepest level changed, or None once all sift to the identity."""
            tables, orbit, done = strong[level], orbits[level], sifted[level]
            for x, u in orbit.items():
                while (k := done.get(x, 0)) < len(tables):
                    done[x] = k + 1
                    g = u.translate(tables[k])
                    v = orbit[g[points[level]]]
                    if g != v:
                        h, j = _sift(g.translate(bytes.maketrans(v, ident)),
                                     points, orbits, level + 1, ident)
                        if h != ident:
                            add(h, level + 1, j)
                            return j
            return None

        for gen in self.generators:
            h, j = _sift(bytes(gen.images), points, orbits, 0, ident)
            if h != ident:
                add(h, 0, j)
        level = len(points) - 1
        while level >= 0:
            j = schreier(level)
            level = level - 1 if j is None else j
        return orbits

    def __contains__(self, p: Permutation) -> bool:
        return (isinstance(p, Permutation) and p.degree == self.degree
                and _sift(bytes(p.images), self._base, self._chain, 0,
                          self.identity)[0] == self.identity)


def _factorial(n: int) -> int:
    """n!, in ints."""
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def _partitions(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    """The partitions of n into parts of at most largest, each as its
    parts in descending order."""
    if n == 0:
        yield ()
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _sweeps(group: FiniteGroup) -> list[tuple[bytes, ...]]:
    """x -> gen^-1 * x * gen for each generator, as the word and the
    table of two translations: two per sweep, and the last of an odd
    number alone; the identity stands in for the generators of a group
    given none."""
    conj = [(bytes(gen.inverse().images), group.translation_table(gen))
            for gen in group.generators or [Permutation.identity(group.degree)]]
    sweeps = [conj[i] + conj[i + 1] for i in range(0, len(conj) - 1, 2)]
    if len(conj) % 2:
        sweeps.append(conj[-1])
    return sweeps


def _walk(start: bytes, k: int, orbit_of: dict[bytes, int],
          sweeps: list[tuple[bytes, ...]], pad: bytes) -> list[bytes]:
    """The queue of start's conjugates under the generators that are not
    keys of orbit_of, start first, each mapped to k there as it is
    found.  Each sweep reads the queue on from where it last stopped;
    the queue is closed once the next sweep has read every word: none
    was added since it last ran, so each other sweep read them all."""
    orbit_of[start] = k
    queue = [start]
    read = [0] * len(sweeps)  # how far each sweep has read the queue
    j = 0
    while (r := read[j]) < len(queue):
        # the queue grows while iterated; a first pass reads it
        # whole, cheaper than an islice on a one-word class
        words = islice(queue, r, None) if r else queue
        if len(sweeps[j]) == 4:
            ai, a, bi, b = sweeps[j]
            for x in words:
                x += pad
                y = ai.translate(x).translate(a)
                if y not in orbit_of:
                    orbit_of[y] = k
                    queue.append(y)
                y = bi.translate(x).translate(b)
                if y not in orbit_of:
                    orbit_of[y] = k
                    queue.append(y)
        else:
            ai, a = sweeps[j]
            for x in words:
                y = ai.translate(x + pad).translate(a)
                if y not in orbit_of:
                    orbit_of[y] = k
                    queue.append(y)
        read[j] = len(queue)
        j = (j + 1) % len(sweeps)
    return queue


class _ClassWalk:
    """A class of a full symmetric group as an iterable of its words:
    each iteration walks the class alone from its least member."""

    __slots__ = ("start", "sweeps", "pad")

    def __init__(self, start: bytes, sweeps: list[tuple[bytes, ...]], pad: bytes):
        self.start, self.sweeps, self.pad = start, sweeps, pad

    def __iter__(self) -> Iterator[bytes]:
        return iter(_walk(self.start, 0, {}, self.sweeps, self.pad))


class _ByCycleType(dict):
    """The word-to-orbit lookup of a full symmetric group: it holds no
    word, and a word's orbit is the number of its cycle type."""

    __slots__ = ("numbers",)

    def __init__(self):
        super().__init__()
        self.numbers: dict[tuple[int, ...], int] = {}

    def __missing__(self, word: bytes) -> int:
        return self.numbers[_cycle_type(word)]


class ConjugacyClass:
    """One conjugacy class.  The representative is its least member; the
    members are the run keys[start:start + size], in the unsorted
    pair-sweep order of the walk that found them, of the class set's
    word dict, or of a _ClassWalk for a full symmetric group."""

    __slots__ = ("label", "size", "order", "representative", "_keys", "_start")

    def __init__(self, label, size, order, representative, keys, start):
        self.label = label
        self.size = size
        self.order = order              # common element order
        self.representative = representative
        self._keys = keys               # the run keys[start:start + size]
        self._start = start

    def words(self) -> list[bytes]:
        """The members, one word each, in the order of the walk."""
        return list(islice(self._keys, self._start, self._start + self.size))

    def __repr__(self):
        return f"ConjugacyClass({self.label}, size={self.size}, order={self.order})"


class ClassSet:
    """Conjugacy classes of a FiniteGroup in canonical order.

    Canonical order: class size ascending, element order ascending, then
    the lexicographically smallest member image tuple.  The identity
    class is always first.

    A group of order degree! is the full symmetric group on its points.
    Its classes are its cycle types μ, read off the partitions of the
    degree: size degree!/z_μ, and least member the fixed points first,
    then cycles of ascending length on consecutive points.  No element
    dict is built, and a class's words are walked, as below but for that
    class alone, only when they are asked for.

    Every other group's classes are walked.  Each class is a queue of
    conjugates under the generators, and its min is the representative.
    The queue is swept once per pair of generators, each word conjugated
    by both, and once by the last of an odd number; the sweeps take
    turns, each from where it last stopped, until the next has read
    every word, so two generators make one sweep and the members are in
    pair-sweep order, not breadth first.  The walk grows one dict from
    empty: a conjugate becomes a key only when it is not one yet, so the
    dict is the one place that holds the group's elements, and each
    class is the run of keys it inserted.  Orbit starts are read from
    group.products(), and the walk stops once the dict holds group.order
    words.

    The lookup _orbit_of maps a word to its orbit's number and _rank
    maps that to the canonical class; for the full symmetric group it
    is an empty dict that reads a missing word's cycle type.  Only
    ClassSet reads it, and it is the one way to the class of an element:
    class_of_element(p) for one permutation, class_counts(words) for
    many words, and powers(c), the classes of all powers of class c
    below its element order, which power_map(t) reads.  fixed_points,
    computed on first use, is the one holder of the permutation
    character's values, which Burnside's count reads too.
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        if group.order == _factorial(group.degree):
            self._orbit_of: dict[bytes, int] = _ByCycleType()
            found = self._cycle_types()
        else:
            self._orbit_of = {}
            found = self._orbits()
        keyed = []
        for k, (size, rep, keys, first) in enumerate(found):
            keyed.append((size, rep.order(), rep.images, k, rep, keys, first))
        keyed.sort(key=lambda t: t[:3])
        self.classes: list[ConjugacyClass] = []
        self._rank = [0] * len(keyed)
        for ci, (size, order, _, k, rep, keys, first) in enumerate(keyed):
            self.classes.append(ConjugacyClass(f"C{ci + 1}", size, order, rep,
                                               keys, first))
            self._rank[k] = ci
        self.exponent = lcm(1, *(c.order for c in self.classes))
        self._powers: dict[int, list[int]] = {}

    def _cycle_types(self):
        """Yield each class of the full symmetric group as _orbits does,
        one per partition of the degree, and number its cycle type in
        the lookup."""
        g = self.group
        n, sweeps = g.degree, _sweeps(g)
        for k, parts in enumerate(_partitions(n, n)):
            cycles = tuple(part for part in parts if part > 1)
            self._orbit_of.numbers[cycles] = k
            z = 1  # centralizer order: length**m * m! for m cycles of a length
            for length in set(parts):
                m = parts.count(length)
                z *= length**m * _factorial(m)
            images = list(range(n - sum(cycles)))
            for length in reversed(cycles):
                a = len(images)
                images += range(a + 1, a + length)
                images.append(a)
            word = bytes(images)
            yield g.order // z, Permutation(word), _ClassWalk(word, sweeps, g.pad), 0

    def _orbits(self):
        """Yield each conjugation orbit as its size, its representative
        and the dict and position of its words among its keys, and map
        each word there to the number of its orbit, counted from 0."""
        g, orbit_of = self.group, self._orbit_of
        sweeps = _sweeps(g)
        k = 0
        for start in g.products():
            if start in orbit_of:
                continue
            first = len(orbit_of)
            queue = _walk(start, k, orbit_of, sweeps, g.pad)
            yield len(queue), Permutation(min(queue)), orbit_of, first
            if len(orbit_of) == g.order:
                return
            k += 1
        raise InconsistencyError(
            f"conjugacy classes hold {len(orbit_of)} elements, "
            f"the stabilizer chain {g.order}")

    def __len__(self) -> int:
        return len(self.classes)

    def class_counts(self, words) -> list[int]:
        """counts[j] is how many of the words, elements of the group, lie
        in class j."""
        counts = [0] * len(self.classes)
        rank, orbit_of = self._rank, self._orbit_of
        for w in words:
            counts[rank[orbit_of[w]]] += 1
        return counts

    def class_of_element(self, p: Permutation) -> int:
        if p not in self.group:
            raise InputError(f"{p} is not an element of this group")
        return self._rank[self._orbit_of[bytes(p.images)]]

    def power_map(self, t: int) -> list[int]:
        """Class index of t-th powers, per class.  Defined for every
        integer t; t = -1 gives the inverse classes."""
        return [self.powers(i)[t % c.order] for i, c in enumerate(self.classes)]

    def powers(self, class_index: int) -> list[int]:
        """The class of g**t for t < o, g the representative of the class
        and o its element order: one column of every power map, each
        power one word product after the last.  Computed on first use
        and kept."""
        cached = self._powers.get(class_index)
        if cached is None:
            g = self.group
            cls = self.classes[class_index]
            table = g.translation_table(cls.representative)
            rank, orbit_of = self._rank, self._orbit_of
            cached, word = [], g.identity
            for _ in range(cls.order):
                cached.append(rank[orbit_of[word]])
                word = word.translate(table)
            self._powers[class_index] = cached
        return cached

    def sizes(self) -> list[int]:
        return [c.size for c in self.classes]

    @cached_property
    def fixed_points(self) -> list[int]:
        """Each class representative's fixed-point count, kept: do not change."""
        return [c.representative.fixed_points() for c in self.classes]


def orbit_count_tuples(group: FiniteGroup, t: int, method: str = "burnside",
                       classes: ClassSet | None = None,
                       tuple_cap: int = DEFAULT_TUPLE_CAP) -> int:
    """Number of orbits of the group acting diagonally on t-tuples of points.

    method "burnside" averages fixed-point counts over the group, summed
    per conjugacy class.  Method "direct" reads no class data: it descends
    through point stabilizers of the group's words.  H has as many
    orbits on m-tuples as the sum, over its orbits on points with
    representative p, of those of H_p = [w for w in H if w[p] == p] on
    (m-1)-tuples; a trivial H has n**m.  A point fixed by all of H keeps
    H, so each subgroup gives its counts for every length up to m at
    once, and the recursion is only as deep as a chain of stabilizers.
    The top level lists no element of the group: its point orbits come
    from the generators, and its stabilizers from one call of
    group._levels(), the chain's deeper products and its top level's
    words.  The orbit that holds the chain's first base point is
    represented by that point, whose stabilizer is the deeper products
    as they stand; every other orbit by its least point, whose
    stabilizer is group._fixing, which makes only the words that fix
    the point.  It refuses
    degree**t > tuple_cap tuples before any work, which bounds it: the
    descent has at most as many leaves as there are orbits.  It holds one
    stabilizer list per level, each at most half the order of the level
    above, and per level at most degree lists of t + 1 counts.
    """
    if t < 0:
        raise InputError("tuple length must be nonnegative")
    if t == 0:
        return 1
    if method == "burnside":
        cs = classes if classes is not None else ClassSet(group)
        total = sum(s * f ** t for s, f in zip(cs.sizes(), cs.fixed_points))
        if total % group.order:
            raise InconsistencyError("orbit count is not an integer")
        return total // group.order
    if method != "direct":
        raise InputError(f"unknown orbit method {method!r}")

    n = group.degree
    # 2**t already exceeds the cap once t reaches its bit length
    if (n > 1 and t >= tuple_cap.bit_length()) or n**t > tuple_cap:
        raise InputError(
            f"{n}**{t} tuples exceed cap {tuple_cap}; use the burnside method")

    def combine(orbit, stabilizer, m: int, points=range(n)) -> list[int]:
        """Orbits on k-tuples for k = 0..m of a group whose orbit of each
        point p is orbit(p) and whose words that fix p are stabilizer(p),
        each orbit represented by its first point in points."""
        fixed, below, seen = 0, [], set()
        for p in points:
            if p not in seen:
                o = orbit(p)
                seen |= o
                if len(o) == 1:
                    fixed += 1
                else:
                    below.append(counts(stabilizer(p), m - 1))
        c = [1]
        for k in range(m):
            c.append(fixed * c[k] + sum(b[k] for b in below))
        return c

    def counts(h: list[bytes], m: int) -> list[int]:
        """Orbits of h on k-tuples for k = 0..m."""
        if len(h) == 1 or m == 0:
            return [n**k for k in range(m + 1)]
        return combine(lambda p: {w[p] for w in h},
                       lambda p: [w for w in h if w[p] == p], m)

    gens = [bytes(gen.images) for gen in group.generators]

    def generated_orbit(p: int) -> set[int]:
        orbit, queue = {p}, [p]
        for x in queue:  # grows while iterated
            for gen in gens:
                if gen[x] not in orbit:
                    orbit.add(gen[x])
                    queue.append(gen[x])
        return orbit

    # the chain's deeper products are the stabilizer of its first base
    # point, which the trivial group, with no base, does not have
    first, (deeper, top) = group._base[:1], group._levels()
    return combine(generated_orbit,
                   lambda p: deeper if p in first else group._fixing(p, deeper, top),
                   t, chain(first, range(n)))[t]
