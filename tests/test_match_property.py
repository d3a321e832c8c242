"""Property tests of table matching: on small groups, match_columns
finds the same matching as trying every bijection that keeps class
fingerprints and row degrees, keeping the first one with the fewest
disagreeing cells."""

import itertools
import time
from functools import cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st

from ctrz.chartab import (_ambiguity_notes, _canonical_cells, _mismatches,
                          match_columns, table_from_dict, table_to_dict)
from ctrz.pipeline import GroupAnalysis
from ctrz.perm import parse_cycles

# every group here has at most six classes
GROUPS = {
    "c2": (2, ["(1,2)"]),
    "c3": (3, ["(1,2,3)"]),
    "c4": (4, ["(1,2,3,4)"]),
    "c2^2": (4, ["(1,2)", "(3,4)"]),
    "c5": (5, ["(1,2,3,4,5)"]),
    "c6": (5, ["(1,2,3)(4,5)"]),
    "s3": (3, ["(1,2)", "(1,2,3)"]),
    "d8": (4, ["(1,2,3,4)", "(1,3)"]),
    "q8": (8, ["(1,2,3,4)(5,6,7,8)", "(1,5,3,7)(2,8,4,6)"]),
    "d10": (5, ["(1,2,3,4,5)", "(2,5)(3,4)"]),
    "a4": (4, ["(1,2,3)", "(2,3,4)"]),
    "d12": (6, ["(1,2,3,4,5,6)", "(2,6)(3,5)"]),
}
DEGREE = max(degree for degree, _ in GROUPS.values())
WRONG_VALUES = ["-2", "-1", "0", "1", "2", "3"]


@cache
def computed(name):
    degree, generators = GROUPS[name]
    return GroupAnalysis({"name": name, "degree": degree,
                          "generators": generators}).canonical_table


@st.composite
def shuffled_copies(draw):
    """(group name, external table dict, whether a cell was changed)."""
    name = draw(st.sampled_from(sorted(GROUPS)))
    table = computed(name)
    data = table_to_dict(table)
    r = table.size
    cols = draw(st.permutations(range(r)))
    rows = draw(st.permutations(range(r)))
    chars = data["characters"]
    data = dict(data, classes=[data["classes"][j] for j in cols],
                characters=[{"label": chars[i]["label"],
                             "values": [chars[i]["values"][j] for j in cols]}
                            for i in rows])
    identity = cols.index(table.identity_column())
    cells = [(a, b) for a in range(r) for b in range(r) if b != identity]
    changed = False
    for a, b in draw(st.lists(st.sampled_from(cells), max_size=2,
                              unique=True)):
        value = draw(st.sampled_from(WRONG_VALUES))
        changed |= value != data["characters"][a]["values"][b]
        data["characters"][a]["values"][b] = value
    return name, data, changed


def fingerprint(table, j):
    c = table.classes[j]
    return c.size, c.order, parse_cycles(c.representative, DEGREE).cycle_type()


def oracle(computed_table, external):
    """(row_map, col_map, mismatches) of the first fewest-mismatch
    bijection, taking column maps group by group (groups in order of
    their first external column), then row maps degree by degree, each
    in itertools order."""
    r = computed_table.size
    col_groups, row_groups = {}, {}
    for b in range(r):
        col_groups.setdefault(fingerprint(external, b), []).append(b)
    degrees = external.degrees()
    for a in sorted(range(r), key=lambda a: degrees[a]):
        row_groups.setdefault(degrees[a], []).append(a)
    comp_degrees = computed_table.degrees()
    col_choices = [itertools.permutations(
        [j for j in range(r) if fingerprint(computed_table, j) == fp])
        for fp, _ in col_groups.items()]
    row_choices = [list(itertools.permutations(
        [i for i in range(r) if comp_degrees[i] == d]))
        for d in row_groups]
    differ = [[[[external.values[a][b] != computed_table.values[i][j]
                 for j in range(r)] for b in range(r)]
               for i in range(r)] for a in range(r)]
    best = None
    for col_perms in itertools.product(*col_choices):
        col_map = [None] * r
        for ext_cols, perm in zip(col_groups.values(), col_perms):
            for b, j in zip(ext_cols, perm):
                col_map[b] = j
        # mismatches of external row a against computed row i
        pair = [[sum(differ[a][i][b][col_map[b]] for b in range(r))
                 for i in range(r)] for a in range(r)]
        for row_perms in itertools.product(*row_choices):
            row_map = [None] * r
            for ext_rows, perm in zip(row_groups.values(), row_perms):
                for a, i in zip(ext_rows, perm):
                    row_map[a] = i
            cost = sum(pair[a][row_map[a]] for a in range(r))
            if best is None or cost < best[2]:
                best = (tuple(row_map), tuple(col_map), cost)
    return best


@settings(max_examples=120, deadline=None)
@given(shuffled_copies())
def test_match_is_the_first_fewest_mismatch_bijection(case):
    name, data, changed = case
    table = computed(name)
    external = table_from_dict(data)
    result = match_columns(table, external)
    cells = [f for f in result.errata.findings if f.kind == "cell"]
    assert result.level == "full"
    assert (result.row_map, result.col_map, len(cells)) == \
        oracle(table, external)
    if not changed:
        assert cells == []


def test_match_reads_only_what_json_carries():
    """For every pair of tables with equal class counts, a match in
    process equals the match of the same tables after a JSON round trip:
    the same level, maps, findings and notes."""
    names = sorted(GROUPS)
    for a, b in itertools.product(names, names):
        first, second = computed(a), computed(b)
        if first.size != second.size:
            continue
        direct = match_columns(first, second)
        loaded = match_columns(*(table_from_dict(table_to_dict(t))
                                 for t in (first, second)))
        assert (direct.level, direct.row_map, direct.col_map,
                direct.errata.findings, direct.notes) == \
            (loaded.level, loaded.row_map, loaded.col_map,
             loaded.errata.findings, loaded.notes), (a, b)


def recounted_notes(external, row_map, col_map, comp_cells, ext_cells):
    """The ambiguity notes by a full recount of the grid per swap."""
    r = external.size
    base = len(_mismatches(comp_cells, ext_cells, row_map, col_map))
    deg = {}
    for i, d in enumerate(external.degrees()):
        deg.setdefault(d, []).append(i)
    row_pairs = [None] + [tuple(rows) for rows in deg.values() if len(rows) == 2]
    notes = []
    for b1, b2 in itertools.combinations(range(r), 2):
        c1, c2 = external.classes[b1], external.classes[b2]
        if (c1.size, c1.order) != (c2.size, c2.order):
            continue
        cm = list(col_map)
        cm[b1], cm[b2] = cm[b2], cm[b1]
        for pair in row_pairs:
            rm = list(row_map)
            if pair:
                rm[pair[0]], rm[pair[1]] = rm[pair[1]], rm[pair[0]]
            if len(_mismatches(comp_cells, ext_cells, rm, cm)) == base:
                swap = (f" with rows {external.characters[pair[0]]}/"
                        f"{external.characters[pair[1]]}" if pair else "")
                notes.append(f"columns {c1.label}/{c2.label} match either way{swap}; "
                             "the choice is conventional")
                break
    return notes


@seed(20261023)
@settings(max_examples=150, deadline=None, database=None)
@given(shuffled_copies(), st.randoms(use_true_random=False))
def test_ambiguity_notes_equal_a_full_recount(case, rng):
    """The notes, counted on the swapped columns and rows alone, equal a
    recount of every cell per swap, both under the best matching and
    under random maps, whose base count is larger."""
    name, data, _ = case
    table = computed(name)
    external = table_from_dict(data)
    result = match_columns(table, external)
    comp_cells, ext_cells = _canonical_cells(table, external)
    assert result.notes == recounted_notes(external, result.row_map, result.col_map,
                                           comp_cells, ext_cells)
    r = table.size
    row_map, col_map = rng.sample(range(r), r), rng.sample(range(r), r)
    fps = [(c.size, c.order) for c in external.classes]
    assert _ambiguity_notes(external, row_map, col_map, fps, comp_cells, ext_cells) == \
        recounted_notes(external, row_map, col_map, comp_cells, ext_cells)


def test_match_of_c2_to_the_sixth_with_itself_is_quick():
    """C2^6 has 63 classes of size 1 and order 2, so its notes try 1953
    column swaps; each is counted on its two columns alone."""
    table = GroupAnalysis({"name": "c2^6", "degree": 12, "generators": [
        f"({2 * k + 1},{2 * k + 2})" for k in range(6)]}).canonical_table
    match_columns(table, table)
    start = time.perf_counter()
    result = match_columns(table, table)
    assert time.perf_counter() - start < 0.1
    assert result.errata.findings == [] and result.notes == []
