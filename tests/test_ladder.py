"""Tables of four groups whose exponent exceeds the cyclotomic cap: M11,
M12, A9 and S9, each computed once from generators and checked against
facts known without ctrz.

Class sizes come from the ATLAS centralizer orders for M11 and M12 and
from cycle types for S9 and A9 (a class of A9 splits in two exactly when
its cycle lengths are distinct and odd).  Degrees come from the ATLAS
for M11 and M12 and from the hook length formula for S9; A9 keeps one
degree per pair of conjugate partitions and halves that of each
self-conjugate partition into two characters.  Each table declares its
field conductor, since the exponent is above the cap.
"""

import json
import time
from math import factorial, prod

import pytest

from ctrz.chartab import table_from_dict, table_to_dict, validate
from ctrz.dixon import compute_character_table
from ctrz.perm import FiniteGroup, parse_cycles

M11 = ["(1,2,3,4,5,6,7,8,9,10,11)", "(3,7,11,8)(4,10,5,6)"]


def partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def cycle_type_class_size(parts):
    n = sum(parts)
    z = prod(k ** parts.count(k) * factorial(parts.count(k)) for k in set(parts))
    return factorial(n) // z


def conjugate(parts):
    return tuple(sum(1 for p in parts if p > i) for i in range(parts[0]))


def hook_degree(parts):
    conj = conjugate(parts)
    hooks = prod(parts[i] - j + conj[j] - i - 1
                 for i in range(len(parts)) for j in range(parts[i]))
    return factorial(sum(parts)) // hooks


def alternating_facts(n):
    sizes, degrees = [], []
    for parts in partitions(n):
        if (n - len(parts)) % 2 == 0:
            size = cycle_type_class_size(parts)
            split = len(set(parts)) == len(parts) and all(p % 2 for p in parts)
            sizes += [size // 2] * 2 if split else [size]
        conj = conjugate(parts)
        if parts == conj:
            degrees += [hook_degree(parts) // 2] * 2
        elif parts > conj:
            degrees.append(hook_degree(parts))
    return sizes, degrees


def atlas_sizes(order, centralizers):
    return [order // c for c in centralizers]


A9_SIZES, A9_DEGREES = alternating_facts(9)

# name: (degree, generators, order, class sizes, degrees, field conductor,
# wall-clock bound in seconds for generators to a validated table)
LADDER = {
    "m11": (11, M11, 7920,
            atlas_sizes(7920, [7920, 48, 18, 8, 5, 6, 8, 8, 11, 11]),
            [1, 10, 10, 10, 11, 16, 16, 44, 45, 55], 88, 10),
    "m12": (12, M11 + ["(1,12)(2,11)(3,6)(4,8)(5,9)(7,10)"], 95040,
            atlas_sizes(95040, [95040, 240, 192, 54, 36, 32, 32, 10, 12, 6,
                                8, 8, 10, 11, 11]),
            [1, 11, 11, 16, 16, 45, 54, 55, 55, 55, 66, 99, 120, 144, 176],
            11, 20),
    "a9": (9, ["(1,2,3)", "(1,2,3,4,5,6,7,8,9)"], factorial(9) // 2,
           A9_SIZES, A9_DEGREES, 15, 40),
    "s9": (9, ["(1,2)", "(1,2,3,4,5,6,7,8,9)"], factorial(9),
           [cycle_type_class_size(p) for p in partitions(9)],
           [hook_degree(p) for p in partitions(9)], 1, 40),
}


@pytest.fixture(scope="module")
def ladder():
    """name -> (table, seconds from generators to the validated table);
    each group is dropped once its table is built."""
    out = {}
    for name, (degree, gens, *_) in LADDER.items():
        start = time.perf_counter()
        table = compute_character_table(
            FiniteGroup([parse_cycles(g, degree) for g in gens]), name=name)
        out[name] = table, time.perf_counter() - start
    return out


@pytest.mark.parametrize("name", list(LADDER))
def test_ladder_table_matches_known_facts(ladder, name):
    _, _, order, sizes, degrees, field, bound = LADDER[name]
    table, seconds = ladder[name]
    assert table.verified
    assert table.group_order == order
    assert sorted(c.size for c in table.classes) == sorted(sizes)
    assert sorted(table.degrees()) == sorted(degrees)
    assert sum(d * d for d in table.degrees()) == order
    assert table.conductor == table.working_conductor == field
    assert seconds < bound, f"{name} table took {seconds:.2f}s"


@pytest.mark.parametrize("name", list(LADDER))
def test_ladder_table_json_round_trip_validates(ladder, name):
    table, _ = ladder[name]
    data = table_to_dict(table)
    loaded = table_from_dict(json.loads(json.dumps(data)))
    assert validate(loaded) == []
    assert loaded.values == table.values
    assert table_to_dict(loaded) == dict(data, verified=False)
