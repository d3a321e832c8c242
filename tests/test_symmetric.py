"""The full symmetric group's table by the Murnaghan-Nakayama rule.

compute_character_table takes a group of order degree! from the rule
and every other group through Dixon's split, so the two routes are held
to each other: on the class sets of S3 to S9, and S5 on its ten
two-element subsets, whose order is below 10!, against S5 on five
points.  The output of `chartable compute --group` for S1 to S8 is
pinned to digests taken on Dixon's route; S9 and S10 are held to known
facts by tests/test_ladder.py.
"""

import contextlib
import hashlib
import io
import json

import pytest

from ctrz import pipeline, symmetric
from ctrz.chartab import match_columns, table_to_dict
from ctrz.cli import main
from ctrz.dixon import canonical_table, compute_character_table, dixon_characters
from ctrz.perm import ClassSet, FiniteGroup, parse_cycles

from conftest import counting_builds

# S5 on the ten two-element subsets of {1..5}
S5_ON_PAIRS = ["(2,5)(3,6)(4,7)", "(1,5,8,10,4)(2,6,9,3,7)"]


def _cycle(n):
    return "(" + ",".join(map(str, range(1, n + 1))) + ")"


def generating_sets(n):
    """A transposition and an n-cycle, and the n - 1 adjacent
    transpositions."""
    return [["(1,2)", _cycle(n)], [f"({i},{i + 1})" for i in range(1, n)]]


def group(texts, degree):
    return FiniteGroup([parse_cycles(t, degree) for t in texts], degree=degree)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def beta_set(shape, n):
    """Bit λ_i + n - 1 - i for each i < n, λ padded with zeros."""
    padded = shape + (0,) * (n - len(shape))
    return sum(1 << (part + n - 1 - i) for i, part in enumerate(padded))


def test_character_by_rim_hooks():
    """S4's characters at a transposition, (2, 1, 1), and their degrees,
    at (1, 1, 1, 1)."""
    shapes = [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    memo = {}
    assert [symmetric.character(beta_set(s, 4), (2, 1, 1), memo)
            for s in shapes] == [1, 1, 0, -1, -1]
    assert [symmetric.character(beta_set(s, 4), (1, 1, 1, 1), memo)
            for s in shapes] == [1, 3, 2, 3, 1]


@pytest.mark.parametrize("n", range(3, 10))
def test_rule_matches_dixon_on_the_same_class_set(monkeypatch, n):
    """The rule builds no class matrix, and its table matches Dixon's on
    the same class set with no finding, every row and column in place."""
    g = group(generating_sets(n)[0], n)
    cs = ClassSet(g)
    built = counting_builds(monkeypatch)
    rule = compute_character_table(g, cs)
    assert rule.verified and built == []
    split = canonical_table(cs, *dixon_characters(cs))
    assert split.verified and built
    result = match_columns(rule, split)
    assert not result.errata and result.level == "full"
    identity = tuple(range(len(cs)))
    assert result.row_map == result.col_map == identity
    assert rule.values == split.values


def test_s5_on_pairs_takes_dixon_and_matches_s5(tmp_path, monkeypatch):
    """S5 on ten points has order 120, below 10!, so compute takes
    Dixon's route; its report matches S5 on five points, from the rule,
    at constraint level full with identity maps."""
    assert group(S5_ON_PAIRS, 10).order == 120
    built = counting_builds(monkeypatch)
    reports = []
    for name, degree, gens in [("s5", 5, generating_sets(5)[0]),
                               ("s5on10", 10, S5_ON_PAIRS)]:
        spec = tmp_path / f"{name}-group.json"
        spec.write_text(json.dumps({"name": name, "degree": degree,
                                    "generators": gens}))
        code, out, _ = _run(["chartable", "compute", "--group", str(spec),
                             "--format", "json"])
        assert code == 0
        reports.append(tmp_path / f"{name}.json")
        reports[-1].write_text(out)
        assert bool(built) == (name == "s5on10")
    code, out, _ = _run(["chartable", "match", *map(str, reports),
                         "--allow-unverified", "--format", "json"])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["findings"] == []
    matching = results["matching"]
    assert matching["constraint_level"] == "full"
    assert matching["rows"] == matching["columns"] == list(range(7))


# the first 16 hex digits of the sha256 of [exit code, stdout, stderr] of
# `chartable compute --group FILE --format json`, the file naming the
# group s<n>, taken on Dixon's route
PINNED = {
    2: "3410549ef48dd2ae",
    3: "b127620bb99b5c69",
    4: "c37448869d1628ee",
    5: "86d8367598bc2438",
    6: "e3a7e78eab3e2c74",
    7: "330e24d8bb9e2791",
    8: "5abc80b3e46d5afe",
}


@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("n", sorted(PINNED))
def test_compute_output_pinned(tmp_path, n, which):
    spec = tmp_path / "group.json"
    spec.write_text(json.dumps({"name": f"s{n}", "degree": n,
                                "generators": generating_sets(n)[which]}))
    blob = json.dumps(_run(["chartable", "compute", "--group", str(spec),
                            "--format", "json"]))
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == PINNED[n]


def test_trivial_group_table_pinned():
    """S1, the group of no generators on one point, also has order 1!."""
    table = compute_character_table(FiniteGroup([], degree=1))
    text = json.dumps(table_to_dict(table), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "c11b4040de93aac6"


def test_s11_is_refused_before_any_character_work(tmp_path, monkeypatch):
    """Two-generator S11 has order 11! = 39916800, above the order cap:
    exit 2 with the capacity message, and no class or character is
    computed."""
    def refuse(*args, **kwargs):
        raise AssertionError("character work above the order cap")

    for owner, attr in [(pipeline, "ClassSet"), (pipeline, "compute_character_table"),
                        (symmetric, "characters")]:
        monkeypatch.setattr(owner, attr, refuse)
    spec = tmp_path / "s11.json"
    spec.write_text(json.dumps({"name": "s11", "degree": 11,
                                "generators": generating_sets(11)[0]}))
    code, out, err = _run(["chartable", "compute", "--group", str(spec)])
    assert code == 2 and out == ""
    assert "group order exceeds cap 10000000" in err
