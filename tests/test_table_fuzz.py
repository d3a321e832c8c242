"""Fuzz of table JSON files through `cli.main`.

Each example takes the JSON of a real table (the g1344-deg8 table, the
transcription, S3 or PSL(2,7)), sets one field to a value from a fixed
pool of hostile values or drops one key, and runs `chartable check` and
`chartable match` on the file.  Each must exit 0, 1 or 2 within 2 s:
a file is bad input at worst, never a traceback or an inconsistency.
"""

import contextlib
import copy
import io
import json
import time

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st

from ctrz.cli import main

POOL = [0, -1, 10**400, 7.5, "", "1/0", "(1,2", None, [], {},
        {"D": 8, "a": "0", "b": "1"}, {"conductor": 2000, "coeffs": ["1"]},
        True]
CLASS_KEYS = ["size", "order", "representative", "printed_size", "label"]
GROUPS = {"s3": (3, ["(1,2)", "(1,2,3)"]),
          "psl27": (7, ["(1,2,3,4,5,6,7)", "(2,3)(4,7)"])}
SECONDS = 2


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _table(source):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["chartable", "compute", *source, "--format", "json"]) == 0
    return json.loads(out.getvalue())["results"]["table"]


@pytest.fixture(scope="module")
def bases(tmp_path_factory):
    """(directory, {name: (table JSON, the computed operand of match)}):
    the builtin's table and the transcription are matched against the
    builtin, a small group's table against its own unchanged file."""
    root = tmp_path_factory.mktemp("fuzz")
    out = {"g1344-deg8": (_table(["--builtin", "g1344-deg8"]), "g1344-deg8"),
           "paper-table": (_table(["--builtin", "paper-table"]), "g1344-deg8")}
    for name, (degree, generators) in GROUPS.items():
        group = root / f"{name}-group.json"
        group.write_text(json.dumps({"name": name, "degree": degree,
                                     "generators": generators}))
        table = _table(["--group", str(group)])
        path = root / f"{name}.json"
        path.write_text(json.dumps(table))
        out[name] = (table, str(path))
    return root, out


def mutate(data, table):
    """A copy of table with one field set to a pool value or one key
    dropped, and a description of the change."""
    table = copy.deepcopy(table)
    cls = data.draw(st.sampled_from(table["classes"]))
    row = data.draw(st.sampled_from(table["characters"]))
    field = data.draw(st.sampled_from(["group_order", "conductor", "class",
                                       "cell", "drop"]))
    if field == "drop":
        holder, key = data.draw(st.sampled_from(
            [(table, k) for k in table] + [(cls, k) for k in cls]
            + [(row, k) for k in row]))
        del holder[key]
        return table, f"dropped {key}"
    value = data.draw(st.sampled_from(POOL))
    if field == "class":
        key = data.draw(st.sampled_from(CLASS_KEYS))
        cls[key] = value
        return table, f"class {cls.get('label')} {key} = {value!r:.40}"
    if field == "cell":
        j = data.draw(st.integers(0, len(row["values"]) - 1))
        row["values"][j] = value
        return table, f"cell {row['label']}[{j}] = {value!r:.40}"
    table[field] = value
    return table, f"{field} = {value!r:.40}"


@seed(20261021)
@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_a_mutated_table_file_is_refused_or_reported_never_crashes(bases, data):
    root, tables = bases
    name = data.draw(st.sampled_from(sorted(tables)))
    base, computed = tables[name]
    table, change = mutate(data, base)
    path = root / "mutated.json"
    path.write_text(json.dumps(table))
    for argv in (["chartable", "check", str(path)],
                 ["chartable", "match", computed, str(path), "--allow-unverified"]):
        start = time.perf_counter()
        code, err = _run(argv)
        seconds = time.perf_counter() - start
        assert code in (0, 1, 2), (name, change, argv[1], code, err)
        assert "Traceback" not in err
        assert seconds < SECONDS, (name, change, argv[1], seconds)
