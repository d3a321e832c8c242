"""A golden corpus of CLI commands, run in process through `cli.main`.

Each command runs in all three formats, and one sha256 of its exit code,
stdout and stderr is pinned.  The group and table files live in a
temporary directory, whose path `check` and `match` print in `dataset`;
it is replaced by a fixed token before hashing.  A change meant to keep
every output byte (a refactor of the arithmetic, say) must leave every
digest as it is.
"""

import contextlib
import hashlib
import io
import json

import pytest

from ctrz.cli import main

GROUPS = {
    "psl27": (7, ["(1,2,3,4,5,6,7)", "(2,3)(4,7)"]),
    "a5": (5, ["(1,2,3,4,5)", "(3,4,5)"]),
    "f21": (7, ["(1,2,3,4,5,6,7)", "(2,3,5)(4,7,6)"]),
    "m11": (11, ["(1,2,3,4,5,6,7,8,9,10,11)", "(3,7,11,8)(4,10,5,6)"]),
}

# {name} is a group file, {name-table} the table computed from a group
# file or a builtin
COMMANDS = [
    "chartable compute --builtin g1344-deg8",
    "chartable compute --builtin paper-table",
    "chartable compute --group {psl27}",
    "chartable check paper-table",
    "chartable check {a5-table}",
    "chartable match g1344-deg8 paper-table",
    "chartable match {f21-table} {f21-table} --allow-unverified",
    "chartable match g1344-deg14 {g1344-deg14-table}",
    "decompose --builtin g1344-deg14 --k 4",
    "decompose --builtin g1344-deg8 --k 3 --method direct",
    "decompose --group {psl27} --k 3 --method recurrence",
    "decompose --builtin g1344-deg8 --k 5 --method closed-form",
    "structure --group {a5} --k 3",
    "dims --builtin g1344-deg14 --from 1 --to 3",
    "orbits --group {m11} --t 3",
    "orbits --group {f21} --t 3 --method direct",
    "classes --group {m11}",
    "permchar --group {a5}",
]
FORMATS = ["table", "json", "csv"]

TOKEN = "<tmp>"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """(root, {name: path}): the directory, every group file and the
    tables the corpus reads."""
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, (degree, generators) in GROUPS.items():
        group = root / f"{name}.json"
        group.write_text(json.dumps({"name": name, "degree": degree,
                                     "generators": generators}))
        paths[name] = str(group)
    for name, source in [("a5", ["--group", paths["a5"]]),
                         ("f21", ["--group", paths["f21"]]),
                         ("g1344-deg14", ["--builtin", "g1344-deg14"])]:
        code, out, _ = _run(["chartable", "compute", *source, "--format", "json"])
        assert code == 0
        table = root / f"{name}-table.json"
        table.write_text(json.dumps(json.loads(out)["results"]["table"]))
        paths[f"{name}-table"] = str(table)
    return str(root), paths


def digest(files, command, fmt):
    root, paths = files
    argv = [word.format_map(paths) for word in command.split()]
    code, out, err = _run(argv + ["--format", fmt])
    blob = json.dumps([code, out.replace(root, TOKEN), err.replace(root, TOKEN)])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# the first 16 hex digits of each sha256
PINNED = {
    ("chartable compute --builtin g1344-deg8", "table"): "b7915ecadb28b89f",
    ("chartable compute --builtin g1344-deg8", "json"): "3d7e35efd9e19061",
    ("chartable compute --builtin g1344-deg8", "csv"): "f59c6fadc0e2ae16",
    ("chartable compute --builtin paper-table", "table"): "f20c4a79077bce3e",
    ("chartable compute --builtin paper-table", "json"): "f9dae434cc3c6987",
    ("chartable compute --builtin paper-table", "csv"): "8ca8f3e7f1cf9ba9",
    ("chartable compute --group {psl27}", "table"): "1d260d50b1061552",
    ("chartable compute --group {psl27}", "json"): "56f57e5e011b0a90",
    ("chartable compute --group {psl27}", "csv"): "2f4365873c849de7",
    ("chartable check paper-table", "table"): "ba2925cfed732428",
    ("chartable check paper-table", "json"): "592086a97ae0cb05",
    ("chartable check paper-table", "csv"): "b2beea656eb54a5f",
    ("chartable check {a5-table}", "table"): "c9cfbcb403e7e5e0",
    ("chartable check {a5-table}", "json"): "335338552cd74447",
    ("chartable check {a5-table}", "csv"): "a5323341123cece7",
    ("chartable match g1344-deg8 paper-table", "table"): "48e799c255dbccd6",
    ("chartable match g1344-deg8 paper-table", "json"): "a669416ee944d34f",
    ("chartable match g1344-deg8 paper-table", "csv"): "439b4123a8440a04",
    ("chartable match {f21-table} {f21-table} --allow-unverified", "table"):
        "88db156550566901",
    ("chartable match {f21-table} {f21-table} --allow-unverified", "json"):
        "34a34a7f788b4e61",
    ("chartable match {f21-table} {f21-table} --allow-unverified", "csv"):
        "c436f5c512f2ff3c",
    ("chartable match g1344-deg14 {g1344-deg14-table}", "table"):
        "fa3c2093e9ce55db",
    ("chartable match g1344-deg14 {g1344-deg14-table}", "json"):
        "eda9c00056731e43",
    ("chartable match g1344-deg14 {g1344-deg14-table}", "csv"):
        "c436f5c512f2ff3c",
    ("decompose --builtin g1344-deg14 --k 4", "table"): "ee5efbb20ef0f3d7",
    ("decompose --builtin g1344-deg14 --k 4", "json"): "6931077c0f1fa981",
    ("decompose --builtin g1344-deg14 --k 4", "csv"): "2c6e21b65e30d6dd",
    ("decompose --builtin g1344-deg8 --k 3 --method direct", "table"):
        "488630baa8d3eb6c",
    ("decompose --builtin g1344-deg8 --k 3 --method direct", "json"):
        "d483dd2b468bb53e",
    ("decompose --builtin g1344-deg8 --k 3 --method direct", "csv"):
        "3bab06e87af67a4a",
    ("decompose --group {psl27} --k 3 --method recurrence", "table"):
        "d58eedf01e6d3e6b",
    ("decompose --group {psl27} --k 3 --method recurrence", "json"):
        "c9ca71a87a082121",
    ("decompose --group {psl27} --k 3 --method recurrence", "csv"):
        "03277b1977ea7d37",
    ("decompose --builtin g1344-deg8 --k 5 --method closed-form", "table"):
        "1d695f402d4abd62",
    ("decompose --builtin g1344-deg8 --k 5 --method closed-form", "json"):
        "c574d80f6ecd9d45",
    ("decompose --builtin g1344-deg8 --k 5 --method closed-form", "csv"):
        "6658a0b4569cef83",
    ("structure --group {a5} --k 3", "table"): "bdf482b2940a1275",
    ("structure --group {a5} --k 3", "json"): "051805d6228fc864",
    ("structure --group {a5} --k 3", "csv"): "20abf538923f4c09",
    ("dims --builtin g1344-deg14 --from 1 --to 3", "table"):
        "099defb6904f0981",
    ("dims --builtin g1344-deg14 --from 1 --to 3", "json"): "1af9d6731419e6f4",
    ("dims --builtin g1344-deg14 --from 1 --to 3", "csv"): "407b0f2e7523cfe0",
    ("orbits --group {m11} --t 3", "table"): "3f61617c33c1d520",
    ("orbits --group {m11} --t 3", "json"): "ffce0527b713f438",
    ("orbits --group {m11} --t 3", "csv"): "3f61617c33c1d520",
    ("orbits --group {f21} --t 3 --method direct", "table"):
        "f37b550b0b5640ce",
    ("orbits --group {f21} --t 3 --method direct", "json"): "561e5ccffa04380f",
    ("orbits --group {f21} --t 3 --method direct", "csv"): "f37b550b0b5640ce",
    ("classes --group {m11}", "table"): "6006c55a765b8180",
    ("classes --group {m11}", "json"): "6888e3eab30fb244",
    ("classes --group {m11}", "csv"): "483eb928c9498fb7",
    ("permchar --group {a5}", "table"): "3056f2745c08fc16",
    ("permchar --group {a5}", "json"): "c2680f7189b387ce",
    ("permchar --group {a5}", "csv"): "88f72537868fd36b",
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", COMMANDS)
def test_golden_output(files, command, fmt):
    assert digest(files, command, fmt) == PINNED[command, fmt]
