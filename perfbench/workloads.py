"""The workloads: seeded inputs, fixed op lists and per-op checks.

A workload is built once per process (its set-up) and returns a list of
ops.  It is made of parts, each adding its ops in turn: `tables` and
`groups` make the `tables-groups` workload, `tensor` and `reconcile` the
`tensor-reconcile` one.  A pass runs every op in order; each op builds
fresh objects, calls
ctrz through module attributes (so a traced pass sees every call), and
checks its output against facts.py, raising CheckFailed on a wrong
answer.  Inputs depend only on the seed: it picks a permutation that
relabels each group's points, shuffles the generator order, and draws the
row and column shuffles of the tables reconcile matches.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import re

from ctrz import chartab, cli, exact, perm, pipeline, tensor

import facts

BUILTINS = ("g1344-deg8", "g1344-deg14")


class CheckFailed(Exception):
    """An op returned, but its output contradicts a known fact."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


class Op:
    __slots__ = ("name", "fn")

    def __init__(self, name, fn):
        self.name = name
        self.fn = fn


class Workload:
    """Ops of one workload plus what the traced run reads afterwards:
    the tables the ops built and the output bytes cli.main printed."""

    def __init__(self, name: str):
        self.name = name
        self.ops: list[Op] = []
        self.tables: dict[str, chartab.CharacterTable] = {}
        self.output_bytes = 0


def relabelled_spec(name: str, rng: random.Random) -> dict:
    """The group's generators with points relabelled by a seeded
    permutation and the generator order shuffled."""
    g = facts.GROUPS[name]
    images = list(range(1, g["degree"] + 1))
    rng.shuffle(images)
    gens = [re.sub(r"\d+", lambda m: str(images[int(m.group()) - 1]), s)
            for s in g["generators"]]
    rng.shuffle(gens)
    return {"name": name, "degree": g["degree"], "generators": gens,
            "order": g["order"]}


def check_classes(name: str, group, class_set) -> None:
    g = facts.GROUPS[name]
    expect(group.order == g["order"],
           f"{name}: order {group.order}, expected {g['order']}")
    expect(sorted(class_set.sizes()) == g["sizes"],
           f"{name}: class sizes {sorted(class_set.sizes())}")


def check_table(name: str, table) -> None:
    g = facts.GROUPS[name]
    expect(table.verified, f"{name}: table not verified")
    expect(table.group_order == g["order"], f"{name}: table group order")
    expect(sorted(c.size for c in table.classes) == g["sizes"],
           f"{name}: table class sizes")
    expect(sorted(table.degrees()) == g["degrees"],
           f"{name}: degrees {sorted(table.degrees())}")


def warm_exact(conductors) -> None:
    """Fill exact's per-conductor caches (cyclotomic polynomial and the
    reduction rows) so the first pass does not pay for them."""
    for e in conductors:
        z = exact.Cyclotomic.zeta(e, e - 1)
        (z * z).conj()


def run_cli(argv: list[str], workload: Workload) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    workload.output_bytes += len(text.encode())
    return code, text, err.getvalue()


def shuffled_table(data: dict, rng: random.Random) -> dict:
    """A copy of a table dict with rows and columns in a seeded order."""
    r = len(data["classes"])
    cols = list(range(r))
    rows = list(range(r))
    rng.shuffle(cols)
    rng.shuffle(rows)
    chars = data["characters"]
    return dict(data, name=data["name"] + "-shuffled",
                classes=[data["classes"][j] for j in cols],
                characters=[{"label": chars[i]["label"],
                             "values": [chars[i]["values"][j] for j in cols]}
                            for i in rows])


def write_json(path: str, data: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


# ---------------------------------------------------------------------------
# tables: generators to a verified table and its JSON, the
# `chartable compute --group` path

TABLE_GROUPS = ("c2^3", "psl(2,7)", "g1344-deg8", "g1344-deg14", "s7")


def add_tables(w: Workload, seed: int, workdir: str,
               groups=TABLE_GROUPS) -> None:
    rng = random.Random(seed)
    warm_exact([2, 84, 168, 420])
    for name in groups:
        spec = relabelled_spec(name, rng)

        def op(name=name, spec=spec):
            a = pipeline.GroupAnalysis(spec)
            check_classes(name, a.group, a.class_set)
            table = a.canonical_table
            check_table(name, table)
            text = json.dumps(chartab.table_to_dict(table), sort_keys=True)
            expect(json.loads(text)["group_order"] == facts.GROUPS[name]["order"],
                   f"{name}: JSON group order")
            w.tables[name] = table
        w.ops.append(Op(name, op))


# ---------------------------------------------------------------------------
# tensor: multiplicities and dimensions on tables built in set-up

TENSOR_GROUPS = ("g1344-deg8", "g1344-deg14", "psl(2,7)")


def add_tensor(w: Workload, seed: int, workdir: str, groups=TENSOR_GROUPS,
               top: int = 24) -> None:
    rng = random.Random(seed)
    warm_exact([84, 168])
    bound = tensor.AGREEMENT_BOUND
    matrices = {}
    for name in groups:
        spec = relabelled_spec(name, rng)
        a = pipeline.GroupAnalysis(spec, is_builtin=name in BUILTINS)
        table, chi, cs = a.table, a.permchar, a.class_set
        check_table(name, table)
        family = a.family
        if name in BUILTINS:
            expect(a.published_order_adopted and family == name,
                   f"{name}: published row order or closed-form family lost")
        w.tables[name] = table
        n = facts.GROUPS[name]["degree"]
        degrees = table.degrees()

        def transition(name=name, table=table, chi=chi):
            matrices[name] = tensor.transition_matrix(chi, table)

        def power(k, name=name, table=table, chi=chi, cs=cs, family=family,
                  n=n, degrees=degrees):
            d = tensor.agreed_multiplicities(chi, table, k, family=family,
                                             matrix=matrices[name])
            expect(sum(m * x for m, x in zip(d, degrees)) == n ** k,
                   f"{name}: sum m_i d_i != n^{k}")
            if k > bound:
                return
            row = tensor.dims_row(cs, d, k, family=family)
            structure = tensor.SemisimpleStructure(d)
            expect(structure.dimension == row["dimension"],
                   f"{name}: structure dimension at k={k}")
            published = facts.PUBLISHED_DIMS.get(name, [])
            if k <= len(published):
                expect(row["dimension"] == published[k - 1],
                       f"{name}: dimension {row['dimension']} at k={k}, "
                       f"published {published[k - 1]}")

        # one op per power, so that the reference loop, which runs between
        # ops, follows the host's speed through this part
        w.ops.append(Op(f"{name} transition", transition))
        w.ops += [Op(f"{name} k={k}", functools.partial(power, k))
                  for k in range(1, top + 1)]


# ---------------------------------------------------------------------------
# reconcile: `chartable check` and `chartable match` through cli.main

CHECKED_GROUPS = ("g1344-deg8", "g1344-deg14", "psl(2,7)", "s4", "d8")
SHUFFLED_GROUPS = ("psl(2,7)", "s4", "d8")
# The shuffled C2xC4 match runs the factorial search in match_columns:
# 8! row orders per column choice.  Its cost ranges over several-fold with
# the shuffle, so this table and its copy are drawn from a fixed seed, the
# same for every workload seed, chosen so the search runs through many
# column choices before it finds the exact match (about 2 s at the
# reference speed, see reference.py).
ABELIAN_GROUP = "c2xc4"
ABELIAN_SEED = 4


def computed_file(name: str, rng: random.Random, workdir: str) -> tuple[str, dict]:
    table = pipeline.GroupAnalysis(relabelled_spec(name, rng)).canonical_table
    check_table(name, table)
    data = chartab.table_to_dict(table)
    return write_json(os.path.join(workdir, f"{name}.json"), data), data


def add_reconcile(w: Workload, seed: int, workdir: str,
                  checked=CHECKED_GROUPS, shuffled=SHUFFLED_GROUPS) -> None:
    rng = random.Random(seed)
    warm_exact([84, 168])
    for name in BUILTINS:
        # warm the cached analysis: its table and its match with the
        # transcription
        pipeline.builtin_analysis(name).reference_match
    files = {}
    for name in checked:
        files[name] = computed_file(name, rng, workdir)
        w.tables[name] = chartab.table_from_dict(files[name][1])
    draws = [(name, rng) for name in shuffled]
    fixed = random.Random(ABELIAN_SEED)
    files[ABELIAN_GROUP] = computed_file(ABELIAN_GROUP, fixed, workdir)
    w.tables[ABELIAN_GROUP] = chartab.table_from_dict(files[ABELIAN_GROUP][1])
    draws.append((ABELIAN_GROUP, fixed))
    copies = {}
    for name, source in draws:
        copies[name] = write_json(os.path.join(workdir, f"{name}-shuffled.json"),
                                  shuffled_table(files[name][1], source))
    fmt = ["--format", "json"]

    def command(label, argv, code, check=None):
        def op():
            got, text, err = run_cli(argv + fmt, w)
            expect(got == code, f"{label}: exit {got}, expected {code}: {err.strip()}")
            report = json.loads(text)
            if check is not None:
                check(report["results"])
        w.ops.append(Op(label, op))

    def violations_found(results):
        expect(not results["verified"] and results["violations"],
               "paper-table: no violations reported")

    def verified(results):
        expect(results["verified"] and not results["violations"],
               "computed table did not validate")

    def findings(results):
        expect(len(results["findings"]) > 0, "no findings against paper-table")

    def no_findings(results):
        expect(results["findings"] == [], f"findings: {results['findings'][:2]}")

    command("check paper-table", ["chartable", "check", "paper-table"], 1,
            violations_found)
    for name in checked:
        command(f"check {name}", ["chartable", "check", files[name][0]], 0,
                verified)
    for name in BUILTINS:
        command(f"match {name} paper-table",
                ["chartable", "match", name, "paper-table"], 1, findings)
    command("match g1344-deg8 g1344-deg14",
            ["chartable", "match", "g1344-deg8", "g1344-deg14"], 0, no_findings)
    for name in copies:
        command(f"match {name} shuffled",
                ["chartable", "match", files[name][0], copies[name],
                 "--allow-unverified"], 0, no_findings)


# ---------------------------------------------------------------------------
# groups: the permutation layer alone

ORBIT_GROUPS = (("s8", 6), ("m11", 5))


def add_groups(w: Workload, seed: int, workdir: str, groups=ORBIT_GROUPS,
               ts=range(2, 9)) -> None:
    rng = random.Random(seed)
    state = {}
    for name, direct_t in groups:
        spec = relabelled_spec(name, rng)

        def enumerate_op(name=name, spec=spec):
            a = pipeline.GroupAnalysis(spec)
            group = a.group
            expect(group.order == facts.GROUPS[name]["order"],
                   f"{name}: order {group.order}")
            state[name] = a

        def classes_op(name=name):
            a = state[name]
            check_classes(name, a.group, a.class_set)

        def burnside_op(name=name):
            a = state[name]
            counts = {}
            for t in ts:
                counts[t] = perm.orbit_count_tuples(
                    a.group, t, method="burnside", classes=a.class_set)
                if t <= facts.TRANSITIVITY[name]:
                    expect(counts[t] == facts.bell(t),
                           f"{name}: {counts[t]} orbits on {t}-tuples, "
                           f"expected {facts.bell(t)}")
            state[name, "burnside"] = counts

        def direct_op(name=name, t=direct_t):
            a = state.pop(name)
            burnside = state.pop((name, "burnside"))
            n = perm.orbit_count_tuples(a.group, t, method="direct")
            expect(n == burnside[t],
                   f"{name}: direct count {n} on {t}-tuples, Burnside "
                   f"{burnside[t]}")

        w.ops += [Op(f"{name} enumerate", enumerate_op),
                  Op(f"{name} classes", classes_op),
                  Op(f"{name} burnside", burnside_op),
                  Op(f"{name} direct t={direct_t}", direct_op)]


# ---------------------------------------------------------------------------
# workloads: parts whose ops run one after another in each pass

PARTS = {"tables": add_tables, "groups": add_groups,
         "tensor": add_tensor, "reconcile": add_reconcile}
WORKLOADS = {"tables-groups": ("tables", "groups"),
             "tensor-reconcile": ("tensor", "reconcile")}


def build(name: str, seed: int, workdir: str, options=None) -> Workload:
    """Set up a workload: each part adds its ops in turn.  options maps a
    part to keyword arguments that replace its default inputs."""
    w = Workload(name)
    for part in WORKLOADS[name]:
        PARTS[part](w, seed, workdir, **(options or {}).get(part, {}))
    return w

# ---------------------------------------------------------------------------
# probes: known defects reported by name, outside the timed workloads

def probe_m11_table(seed: int, workdir: str) -> dict:
    """The M11 table: today `chartable compute` exits 2 because the group
    exponent 1320 exceeds the cyclotomic cap, though the character field
    has conductor 88."""
    rng = random.Random(seed)
    path = write_json(os.path.join(workdir, "m11.json"),
                      relabelled_spec("m11", rng))
    code, text, err = run_cli(["chartable", "compute", "--group", path,
                               "--format", "json"], Workload("probe"))
    if code == 2 and "conductor 1320 exceeds cap" in err:
        status = "known-failure"
    elif code == 0:
        table = chartab.table_from_dict(json.loads(text)["results"]["table"])
        ok = sorted(table.degrees()) == facts.GROUPS["m11"]["degrees"]
        status = "fixed" if ok else "wrong-table"
    else:
        status = "unexpected"
    return {"name": "m11-table", "status": status, "exit": code,
            "message": err.strip()}
