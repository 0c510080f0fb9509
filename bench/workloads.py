"""Seeded inputs, command lists and output checks for the three workloads.

Every input is made here from the workload seed and written as a
`game-instance/1` document (or an adjacency-matrix file); the program
only ever sees those files and the built-in instance names.  The
expected answers come from `tests/oracles.py` and from the documents
themselves, never from the engine, so a check cannot agree with a
wrong answer because it shares code with it.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from netform.datasets import intersecting_example, random_instance, worked_example

import oracles

RULES = ("mutual", "linked")
FORMATS = ("table", "json", "csv")


# ---- documents and the reference model built from them


def instance_doc(instance, adjacencies=()) -> dict:
    """A game-instance/1 document for an engine instance, with stored
    profiles whose formed networks are the given adjacency matrices."""
    doc = {
        "schema": "game-instance/1",
        "players": instance.n,
        "coalitions": [
            {
                "members": [m + 1 for m in c.members],
                "income": str(c.income),
                "shares": {str(m + 1): str(s) for m, s in c.shares.items()},
            }
            for c in instance.coalitions
        ],
    }
    profiles = [
        {"offers": [list(r) for r in p.offers], "acceptances": [list(r) for r in p.acceptances]}
        for p in instance.profiles
    ]
    profiles += [profile_forming(g) for g in adjacencies]
    if profiles:
        doc["profiles"] = profiles
    if instance.payoff_matrix is not None:
        doc["payoff_matrix"] = [[str(v) for v in row] for row in instance.payoff_matrix]
    if instance.default_rule is not None:
        doc["default_rule"] = instance.default_rule.value
    return doc


def profile_forming(g) -> dict:
    """A profile whose formed network is exactly the adjacency matrix g:
    offers follow the arcs and acceptances their transpose."""
    return {"offers": [list(r) for r in g], "acceptances": [list(r) for r in zip(*g)]}


class Case:
    """The reference view of one instance document: 0-based coalitions
    with exact incomes and shares, and the network each profile forms."""

    def __init__(self, arg: str, doc: dict):
        self.arg = arg
        self.n = doc["players"]
        self.coalitions = [
            (
                tuple(m - 1 for m in c["members"]),
                Fraction(c["income"]),
                {int(k) - 1: Fraction(v) for k, v in c["shares"].items()},
            )
            for c in doc["coalitions"]
        ]
        self.graphs = [
            oracles.oracle_form(p["offers"], p["acceptances"]) for p in doc.get("profiles", [])
        ]
        table = doc.get("payoff_matrix")
        self.printed = [[Fraction(v) for v in row] for row in table] if table else None
        self.default_rule = doc.get("default_rule") or "linked"
        self._payoffs: dict[str, list] = {}

    def payoffs(self, rule: str) -> list[list[Fraction]]:
        if rule not in self._payoffs:
            self._payoffs[rule] = [
                oracles.oracle_payoffs(self.coalitions, g, rule) for g in self.graphs
            ]
        return self._payoffs[rule]

    def gain(self, g, rule: str, player: int, removed) -> Fraction:
        trial = [row[:] for row in g]
        for i, j in removed:
            trial[i][j] = 0
        return (
            oracles.oracle_payoffs(self.coalitions, trial, rule)[player]
            - oracles.oracle_payoffs(self.coalitions, g, rule)[player]
        )


def write_json(path: Path, obj) -> int:
    text = json.dumps(obj, indent=2) + "\n"
    path.write_text(text, encoding="utf-8")
    return len(text.encode())


# ---- checks: each returns a problem description, or None when correct


Check = Callable[[str], "str | None"]


def _witness_problem(case: Case, g, rule: str, player: int, arcs, gain: Fraction) -> str | None:
    removed = [(i - 1, j - 1) for i, j in arcs]
    p = player - 1
    if not removed or any(p not in arc for arc in removed):
        return f"witness arcs {arcs} do not all touch player {player}"
    if any(not g[i][j] for i, j in removed):
        return f"witness removes arcs {arcs} that are not in the network"
    expected = case.gain(g, rule, p, removed)
    if gain != expected or gain <= 0:
        return f"witness gain {gain}, payoff difference {expected}"
    return None


def _table_rows(out: str, skip: int) -> list[list[str]]:
    rows = []
    for line in out.splitlines()[skip:]:
        if not line.strip():
            break
        rows.append(line.split())
    return rows


def check_payoffs(case: Case, rule: str, fmt: str) -> Check:
    expected = case.payoffs(rule)

    def check(out: str):
        if fmt == "json":
            doc = json.loads(out)
            if doc["rule"] != rule:
                return f"rule {doc['rule']}, expected {rule}"
            rows = doc["payoffs"]
        elif fmt == "csv":
            rows = [line.split(",")[1:] for line in out.splitlines()[1:]]
        else:
            rows = [r[1:] for r in _table_rows(out, 2)]
        got = [[Fraction(v) for v in row] for row in rows]
        return None if got == expected else "payoffs differ from the oracle"

    return check


_FULL_LINE = re.compile(r"profile (\d+): unstable, player (\d+) removes (.*) and gains (\S+)$")
_ARC = re.compile(r"\((\d+),(\d+)\)")


def check_full(case: Case, rule: str, fmt: str) -> Check:
    """Every witness of `equilibria --mode full` removes only arcs of its
    player and gains exactly the payoff difference it claims."""

    def check(out: str):
        verdicts = []  # (profile, player, arcs, gain) for unstable profiles
        if fmt == "json":
            doc = json.loads(out)
            items = doc["profiles"]
            count = len(items)
            for item in items:
                w = item.get("witness")
                if item["stable"] != (w is None):
                    return f"profile {item['profile']}: verdict and witness disagree"
                if w:
                    arcs = [tuple(a) for a in w["removed_arcs"]]
                    verdicts.append((item["profile"], w["player"], arcs, Fraction(w["gain"])))
        elif fmt == "csv":
            lines = out.splitlines()[1:]
            count = len(lines)
            for line in lines:
                k, verdict, player, removed, gain = line.split(",")
                if verdict == "unstable":
                    arcs = [tuple(int(x) for x in a.split("-")) for a in removed.split(";")]
                    verdicts.append((int(k), int(player), arcs, Fraction(gain)))
        else:
            lines = out.splitlines()[1:]
            count = len(lines)
            for line in lines:
                m = _FULL_LINE.match(line)
                if m:
                    arcs = [(int(i), int(j)) for i, j in _ARC.findall(m.group(3))]
                    verdicts.append((int(m.group(1)), int(m.group(2)), arcs, Fraction(m.group(4))))
                elif not line.endswith(": stable"):
                    return f"unreadable line {line!r}"
        if count != len(case.graphs):
            return f"{count} verdicts for {len(case.graphs)} profiles"
        for k, player, arcs, gain in verdicts:
            problem = _witness_problem(case, case.graphs[k - 1], rule, player, arcs, gain)
            if problem:
                return f"profile {k}: {problem}"
        return None

    return check


def restricted_oracle(case: Case, rule: str):
    """Equilibria and strictly improving moves between stored profiles."""
    arcsets = [
        frozenset((i, j) for i in range(case.n) for j in range(case.n) if g[i][j])
        for g in case.graphs
    ]
    pay = case.payoffs(rule)
    found = []
    for s, gs in enumerate(arcsets):
        for t, gt in enumerate(arcsets):
            if s == t or not gt < gs:
                continue
            removed = gs - gt
            for p in range(case.n):
                if all(p in arc for arc in removed) and pay[t][p] > pay[s][p]:
                    found.append((s + 1, t + 1, p + 1, pay[t][p] - pay[s][p]))
    losers = {d[0] for d in found}
    equilibria = [s + 1 for s in range(len(arcsets)) if s + 1 not in losers]
    return equilibria, sorted(found)


def check_restricted(case: Case, rule: str, fmt: str) -> Check:
    equilibria, moves = restricted_oracle(case, rule)

    def check(out: str):
        if fmt == "json":
            doc = json.loads(out)
            got_eq = doc["equilibria"]
            got = [(d["source"], d["target"], d["player"], Fraction(d["gain"])) for d in doc["deviations"]]
        elif fmt == "csv":
            got_eq = equilibria  # the csv form lists moves only
            got = []
            for line in out.splitlines()[1:]:
                s, t, p, gain = line.split(",")
                got.append((int(s), int(t), int(p), Fraction(gain)))
        else:
            lines = out.splitlines()
            got_eq = [int(x) for x in lines[1].split(":")[1].split()]
            got = []
            for line in lines[2:]:
                m = re.match(r"profile (\d+) -> profile (\d+): player (\d+) gains (\S+)$", line)
                if not m:
                    return f"unreadable line {line!r}"
                got.append((int(m.group(1)), int(m.group(2)), int(m.group(3)), Fraction(m.group(4))))
        if got_eq != equilibria:
            return f"equilibria {got_eq}, expected {equilibria}"
        return None if sorted(got) == moves else "deviations differ from the oracle"

    return check


def check_compromise(case: Case, source: str, rule: str, fmt: str, ascending: bool) -> Check:
    rows = case.printed if source == "printed" else case.payoffs(rule)
    ideal = [max(col) for col in zip(*rows)]
    regrets = [[ideal[j] - row[j] for j in range(len(row))] for row in rows]
    row_max = [max(r) for r in regrets]
    value = min(row_max)
    solutions = [k + 1 for k, m in enumerate(row_max) if m == value]
    shown = [sorted(r) for r in regrets] if ascending else regrets

    def check(out: str):
        if fmt == "json":
            doc = json.loads(out)
            got = (
                Fraction(doc["value"]),
                doc["solutions"],
                [[Fraction(v) for v in r] for r in doc["regrets"]],
            )
            return None if got == (value, solutions, shown) else "compromise differs"
        if fmt == "csv":
            got = [[Fraction(v) for v in line.split(",")[1:]] for line in out.splitlines()[1:]]
            want = [r + [m] for r, m in zip(shown, row_max)]
            return None if got == want else "regret table differs"
        lines = out.splitlines()
        got = (Fraction(lines[-2].split(": ")[1]), [int(x) for x in lines[-1].split(":")[1].split()])
        return None if got == (value, solutions) else "compromise value or solutions differ"

    return check


def check_form(case: Case, fmt: str) -> Check:
    def check(out: str):
        if fmt == "json":
            got = [p["matrix"] for p in json.loads(out)["profiles"]]
        elif fmt == "csv":
            got = [[[0] * case.n for _ in range(case.n)] for _ in case.graphs]
            for line in out.splitlines()[1:]:
                k, i, j = (int(x) for x in line.split(","))
                got[k - 1][i - 1][j - 1] = 1
        else:
            got = [
                [[int(v) for v in row.split()] for row in block.splitlines()[1:]]
                for block in out.split("\n\n")
            ]
        return None if got == case.graphs else "formed networks differ from the oracle"

    return check


def disjoint_verdict(case: Case, g, rule: str) -> bool:
    """The disjoint criterion: stable exactly when no active coalition has
    negative income."""
    return all(
        income >= 0
        for members, income, _ in case.coalitions
        if oracles.oracle_active(members, g, rule)
    )


def check_disjoint(case: Case, g, rule: str, fmt: str) -> Check:
    stable = disjoint_verdict(case, g, rule)

    def check(out: str):
        if fmt == "json":
            doc = json.loads(out)
            if doc["stable"] != stable:
                return f"verdict stable={doc['stable']}, expected {stable}"
            w = doc.get("witness")
            if w:
                arcs = [tuple(a) for a in w["removed_arcs"]]
                return _witness_problem(case, g, rule, w["player"], arcs, Fraction(w["gain"]))
            return None
        got = out.startswith("stable")
        return None if got == stable else f"verdict stable={got}, expected {stable}"

    return check


def check_document(expected: dict, path: Path | None = None) -> Check:
    def check(out: str):
        text = path.read_text(encoding="utf-8") if path else out
        return None if json.loads(text) == expected else "generated document differs"

    return check


# ---- commands and workloads


@dataclass
class Command:
    argv: list[str]
    check: Check
    expect_code: int = 0


@dataclass
class Workload:
    name: str
    commands: list[Command]
    inputs: dict = field(default_factory=dict)  # file -> sizes, for the record


def disjoint_command(case: Case, g, how: list[str], fmt: str) -> Command:
    """check-disjoint under the linked rule, expecting exit 1 exactly when
    the criterion finds the network unstable."""
    return Command(
        ["check-disjoint", case.arg, *how, "--format", fmt],
        check_disjoint(case, g, "linked", fmt),
        0 if disjoint_verdict(case, g, "linked") else 1,
    )


def _adjacency(n: int, rng: random.Random, density: float) -> list[list[int]]:
    return [[1 if i != j and rng.random() < density else 0 for j in range(n)] for i in range(n)]


def _regular_dense(n: int, rng: random.Random, shifts) -> list[list[int]]:
    """The complete network minus one disjoint derangement per shift, so
    every player keeps degree 2(n-1-len(shifts)) whatever the seed."""
    perm = rng.sample(range(n), n)
    removed = {(perm[i], perm[(i + s) % n]) for s in shifts for i in range(n)}
    return [[1 if i != j and (i, j) not in removed else 0 for j in range(n)] for i in range(n)]


def _fixed_mix(rng: random.Random, n: int, count: int) -> dict:
    """A random_instance document with exactly count // 3 pairs and every
    income +1 or -1 (a drawn 0 becomes +1).  The search cost of a seed then
    depends on the network shape, not on the luck of the draw: the
    coalition sizes set how much is checked, the incomes how costly each
    exact sum is."""
    while True:
        inst = random_instance(rng.randrange(2**31), n=n, coalition_count=count, income_range=(-1, 1))
        if sum(len(c.members) == 2 for c in inst.coalitions) == count // 3:
            break
    doc = instance_doc(inst)
    for c in doc["coalitions"]:
        if c["income"] == "0":
            c["income"] = "1"
    return doc


def _record(wl: Workload, path: Path, doc: dict, size: int) -> None:
    wl.inputs[str(path)] = {
        "n": doc["players"],
        "coalitions": len(doc["coalitions"]),
        "profiles": len(doc.get("profiles", [])),
        "bytes": size,
    }


def bundled_cli(seed: int, work: Path, small: bool) -> Workload:
    rng = random.Random(f"bundled-cli:{seed}")
    wl = Workload("bundled-cli", [])
    cmds = wl.commands
    worked = Case("worked-example", instance_doc(worked_example()))
    inter = Case("intersecting-example", instance_doc(intersecting_example()))
    for case in (worked, inter):
        for fmt in FORMATS:
            cmds.append(Command(["form", case.arg, "--format", fmt], check_form(case, fmt)))
            cmds.append(
                Command(["payoffs", case.arg, "--format", fmt], check_payoffs(case, case.default_rule, fmt))
            )
            cmds.append(
                Command(
                    ["equilibria", case.arg, "--mode", "restricted", "--format", fmt],
                    check_restricted(case, case.default_rule, fmt),
                )
            )
            cmds.append(
                Command(
                    ["equilibria", case.arg, "--mode", "full", "--format", fmt],
                    check_full(case, case.default_rule, fmt),
                )
            )
    for fmt in FORMATS:
        for source, case in (("printed", worked), ("computed", worked), ("computed", inter)):
            cmds.append(
                Command(
                    ["compromise", case.arg, "--source", source, "--format", fmt],
                    check_compromise(case, source, case.default_rule, fmt, False),
                )
            )
        cmds.append(
            Command(
                ["compromise", "worked-example", "--source", "printed", "--sorted", "--format", fmt],
                check_compromise(worked, "printed", worked.default_rule, fmt, True),
            )
        )

    n = 6 if small else 8
    disjoint = random_instance(rng.randrange(2**31), n=n, coalition_count=4, disjoint=True)
    doc = instance_doc(disjoint, [_adjacency(n, rng, 0.6)])
    path = work / "disjoint.json"
    _record(wl, path, doc, write_json(path, doc))
    net = _adjacency(n, rng, 0.6)
    net_path = work / "disjoint-network.json"
    write_json(net_path, net)
    case = Case(str(path), doc)
    cmds.append(disjoint_command(case, case.graphs[0], ["--profile", "1"], "table"))
    cmds.append(disjoint_command(case, net, ["--network", str(net_path)], "json"))
    gen_seed = rng.randrange(2**31)
    expected = instance_doc(random_instance(gen_seed, n=6, coalition_count=4, disjoint=True))
    cmds.append(
        Command(
            ["generate", "--seed", str(gen_seed), "--players", "6", "--coalitions", "4", "--disjoint"],
            check_document(expected),
        )
    )
    return wl


# (players, coalitions, shifts removed from the complete network per
# profile).  The complete networks carry most of the search and cost the
# same for every seed; the sparser ones vary the 2^deg search space.
FULL_SEARCH = [
    (7, 2, [(), (1, 2), (1, 2, 3)]),  # complete, 67% and 50% of arcs
    (7, 3, [(), (1, 2), (1, 2, 3)]),
    (7, 4, [(), (1, 2), (1, 2, 3)]),
    (8, 1, [(), (1, 2), (1, 2, 3, 4)]),  # complete, 71% and 43%
    (8, 24, [(1, 2, 3), (1, 2, 3, 4)]),  # rich coalitions on 57% and 43%
]
FULL_SEARCH_SMALL = [(5, 3, [(), (1, 2)]), (6, 6, [(1,)])]


def full_search(seed: int, work: Path, small: bool) -> Workload:
    """Each instance runs once per rule; the two formats alternate between
    instances, so every rule meets every format."""
    rng = random.Random(f"full-search:{seed}")
    wl = Workload("full-search", [])
    for k, (n, count, shapes) in enumerate(FULL_SEARCH_SMALL if small else FULL_SEARCH):
        doc = _fixed_mix(rng, n, count)
        doc["profiles"] = [profile_forming(_regular_dense(n, rng, s)) for s in shapes]
        path = work / f"dense-{k + 1}.json"
        _record(wl, path, doc, write_json(path, doc))
        case = Case(str(path), doc)
        for rule, fmt in zip(RULES, ("table", "json")[k % 2 :] + ("table", "json")[: k % 2]):
            wl.commands.append(
                Command(
                    ["equilibria", str(path), "--mode", "full", "--rule", rule, "--format", fmt],
                    check_full(case, rule, fmt),
                )
            )
    return wl


def _withdraw(g, player: int, rng: random.Random):
    """The parent network with the player's links to a random half of the
    others withdrawn (both directions)."""
    child = [row[:] for row in g]
    for other in range(len(g)):
        if other != player and rng.random() < 0.5:
            child[player][other] = child[other][player] = 0
    return child


def large_batch(seed: int, work: Path, small: bool) -> Workload:
    rng = random.Random(f"large-batch:{seed}")
    wl = Workload("large-batch", [])
    n, count, parents, gen_n = (10, 20, 5, 20) if small else (40, 300, 100, 100)
    instance = random_instance(rng.randrange(2**31), n=n, coalition_count=count)
    nets = [_adjacency(n, rng, 0.3) for _ in range(parents)]
    nets += [_withdraw(g, rng.randrange(n), rng) for g in nets]
    doc = instance_doc(instance, nets)
    path = work / "batch.json"
    _record(wl, path, doc, write_json(path, doc))
    case = Case(str(path), doc)
    arg = str(path)
    cmds = wl.commands
    for fmt in ("json", "csv"):
        cmds.append(Command(["payoffs", arg, "--format", fmt], check_payoffs(case, "linked", fmt)))
    cmds.append(
        Command(["equilibria", arg, "--mode", "restricted"], check_restricted(case, "linked", "table"))
    )
    cmds.append(
        Command(
            ["compromise", arg, "--source", "computed", "--format", "json"],
            check_compromise(case, "computed", "linked", "json", False),
        )
    )

    gen_seed = rng.randrange(2**31)
    gen_path = work / "generated.json"
    expected = instance_doc(random_instance(gen_seed, n=gen_n, coalition_count=count))
    cmds.append(
        Command(
            ["generate", "--seed", str(gen_seed), "--players", str(gen_n),
             "--coalitions", str(count), "-o", str(gen_path)],
            check_document(expected, gen_path),
        )
    )

    disjoint = random_instance(rng.randrange(2**31), n=n, coalition_count=count // 3, disjoint=True)
    ddoc = instance_doc(disjoint)
    dpath = work / "batch-disjoint.json"
    _record(wl, dpath, ddoc, write_json(dpath, ddoc))
    dcase = Case(str(dpath), ddoc)
    net = _adjacency(n, rng, 0.5)
    net_path = work / "batch-network.json"
    write_json(net_path, net)
    cmds.append(disjoint_command(dcase, net, ["--network", str(net_path)], "json"))
    return wl


BUILDERS = {
    "bundled-cli": bundled_cli,
    "full-search": full_search,
    "large-batch": large_batch,
}


def build(name: str, seed: int, work: Path, small: bool = False) -> Workload:
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, work, small)
