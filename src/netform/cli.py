"""Command-line front end.

Subcommands: form, payoffs, equilibria, compromise, check-disjoint,
generate.  Players, profiles, and arcs are 1-based everywhere here.
Exit codes: 0 success, 1 negative domain verdict (an instability the
caller asked to be flagged), 2 usage, parse, or precondition errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .compromise import PayoffMatrix, compromise_solution, regret_vectors
from .datasets import BUILTIN, random_instance
from .formation import Network, form_network
from .instance_io import (
    DocumentError,
    load_instance_file,
    save_instance,
    to_csv,
)
from .model import ActivationRule, GameInstance, validate_instance
from .payoffs import payoff_vector
from .stability import (
    check_disjoint_stability,
    is_stable,
    restricted_equilibria,
)


def _load(name: str, strict: bool) -> GameInstance:
    if name in BUILTIN:
        instance = BUILTIN[name]()
        report = validate_instance(instance, strict=strict)
        if report.errors:
            raise DocumentError("; ".join(report.errors))
    else:
        instance = load_instance_file(name, strict=strict)
        report = validate_instance(instance, strict=False)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return instance


def _rule(instance: GameInstance, args) -> ActivationRule:
    chosen = ActivationRule(args.rule) if args.rule else None
    return instance.rule_or(chosen)


def _arcs_1based(arcs) -> list[list[int]]:
    return [[i + 1, j + 1] for i, j in sorted(arcs)]


def _table(rows: list[list[str]]) -> str:
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


def _emit(fmt: str, record: dict, grid, text) -> None:
    """Print a command's record: as JSON, as CSV over grid(record), or as
    the table text(record).  The record is already 1-based, with every
    fraction a string, so no format converts engine values again."""
    if fmt == "json":
        print(json.dumps(record, indent=2))
    elif fmt == "csv":
        header, *rows = grid(record)
        print(to_csv(header, rows).rstrip("\n"))
    else:
        print(text(record))


def _profile_grid(rows: list[list[str]], n: int, extra=()) -> list[list[str]]:
    """Header plus one line per profile, shared by the CSV and the table."""
    header = ["profile"] + [f"p{p + 1}" for p in range(n)] + list(extra)
    return [header] + [[str(k + 1)] + row for k, row in enumerate(rows)]


def _witness(w) -> dict:
    return {
        "player": w.player + 1,
        "removed_arcs": _arcs_1based(w.removed_arcs),
        "gain": str(w.gain),
    }


def _witness_text(w: dict) -> str:
    arcs = " ".join(f"({i},{j})" for i, j in w["removed_arcs"])
    return f"player {w['player']} removes {arcs} and gains {w['gain']}"


# ---- form


def _profile_networks(instance: GameInstance, which: int | None) -> list[tuple[int, Network]]:
    if not instance.profiles:
        raise ValueError("instance has no stored profiles")
    if which is None:
        return [(k, form_network(p)) for k, p in enumerate(instance.profiles)]
    if not 1 <= which <= len(instance.profiles):
        raise ValueError(
            f"profile {which} out of range 1..{len(instance.profiles)}"
        )
    return [(which - 1, form_network(instance.profiles[which - 1]))]


def _form_grid(record: dict) -> list[list]:
    rows = [[p["profile"], i, j] for p in record["profiles"] for i, j in p["arcs"]]
    return [["profile", "from", "to"]] + rows


def _form_text(record: dict) -> str:
    return "\n\n".join(
        "\n".join([f"profile {p['profile']}"] + [" ".join(map(str, row)) for row in p["matrix"]])
        for p in record["profiles"]
    )


def cmd_form(args) -> int:
    instance = _load(args.instance, args.strict)
    record = {
        "profiles": [
            {
                "profile": k + 1,
                "matrix": [list(row) for row in net.matrix()],
                "arcs": _arcs_1based(net.arcs),
            }
            for k, net in _profile_networks(instance, args.profile)
        ]
    }
    _emit(args.format, record, _form_grid, _form_text)
    return 0


# ---- payoffs


def _profile_worker(engine, instance, rule, index):
    """One engine call (payoff_vector or is_stable) on a stored profile's network."""
    return engine(instance, form_network(instance.profiles[index]), rule)


def _map_profiles(engine, instance: GameInstance, rule, jobs: int) -> list:
    """The engine's result for every stored profile, in order, from
    `jobs` processes.  Each process gets one chunk of profiles, so the
    instance is pickled once per process, not once per profile."""
    worker = functools.partial(_profile_worker, engine, instance, rule)
    indices = range(len(instance.profiles))
    if jobs > 1:
        # imported here: the pool pulls in multiprocessing, which every
        # other command would pay for at start-up
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, math.ceil(len(indices) / jobs))  # a map with no profiles still needs 1
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(worker, indices, chunksize=chunk))
    return [worker(k) for k in indices]


def _payoffs_text(record: dict, grid: list[list[str]]) -> str:
    lines = [f"rule: {record['rule']}", _table(grid)]
    if record["reference_mismatches"]:
        lines += ["", "reference table disagreements:"]
        lines += [
            f"  profile {m['profile']} player {m['player']}: "
            f"computed {m['computed']}, reference {m['reference']}"
            for m in record["reference_mismatches"]
        ]
    return "\n".join(lines)


def cmd_payoffs(args) -> int:
    instance = _load(args.instance, args.strict)
    rule = _rule(instance, args)
    vectors = _map_profiles(payoff_vector, instance, rule, args.jobs)
    record = {
        "rule": rule.value,
        "payoffs": [[str(v) for v in vec] for vec in vectors],
        "reference_mismatches": [
            {"profile": k + 1, "player": p + 1, "computed": str(value), "reference": str(ref[p])}
            for k, (vec, ref) in enumerate(zip(vectors, instance.payoff_matrix or ()))
            for p, value in enumerate(vec)
            if value != ref[p]
        ],
    }

    def grid(r):
        return _profile_grid(r["payoffs"], instance.n)

    _emit(args.format, record, grid, lambda r: _payoffs_text(r, grid(r)))
    return 0


# ---- equilibria


def _restricted_grid(record: dict) -> list[list]:
    return [["source", "target", "player", "gain"]] + [
        [d["source"], d["target"], d["player"], d["gain"]] for d in record["deviations"]
    ]


def _restricted_text(record: dict) -> str:
    lines = [
        f"rule: {record['rule']}",
        "equilibria: " + " ".join(map(str, record["equilibria"])),
    ]
    lines += [
        f"profile {d['source']} -> profile {d['target']}: player {d['player']} gains {d['gain']}"
        for d in record["deviations"]
    ]
    return "\n".join(lines)


def _full_grid(record: dict) -> list[list]:
    rows = [["profile", "verdict", "player", "removed", "gain"]]
    for item in record["profiles"]:
        if item["stable"]:
            rows.append([item["profile"], "stable", "", "", ""])
        else:
            w = item["witness"]
            arcs = ";".join(f"{i}-{j}" for i, j in w["removed_arcs"])
            rows.append([item["profile"], "unstable", w["player"], arcs, w["gain"]])
    return rows


def _full_text(record: dict) -> str:
    lines = [f"rule: {record['rule']}"]
    for item in record["profiles"]:
        verdict = "stable" if item["stable"] else "unstable, " + _witness_text(item["witness"])
        lines.append(f"profile {item['profile']}: {verdict}")
    return "\n".join(lines)


def cmd_equilibria(args) -> int:
    instance = _load(args.instance, args.strict)
    rule = _rule(instance, args)
    if args.mode == "restricted":
        if not instance.profiles:
            raise ValueError("restricted mode needs stored profiles")
        report = restricted_equilibria(instance, rule)
        failed = len(report.equilibria) < len(instance.profiles)
        record = {
            "mode": "restricted",
            "rule": rule.value,
            "equilibria": [s + 1 for s in report.equilibria],
            "deviations": [
                {
                    "source": d.source + 1,
                    "target": d.target + 1,
                    "player": d.player + 1,
                    "gain": str(d.gain),
                }
                for d in report.deviations
            ],
        }
        _emit(args.format, record, _restricted_grid, _restricted_text)
    else:
        reports = _map_profiles(is_stable, instance, rule, args.jobs)
        failed = any(not r.stable for r in reports)
        items = []
        for k, rep in enumerate(reports):
            item = {"profile": k + 1, "stable": rep.stable}
            if not rep.stable:
                item["witness"] = _witness(rep.witness)
            items.append(item)
        record = {"mode": "full", "rule": rule.value, "profiles": items}
        _emit(args.format, record, _full_grid, _full_text)
    if args.assert_stable and failed:
        return 1
    return 0


# ---- compromise


def _compromise_text(record: dict, grid: list[list[str]]) -> str:
    return "\n".join([
        f"source: {record['source']}",
        f"rule: {record['rule']}",
        "ideal: " + " ".join(record["ideal"]),
        _table(grid),
        f"value: {record['value']}",
        "solutions: " + " ".join(map(str, record["solutions"])),
    ])


def cmd_compromise(args) -> int:
    instance = _load(args.instance, args.strict)
    rule = _rule(instance, args)
    if args.source == "printed":
        if instance.payoff_matrix is None:
            raise ValueError("instance carries no reference payoff table")
        rows = instance.payoff_matrix
    else:
        if not instance.profiles:
            raise ValueError("instance has no stored profiles")
        rows = tuple(
            payoff_vector(instance, form_network(p), rule)
            for p in instance.profiles
        )
    matrix = PayoffMatrix.of(rows)
    report = compromise_solution(matrix, refine_ties=args.refine_ties)
    shown = (
        regret_vectors(matrix, ascending=True) if args.sorted else report.regrets
    )
    record = {
        "source": args.source,
        "rule": rule.value,
        "ideal": [str(v) for v in report.ideal],
        "regrets": [[str(v) for v in row] for row in shown],
        "row_max": [str(v) for v in report.row_max],
        "value": str(report.value),
        "solutions": [s + 1 for s in report.solutions],
    }

    def grid(r):
        rows = [row + [top] for row, top in zip(r["regrets"], r["row_max"])]
        return _profile_grid(rows, matrix.n_players, ("max",))

    _emit(args.format, record, grid, lambda r: _compromise_text(r, grid(r)))
    return 0


# ---- check-disjoint


def _disjoint_text(record: dict) -> str:
    if record["stable"]:
        return "stable: no active coalition with a positive-share member has negative income"
    return (
        "unstable: an active coalition has negative income\n"
        "witness: " + _witness_text(record["witness"])
    )


def cmd_check_disjoint(args) -> int:
    instance = _load(args.instance, args.strict)
    rule = _rule(instance, args)
    if args.network is not None:
        try:
            rows = json.loads(args.network.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise DocumentError(f"network file is not valid JSON: {exc}") from None
        net = Network.from_matrix(rows)
    else:
        [(_, net)] = _profile_networks(instance, args.profile)
    report = check_disjoint_stability(instance, net, rule)
    record = {"rule": rule.value, "stable": report.stable}
    if not report.stable:
        record["witness"] = _witness(report.witness)
    _emit(args.format, record, None, _disjoint_text)
    return 0 if report.stable else 1


# ---- generate


def cmd_generate(args) -> int:
    instance = random_instance(
        seed=args.seed,
        n=args.players,
        coalition_count=args.coalitions,
        income_range=tuple(args.income_range),
        disjoint=args.disjoint,
    )
    text = save_instance(instance)
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netform",
        description=(
            "Form directed networks from offer/acceptance profiles, compute "
            "coalition payoffs exactly, check stability, and pick compromise "
            "outcomes.  INSTANCE is a JSON file or a builtin name: "
            + ", ".join(sorted(BUILTIN))
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance(p):
        p.add_argument("instance", help="instance file or builtin name")
        p.add_argument(
            "--strict",
            action="store_true",
            help="treat share-sum warnings as errors",
        )

    def add_rule(p):
        p.add_argument(
            "--rule",
            choices=[r.value for r in ActivationRule],
            help="coalition activation rule (default: the instance's, else linked)",
        )

    def add_format(p, choices=("table", "json", "csv")):
        p.add_argument("--format", choices=list(choices), default="table")

    def add_jobs(p):
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="compute profiles in N processes (output is identical)",
        )

    p_form = sub.add_parser("form", help="form networks from stored profiles")
    add_instance(p_form)
    p_form.add_argument(
        "profile",
        nargs="?",
        type=int,
        default=None,
        help="1-based profile index (default: all)",
    )
    add_format(p_form)
    p_form.set_defaults(func=cmd_form)

    p_pay = sub.add_parser("payoffs", help="payoff vectors of the formed networks")
    add_instance(p_pay)
    add_rule(p_pay)
    add_format(p_pay)
    add_jobs(p_pay)
    p_pay.set_defaults(func=cmd_payoffs)

    p_eq = sub.add_parser("equilibria", help="stability of the stored profiles")
    add_instance(p_eq)
    p_eq.add_argument(
        "--mode",
        choices=["restricted", "full"],
        default="restricted",
        help=(
            "restricted: deviations only between stored profiles; "
            "full: every break deviation"
        ),
    )
    add_rule(p_eq)
    add_format(p_eq)
    add_jobs(p_eq)
    p_eq.add_argument(
        "--assert-stable",
        action="store_true",
        help="exit 1 when any profile fails",
    )
    p_eq.set_defaults(func=cmd_equilibria)

    p_comp = sub.add_parser("compromise", help="min-max-regret selection")
    add_instance(p_comp)
    p_comp.add_argument(
        "--source",
        choices=["printed", "computed"],
        default="printed",
        help="use the instance's reference payoff table or recompute",
    )
    add_rule(p_comp)
    add_format(p_comp)
    p_comp.add_argument(
        "--sorted",
        action="store_true",
        help="show each regret row sorted ascending (display only)",
    )
    p_comp.add_argument(
        "--refine-ties",
        action="store_true",
        help="break value ties by comparing whole regret vectors",
    )
    p_comp.set_defaults(func=cmd_compromise)

    p_chk = sub.add_parser(
        "check-disjoint",
        help="fast stability verdict for pairwise-disjoint coalitions",
    )
    add_instance(p_chk)
    group = p_chk.add_mutually_exclusive_group(required=True)
    group.add_argument("--profile", type=int, help="check a stored profile's network")
    group.add_argument(
        "--network",
        type=Path,
        help="check an adjacency matrix from a JSON file",
    )
    add_rule(p_chk)
    add_format(p_chk, choices=("table", "json"))
    p_chk.set_defaults(func=cmd_check_disjoint)

    p_gen = sub.add_parser("generate", help="write a seeded random instance")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--players", type=int, default=5)
    p_gen.add_argument("--coalitions", type=int, default=4)
    p_gen.add_argument(
        "--income-range",
        type=int,
        nargs=2,
        default=(-5, 5),
        metavar=("LO", "HI"),
    )
    p_gen.add_argument("--disjoint", action="store_true")
    p_gen.add_argument(
        "-o",
        "--out",
        type=Path,
        default=None,
        help="write to a file instead of stdout",
    )
    p_gen.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # DocumentError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
