"""Command-line front end.

Subcommands: form, payoffs, equilibria, compromise, check-disjoint,
generate.  Players, profiles, and arcs are 1-based everywhere here.
Exit codes: 0 success, 1 negative domain verdict (any unstable verdict
of check-disjoint, or an instability that equilibria was asked to flag
with --assert-stable), 2 usage, parse, or precondition errors.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys

from .compromise import PayoffMatrix, compromise_solution
from .datasets import BUILTIN, random_instance
from .formation import form_network
from .instance_io import load_instance_file, load_network_file, save_instance, validated_warnings
from .model import ActivationRule, GameInstance
from .payoffs import stored_payoffs

# `netform.stability` is imported by the commands that search, `json` and
# `csv` by the formats that print them: the other commands never load them


def _load(name: str, strict: bool) -> GameInstance:
    """The instance a builtin name or a file names, validated: its
    warnings are printed, and its errors raise DocumentError."""
    instance = BUILTIN[name]() if name in BUILTIN else load_instance_file(name, strict)
    for warning in validated_warnings(instance, strict):
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
        import json

        print(json.dumps(record, indent=2))
    elif fmt == "csv":
        import csv

        csv.writer(sys.stdout, lineterminator="\n").writerows(grid(record))
    else:
        print(text(record))


def _profile_grid(rows: list[list[str]], n: int, extra=()) -> list[list[str]]:
    """Header plus one line per profile, shared by the CSV and the table."""
    header = ["profile"] + [f"p{p + 1}" for p in range(n)] + list(extra)
    return [header] + [[str(k + 1)] + row for k, row in enumerate(rows)]


def _verdict(report) -> dict:
    """A stability report's `stable` flag and, when it is false, its witness."""
    if report.stable:
        return {"stable": True}
    w = report.witness
    arcs = _arcs_1based(w.removed_arcs)
    witness = {"player": w.player + 1, "removed_arcs": arcs, "gain": str(w.gain)}
    return {"stable": False, "witness": witness}


def _witness_text(w: dict) -> str:
    arcs = " ".join(f"({i},{j})" for i, j in w["removed_arcs"])
    return f"player {w['player']} removes {arcs} and gains {w['gain']}"


def _stored(instance: GameInstance, which: int | None = None) -> range:
    """The indices of every stored profile, or of the 1-based profile
    `which`: every command that reads stored profiles selects them here."""
    count = len(instance.profiles)
    if not count:
        raise ValueError("instance has no stored profiles")
    if which is not None and not 1 <= which <= count:
        raise ValueError(f"profile {which} out of range 1..{count}")
    return range(count) if which is None else range(which - 1, which)


def _formed(instance: GameInstance, which: int | None = None) -> list:
    """`(index, network)` of the profiles `_stored` selects: every one
    from the instance's `networks`, formed once per instance, and the
    profile `which` formed on its own, so a command on one profile never
    forms the others."""
    indices = _stored(instance, which)
    if which is None:
        return list(zip(indices, instance.networks))
    return [(k, form_network(instance.profiles[k])) for k in indices]


# ---- form


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
            for k, net in _formed(instance, args.profile)
        ]
    }
    _emit(args.format, record, _form_grid, _form_text)
    return 0


# ---- payoffs


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
    _stored(instance)  # refuses an instance without stored profiles
    vectors = stored_payoffs(instance, rule)
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
    from .stability import is_stable, restricted_equilibria

    instance = _load(args.instance, args.strict)
    rule = _rule(instance, args)
    if args.mode == "restricted":
        _stored(instance)  # refuses an instance without stored profiles
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
        reports = [is_stable(instance, net, rule) for _, net in _formed(instance)]
        failed = any(not r.stable for r in reports)
        items = [{"profile": k + 1, **_verdict(rep)} for k, rep in enumerate(reports)]
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
        _stored(instance)
        rows = stored_payoffs(instance, rule)
    matrix = PayoffMatrix(rows)
    report = compromise_solution(matrix, refine_ties=args.refine_ties)
    shown = (
        [sorted(row) for row in report.regrets] if args.sorted else report.regrets
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
    from .stability import check_disjoint_stability

    instance = _load(args.instance, args.strict)
    rule = _rule(instance, args)
    if args.network is not None:
        net = load_network_file(args.network)
    else:
        [(_, net)] = _formed(instance, args.profile)
    report = check_disjoint_stability(instance, net, rule)
    record = {"rule": rule.value, **_verdict(report)}
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
        with open(args.out, "w", encoding="utf-8") as file:
            file.write(text)
    else:
        print(text, end="")
    return 0


def _job_count(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


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
            type=_job_count,
            default=1,
            metavar="N",
            help="accepted (N >= 1) and ignored: every command runs in one process",
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
        default=None,
        help="write to a file instead of stdout",
    )
    p_gen.set_defaults(func=cmd_generate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call in a process: it
    depends only on code, not on any input.  `build_parser` still returns
    a fresh parser, so a caller that extends one leaves this one alone."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # The cyclic collector is paused while the command runs.  A command
    # builds only acyclic data (the parsed JSON tree, records, ints and
    # Fractions), which reference counting frees; the garbage it leaves
    # for the collector is a fixed handful of objects, the encoder
    # closures of `json.dumps(indent=...)`, the same for a document of
    # any size.  A command on a file also leaves that file's instance,
    # with the networks and tables it cached, alive as one of the
    # loader's last two texts (`load_instance_file`), and it grows with
    # the document; it is acyclic too, so reference counting frees it
    # when two newer texts push it out.  Left on, the collector would
    # scan every list a large document parses into, again and again.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # DocumentError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
