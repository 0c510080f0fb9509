"""Byte-for-byte CLI behaviour: stdout, stderr and exit code of every
subcommand in every format it accepts, pinned in data/cli_golden.json.

The data file also holds the input files the cases read; they are written
to a temporary directory, and "{dir}" in arguments and outputs stands for
that directory.  Rewrite the data file from the current code only when an
output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from netform import ActivationRule, load_instance, profile_payoffs
from netform.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
FORMATS = ("table", "json", "csv")


def run_cli(argv: list[str], where: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    argv = [a.replace("{dir}", str(where)) for a in argv]
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {
        "code": code,
        "stdout": out.getvalue().replace(str(where), "{dir}"),
        "stderr": err.getvalue().replace(str(where), "{dir}"),
    }


def write_files(files: dict, where: Path) -> None:
    for name, text in files.items():
        (where / name).write_text(text, encoding="utf-8")


# ---- the checks


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


_CASES = [] if __name__ == "__main__" else _golden()["cases"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    where = tmp_path_factory.mktemp("golden")
    write_files(_golden()["files"], where)
    return where


@pytest.mark.parametrize("case", _CASES, ids=[" ".join(c["argv"]) for c in _CASES])
def test_cli_output_is_unchanged(case, inputs):
    got = run_cli(case["argv"], inputs)
    assert got == {k: case[k] for k in ("code", "stdout", "stderr")}


# ---- rewriting the data file


def _random_profile(rng: random.Random, n: int, density: float) -> dict:
    def bits():
        return [[int(i != j and rng.random() < density) for j in range(n)] for i in range(n)]

    return {"offers": bits(), "acceptances": bits()}


def _generated(argv: list[str], where: Path, profiles: int, seed: int) -> dict:
    doc = json.loads(run_cli(["generate", *argv], where)["stdout"])
    rng = random.Random(seed)
    doc["profiles"] = [_random_profile(rng, doc["players"], 0.7) for _ in range(profiles)]
    return doc


def _inputs(where: Path) -> dict:
    rand = _generated(["--seed", "7", "--players", "5", "--coalitions", "6"], where, 4, 1)
    rows = profile_payoffs(load_instance(json.dumps(rand)), ActivationRule.LINKED)
    table = [[str(v) for v in row] for row in rows]
    table[2][1] = str(rows[2][1] + 3)  # one disagreement with the engine
    rand["payoff_matrix"] = table
    disjoint = _generated(
        ["--seed", "7", "--players", "6", "--coalitions", "4", "--disjoint"], where, 3, 2
    )
    bare = run_cli(["generate", "--seed", "11", "--players", "4", "--coalitions", "3"], where)
    net = [[int(i != j and (i + j) % 3 != 0) for j in range(6)] for i in range(6)]
    cell = [row[:] for row in net]
    cell[0][1] = 2
    return {
        "random.json": json.dumps(rand, indent=2),
        "disjoint.json": json.dumps(disjoint, indent=2),
        "bare.json": bare["stdout"],
        "net.json": json.dumps(net),
        "net_small.json": json.dumps([[0, 1, 0], [1, 0, 0], [0, 0, 0]]),
        "net_cell.json": json.dumps(cell),
        "net_bad.json": "[[0, 1],",
    }


def _argvs() -> list[list[str]]:
    cases = []
    builtins = ("worked-example", "intersecting-example")
    for inst in (*builtins, "{dir}/random.json", "{dir}/disjoint.json"):
        for fmt in FORMATS:
            f = ["--format", fmt]
            cases += [
                ["form", inst, *f],
                ["form", inst, "1", *f],
                ["payoffs", inst, *f],
                ["payoffs", inst, "--rule", "mutual", *f],
                ["equilibria", inst, "--mode", "restricted", *f],
                ["equilibria", inst, "--mode", "full", *f],
                ["equilibria", inst, "--mode", "full", "--rule", "mutual", *f],
                ["compromise", inst, "--source", "printed", *f],
                ["compromise", inst, "--source", "computed", *f],
                ["compromise", inst, "--source", "printed", "--sorted", "--refine-ties", *f],
                ["compromise", inst, "--source", "computed", "--sorted", "--rule", "mutual", *f],
            ]
        for fmt in ("table", "json"):
            cases.append(["check-disjoint", inst, "--profile", "1", "--format", fmt])
        cases += [
            ["equilibria", inst, "--assert-stable"],
            ["equilibria", inst, "--mode", "full", "--assert-stable"],
            ["form", inst, "99"],
        ]
    disjoint = "{dir}/disjoint.json"
    for fmt in ("table", "json"):
        for how in (["--profile", "2"], ["--profile", "3"], ["--network", "{dir}/net.json"]):
            for rule in ("linked", "mutual"):
                cases.append(["check-disjoint", disjoint, *how, "--rule", rule, "--format", fmt])
    cases += [
        ["check-disjoint", disjoint, "--network", "{dir}/net_small.json"],
        ["check-disjoint", disjoint, "--network", "{dir}/net_cell.json"],
        ["check-disjoint", disjoint, "--network", "{dir}/net_bad.json"],
        ["check-disjoint", disjoint, "--network", "{dir}/missing.json"],
        ["check-disjoint", disjoint, "--profile", "0"],
        ["check-disjoint", "intersecting-example", "--network", "{dir}/net.json"],
        ["form", "{dir}/bare.json"],
        ["equilibria", "{dir}/bare.json"],
        ["compromise", "{dir}/bare.json"],
        ["compromise", "{dir}/bare.json", "--source", "computed"],
        ["check-disjoint", "{dir}/bare.json", "--profile", "1"],
        ["payoffs", "worked-example", "--strict"],
        ["payoffs", "{dir}/missing.json"],
        ["payoffs", "worked-example", "--jobs", "2", "--format", "csv"],
        ["equilibria", "worked-example", "--mode", "full", "--jobs", "2", "--format", "json"],
        ["generate", "--seed", "7", "--players", "5", "--coalitions", "6"],
        ["generate", "--seed", "7", "--players", "6", "--coalitions", "4", "--disjoint"],
        ["generate", "--seed", "0", "--players", "4", "--coalitions", "20", "--disjoint"],
        ["generate", "--seed", "0", "--coalitions", "3", "--income-range", "2", "1"],
    ]
    for fmt in FORMATS:
        cases += [
            ["payoffs", "{dir}/bare.json", "--format", fmt],
            ["equilibria", "{dir}/bare.json", "--mode", "full", "--format", fmt],
        ]
    return cases


def rewrite(where: Path) -> None:
    files = _inputs(where)
    write_files(files, where)
    cases = [{"argv": argv, **run_cli(argv, where)} for argv in _argvs()]
    text = json.dumps({"files": files, "cases": cases}, indent=1) + "\n"
    GOLDEN.write_text(text, encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        rewrite(Path(tmp))
