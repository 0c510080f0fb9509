"""Command-line behavior: output shapes and exit codes."""

from __future__ import annotations

import argparse
import copy
import gc
import importlib
import io
import json
import os
import random
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netform
from netform import cli, instance_io, model
from netform.cli import build_parser, main
from netform.formation import OfferProfile
from netform.instance_io import save_instance
from netform.model import MAX_PLAYERS, GameInstance
from netform import random_instance, worked_example

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def empty_loader(monkeypatch):
    """The file loader's kept instances dropped now and by each call of
    the returned function, so the next file load builds its instance
    afresh."""

    def empty():
        monkeypatch.setattr(instance_io, "_kept", ())

    empty()
    return empty


def test_form_prints_reference_network(capsys):
    code, out, _ = run(capsys, "form", "worked-example", "1")
    assert code == 0
    reference = json.loads((DATA / "reference_networks.json").read_text())
    want = "\n".join(" ".join(str(v) for v in row) for row in reference["networks"][0])
    assert out == f"profile 1\n{want}\n"


def test_form_all_profiles_json(capsys):
    code, out, _ = run(capsys, "form", "worked-example", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [p["profile"] for p in payload["profiles"]] == list(range(1, 11))
    assert payload["profiles"][0]["arcs"][0] == [1, 3]


def test_form_rejects_bad_index(capsys):
    code, _, err = run(capsys, "form", "worked-example", "11")
    assert code == 2
    assert "out of range" in err


def test_form_csv_lists_arcs(capsys):
    code, out, _ = run(capsys, "form", "worked-example", "10", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "profile,from,to"
    assert lines[1] == "10,2,4"


def test_payoffs_table_and_reference_deltas(capsys):
    code, out, err = run(capsys, "payoffs", "worked-example")
    assert code == 0
    assert "warning" in err  # the kept share anomaly surfaces leniently
    lines = out.splitlines()
    assert lines[0] == "rule: linked"
    row4 = lines[5].split()
    assert row4 == ["4", "-1", "3", "1", "1", "3"]
    flagged = [l for l in lines if "profile 10" in l]
    assert len(flagged) == 3
    assert any("player 3: computed 1, reference 7" in l for l in flagged)


def test_payoffs_json_is_deterministic_and_jobs_invariant(capsys):
    code, first, _ = run(capsys, "payoffs", "worked-example", "--format", "json")
    assert code == 0
    code, second, _ = run(capsys, "payoffs", "worked-example", "--format", "json")
    assert first == second
    code, parallel, _ = run(
        capsys, "payoffs", "worked-example", "--format", "json", "--jobs", "3"
    )
    assert code == 0
    assert parallel == first
    payload = json.loads(first)
    assert payload["payoffs"][4] == ["19", "21", "24", "12", "18"]
    assert {
        "profile": 10,
        "player": 4,
        "computed": "2",
        "reference": "8",
    } in payload["reference_mismatches"]


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_jobs_below_one_is_a_usage_error(capsys, jobs):
    with pytest.raises(SystemExit) as exit_:
        main(["payoffs", "worked-example", "--jobs", jobs])
    assert exit_.value.code == 2
    assert f"--jobs: must be at least 1, got {int(jobs)}" in capsys.readouterr().err


class NoPool:
    """Stands in for ProcessPoolExecutor and fails if it is ever built."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a command started a process pool")


@pytest.mark.parametrize("jobs", ["1", "2", "64"])
@pytest.mark.parametrize(
    "command",
    [["payoffs"], ["equilibria", "--mode", "restricted"], ["equilibria", "--mode", "full"]],
    ids=" ".join,
)
def test_jobs_is_accepted_and_every_command_runs_in_one_process(capsys, monkeypatch, command, jobs):
    # eight CPUs and ten profiles would have room for workers: none starts
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    code, out, _ = run(capsys, *command, "worked-example", "--jobs", jobs)
    assert (code, out) == run(capsys, *command, "worked-example")[:2]


REFUSED_FLAGS = [
    (["form", "worked-example", "--rule", "linked"], "unrecognized arguments: --rule"),
    (["form", "worked-example", "--jobs", "2"], "unrecognized arguments: --jobs"),
    (["compromise", "worked-example", "--jobs", "2"], "unrecognized arguments: --jobs"),
    (["check-disjoint", "worked-example", "--profile", "1", "--jobs", "2"], "unrecognized arguments: --jobs"),
    (["check-disjoint", "worked-example", "--profile", "1", "--format", "csv"], "invalid choice: 'csv'"),
    (["generate", "--seed", "1", "--strict"], "unrecognized arguments: --strict"),
    (["generate", "--seed", "1", "--rule", "linked"], "unrecognized arguments: --rule"),
    (["generate", "--seed", "1", "--format", "json"], "unrecognized arguments: --format"),
    (["generate", "--seed", "1", "--jobs", "2"], "unrecognized arguments: --jobs"),
]


@pytest.mark.parametrize("argv, complaint", REFUSED_FLAGS, ids=[" ".join(argv) for argv, _ in REFUSED_FLAGS])
def test_a_shared_flag_on_a_command_that_does_not_take_it_is_a_usage_error(capsys, argv, complaint):
    # the README's "Shared flags" list names the commands that take each flag
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert complaint in capsys.readouterr().err


def test_payoffs_rule_override(capsys):
    code, out, _ = run(capsys, "payoffs", "worked-example", "--rule", "mutual", "--format", "csv")
    assert code == 0
    # under MUTUAL almost nothing activates in these profiles
    assert out.splitlines()[1] == "1,0,0,0,0,0"


def test_equilibria_restricted_table(capsys):
    code, out, _ = run(capsys, "equilibria", "worked-example")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "equilibria: 1 2 3 5 6 7 8 9 10"
    assert lines[2] == "profile 4 -> profile 10: player 1 gains 1"


def test_equilibria_assert_stable_exit(capsys):
    code, _, _ = run(capsys, "equilibria", "worked-example", "--assert-stable")
    assert code == 1
    code, _, _ = run(
        capsys, "equilibria", "worked-example", "--mode", "full", "--assert-stable"
    )
    assert code == 1


def test_equilibria_full_on_intersecting_example(capsys):
    code, out, _ = run(capsys, "equilibria", "intersecting-example", "--mode", "full")
    assert code == 0
    assert out.splitlines()[1] == "profile 1: stable"
    code, _, _ = run(
        capsys,
        "equilibria",
        "intersecting-example",
        "--mode",
        "full",
        "--assert-stable",
    )
    assert code == 0


def test_equilibria_full_json_names_witness(capsys):
    code, out, _ = run(
        capsys, "equilibria", "worked-example", "--mode", "full", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    by_profile = {p["profile"]: p for p in payload["profiles"]}
    assert by_profile[4]["stable"] is False
    witness = by_profile[4]["witness"]
    # dropping the one negative-pair arc is the smallest best response
    assert witness["player"] == 1
    assert witness["gain"] == "1"
    assert witness["removed_arcs"] == [[1, 4]]


def test_compromise_printed_solution(capsys):
    code, out, _ = run(capsys, "compromise", "worked-example", "--sorted")
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "ideal: 23 21 26 15 22"
    assert lines[-2] == "value: 0"
    assert lines[-1] == "solutions: 5"
    assert lines[10].split() == ["7", "14", "20", "21", "23", "26", "26"]


def test_compromise_computed_single_profile(capsys):
    code, out, _ = run(
        capsys, "compromise", "intersecting-example", "--source", "computed"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-2] == "value: 0"
    assert lines[-1] == "solutions: 1"


def test_compromise_csv(capsys):
    code, out, _ = run(
        capsys, "compromise", "worked-example", "--format", "csv", "--sorted"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "profile,p1,p2,p3,p4,p5,max"
    assert lines[5] == "5,0,0,0,0,0,0"


def test_compromise_missing_reference_matrix(capsys, tmp_path):
    path = tmp_path / "bare.json"
    doc = {
        "schema": "game-instance/1",
        "players": 2,
        "coalitions": [
            {"members": [1, 2], "income": "1", "shares": {"1": "1/2", "2": "1/2"}}
        ],
    }
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "compromise", str(path))
    assert code == 2
    assert "no reference payoff table" in err


def test_compromise_refuses_a_table_with_a_huge_common_denominator(capsys, tmp_path):
    # 50 coprime 30-bit denominators: a 1,500-bit least common denominator
    primes, x = [], 10 ** 9
    while len(primes) < 50:
        x += 1
        if all(x % d for d in range(2, int(x ** 0.5) + 1)):
            primes.append(x)
    doc = json.loads(save_instance(worked_example()))
    doc["payoff_matrix"] = [[f"1/{p}" for p in primes[r * 5:r * 5 + 5]] for r in range(10)]
    path = tmp_path / "coprime.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "compromise", str(path))
    assert (code, out) == (2, "")
    assert err.endswith("\nerror: payoff table entries need a common denominator of more than 1024 bits\n")
    # the computed table and the other commands are unaffected
    assert run(capsys, "compromise", str(path), "--source", "computed")[0] == 0
    assert run(capsys, "payoffs", str(path))[0] == 0


def test_payoff_commands_refuse_a_huge_common_denominator(capsys, tmp_path):
    # one income over a 1,101-bit denominator: refused before any payment is scaled
    doc = json.loads(save_instance(worked_example()))
    doc["coalitions"][0]["income"] = f"1/{2 ** 1100 + 1}"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    for command in (
        ["payoffs"],
        ["equilibria"],
        ["equilibria", "--mode", "full"],
        ["compromise", "--source", "computed"],
    ):
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        assert (code, out) == (2, ""), command
        assert err.endswith("\nerror: coalition payments need a common denominator of more than 1024 bits\n")
    # forming networks needs no payments
    assert run(capsys, "form", str(path))[0] == 0
    pair = {"members": [1, 2], "income": f"1/{2 ** 1100 + 1}"}
    path.write_text(json.dumps({"schema": "game-instance/1", "players": 2, "coalitions": [pair]}))
    linked = tmp_path / "linked.json"
    linked.write_text(json.dumps([[0, 1], [1, 0]]))
    code, out, err = run(capsys, "check-disjoint", str(path), "--network", str(linked))
    assert (code, out) == (2, "")
    assert err == "error: coalition payments need a common denominator of more than 1024 bits\n"


def test_payoff_commands_refuse_an_oversized_payoff_index(capsys, tmp_path, monkeypatch, empty_loader):
    # the worked example's twelve pair masks hold 152 bits in all; an
    # instance keeps the index it built, so each limit meets a fresh one
    path = tmp_path / "worked.json"
    path.write_text(save_instance(worked_example()))
    monkeypatch.setattr(model, "MAX_INDEX_BITS", 152)
    assert run(capsys, "payoffs", str(path))[0] == 0
    monkeypatch.setattr(model, "MAX_INDEX_BITS", 151)
    empty_loader()
    message = "error: coalition pair masks need 152 bits, more than the limit of 151\n"
    for command in (
        ["payoffs"],
        ["equilibria"],
        ["equilibria", "--mode", "full"],
        ["compromise", "--source", "computed"],
    ):
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        assert (code, out) == (2, ""), command
        assert err.endswith("\n" + message)
    # forming networks needs no payments
    assert run(capsys, "form", str(path))[0] == 0
    # one pair {1, 2} on two players: its mask reaches bit 1
    monkeypatch.setattr(model, "MAX_INDEX_BITS", 1)
    empty_loader()
    pair = {"members": [1, 2], "income": "1"}
    path.write_text(json.dumps({"schema": "game-instance/1", "players": 2, "coalitions": [pair]}))
    linked = tmp_path / "linked.json"
    linked.write_text(json.dumps([[0, 1], [1, 0]]))
    code, out, err = run(capsys, "check-disjoint", str(path), "--network", str(linked))
    assert (code, out) == (2, "")
    assert err == "error: coalition pair masks need 2 bits, more than the limit of 1\n"


def test_check_disjoint_rejects_overlap(capsys):
    code, _, err = run(capsys, "check-disjoint", "worked-example", "--profile", "1")
    assert code == 2
    assert "(1,3,4)" in err and "(1,4,5)" in err


def test_check_disjoint_verdicts(capsys, tmp_path):
    doc = {
        "schema": "game-instance/1",
        "players": 3,
        "coalitions": [
            {"members": [1, 2], "income": "-1", "shares": {"1": "1/2", "2": "1/2"}},
            {"members": [2, 3], "income": "5", "shares": {"2": "1/2", "3": "1/2"}},
        ],
    }
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    quiet = tmp_path / "empty.json"
    quiet.write_text(json.dumps([[0, 0, 0], [0, 0, 0], [0, 0, 0]]))
    code, out, _ = run(capsys, "check-disjoint", str(inst), "--network", str(quiet))
    assert code == 0
    assert out.startswith("stable")

    hot = tmp_path / "linked.json"
    hot.write_text(json.dumps([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    code, out, _ = run(capsys, "check-disjoint", str(inst), "--network", str(hot))
    assert code == 1
    assert "unstable" in out
    assert "player 1 removes (1,2)" in out

    code, out, _ = run(
        capsys,
        "check-disjoint",
        str(inst),
        "--network",
        str(hot),
        "--format",
        "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["stable"] is False
    assert payload["witness"]["gain"] == "1/2"


@pytest.mark.parametrize("matrix", ["5", '[[0, "1"], [1, 0]]', "[[0, true], [1, 0]]"])
def test_check_disjoint_rejects_malformed_network_file(tmp_path, matrix):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "schema": "game-instance/1",
        "players": 2,
        "coalitions": [{"members": [1, 2], "income": "-1"}],
    }))
    net = tmp_path / "net.json"
    net.write_text(matrix)
    src = Path(netform.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "netform.cli", "check-disjoint", str(inst), "--network", str(net)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 2
    assert done.stderr.startswith("error: adjacency")
    assert "Traceback" not in done.stderr


def _bare_python(probe: str) -> str:
    """What `probe` prints in a fresh interpreter run with -S: a .pth file
    that site runs can neither load a module for it nor hide one from it."""
    src = Path(netform.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_process_pool():
    # no command starts a process pool, so none imports one; the value
    # classes are not dataclasses, so no command pays for `dataclasses`
    # and its `inspect` chain; documents, CSV, generation and the
    # stability search import their modules where they run
    probe = (
        "import sys, netform.cli; print(sorted({'concurrent.futures', "
        "'multiprocessing', 'dataclasses', 'inspect', 'json', 'csv', "
        "'pathlib', 'random', 'netform.stability'} & set(sys.modules)))"
    )
    assert _bare_python(probe) == "[]\n"


def test_import_netform_loads_no_submodule():
    probe = "import sys, netform; print(sorted(m for m in sys.modules if m.startswith('netform.')))"
    assert _bare_python(probe) == "[]\n"
    # a submodule is one attribute access away, as before
    probe = "import netform; print(netform.stability.is_stable is netform.is_stable)"
    assert _bare_python(probe) == "True\n"


def test_every_export_is_its_home_modules_object():
    homes = {
        "compromise": ["PayoffMatrix", "compromise_solution", "ideal_vector", "regret_vectors"],
        "datasets": ["random_instance", "worked_example"],
        "formation": ["Network", "form_network"],
        "instance_io": ["DocumentError", "load_instance", "save_instance"],
        "model": ["ActivationRule", "CoalitionSpec", "GameInstance"],
        "payoffs": ["payoff_vector", "payoff_vectors"],
        "stability": [
            "OverlappingCoalitionsError", "check_disjoint_stability",
            "is_stable", "restricted_equilibria",
        ],
    }
    assert sorted(netform.__all__) == sorted(n for names in homes.values() for n in names)
    for home, names in homes.items():
        module = importlib.import_module(f"netform.{home}")
        assert getattr(netform, home) is module
        for name in names:
            assert getattr(netform, name) is getattr(module, name)
    assert set(netform.__all__) | set(homes) <= set(dir(netform))
    with pytest.raises(AttributeError, match="no attribute 'stabilty'"):
        netform.stabilty


def test_generate_deterministic_and_disjoint(capsys, tmp_path):
    code, first, _ = run(capsys, "generate", "--seed", "11", "--coalitions", "3", "--disjoint")
    assert code == 0
    code, second, _ = run(capsys, "generate", "--seed", "11", "--coalitions", "3", "--disjoint")
    assert first == second

    out_path = tmp_path / "gen.json"
    code, _, _ = run(
        capsys,
        "generate",
        "--seed",
        "11",
        "--coalitions",
        "3",
        "--disjoint",
        "-o",
        str(out_path),
    )
    assert code == 0
    assert out_path.read_text() == first

    net = tmp_path / "net.json"
    net.write_text(json.dumps([[0] * 5 for _ in range(5)]))
    code, out, _ = run(capsys, "check-disjoint", str(out_path), "--network", str(net))
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["form"],
        ["form", "1"],
        ["payoffs"],
        ["payoffs", "--jobs", "2"],
        ["equilibria", "--assert-stable"],
        ["equilibria", "--mode", "full", "--assert-stable"],
        ["compromise", "--source", "computed"],
        ["check-disjoint", "--profile", "1"],
    ],
    ids=" ".join,
)
def test_every_command_that_reads_stored_profiles_refuses_an_instance_without_them(
    capsys, tmp_path, argv
):
    path = tmp_path / "gen.json"
    assert run(capsys, "generate", "--seed", "7", "-o", str(path)) == (0, "", "")
    command, *flags = argv
    assert run(capsys, command, str(path), *flags) == (
        2, "", "error: instance has no stored profiles\n"
    )


def test_generate_infeasible(capsys):
    code, _, err = run(
        capsys, "generate", "--seed", "0", "--players", "4", "--coalitions", "20", "--disjoint"
    )
    assert code == 2
    assert "cannot pick" in err
    code, _, err = run(capsys, "generate", "--seed", "0", "--players", "2000")
    assert code == 2
    assert "limit" in err


def test_unreachable_disjoint_count_is_refused_in_one_scan():
    # the disjoint picks keep the member pairs already held, so a count
    # that no family of 100 players reaches is refused after one linear
    # pass over the 166,650 candidates; comparing each candidate with
    # every kept coalition took about a minute
    src = Path(netform.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "netform.cli", "generate", "--seed", "1", "--players", "100",
         "--coalitions", "166650", "--disjoint"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=20,
    )
    assert done.returncode == 2
    assert done.stderr == (
        "error: could not pick 166650 pairwise-disjoint coalitions on 100 players (got 2160)\n"
    )


def test_equilibria_refuses_more_profile_pairs_than_the_limit(capsys, tmp_path):
    empty = {"offers": [[0, 0], [0, 0]], "acceptances": [[0, 0], [0, 0]]}
    doc = {
        "schema": "game-instance/1",
        "players": 2,
        "coalitions": [{"members": [1, 2], "income": "1"}],
        "profiles": [empty] * 363,
    }
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "equilibria", str(path))
    assert (code, out) == (2, "")
    assert err == "error: restricted search compares 131406 profile pairs, more than the limit of 131072\n"


def test_strict_flag_rejects_anomalous_shares(capsys, tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(save_instance(worked_example()))
    code, _, err = run(capsys, "payoffs", str(path), "--strict")
    assert code == 2
    assert "shares sum" in err
    code, _, _ = run(capsys, "payoffs", str(path))
    assert code == 0


# the worked example's coalition 7 has shares summing to 5/4
validation_outcomes = pytest.mark.parametrize(
    "flags, code, err",
    [
        ([], 0, "warning: coalition 7 (1,4,2): shares sum to 5/4, not 1\n"),
        (["--strict"], 2, "error: coalition 7 (1,4,2): shares sum to 5/4, not 1\n"),
    ],
)


def _counted_findings(monkeypatch) -> list:
    """Every instance whose faults are found from here on, once per
    computation of its cached `findings`."""
    prop = vars(GameInstance)["findings"]
    find = prop.func
    computed = []

    def counting(instance):
        computed.append(instance)
        return find(instance)

    monkeypatch.setattr(prop, "func", counting)
    return computed


@validation_outcomes
def test_a_loaded_file_is_validated_once(capsys, monkeypatch, tmp_path, empty_loader, flags, code, err):
    # the loader refuses an invalid instance and the command prints the
    # warnings: both read the one set of findings
    path = tmp_path / "inst.json"
    path.write_text(save_instance(worked_example()))
    computed = _counted_findings(monkeypatch)
    assert run(capsys, "payoffs", str(path), *flags)[::2] == (code, err)
    assert len(computed) == 1


@validation_outcomes
def test_a_builtin_instance_is_validated_once(capsys, monkeypatch, flags, code, err):
    # once per process: a later command prints the same and finds nothing again
    fresh = worked_example.__wrapped__()
    monkeypatch.setitem(cli.BUILTIN, "worked-example", lambda: fresh)
    computed = _counted_findings(monkeypatch)
    first, second = (run(capsys, "payoffs", "worked-example", *flags) for _ in range(2))
    assert first == second
    assert first[::2] == (code, err) and bool(first[1]) == (code == 0)
    assert len(computed) == 1 and computed[0] is fresh


def test_an_instance_finds_its_faults_once(capsys, monkeypatch, tmp_path, empty_loader):
    from netform.instance_io import load_instance, load_instance_file, validated_warnings

    computed = _counted_findings(monkeypatch)
    fresh = worked_example.__wrapped__()
    message = "coalition 7 (1,4,2): shares sum to 5/4, not 1"
    # lenient and strict calls split the same findings
    for _ in range(2):
        assert model.validate_instance(fresh) == model.ValidationReport((), (message,))
        assert model.validate_instance(fresh, strict=True) == model.ValidationReport((message,), ())
    # each loader's instance once, though the loader and its caller both validate it
    text = save_instance(fresh)
    path = tmp_path / "inst.json"
    path.write_text(text)
    loaded = [load_instance(text), load_instance_file(path)]
    assert [validated_warnings(inst, False) for inst in loaded] == [(message,)] * 2
    # two in-process runs on a builtin, one per mode
    monkeypatch.setitem(cli.BUILTIN, "worked-example", lambda: fresh)
    assert run(capsys, "payoffs", "worked-example")[::2] == (0, f"warning: {message}\n")
    assert run(capsys, "payoffs", "worked-example", "--strict")[::2] == (2, f"error: {message}\n")
    assert list(map(id, computed)) == list(map(id, [fresh, *loaded]))


@pytest.mark.parametrize("players", [MAX_PLAYERS + 1, 10**12])
@pytest.mark.parametrize(
    "command",
    [
        ["form"],
        ["payoffs"],
        ["equilibria"],
        ["equilibria", "--mode", "full"],
        ["compromise"],
        ["compromise", "--source", "computed"],
        ["check-disjoint", "--profile", "1"],
    ],
)
def test_every_command_refuses_too_many_players(capsys, tmp_path, command, players):
    # a few bytes of document; past the bound nothing per player is built
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "schema": "game-instance/1",
        "players": players,
        "coalitions": [{"members": [1, 2], "income": "1"}],
    }))
    name, *flags = command
    code, out, err = run(capsys, name, str(path), *flags)
    assert (code, out) == (2, "")
    assert err == f"error: at most {MAX_PLAYERS} players are accepted, got {players}\n"


@pytest.mark.parametrize("repeated", ["01", " 2"])
def test_a_repeated_share_key_is_refused(capsys, tmp_path, repeated):
    # "01" and " 2" name players 1 and 2 again: one of their two entries
    # would be dropped, and the strict share sum would still pass
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "schema": "game-instance/1",
        "players": 2,
        "coalitions": [
            {"members": [1, 2], "income": "1", "shares": {"1": "1/2", "2": "1/2", repeated: "1/2"}}
        ],
    }))
    code, out, err = run(capsys, "payoffs", str(path), "--strict")
    assert (code, out) == (2, "")
    assert err == f"error: coalitions[0].shares: repeated player key {repeated!r}\n"


@pytest.mark.parametrize("key", ["1_0", "+2", "٢"])
def test_a_share_key_that_is_not_ascii_digits_is_refused(capsys, tmp_path, key):
    # int() reads "1_0" as 10, "+2" as 2 and the Arabic-Indic digit two as 2
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "schema": "game-instance/1",
        "players": 10,
        "coalitions": [{"members": [1, 10], "income": "1", "shares": {"1": "1/2", key: "1/2"}}],
    }))
    code, out, err = run(capsys, "payoffs", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: coalitions[0].shares: bad player key {key!r}\n"


# ---- one parser per process

SEQUENCE = [
    ["payoffs", "worked-example", "--rule", "sideways"],  # a usage error
    ["equilibria", "--help"],
    ["equilibria", "worked-example", "--mode", "full", "--format", "json"],
]


def _outcome(capsys, parse_and_run, argv):
    """Exit code, stdout and stderr of one call, a SystemExit included."""
    try:
        code = parse_and_run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parsers(parser):
    """The parser and every subcommand's parser, depth first."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []
    original = cli.build_parser

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        outcomes = [_outcome(capsys, main, argv)[0] for argv in SEQUENCE * 3]
    finally:
        cli._parser.cache_clear()
    assert outcomes == [2, 0, 0] * 3
    assert len(built) == 1


def test_a_reused_parser_prints_what_a_fresh_one_prints(capsys):
    fresh = []
    for argv in SEQUENCE:
        cli._parser.cache_clear()
        fresh.append(_outcome(capsys, main, argv))
    cli._parser.cache_clear()
    reused = [_outcome(capsys, main, argv) for argv in SEQUENCE * 2]
    assert reused == fresh * 2
    assert [code for code, _, _ in fresh] == [2, 0, 0]
    assert "invalid choice: 'sideways'" in fresh[0][2]


def test_help_texts_equal_a_fresh_parsers(capsys):
    for argv in SEQUENCE:  # the shared parser has parsed before
        _outcome(capsys, main, argv)
    commands = [[]] + [[p.prog.split()[-1]] for p in list(_parsers(build_parser()))[1:]]
    assert len(commands) == 7
    for argv in commands:
        shared = _outcome(capsys, main, argv + ["--help"])
        fresh = _outcome(capsys, build_parser().parse_args, argv + ["--help"])
        assert shared == fresh
        assert shared[0] == 0 and shared[1].startswith("usage: netform")


def test_no_parser_default_is_mutable():
    # the shared parser hands its defaults to every call: a list, dict or
    # set default would carry one call's changes into the next
    for parser in _parsers(build_parser()):
        values = [a.default for a in parser._actions] + [a.const for a in parser._actions]
        values += parser._defaults.values()
        for value in values:
            hash(value)


def test_a_rewritten_file_is_read_again(capsys, tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(save_instance(worked_example()))
    first = run(capsys, "payoffs", str(path), "--format", "json")
    doc = json.loads(path.read_text())
    doc["coalitions"][0]["income"] = "100"
    path.write_text(json.dumps(doc))
    second = run(capsys, "payoffs", str(path), "--format", "json")
    assert first[0] == second[0] == 0
    assert first[1] != second[1]


def test_a_same_size_rewrite_is_read_again(capsys, tmp_path, empty_loader):
    # the loader compares whole texts, not sizes or modification times
    linked = [[0, 1], [1, 0]]
    doc = {"schema": "game-instance/1", "players": 2,
           "coalitions": [{"members": [1, 2], "income": "1"}],
           "profiles": [{"offers": linked, "acceptances": linked}]}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    before = path.stat()
    first = run(capsys, "payoffs", str(path), "--format", "csv")
    doc["coalitions"][0]["income"] = "2"
    path.write_text(json.dumps(doc))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert path.stat().st_size == before.st_size
    second = run(capsys, "payoffs", str(path), "--format", "csv")
    assert first == (0, "profile,p1,p2\n1,1/2,1/2\n", "")
    assert second == (0, "profile,p1,p2\n1,1,1\n", "")


def test_a_refused_file_leaves_the_kept_instance(capsys, tmp_path, empty_loader):
    good = tmp_path / "good.json"
    good.write_text(save_instance(worked_example()))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "game-instance/1", "players": 2,
                               "coalitions": [{"members": [1, 1], "income": "1"}]}))
    first = run(capsys, "payoffs", str(good))
    kept = instance_io._kept
    refused = run(capsys, "payoffs", str(bad))
    assert refused[:2] == (2, "") and refused[2].startswith("error: coalition 1")
    assert instance_io._kept is kept
    assert run(capsys, "payoffs", str(good)) == first
    assert instance_io._kept is kept and kept[0][1] == worked_example()


def test_a_kept_instance_warns_or_is_refused_every_time(capsys, tmp_path, empty_loader):
    path = tmp_path / "inst.json"
    path.write_text(save_instance(worked_example()))
    message = "coalition 7 (1,4,2): shares sum to 5/4, not 1"
    lenient = run(capsys, "payoffs", str(path))
    kept = instance_io._kept
    assert lenient[::2] == (0, f"warning: {message}\n")
    for _ in range(2):
        assert run(capsys, "payoffs", str(path), "--strict") == (2, "", f"error: {message}\n")
        assert run(capsys, "payoffs", str(path)) == lenient
    assert instance_io._kept is kept


@pytest.mark.parametrize(
    "text, key",
    [
        ('"players": 2, "players": 3', "players"),
        ('"players": 2, "coalitions": [{"members": [1, 2], "income": "1", '
         '"shares": {"1": "1/4", "1": "1/2", "2": "1/2"}}]', "1"),
    ],
)
def test_a_repeated_object_key_is_refused(capsys, tmp_path, text, key):
    # plain JSON parsing keeps the last value: 3 players, or share 1/2
    body = f'{{"schema": "game-instance/1", {text}'
    if "coalitions" not in text:
        body += ', "coalitions": [{"members": [1, 2], "income": "1"}]'
    path = tmp_path / "inst.json"
    path.write_text(body + "}")
    for flags in ([], ["--strict"]):
        code, out, err = run(capsys, "payoffs", str(path), *flags)
        assert (code, out) == (2, "")
        assert err == f"error: repeated object key {key!r}\n"


@pytest.mark.parametrize(
    "profiles, kind", [(5, "int"), ({}, "dict"), ("ab", "str"), (True, "bool"), (None, None)]
)
def test_profiles_that_are_not_a_list_are_refused(capsys, tmp_path, profiles, kind):
    doc = {
        "schema": "game-instance/1",
        "players": 2,
        "coalitions": [{"members": [1, 2], "income": "1"}],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({**doc, "profiles": profiles}))
    code, out, err = run(capsys, "payoffs", str(path))
    if kind is None:  # null is an absent field, as for payoff_matrix: no stored profiles
        path.write_text(json.dumps(doc))
        assert (code, out, err) == run(capsys, "payoffs", str(path))
        assert (code, out, err) == (2, "", "error: instance has no stored profiles\n")
    else:
        assert (code, out) == (2, "")
        assert err == f"error: document.profiles: expected list, got {kind}\n"


DEEP = 100_000


@pytest.mark.parametrize(
    "nested",
    ["[" * DEEP + "]" * DEEP, '{"a": ' * DEEP + "1" + "}" * DEEP],
    ids=["arrays", "objects"],
)
def test_json_nested_too_deeply_is_refused(capsys, tmp_path, nested):
    deep = tmp_path / "deep.json"
    deep.write_text(nested)
    inst = tmp_path / "inst.json"
    inst.write_text(save_instance(random_instance(seed=3, disjoint=True)))
    for argv, prefix in [
        (["payoffs", str(deep)], "not valid JSON: "),
        (["check-disjoint", str(inst), "--network", str(deep)], "network file is not valid JSON: "),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {prefix}") and err.count("\n") == 1


def test_an_integer_past_the_digit_limit_is_refused(capsys, tmp_path):
    digits = "9" * 5000
    big = tmp_path / "big.json"
    big.write_text(save_instance(worked_example()).replace('"players": 5', '"players": ' + digits, 1))
    cell = tmp_path / "cell.json"
    cell.write_text("[[0, " + digits + "], [1, 0]]")
    inst = tmp_path / "inst.json"
    inst.write_text(save_instance(random_instance(seed=3, n=2, coalition_count=1)))
    for argv, prefix in [
        (["payoffs", str(big)], "not valid JSON: "),
        (["check-disjoint", str(inst), "--network", str(cell)], "network file is not valid JSON: "),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        # an interpreter without a digit limit parses it, and a check refuses it
        if hasattr(sys, "get_int_max_str_digits"):
            limit = sys.get_int_max_str_digits()
            assert err == f"error: {prefix}an integer literal has more than {limit} digits\n"


@pytest.mark.parametrize("code, usage", [(0, False), (1, False), (2, False), (2, True)])
@pytest.mark.parametrize("collecting", [True, False])
def test_main_leaves_the_collector_as_it_found_it(capsys, monkeypatch, code, usage, collecting):
    seen = []  # the collector's state each time the command loads its instance

    def loading():
        seen.append(gc.isenabled())
        return worked_example()

    monkeypatch.setitem(cli.BUILTIN, "worked-example", loading)
    argv = {
        0: ["payoffs", "worked-example"],
        1: ["equilibria", "worked-example", "--assert-stable"],
        2: ["form", "worked-example", "99"],
    }[code]
    if usage:
        argv = argv + ["--no-such-flag"]
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        if usage:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
        else:
            assert run(capsys, *argv)[0] == code
        assert gc.isenabled() is collecting
        # loaded once, with the collector paused
        assert seen == ([] if usage else [False])
    finally:
        (gc.enable if was else gc.disable)()


def _cyclic_garbage(argv) -> int:
    """Objects the collector finds unreachable after one run of argv, run
    with the collector paused; a first run fills the process's caches.
    Each run starts with the file loader keeping nothing, so it parses
    its file, and the instance it kept is freed within the count."""
    was = gc.isenabled()
    gc.disable()
    try:
        for _ in range(2):
            gc.collect()
            instance_io._kept = ()
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                assert main(argv) == 0
        return gc.collect()
    finally:
        if was:
            gc.enable()


def test_a_command_leaves_no_garbage_that_grows_with_its_input(tmp_path):
    # the premise of pausing the collector during a command
    rng = random.Random(5)
    found = []
    for count in (2, 200):
        base = random_instance(seed=count, n=10, coalition_count=30)
        profiles = tuple(
            OfferProfile(*(
                [[int(i != j and rng.random() < 0.6) for j in range(10)] for i in range(10)]
                for _ in range(2)
            ))
            for _ in range(count)
        )
        path = tmp_path / f"inst{count}.json"
        path.write_text(save_instance(GameInstance(10, base.coalitions, profiles)))
        found.append(_cyclic_garbage(["payoffs", str(path), "--format", "json"]))
    assert found[0] == found[1], found


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["melt"])
    assert exc.value.code == 2


def test_missing_instance_file(capsys):
    code, _, err = run(capsys, "payoffs", "no-such-file.json")
    assert code == 2
    assert "error" in err


# ---- fuzz: malformed documents and network files

LONG = "Ω" * 200_000  # Ω occurs in no message, so a line's count is how much it echoes


def _nested(depth: int) -> list:
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


FUZZ_VALUES = [None, True, False, 0.5, -1.0, 0, 1, 2, 10**30, LONG, "", _nested(3), _nested(500), {}, []]


@st.composite
def _mutated(draw, doc):
    """doc with one or two of its nodes, the root included, replaced by a
    malformed value; each replaced node is reached by a random walk of up
    to six steps."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 2))):
        parent, key, node = None, None, doc
        for _ in range(draw(st.integers(0, 6))):
            if not isinstance(node, (dict, list)) or not node:
                break
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, draw(st.sampled_from(keys))
            node = node[key]
        value = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
        if parent is None:
            doc = value
        else:
            parent[key] = value
    return doc


def _run_warnings_as_errors(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, err.getvalue()


def _assert_refused_cleanly(runs) -> None:
    for argv, (code, err) in runs:
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        assert max((line.count("Ω") for line in err.splitlines()), default=0) <= 80, argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory) -> Path:
    where = tmp_path_factory.mktemp("fuzz")
    disjoint = save_instance(random_instance(seed=3, n=5, disjoint=True))
    (where / "disjoint.json").write_text(disjoint, encoding="utf-8")
    return where


@given(doc=_mutated(json.loads(save_instance(worked_example()))))
@settings(max_examples=200, deadline=None)
def test_a_malformed_document_is_refused_cleanly(fuzz_dir, doc):
    path = fuzz_dir / "doc.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    name = str(path)
    commands = [
        ["form", name],
        ["payoffs", name],
        ["equilibria", name],
        ["equilibria", name, "--mode", "full"],
        ["compromise", name],
        ["compromise", name, "--source", "computed"],
        ["check-disjoint", name, "--profile", "1"],
    ]
    _assert_refused_cleanly((argv, _run_warnings_as_errors(argv)) for argv in commands)


NETWORK = [[int(i != j and (i + j) % 3 != 0) for j in range(5)] for i in range(5)]


@given(network=_mutated(NETWORK))
@settings(max_examples=200, deadline=None)
def test_a_malformed_network_file_is_refused_cleanly(fuzz_dir, network):
    path = fuzz_dir / "network.json"
    path.write_text(json.dumps(network, ensure_ascii=False), encoding="utf-8")
    argv = ["check-disjoint", str(fuzz_dir / "disjoint.json"), "--network", str(path)]
    _assert_refused_cleanly([(argv, _run_warnings_as_errors(argv))])
