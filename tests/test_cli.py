"""Command-line behavior: output shapes and exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netform
from netform.cli import main
from netform.instance_io import save_instance
from netform import worked_example

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


@pytest.mark.parametrize("command", [["payoffs"], ["equilibria", "--mode", "full"]])
def test_jobs_pickles_the_instance_once_per_process(capsys, monkeypatch, command):
    # the worked example has 10 profiles: two chunks of five, one per process
    pickled = []
    reduce_ex = netform.GameInstance.__reduce_ex__

    def counting(self, protocol):
        pickled.append(self)
        return reduce_ex(self, protocol)

    monkeypatch.setattr(netform.GameInstance, "__reduce_ex__", counting)
    code, parallel, _ = run(capsys, *command, "worked-example", "--jobs", "2")
    assert len(worked_example().profiles) >= 8
    assert 1 <= len(pickled) <= 2
    assert (code, parallel) == run(capsys, *command, "worked-example")[:2]


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


def test_import_loads_no_process_pool():
    # --jobs imports its pool on first use, so no other command pays for it
    src = Path(netform.__file__).resolve().parents[1]
    probe = (
        "import sys, netform.cli; "
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


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


def test_generate_infeasible(capsys):
    code, _, err = run(
        capsys, "generate", "--seed", "0", "--players", "4", "--coalitions", "20", "--disjoint"
    )
    assert code == 2
    assert "cannot pick" in err
    code, _, err = run(capsys, "generate", "--seed", "0", "--players", "2000")
    assert code == 2
    assert "limit" in err


def test_strict_flag_rejects_anomalous_shares(capsys, tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(save_instance(worked_example()))
    code, _, err = run(capsys, "payoffs", str(path), "--strict")
    assert code == 2
    assert "shares sum" in err
    code, _, _ = run(capsys, "payoffs", str(path))
    assert code == 0


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["melt"])
    assert exc.value.code == 2


def test_missing_instance_file(capsys):
    code, _, err = run(capsys, "payoffs", "no-such-file.json")
    assert code == 2
    assert "error" in err
