"""JSON document round trips and validation failure modes."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from netform import (
    ActivationRule,
    DocumentError,
    GameInstance,
    CoalitionSpec,
    instance_to_document,
    intersecting_example,
    load_instance,
    load_instance_file,
    random_instance,
    save_instance,
    save_instance_file,
    worked_example,
)
from netform.instance_io import parse_fraction, to_csv

DATA = Path(__file__).parent / "data"


def test_worked_example_round_trip():
    inst = worked_example()
    again = load_instance(save_instance(inst))
    assert again == inst


def test_intersecting_example_round_trip():
    inst = intersecting_example()
    assert load_instance(save_instance(inst)) == inst


def test_random_instances_round_trip():
    for seed in range(25):
        inst = random_instance(seed=seed, n=4 + seed % 3, coalition_count=seed % 5)
        assert load_instance(save_instance(inst)) == inst


def test_save_is_deterministic():
    a = save_instance(worked_example())
    b = save_instance(worked_example())
    assert a == b


def test_golden_documents_match_builtins():
    golden = (DATA / "worked_example.json").read_text(encoding="utf-8")
    assert load_instance(golden) == worked_example()
    assert save_instance(worked_example()) == golden
    golden = (DATA / "intersecting_example.json").read_text(encoding="utf-8")
    assert load_instance(golden) == intersecting_example()
    assert save_instance(intersecting_example()) == golden


def test_file_round_trip(tmp_path):
    path = tmp_path / "inst.json"
    save_instance_file(worked_example(), path)
    assert load_instance_file(path) == worked_example()


def test_document_shape():
    doc = instance_to_document(worked_example())
    assert doc["schema"] == "game-instance/1"
    assert doc["players"] == 5
    assert len(doc["coalitions"]) == 12
    assert doc["coalitions"][9] == {
        "members": [3, 2, 1],
        "income": "21",
        "shares": {"1": "1/3", "2": "1/3", "3": "1/3"},
    }
    assert doc["payoff_matrix"][4] == ["23", "21", "26", "15", "22"]
    assert doc["default_rule"] == "linked"
    assert len(doc["profiles"]) == 10


def test_not_json_is_a_positioned_parse_error():
    with pytest.raises(DocumentError, match=r"line 1 column"):
        load_instance("{nope")


def test_wrong_schema_tag():
    doc = instance_to_document(worked_example())
    doc["schema"] = "something/9"
    with pytest.raises(DocumentError, match="schema"):
        load_instance(json.dumps(doc))


def test_missing_required_field():
    doc = instance_to_document(worked_example())
    del doc["players"]
    with pytest.raises(DocumentError, match="players"):
        load_instance(json.dumps(doc))


def test_zero_denominator_share_named():
    doc = instance_to_document(worked_example())
    doc["coalitions"][0]["shares"]["1"] = "1/0"
    with pytest.raises(DocumentError, match=r"coalitions\[0\].shares\['1'\]"):
        load_instance(json.dumps(doc))


def test_float_income_rejected():
    doc = instance_to_document(worked_example())
    doc["coalitions"][0]["income"] = 4.5
    with pytest.raises(DocumentError, match="income.*got float"):
        load_instance(json.dumps(doc))


def test_bad_rule_value():
    doc = instance_to_document(worked_example())
    doc["default_rule"] = "chained"
    with pytest.raises(DocumentError, match="default_rule"):
        load_instance(json.dumps(doc))


def test_profile_entries_must_be_bits():
    doc = instance_to_document(worked_example())
    doc["profiles"][0]["offers"][0][1] = 2
    with pytest.raises(DocumentError, match=r"offers\[0\]\[1\]"):
        load_instance(json.dumps(doc))


def test_validation_errors_surface_on_load():
    doc = {
        "schema": "game-instance/1",
        "players": 3,
        "coalitions": [
            {"members": [1, 1, 2], "income": "1", "shares": {"1": "1/2", "2": "1/2"}}
        ],
    }
    with pytest.raises(DocumentError, match="repeated member"):
        load_instance(json.dumps(doc))


def test_strict_mode_rejects_share_sums():
    doc = {
        "schema": "game-instance/1",
        "players": 2,
        "coalitions": [
            {"members": [1, 2], "income": "1", "shares": {"1": "1/2", "2": "1/4"}}
        ],
    }
    text = json.dumps(doc)
    lenient = load_instance(text)
    assert isinstance(lenient, GameInstance)
    with pytest.raises(DocumentError, match="shares sum"):
        load_instance(text, strict=True)


def test_fraction_strings_stay_exact():
    assert parse_fraction("5/4", "x") == Fraction(5, 4)
    assert parse_fraction("-6", "x") == Fraction(-6)
    assert parse_fraction(3, "x") == Fraction(3)
    with pytest.raises(DocumentError, match="bad fraction"):
        parse_fraction("one half", "x")
    with pytest.raises(DocumentError, match="floats"):
        parse_fraction(0.5, "x")


def test_members_one_based_in_documents():
    inst = GameInstance(n=3, coalitions=(CoalitionSpec.of((0, 2), 1),))
    doc = instance_to_document(inst)
    assert doc["coalitions"][0]["members"] == [1, 3]
    assert set(doc["coalitions"][0]["shares"]) == {"1", "3"}
    assert load_instance(json.dumps(doc)) == inst


def test_readme_instance_document_loads():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Instance documents", 1)[1]
    text = section.split("```json\n", 1)[1].split("```", 1)[0]
    inst = load_instance(text)
    assert inst.n == 3 and len(inst.profiles) == 1
    assert inst.default_rule is ActivationRule.MUTUAL
    # the triple omits shares: its income is split evenly
    assert inst.coalitions[1].shares == {0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)}


def test_csv_export():
    text = to_csv(["a", "b"], [[1, "x"], [2, "y"]])
    assert text == "a,b\n1,x\n2,y\n"
