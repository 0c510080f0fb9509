"""Coalition and instance validation."""

from __future__ import annotations

from fractions import Fraction

from netform import (
    ActivationRule,
    CoalitionSpec,
    GameInstance,
    OfferProfile,
    validate_instance,
)


def _inst(coalitions, n=5, **kwargs):
    return GameInstance(n=n, coalitions=tuple(coalitions), **kwargs)


def test_default_shares_are_uniform():
    pair = CoalitionSpec.of((0, 3), -2)
    assert pair.shares == {0: Fraction(1, 2), 3: Fraction(1, 2)}
    triple = CoalitionSpec.of((0, 1, 2), 9)
    assert triple.share_of(1) == Fraction(1, 3)
    assert triple.share_of(4) == 0


def test_pairs_and_label():
    c = CoalitionSpec.of((2, 0, 4), 1)
    assert c.pairs() == ((0, 2), (0, 4), (2, 4))
    assert c.label() == "(3,1,5)"


def test_valid_instance_passes():
    report = validate_instance(
        _inst([CoalitionSpec.of((0, 1), 3), CoalitionSpec.of((0, 1, 2), -1)])
    )
    assert report.ok
    assert report.warnings == ()


def test_player_count_too_small():
    report = validate_instance(_inst([], n=1))
    assert any("at least 2 players" in e for e in report.errors)


def test_coalition_size_bounds():
    report = validate_instance(
        _inst([CoalitionSpec.of((0,), 1), CoalitionSpec.of((0, 1, 2, 3), 1)])
    )
    assert sum("size must be 2 or 3" in e for e in report.errors) == 2


def test_repeated_member_is_an_error():
    report = validate_instance(_inst([CoalitionSpec.of((1, 1, 3), 1)]))
    assert any("repeated member" in e for e in report.errors)


def test_out_of_range_member():
    report = validate_instance(_inst([CoalitionSpec.of((0, 5), 1)]))
    assert any("out of range" in e for e in report.errors)


def test_duplicate_member_sets_rejected():
    report = validate_instance(
        _inst([CoalitionSpec.of((0, 1, 2), 1), CoalitionSpec.of((2, 1, 0), 5)])
    )
    assert any("same member set" in e for e in report.errors)


def test_share_keys_must_match_members():
    c = CoalitionSpec.of((0, 1), 1, shares={0: 1})
    report = validate_instance(_inst([c]))
    assert any("share keys" in e for e in report.errors)


def test_negative_share_is_an_error():
    c = CoalitionSpec.of((0, 1), 1, shares={0: Fraction(3, 2), 1: Fraction(-1, 2)})
    report = validate_instance(_inst([c]))
    assert any("negative share" in e for e in report.errors)


def test_share_sum_strictness():
    c = CoalitionSpec.of((0, 1), 4, shares={0: Fraction(1, 2), 1: Fraction(1, 4)})
    lenient = validate_instance(_inst([c]), strict=False)
    assert lenient.ok
    assert any("shares sum to 3/4" in w for w in lenient.warnings)
    strict = validate_instance(_inst([c]), strict=True)
    assert any("shares sum to 3/4" in e for e in strict.errors)


def test_profile_dimension_mismatch():
    profile = OfferProfile.of([[0, 1], [0, 0]], [[0, 0], [1, 0]])
    report = validate_instance(_inst([CoalitionSpec.of((0, 1), 1)], profiles=(profile,)))
    assert any("profile 1" in e and "2x2" in e for e in report.errors)


def test_payoff_matrix_width_checked():
    report = validate_instance(
        _inst(
            [CoalitionSpec.of((0, 1), 1)],
            payoff_matrix=((Fraction(1), Fraction(2)),),
        )
    )
    assert any("payoff table row 1" in e for e in report.errors)


def test_payoff_matrix_row_count_must_match_profiles():
    profile = OfferProfile.of([[0, 1], [1, 0]], [[0, 1], [1, 0]])
    coalitions = [CoalitionSpec.of((0, 1), 1)]
    row = (Fraction(1, 2), Fraction(1, 2))
    short = _inst(coalitions, n=2, profiles=(profile, profile), payoff_matrix=(row,))
    assert "payoff table has 1 rows for 2 profiles" in validate_instance(short).errors
    matched = _inst(coalitions, n=2, profiles=(profile, profile), payoff_matrix=(row, row))
    assert validate_instance(matched).ok
    # without stored profiles the table stands alone
    assert validate_instance(_inst(coalitions, n=2, payoff_matrix=(row,))).ok


def test_rule_resolution_precedence():
    inst = _inst([CoalitionSpec.of((0, 1), 1)])
    assert inst.rule_or(None) is ActivationRule.LINKED
    assert inst.rule_or(ActivationRule.MUTUAL) is ActivationRule.MUTUAL
    with_default = _inst(
        [CoalitionSpec.of((0, 1), 1)], default_rule=ActivationRule.MUTUAL
    )
    assert with_default.rule_or(None) is ActivationRule.MUTUAL
    assert with_default.rule_or(ActivationRule.LINKED) is ActivationRule.LINKED
