"""Coalition and instance validation."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from netform import ActivationRule, CoalitionSpec, GameInstance, Network, model, payoff_vector
from netform.formation import OfferProfile
from netform.model import MAX_INDEX_BITS, MAX_PLAYERS, validate_instance


def _inst(coalitions, n=5, **kwargs):
    return GameInstance(n=n, coalitions=tuple(coalitions), **kwargs)


def test_default_shares_are_uniform():
    pair = CoalitionSpec((0, 3), -2)
    assert pair.shares == {0: Fraction(1, 2), 3: Fraction(1, 2)}
    triple = CoalitionSpec((0, 1, 2), 9)
    assert triple.share_of(1) == Fraction(1, 3)
    assert triple.share_of(4) == 0


def test_a_coalition_converts_its_fields():
    half = Fraction(1, 2)
    assert CoalitionSpec([0, 1], 1) == CoalitionSpec((0, 1), Fraction(1), {0: half, 1: half})
    given = CoalitionSpec([2, 0], -3, {2: 1, 0: "1/4"})
    assert (given.members, given.income) == ((2, 0), Fraction(-3))
    assert type(given.income) is Fraction
    assert given.shares == {2: Fraction(1), 0: Fraction(1, 4)}
    assert {type(s) for s in given.shares.values()} == {Fraction}


def test_shares_are_a_private_copy_of_the_mapping_given():
    given = {0: Fraction(1, 2), 1: Fraction(1, 2)}
    pair = CoalitionSpec((0, 1), Fraction(3), given)
    given[0] = Fraction(9)
    assert pair.shares == {0: Fraction(1, 2), 1: Fraction(1, 2)}
    assert CoalitionSpec((0, 1), 3, given).shares == given


def test_a_list_of_coalitions_changed_later_leaves_the_instance_alone():
    given = [CoalitionSpec((0, 1), 2)]
    inst = GameInstance(3, given)
    network = Network.of(3, [(0, 1), (1, 2)])
    assert payoff_vector(inst, network, ActivationRule.LINKED) == (1, 1, 0)
    given.append(CoalitionSpec((1, 2), 4))
    assert inst.coalitions == (CoalitionSpec((0, 1), 2),)
    assert payoff_vector(inst, network, ActivationRule.LINKED) == (1, 1, 0)


def test_pairs_and_label():
    c = CoalitionSpec((2, 0, 4), 1)
    assert c.pairs() == ((0, 2), (0, 4), (2, 4))
    assert c.label() == "(3,1,5)"


def test_pair_bits_place_each_pair_at_low_n_plus_high():
    assert CoalitionSpec((2, 0, 3), 1).pair_bits(4) == (2, 3, 11)
    # a repeated or out-of-range member's pair is bit n*n
    assert CoalitionSpec((1, 1, 2), 1).pair_bits(4) == (16, 6, 6)
    assert CoalitionSpec((0, 4), 1).pair_bits(4) == (16,)


def test_payoff_index_size_is_refused_at_the_edge(monkeypatch):
    # the masks reach bits 1, 11 and 11 (of pairs {0,1}, {2,3} and {2,3}):
    # 2 + 12 + 12 = 26 bits in all
    coalitions = [CoalitionSpec((0, 1), 1), CoalitionSpec((2, 3), 1), CoalitionSpec((1, 2, 3), 1)]
    monkeypatch.setattr(model, "MAX_INDEX_BITS", 26)
    _, entries = _inst(coalitions, n=4).payoff_index
    assert [pairs for pairs, _ in entries] == [0b10, 1 << 11, 1 << 6 | 1 << 7 | 1 << 11]
    monkeypatch.setattr(model, "MAX_INDEX_BITS", 25)
    with pytest.raises(ValueError, match="^coalition pair masks need 26 bits, more than the limit of 25$"):
        _inst(coalitions, n=4).payoff_index


def test_a_refused_payoff_index_builds_no_mask():
    # triples (a, b, 1023) on 1,024 players: each mask would reach bit
    # 1024*b + 1023, so about 1,030 of them pass the limit, 128 MiB of masks
    triples = ((a, b, 1023) for b in range(1022, 0, -1) for a in range(b))
    coalitions, size = [], 0
    while size <= MAX_INDEX_BITS:
        a, b, c = next(triples)
        coalitions.append(CoalitionSpec((a, b, c), 1))
        size += 1024 * b + c + 1
    inst = _inst(coalitions, n=1024)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"need {size} bits, more than the limit of {MAX_INDEX_BITS}$"):
            inst.payoff_index
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(coalitions) == 1026 and peak < 2 * 2**20


def test_valid_instance_passes():
    report = validate_instance(
        _inst([CoalitionSpec((0, 1), 3), CoalitionSpec((0, 1, 2), -1)])
    )
    assert report.ok
    assert report.warnings == ()


def test_player_count_too_small():
    report = validate_instance(_inst([], n=1))
    assert any("at least 2 players" in e for e in report.errors)


def test_player_count_too_large():
    # validation only: nothing is built per player
    assert validate_instance(_inst([], n=MAX_PLAYERS)).ok
    for n in (MAX_PLAYERS + 1, 10**12):
        assert validate_instance(_inst([], n=n)).errors == (
            f"at most {MAX_PLAYERS} players are accepted, got {n}",
        )


def test_coalition_size_bounds():
    report = validate_instance(
        _inst([CoalitionSpec((0,), 1), CoalitionSpec((0, 1, 2, 3), 1)])
    )
    assert sum("size must be 2 or 3" in e for e in report.errors) == 2


def test_repeated_member_is_an_error():
    report = validate_instance(_inst([CoalitionSpec((1, 1, 3), 1)]))
    assert any("repeated member" in e for e in report.errors)


def test_out_of_range_member():
    report = validate_instance(_inst([CoalitionSpec((0, 5), 1)]))
    assert any("out of range" in e for e in report.errors)


def test_duplicate_member_sets_rejected():
    report = validate_instance(
        _inst([CoalitionSpec((0, 1, 2), 1), CoalitionSpec((2, 1, 0), 5)])
    )
    assert any("same member set" in e for e in report.errors)


def test_share_keys_must_match_members():
    c = CoalitionSpec((0, 1), 1, shares={0: 1})
    report = validate_instance(_inst([c]))
    assert any("share keys" in e for e in report.errors)


def test_negative_share_is_an_error():
    c = CoalitionSpec((0, 1), 1, shares={0: Fraction(3, 2), 1: Fraction(-1, 2)})
    report = validate_instance(_inst([c]))
    assert any("negative share" in e for e in report.errors)


def test_share_sum_strictness():
    c = CoalitionSpec((0, 1), 4, shares={0: Fraction(1, 2), 1: Fraction(1, 4)})
    lenient = validate_instance(_inst([c]), strict=False)
    assert lenient.ok
    assert any("shares sum to 3/4" in w for w in lenient.warnings)
    strict = validate_instance(_inst([c]), strict=True)
    assert any("shares sum to 3/4" in e for e in strict.errors)


def test_interleaved_findings_keep_their_order_in_both_modes():
    # a share-sum fault on coalition 1, a size fault on coalition 2, another
    # share-sum fault on coalition 3, a self-consent profile, a short payoff row
    half = Fraction(1, 2)
    coalitions = [
        CoalitionSpec((0, 1), 4, shares={0: half, 1: Fraction(1, 4)}),
        CoalitionSpec((0, 1, 2, 3), 1),
        CoalitionSpec((2, 3), 1, shares={2: Fraction(1), 3: Fraction(1)}),
    ]
    loop = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    inst = _inst(
        coalitions, n=4, profiles=(OfferProfile(loop, loop),), payoff_matrix=((half,) * 3,)
    )
    sum1 = "coalition 1 (1,2): shares sum to 3/4, not 1"
    size2 = "coalition 2 (1,2,3,4): size must be 2 or 3, got 4"
    sum3 = "coalition 3 (3,4): shares sum to 2, not 1"
    loop1 = "profile 1: self-consent of player(s) 1 forms no arc"
    short = "payoff table row 1: 3 entries for 4 players"
    assert validate_instance(inst) == model.ValidationReport((size2, short), (sum1, sum3, loop1))
    strict = validate_instance(inst, strict=True)
    assert strict == model.ValidationReport((sum1, size2, sum3, short), (loop1,))


fractions = st.builds(
    Fraction, st.integers(-40, 40), st.sampled_from((1, 2, 3, 4, 6, 7, 9, 12, 35, 64))
)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3), fractions, fractions, fractions), max_size=6))
def test_int_payments_and_share_sums_match_fraction_arithmetic(rows):
    # uneven and negative shares, mixed-sign incomes: the index's ints and
    # the share-sum check agree with plain Fraction products and sums
    coalitions = [
        CoalitionSpec((a, a + b), income, {a: s, a + b: t}) for a, b, income, s, t in rows
    ]
    inst = _inst(coalitions, n=7)
    products = [[c.share_of(m) * c.income for m in c.members] for c in coalitions]
    denominator, entries = inst.payoff_index
    assert denominator == lcm(*(w.denominator for ws in products for w in ws))
    for c, ws, (_, stakes) in zip(coalitions, products, entries):
        expected = [(m, c.member_set() - {m}, w * denominator) for m, w in zip(c.members, ws) if w]
        assert list(stakes) == expected
        assert all(type(w) is int for _, _, w in stakes)
    sums = {idx: sum(c.shares.values(), Fraction(0)) for idx, c in enumerate(coalitions)}
    report = validate_instance(inst)
    assert [w for w in report.warnings if "shares sum" in w] == [
        f"coalition {idx + 1} {coalitions[idx].label()}: shares sum to {total}, not 1"
        for idx, total in sums.items()
        if total != 1
    ]


def test_profile_dimension_mismatch():
    profile = OfferProfile([[0, 1], [0, 0]], [[0, 0], [1, 0]])
    report = validate_instance(_inst([CoalitionSpec((0, 1), 1)], profiles=(profile,)))
    assert any("profile 1" in e and "2x2" in e for e in report.errors)


def test_payoff_matrix_width_checked():
    report = validate_instance(
        _inst(
            [CoalitionSpec((0, 1), 1)],
            payoff_matrix=((Fraction(1), Fraction(2)),),
        )
    )
    assert any("payoff table row 1" in e for e in report.errors)


def test_payoff_matrix_row_count_must_match_profiles():
    profile = OfferProfile([[0, 1], [1, 0]], [[0, 1], [1, 0]])
    coalitions = [CoalitionSpec((0, 1), 1)]
    row = (Fraction(1, 2), Fraction(1, 2))
    short = _inst(coalitions, n=2, profiles=(profile, profile), payoff_matrix=(row,))
    assert "payoff table has 1 rows for 2 profiles" in validate_instance(short).errors
    matched = _inst(coalitions, n=2, profiles=(profile, profile), payoff_matrix=(row, row))
    assert validate_instance(matched).ok
    # without stored profiles the table stands alone
    assert validate_instance(_inst(coalitions, n=2, payoff_matrix=(row,))).ok


def test_rule_resolution_precedence():
    inst = _inst([CoalitionSpec((0, 1), 1)])
    assert inst.rule_or(None) is ActivationRule.LINKED
    assert inst.rule_or(ActivationRule.MUTUAL) is ActivationRule.MUTUAL
    with_default = _inst(
        [CoalitionSpec((0, 1), 1)], default_rule=ActivationRule.MUTUAL
    )
    assert with_default.rule_or(None) is ActivationRule.MUTUAL
    assert with_default.rule_or(ActivationRule.LINKED) is ActivationRule.LINKED
