"""Bundled instances and the random generator."""

from __future__ import annotations

from fractions import Fraction

import pytest

from netform import ActivationRule, form_network, random_instance, worked_example
from netform.datasets import intersecting_example
from netform.model import validate_instance
from netform.stability import find_overlapping_pair


def test_worked_example_shape():
    inst = worked_example()
    assert inst.n == 5
    assert len(inst.coalitions) == 12
    assert [c.income for c in inst.coalitions] == [
        4, 3, 6, 8, 4, 12, 8, 18, 16, 21, -2, -6,
    ]
    assert len(inst.profiles) == 10
    assert inst.payoff_matrix is not None and len(inst.payoff_matrix) == 10
    assert inst.default_rule is ActivationRule.LINKED


def test_worked_example_share_anomaly_is_kept():
    inst = worked_example()
    seventh = inst.coalitions[6]
    assert seventh.members == (0, 3, 1)
    assert sum(seventh.shares.values()) == Fraction(5, 4)
    report = validate_instance(inst)
    assert report.ok
    assert any("5/4" in w for w in report.warnings)


def test_worked_example_pair_coalitions():
    inst = worked_example()
    assert inst.coalitions[10].members == (0, 2)
    assert inst.coalitions[10].income == -2
    assert inst.coalitions[11].members == (0, 3)
    assert inst.coalitions[11].income == -6
    assert inst.coalitions[10].shares == {0: Fraction(1, 2), 2: Fraction(1, 2)}


def test_intersecting_example_shape():
    inst = intersecting_example()
    assert inst.n == 5
    assert [c.income for c in inst.coalitions] == [2, -1, 2, 2]
    for c in inst.coalitions:
        assert all(s == Fraction(1, 3) for s in c.shares.values())
    assert inst.default_rule is ActivationRule.MUTUAL
    assert find_overlapping_pair(inst) is not None


def test_intersecting_network_is_symmetric_sixteen_arcs():
    net = form_network(intersecting_example().profiles[0])
    assert len(net.arcs) == 16
    for i, j in net.arcs:
        assert (j, i) in net.arcs
    # the companion network's eight pairs, 0-based
    assert {(i, j) for i, j in net.arcs if i < j} == {
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (2, 4), (3, 4),
    }


def test_generator_is_deterministic():
    a = random_instance(seed=42, n=5, coalition_count=4)
    b = random_instance(seed=42, n=5, coalition_count=4)
    assert a == b
    c = random_instance(seed=43, n=5, coalition_count=4)
    assert a != c


def test_generator_outputs_pass_strict_validation():
    for seed in range(30):
        inst = random_instance(seed=seed, n=3 + seed % 4, coalition_count=seed % 4)
        assert validate_instance(inst, strict=True).ok


def test_generator_disjoint_families():
    for seed in range(40):
        inst = random_instance(seed=seed, n=6, coalition_count=3, disjoint=True)
        assert find_overlapping_pair(inst) is None


def test_generator_member_sets_are_distinct():
    inst = random_instance(seed=9, n=5, coalition_count=20)
    seen = {frozenset(c.members) for c in inst.coalitions}
    assert len(seen) == 20


def test_generator_income_range_respected():
    inst = random_instance(seed=3, n=5, coalition_count=10, income_range=(-2, 2))
    for c in inst.coalitions:
        assert -2 <= c.income <= 2
        assert c.income.denominator == 1


def test_generator_infeasible_requests():
    with pytest.raises(ValueError, match="cannot pick"):
        random_instance(seed=0, n=4, coalition_count=20, disjoint=True)
    with pytest.raises(ValueError, match="cannot pick"):
        random_instance(seed=0, n=4, coalition_count=11)
    # on 3 players the largest disjoint family is the 3 pairs; the triple
    # excludes every pair, so 4 can never be met
    with pytest.raises(ValueError, match="disjoint"):
        random_instance(seed=0, n=3, coalition_count=4, disjoint=True)
    with pytest.raises(ValueError, match="at least 2 players"):
        random_instance(seed=0, n=1, coalition_count=0)
    with pytest.raises(ValueError, match="income range"):
        random_instance(seed=0, n=4, coalition_count=1, income_range=(3, -3))
    with pytest.raises(ValueError, match="nonnegative"):
        random_instance(seed=0, n=4, coalition_count=-1)
    # refused before any candidate is built
    with pytest.raises(ValueError, match="limit"):
        random_instance(seed=0, n=2000, coalition_count=1)
