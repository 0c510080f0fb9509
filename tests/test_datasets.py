"""Bundled instances and the random generator."""

from __future__ import annotations

import pickle
import random
from copy import deepcopy
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netform import (
    ActivationRule,
    form_network,
    payoff_vector,
    random_instance,
    worked_example,
)
from netform.datasets import _candidate, _running_counts, intersecting_example
from netform.model import validate_instance
from netform.stability import find_overlapping_pair

from oracles import oracle_disjoint_picks


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


def _pins_the_builtin_contract(factory):
    """Every call in a process returns one instance, equal to a freshly
    built one, whose payoff index is built once, and whose profile rows
    are exactly `bytes`."""
    a = factory()
    assert factory() is a
    fresh = factory.__wrapped__()
    assert fresh == a and fresh is not a
    assert a.payoff_index is factory().payoff_index
    assert all(
        type(row) is bytes for p in a.profiles for row in (*p.offers, *p.acceptances)
    )
    return a


def test_worked_example_is_one_instance_per_process():
    assert _pins_the_builtin_contract(worked_example) is worked_example()


def test_intersecting_example_is_one_instance_per_process():
    assert _pins_the_builtin_contract(intersecting_example) is intersecting_example()


def test_mutating_one_worked_example_leaves_the_next_as_published():
    shares = worked_example().coalitions[0].shares
    published = {0: Fraction(1, 2), 2: Fraction(1, 4), 3: Fraction(1, 4)}
    profile_5 = form_network(worked_example().profiles[4])
    linked = (19, 21, 24, 12, 18)
    # the payoff index is built before the attempts: a share they changed would leave it stale
    assert payoff_vector(worked_example(), profile_5, ActivationRule.LINKED) == linked
    with pytest.raises(TypeError):
        shares[0] = shares[0] + 1
    with pytest.raises(TypeError):
        del shares[0]
    with pytest.raises(TypeError):
        shares |= {0: Fraction(9)}
    assert not hasattr(shares, "update")
    fresh = worked_example()
    assert fresh.coalitions[0].shares == published
    assert payoff_vector(fresh, profile_5, ActivationRule.LINKED) == linked
    assert validate_instance(fresh).warnings == ("coalition 7 (1,4,2): shares sum to 5/4, not 1",)


@pytest.mark.parametrize("factory", [worked_example, intersecting_example])
def test_a_builtin_instance_survives_pickle_and_deepcopy(factory):
    instance = factory()
    instance.payoff_index
    for copy in (pickle.loads(pickle.dumps(instance)), deepcopy(instance)):
        assert copy == instance and copy is not instance
        assert copy.payoff_index == instance.payoff_index
        assert copy.coalitions[0].shares == instance.coalitions[0].shares
        with pytest.raises(TypeError):
            copy.coalitions[0].shares[0] = Fraction(0)


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


def test_generator_draws_match_sampling_the_candidate_list():
    # the generator unranks sampled indices instead of building the list;
    # random.sample reads only len and indexes, so the draws must agree
    # with sampling the list itself, and so must every later draw
    for n in range(2, 16):
        candidates = [*combinations(range(n), 2), *combinations(range(n), 3)]
        total = len(candidates)
        for k in sorted({0, 1, total // 3, total - 1, total}):
            for seed in range(8):
                rng = random.Random(seed)
                members = rng.sample(candidates, k)
                incomes = [rng.randint(-5, 5) for _ in members]
                inst = random_instance(seed=seed, n=n, coalition_count=k)
                assert [c.members for c in inst.coalitions] == members
                assert [c.income for c in inst.coalitions] == incomes


@pytest.mark.parametrize("n", [2, 3, 16, 40])
def test_a_candidate_is_its_rank_in_the_pairs_then_triples_list(n):
    # the unranking behind the non-disjoint draws, at every rank
    candidates = [*combinations(range(n), 2), *combinations(range(n), 3)]
    counts = _running_counts(n)
    assert [_candidate(k, counts) for k in range(len(candidates))] == candidates


@st.composite
def disjoint_requests(draw):
    """(seed, n, count): 2 to 25 players and any count up to every candidate."""
    n = draw(st.integers(min_value=2, max_value=25))
    total = comb(n, 2) + comb(n, 3)
    count = draw(st.integers(min_value=0, max_value=total))
    return draw(st.integers(min_value=0, max_value=2**32)), n, count


@given(disjoint_requests())
@settings(max_examples=150, deadline=None)
def test_disjoint_picks_match_comparing_every_kept_coalition(request):
    # the generator keeps the member pairs it has used; the oracle compares
    # each shuffled candidate with every coalition kept so far
    seed, n, count = request
    candidates = [*combinations(range(n), 2), *combinations(range(n), 3)]
    random.Random(seed).shuffle(candidates)
    expected = oracle_disjoint_picks(candidates, count)
    if len(expected) < count:
        with pytest.raises(ValueError, match=rf"\(got {len(expected)}\)$"):
            random_instance(seed, n=n, coalition_count=count, disjoint=True)
    else:
        inst = random_instance(seed, n=n, coalition_count=count, disjoint=True)
        assert [c.members for c in inst.coalitions] == expected
