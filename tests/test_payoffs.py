"""Activation rules and additive payoffs."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from netform import (
    ActivationRule,
    CoalitionSpec,
    GameInstance,
    Network,
    active_coalitions,
    form_network,
    is_active,
    payoff_vector,
    profile_payoffs,
    worked_example,
)
from netform.payoffs import pair_graph, unlinking_arcs

from oracles import coalition_triples, oracle_payoffs, random_adjacency

MUTUAL = ActivationRule.MUTUAL
LINKED = ActivationRule.LINKED


def test_linked_accepts_one_direction_mutual_does_not():
    inst = worked_example()
    g5 = form_network(inst.profiles[4])
    triple_345 = inst.coalitions[7]
    assert triple_345.members == (2, 3, 4)
    assert is_active(triple_345, g5, LINKED)
    assert not is_active(triple_345, g5, MUTUAL)


def test_pair_graph_per_rule():
    net = Network.of(4, [(0, 1), (1, 0), (2, 1), (3, 0)])
    assert pair_graph(net, MUTUAL) == {(0, 1)}
    assert pair_graph(net, LINKED) == {(0, 1), (1, 2), (0, 3)}
    assert pair_graph(Network.of(4, []), LINKED) == frozenset()


def test_unlinking_arcs_are_fewest_and_sorted():
    net = Network.of(3, [(0, 1), (1, 0), (2, 1)])
    # MUTUAL: one arc of a mutual pair is enough, the smaller one
    assert unlinking_arcs(net, 1, 0, MUTUAL) == ((0, 1),)
    # LINKED: every present arc of the pair must go
    assert unlinking_arcs(net, 1, 0, LINKED) == ((0, 1), (1, 0))
    assert unlinking_arcs(net, 1, 2, LINKED) == ((2, 1),)
    assert unlinking_arcs(net, 0, 2, LINKED) == ()


def test_mutual_activation_implies_linked():
    rng = random.Random(11)
    inst = worked_example()
    for _ in range(200):
        g = Network.from_matrix(random_adjacency(rng, 5, rng.uniform(0.2, 0.9)))
        for c in inst.coalitions:
            if is_active(c, g, MUTUAL):
                assert is_active(c, g, LINKED)


def test_active_coalitions_of_last_profile():
    inst = worked_example()
    g10 = form_network(inst.profiles[9])
    active = active_coalitions(inst, g10, LINKED)
    nonzero = [c.members for c in active if c.income != 0]
    assert nonzero == [(1, 4, 3), (2, 3, 1)]


def test_player_in_no_active_coalition_earns_zero():
    inst = worked_example()
    g10 = form_network(inst.profiles[9])
    assert payoff_vector(inst, g10, LINKED)[0] == 0


def test_profile_payoffs_equal_oracle_rows():
    inst = worked_example()
    triples = coalition_triples(inst)
    for rule in (MUTUAL, LINKED):
        rows = profile_payoffs(inst, rule)
        for k, profile in enumerate(inst.profiles):
            g = [list(r) for r in form_network(profile).matrix()]
            assert list(rows[k]) == oracle_payoffs(triples, g, rule.value)


def test_negative_income_flows_through():
    inst = GameInstance(
        n=3,
        coalitions=(CoalitionSpec.of((0, 1), -6),),
    )
    net = Network.of(3, [(0, 1)])
    assert payoff_vector(inst, net, LINKED) == (Fraction(-3), Fraction(-3), 0)
    assert payoff_vector(inst, net, MUTUAL) == (0, 0, 0)


@st.composite
def coalition_families(draw):
    n = draw(st.integers(min_value=3, max_value=6))
    count = draw(st.integers(min_value=1, max_value=4))
    members_seen = set()
    coalitions = []
    for _ in range(count):
        size = draw(st.integers(min_value=2, max_value=3))
        members = tuple(
            sorted(draw(st.permutations(range(n)))[:size])
        )
        if members in members_seen:
            continue
        members_seen.add(members)
        income = Fraction(draw(st.integers(min_value=-9, max_value=9)))
        coalitions.append(CoalitionSpec.of(members, income))
    arcs = draw(
        st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ).filter(lambda a: a[0] != a[1]),
            max_size=n * (n - 1),
        )
    )
    return GameInstance(n=n, coalitions=tuple(coalitions)), Network.of(n, arcs)


@given(coalition_families(), st.sampled_from([MUTUAL, LINKED]))
@settings(max_examples=120)
def test_payoffs_sum_to_active_incomes(pair, rule):
    # conservation: with even shares the grand total is the active income total
    inst, net = pair
    total = sum(payoff_vector(inst, net, rule), Fraction(0))
    assert total == sum(
        (c.income for c in active_coalitions(inst, net, rule)), Fraction(0)
    )


@given(coalition_families(), st.sampled_from([MUTUAL, LINKED]))
@settings(max_examples=120)
def test_payoffs_are_additive_over_coalition_split(pair, rule):
    inst, net = pair
    left = GameInstance(n=inst.n, coalitions=inst.coalitions[::2])
    right = GameInstance(n=inst.n, coalitions=inst.coalitions[1::2])
    combined = payoff_vector(inst, net, rule)
    split = tuple(
        a + b
        for a, b in zip(payoff_vector(left, net, rule), payoff_vector(right, net, rule))
    )
    assert combined == split
