"""Activation rules and additive payoffs."""

from __future__ import annotations

import json
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netform import (
    ActivationRule,
    CoalitionSpec,
    GameInstance,
    Network,
    check_disjoint_stability,
    form_network,
    is_stable,
    payoff_vector,
    payoff_vectors,
    restricted_equilibria,
    worked_example,
)
from netform import instance_io
from netform.formation import OfferProfile
from netform.instance_io import load_instance_file
from netform.payoffs import (
    _active,
    _table,
    _totals,
    active_coalitions,
    pair_graph,
    stored_payoffs,
    stored_table,
    unlinking_arcs,
)

from oracles import coalition_triples, oracle_payoffs, random_adjacency

MUTUAL = ActivationRule.MUTUAL
LINKED = ActivationRule.LINKED


def test_linked_accepts_one_direction_mutual_does_not():
    inst = worked_example()
    g5 = form_network(inst.profiles[4])
    triple_345 = inst.coalitions[7]
    assert triple_345.members == (2, 3, 4)
    assert triple_345 in active_coalitions(inst, g5, LINKED)
    assert triple_345 not in active_coalitions(inst, g5, MUTUAL)


def test_pair_graph_per_rule():
    # the pair graph is a mask with bit low*n + high per linked pair, so
    # it reads back as the network of the arcs (low, high)
    net = Network.of(4, [(0, 1), (1, 0), (2, 1), (3, 0)])
    assert Network(4, pair_graph(net, MUTUAL)).arcs == {(0, 1)}
    assert Network(4, pair_graph(net, LINKED)).arcs == {(0, 1), (1, 2), (0, 3)}
    assert pair_graph(Network.of(4, []), LINKED) == 0


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
        linked = active_coalitions(inst, g, LINKED)
        for c in active_coalitions(inst, g, MUTUAL):
            assert c in linked


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
        for profile in inst.profiles:
            net = form_network(profile)
            g = [list(r) for r in net.matrix()]
            assert list(payoff_vector(inst, net, rule)) == oracle_payoffs(triples, g, rule.value)


def test_negative_income_flows_through():
    inst = GameInstance(
        n=3,
        coalitions=(CoalitionSpec((0, 1), -6),),
    )
    net = Network.of(3, [(0, 1)])
    assert payoff_vector(inst, net, LINKED) == (Fraction(-3), Fraction(-3), 0)
    assert payoff_vector(inst, net, MUTUAL) == (0, 0, 0)


def test_common_denominator_of_payments_is_bounded():
    def paying(denominator):  # player 1 takes the whole income 1/denominator
        pair = CoalitionSpec((0, 1), Fraction(1, denominator), {0: 1, 1: 0})
        return GameInstance(n=2, coalitions=(pair,))

    net = Network.of(2, [(0, 1)])
    # 2^1023 needs 1,024 bits, the most allowed
    assert payoff_vector(paying(2 ** 1023), net, LINKED) == (Fraction(1, 2 ** 1023), 0)
    refused = paying(2 ** 1024)
    for engine in (payoff_vector, is_stable, check_disjoint_stability):
        with pytest.raises(ValueError, match="common denominator of more than 1024 bits"):
            engine(refused, net, LINKED)


@pytest.mark.parametrize("n", [4, 7])
def test_a_network_of_the_wrong_size_is_refused(n):
    # a network on one player fewer or two more than the worked example's
    # five would be read against the wrong pair-graph bits
    arcs = [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]
    inst = worked_example()
    complete = [[int(i != j) for j in range(n)] for i in range(n)]
    profile = OfferProfile(complete, complete)
    mismatched = GameInstance(inst.n, inst.coalitions, (profile,))
    message = f"network on {n} players, instance has 5"
    for call in (
        lambda: payoff_vector(inst, Network.of(n, arcs), LINKED),
        lambda: payoff_vectors(inst, [Network.of(5, arcs), Network.of(n, arcs)], LINKED),
        lambda: is_stable(inst, Network.of(n, arcs), LINKED),
        lambda: check_disjoint_stability(inst, Network.of(n, arcs), LINKED),
        lambda: restricted_equilibria(mismatched, LINKED),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def networks(n):
    arcs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    ).filter(lambda a: a[0] != a[1])
    return st.sets(arcs, max_size=n * (n - 1)).map(lambda a: Network.of(n, a))


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
        coalitions.append(CoalitionSpec(members, income))
    return GameInstance(n=n, coalitions=tuple(coalitions)), draw(networks(n))


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


@st.composite
def weighted_families(draw):
    """Instances with uneven shares (0 included) and fractional incomes,
    so the common denominator of the int weights runs well past 3."""
    n = draw(st.integers(min_value=3, max_value=6))
    member_sets = draw(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=n - 1), min_size=2, max_size=3),
            min_size=1,
            max_size=5,
            unique_by=frozenset,
        )
    )
    fractions = st.builds(
        Fraction, st.integers(min_value=-24, max_value=24), st.integers(min_value=1, max_value=12)
    )
    coalitions = []
    for members in member_sets:
        members = tuple(sorted(members))
        raw = draw(st.lists(st.integers(min_value=0, max_value=5), min_size=len(members), max_size=len(members)))
        scale = sum(raw) or 1
        shares = {m: Fraction(r, scale) for m, r in zip(members, raw)}
        coalitions.append(CoalitionSpec(members, draw(fractions), shares))
    return GameInstance(n=n, coalitions=tuple(coalitions)), draw(networks(n))


@given(weighted_families())
@settings(max_examples=200)
def test_int_weight_payoffs_equal_oracle(pair):
    inst, net = pair
    g = [list(r) for r in net.matrix()]
    for rule in (MUTUAL, LINKED):
        vec = payoff_vector(inst, net, rule)
        assert list(vec) == oracle_payoffs(coalition_triples(inst), g, rule.value)
        assert all(type(v) is Fraction for v in vec)
        paid = {m for c in active_coalitions(inst, net, rule) for m in c.members}
        for p in set(range(inst.n)) - paid:
            assert vec[p] == Fraction(0) and type(vec[p]) is Fraction


@st.composite
def network_batches(draw):
    """An instance on 2-8 players with 2- and 3-member coalitions, uneven
    shares (0 included) and fractional incomes, and 0-12 networks on it."""
    n = draw(st.integers(min_value=2, max_value=8))
    member_sets = draw(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=n - 1), min_size=2, max_size=min(3, n)),
            max_size=10,
            unique_by=frozenset,
        )
    )
    coalitions = []
    for members in map(sorted, member_sets):
        size = len(members)
        raw = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=size, max_size=size))
        scale = sum(raw) or 1
        income = Fraction(
            draw(st.integers(min_value=-24, max_value=24)), draw(st.integers(min_value=1, max_value=6))
        )
        shares = {m: Fraction(r, scale) for m, r in zip(members, raw)}
        coalitions.append(CoalitionSpec(tuple(members), income, shares))
    batch = draw(st.lists(networks(n), max_size=12))
    return GameInstance(n=n, coalitions=tuple(coalitions)), batch


@given(network_batches(), st.sampled_from([MUTUAL, LINKED]))
@settings(max_examples=200)
def test_a_table_pays_each_network_as_the_one_network_form_does(batch, rule):
    inst, nets = batch
    assert _table(inst, nets, rule) == [_totals(inst, g, rule) for g in nets]
    vectors = payoff_vectors(inst, nets, rule)
    assert vectors == [payoff_vector(inst, g, rule) for g in nets]
    triples = coalition_triples(inst)
    for vec, g in zip(vectors, nets):
        assert list(vec) == oracle_payoffs(triples, [list(r) for r in g.matrix()], rule.value)
        assert all(type(v) is Fraction for v in vec)


@st.composite
def stored_batches(draw):
    """`network_batches`' instance with 0-12 stored profiles: each offers
    what a drawn network holds and accepts what another one holds."""
    inst, offers = draw(network_batches())
    profiles = tuple(
        OfferProfile(g.matrix(), draw(networks(inst.n)).matrix()) for g in offers
    )
    return GameInstance(inst.n, inst.coalitions, profiles)


def _outcome(call, *args):
    try:
        return call(*args)
    except TypeError as exc:  # an instance with coalitions is unhashable, as their shares are
        return str(exc)


@given(stored_batches(), st.sampled_from([(LINKED, MUTUAL), (MUTUAL, LINKED)]))
@settings(max_examples=200)
def test_stored_tables_pay_the_stored_networks_as_a_fresh_table_does(inst, rules):
    bare = GameInstance(inst.n, inst.coalitions, inst.profiles)
    fresh = [form_network(p) for p in inst.profiles]
    assert inst.networks == tuple(fresh)
    triples = coalition_triples(inst)
    for rule in rules:  # both orders: a table kept under one rule is not read under the other
        table = _table(inst, fresh, rule)
        assert stored_table(inst, rule) == tuple(map(tuple, table))
        vectors = stored_payoffs(inst, rule)
        assert vectors == payoff_vectors(inst, fresh, rule)
        for vec, g in zip(vectors, fresh):
            assert list(vec) == oracle_payoffs(triples, [list(r) for r in g.matrix()], rule.value)
            assert all(type(v) is Fraction for v in vec)
    # the caches are no part of an instance's value
    assert {"networks", "linked_table", "mutual_table"} <= vars(inst).keys()
    assert inst == bare and _outcome(hash, inst) == _outcome(hash, bare)
    copy = pickle.loads(pickle.dumps(inst))
    assert copy == bare and vars(copy) == vars(inst)
    assert pickle.loads(pickle.dumps(bare)) == copy


def test_a_table_of_no_networks_is_empty():
    for rule in (MUTUAL, LINKED):
        assert _table(worked_example(), [], rule) == []
        assert payoff_vectors(worked_example(), iter(()), rule) == []


def test_a_table_refuses_a_network_on_the_wrong_number_of_players_as_one_network_does():
    inst = worked_example()
    good, bad = Network.of(5, [(0, 1)]), Network.of(4, [(0, 1)])
    with pytest.raises(ValueError) as one:
        _active(inst, bad, LINKED)
    for networks in ([bad], [good, bad, good]):
        with pytest.raises(ValueError) as table:
            payoff_vectors(inst, networks, LINKED)
        assert str(table.value) == str(one.value) == "network on 4 players, instance has 5"


def test_a_coalition_no_network_links_is_never_active_in_a_table():
    # unvalidated: a repeated member and an out-of-range one both make the
    # pair bit n*n, which no column holds, even on the complete network
    inst = GameInstance(n=3, coalitions=(
        CoalitionSpec((0, 0, 1), 3),
        CoalitionSpec((1, 5), 4),
        CoalitionSpec((1, 2), 2),
    ))
    complete = [[int(i != j) for j in range(3)] for i in range(3)]
    nets = [Network.from_matrix(complete), Network.of(3, [])]
    for rule in (MUTUAL, LINKED):
        assert _table(inst, nets, rule) == [[0, 1, 1], [0, 0, 0]]
        assert _table(inst, nets, rule) == [_totals(inst, g, rule) for g in nets]


def test_a_table_over_more_networks_than_the_int_digit_limit():
    # each column is an int with one bit per network, parsed in base 2,
    # which the interpreter's limit on decimal digits does not cover
    rng = random.Random(5)
    inst = GameInstance(n=3, coalitions=(
        CoalitionSpec((0, 1, 2), Fraction(7, 2)),
        CoalitionSpec((0, 2), -1),
    ))
    nets = [Network.from_matrix(random_adjacency(rng, 3, 0.5)) for _ in range(4400)]
    for rule in (MUTUAL, LINKED):
        assert payoff_vectors(inst, nets, rule) == [payoff_vector(inst, g, rule) for g in nets]


def test_loading_and_paying_a_large_document_stays_in_bounded_memory(tmp_path, monkeypatch):
    # 1,024 players, 300 random triples, player 1's star and the empty
    # network: about 8 MiB of JSON, loaded and paid under both rules;
    # the peak was 49.1 MiB under CPython 3.10 to 3.13
    n, rng = 1024, random.Random(20)
    coalitions = [
        {"members": [p + 1 for p in rng.sample(range(n), 3)], "income": str(rng.randint(-5, 5))}
        for _ in range(300)
    ]
    hub = [[0] + [1] * (n - 1)] + [[1] + [0] * (n - 1)] * (n - 1)
    empty = [[0] * n] * n
    profiles = [{"offers": hub, "acceptances": hub}, {"offers": empty, "acceptances": empty}]
    doc = {"schema": "game-instance/1", "players": n, "coalitions": coalitions, "profiles": profiles}
    path = tmp_path / "star1024.json"
    path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
    monkeypatch.setattr(instance_io, "_kept", ())
    tracemalloc.start()
    try:
        inst = load_instance_file(path)
        paid = [stored_payoffs(inst, rule) for rule in (MUTUAL, LINKED)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 7 * 2**20 < path.stat().st_size < 9 * 2**20
    assert [len(vectors) for vectors in paid] == [2, 2]
    assert peak < 64 * 2**20
