"""Break-only deviations, witnesses, and the fast disjoint criterion."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from netform import (
    ActivationRule,
    CoalitionSpec,
    GameInstance,
    Network,
    OverlappingCoalitionsError,
    check_disjoint_stability,
    form_network,
    is_stable,
    payoff_vector,
    random_instance,
    restricted_equilibria,
    worked_example,
)
from netform.stability import MAX_CUT_SETS, find_overlapping_pair

from oracles import (
    coalition_triples,
    oracle_best_deviation,
    random_adjacency,
)

MUTUAL = ActivationRule.MUTUAL
LINKED = ActivationRule.LINKED


def test_stable_network_with_nothing_to_lose():
    inst = GameInstance(n=3, coalitions=(CoalitionSpec.of((0, 1), 5),))
    net = Network.of(3, [(0, 1), (1, 0)])
    for rule in (MUTUAL, LINKED):
        report = is_stable(inst, net, rule)
        assert report.stable
        assert report.witness is None


def test_witness_has_maximal_gain_and_recomputes():
    inst = GameInstance(
        n=3,
        coalitions=(
            CoalitionSpec.of((0, 1), -2),
            CoalitionSpec.of((0, 2), -8),
        ),
    )
    net = Network.of(3, [(0, 1), (0, 2)])
    report = is_stable(inst, net, LINKED)
    assert not report.stable
    w = report.witness
    # dropping both arcs gains 5, strictly more than either alone
    assert w.player == 0
    assert w.removed_arcs == ((0, 1), (0, 2))
    assert w.gain == Fraction(5)
    before = payoff_vector(inst, net, LINKED)[0]
    after = payoff_vector(inst, w.resulting_network, LINKED)[0]
    assert after - before == w.gain


def test_witness_tie_breaks_prefer_small_subsets():
    # under MUTUAL either single arc already deactivates, and so does the
    # union: identical gains, so the smallest earliest subset wins
    inst = GameInstance(n=3, coalitions=(CoalitionSpec.of((0, 1), -4),))
    net = Network.of(3, [(0, 1), (1, 0)])
    report = is_stable(inst, net, MUTUAL)
    assert not report.stable
    assert report.witness.player == 0
    assert report.witness.removed_arcs == ((0, 1),)
    assert report.witness.gain == Fraction(2)
    # under LINKED one arc leaves the pair linked, so both must go
    report = is_stable(inst, net, LINKED)
    assert report.witness.player == 0
    assert report.witness.removed_arcs == ((0, 1), (1, 0))
    assert report.witness.gain == Fraction(2)


def test_one_cut_switches_off_every_coalition_through_the_pair():
    # cutting partner 1 drops both negative coalitions of player 0 at once
    inst = GameInstance(n=4, coalitions=(
        CoalitionSpec.of((0, 1, 2), -6),
        CoalitionSpec.of((0, 1, 3), -3),
        CoalitionSpec.of((0, 2), 4, {0: 1, 2: 1}),
    ))
    net = Network.of(4, [(i, j) for i in range(4) for j in range(4) if i != j])
    for rule, removed in ((MUTUAL, ((0, 1),)), (LINKED, ((0, 1), (1, 0)))):
        report = is_stable(inst, net, rule)
        assert report.witness.player == 0
        assert report.witness.removed_arcs == removed
        assert report.witness.gain == Fraction(3)
        stable, best = oracle_best_deviation(
            coalition_triples(inst), [list(row) for row in net.matrix()], rule.value
        )
        assert (stable, best) == (False, (Fraction(3), 0, removed))


def test_network_size_mismatch_rejected():
    inst = GameInstance(n=3, coalitions=(CoalitionSpec.of((0, 1), 1),))
    with pytest.raises(ValueError, match="3"):
        is_stable(inst, Network.of(4, []), LINKED)
    with pytest.raises(ValueError, match="3"):
        check_disjoint_stability(inst, Network.of(4, []), LINKED)


def test_cut_set_limit_is_refused_before_any_search():
    # player 0 could cut any of 2^21 - 1 sets of its 21 partners
    inst = GameInstance(
        n=22, coalitions=tuple(CoalitionSpec.of((0, k), -1) for k in range(1, 22))
    )
    star = Network.of(22, [a for k in range(1, 22) for a in ((0, k), (k, 0))])
    assert 2**21 - 1 > MAX_CUT_SETS
    with pytest.raises(ValueError, match="cut sets"):
        is_stable(inst, star, LINKED)


def test_cut_set_search_memory_stays_flat():
    # player 0 linked both ways to 12 partners: 4,095 cut sets, walked
    # one at a time instead of held in a list (0.42 MiB when listed)
    k = 12
    inst = GameInstance(
        n=k + 1,
        coalitions=tuple(CoalitionSpec.of((0, q), -1 if q % 2 else 1) for q in range(1, k + 1)),
    )
    star = Network.of(k + 1, [a for q in range(1, k + 1) for a in ((0, q), (q, 0))])
    tracemalloc.start()
    try:
        report = is_stable(inst, star, LINKED)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 2**20
    # cutting every odd partner switches off exactly the losing pairs
    assert report.witness.player == 0
    assert report.witness.gain == Fraction(k // 2, 2)
    assert report.witness.removed_arcs == tuple(
        sorted(a for q in range(1, k + 1, 2) for a in ((0, q), (q, 0)))
    )


def test_brute_force_matches_oracle_on_random_cases():
    rng = random.Random(802)
    for _ in range(100):
        n = rng.randint(2, 6)
        # two players admit a single coalition, three admit four
        cap = {2: 1, 3: 4}.get(n, 8)
        drawn = random_instance(
            seed=rng.randrange(10 ** 6), n=n, coalition_count=rng.randint(1, cap),
            income_range=(-5, 5),
        )
        # random shares, zero and non-unit sums included
        inst = GameInstance(n=n, coalitions=tuple(
            CoalitionSpec.of(c.members, c.income, {m: Fraction(rng.randint(0, 3), 2) for m in c.members})
            for c in drawn.coalitions
        ))
        g = random_adjacency(rng, n, rng.uniform(0.1, 1.0))
        net = Network.from_matrix(g)
        rule = rng.choice((MUTUAL, LINKED))
        report = is_stable(inst, net, rule)
        stable, best = oracle_best_deviation(coalition_triples(inst), g, rule.value)
        assert report.stable == stable
        if not stable:
            gain, player, removed = best
            assert report.witness.gain == gain
            assert report.witness.player == player
            assert report.witness.removed_arcs == removed


def test_integer_stakes_match_oracle_with_uneven_shares():
    # shares such as 1/12 and 5/4 and incomes over denominators dividing 12
    # put the stakes' common denominator well past 2
    rng = random.Random(1812)
    shares = [Fraction(s) for s in ("0", "1/12", "1/3", "1/2", "2/3", "1", "5/4")]
    for case in range(200):
        n = rng.randint(2, 6)
        candidates = list(combinations(range(n), 2)) + list(combinations(range(n), 3))
        rng.shuffle(candidates)
        chosen = []
        for members in candidates[: rng.randint(1, 6)]:
            # every other case keeps only coalitions that share no pair
            if case % 2 or all(len(set(members) & set(c)) < 2 for c in chosen):
                chosen.append(members)
        inst = GameInstance(n=n, coalitions=tuple(
            CoalitionSpec.of(
                members,
                Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 6, 12))),
                {m: rng.choice(shares) for m in members},
            )
            for members in chosen
        ))
        g = random_adjacency(rng, n, rng.uniform(0.3, 1.0))
        net = Network.from_matrix(g)
        for rule in (MUTUAL, LINKED):
            report = is_stable(inst, net, rule)
            stable, best = oracle_best_deviation(coalition_triples(inst), g, rule.value)
            assert report.stable == stable
            if not stable:
                w = report.witness
                assert (w.gain, w.player, w.removed_arcs) == best
                assert type(w.gain) is Fraction
            if find_overlapping_pair(inst) is not None:
                continue
            fast = check_disjoint_stability(inst, net, rule)
            assert fast.stable == stable
            if not stable:
                p, removed = fast.witness.player, fast.witness.removed_arcs
                q = next(m for m in removed[0] if m != p)
                [c] = [c for c in inst.coalitions if {p, q} <= set(c.members)]
                assert fast.witness.gain == -c.share_of(p) * c.income
                assert type(fast.witness.gain) is Fraction
                assert fast.witness.gain <= report.witness.gain


def test_all_nonnegative_incomes_means_any_network_is_stable():
    # breaking arcs can only deactivate coalitions, so with nothing to
    # escape there is never a profitable deviation, overlap or not
    rng = random.Random(33)
    for _ in range(40):
        n = rng.randint(3, 6)
        inst = random_instance(
            seed=rng.randrange(10 ** 6), n=n,
            coalition_count=rng.randint(1, 4), income_range=(0, 6),
        )
        net = Network.from_matrix(
            random_adjacency(rng, n, rng.uniform(0.2, 0.9))
        )
        for rule in (MUTUAL, LINKED):
            assert is_stable(inst, net, rule).stable


def test_overlap_detection_names_first_pair():
    inst = worked_example()
    pair = find_overlapping_pair(inst)
    assert pair is not None
    assert pair[0].label() == "(1,3,4)"
    assert pair[1].label() == "(1,4,5)"
    with pytest.raises(OverlappingCoalitionsError, match=r"\(1,3,4\).*\(1,4,5\)"):
        check_disjoint_stability(inst, form_network(inst.profiles[0]), LINKED)


def test_overlap_search_matches_member_set_definition():
    # the first (a, b) in position order whose member sets share two players
    rng = random.Random(61)
    for _ in range(300):
        n = rng.randint(2, 7)
        cap = min(8, comb(n, 2) + comb(n, 3))
        inst = random_instance(seed=rng.randrange(10 ** 6), n=n, coalition_count=rng.randint(0, cap))
        cs = inst.coalitions
        expected = next(
            (
                (cs[a], cs[b])
                for a in range(len(cs))
                for b in range(a + 1, len(cs))
                if len(set(cs[a].members) & set(cs[b].members)) >= 2
            ),
            None,
        )
        assert find_overlapping_pair(inst) == expected


def test_disjoint_verdict_and_witness():
    inst = GameInstance(
        n=5,
        coalitions=(
            CoalitionSpec.of((0, 1, 2), 4),
            CoalitionSpec.of((2, 3), -2),
        ),
    )
    assert find_overlapping_pair(inst) is None
    stable_net = Network.of(5, [(0, 1), (1, 2), (0, 2)])
    report = check_disjoint_stability(inst, stable_net, LINKED)
    assert report.stable

    shaky = Network.of(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 2)])
    report = check_disjoint_stability(inst, shaky, LINKED)
    assert not report.stable
    w = report.witness
    assert w.player == 2
    assert set(w.removed_arcs) == {(2, 3), (3, 2)}
    assert w.gain == Fraction(1)
    # the verdict agrees with brute force
    assert not is_stable(inst, shaky, LINKED).stable

    # under MUTUAL one arc of the pair unlinks it, as in is_stable
    pair = GameInstance(n=2, coalitions=(CoalitionSpec.of((0, 1), -2),))
    both = Network.of(2, [(0, 1), (1, 0)])
    w = check_disjoint_stability(pair, both, MUTUAL).witness
    assert (w.player, w.removed_arcs, w.gain) == (0, ((0, 1),), Fraction(1))
    assert w == is_stable(pair, both, MUTUAL).witness


def test_zero_share_negative_coalition_is_stable_for_both_engines():
    # income -1 split 0/0 pays nobody, so breaking the pair gains nothing
    inst = GameInstance(
        n=2,
        coalitions=(CoalitionSpec.of((0, 1), -1, {0: 0, 1: 0}),),
    )
    net = Network.of(2, [(0, 1), (1, 0)])
    for rule in (ActivationRule.MUTUAL, LINKED):
        assert check_disjoint_stability(inst, net, rule).stable
        assert is_stable(inst, net, rule).stable


def test_restricted_equilibria_frozen_result():
    inst = worked_example()
    report = restricted_equilibria(inst, LINKED)
    assert report.equilibria == (0, 1, 2, 4, 5, 6, 7, 8, 9)
    assert len(report.deviations) == 1
    d = report.deviations[0]
    assert (d.source, d.target, d.player, d.gain) == (3, 9, 0, Fraction(1))


def test_restricted_equilibria_empty_profiles():
    inst = GameInstance(n=2, coalitions=(CoalitionSpec.of((0, 1), 1),))
    report = restricted_equilibria(inst, LINKED)
    assert report.equilibria == ()
    assert report.deviations == ()
