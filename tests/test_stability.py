"""Break-only deviations, witnesses, and the fast disjoint criterion."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from netform import stability
from netform.formation import OfferProfile
from netform.payoffs import _active, active_coalitions
from netform.stability import MAX_CUT_SETS, MAX_PROFILE_PAIRS, _gray_flips, find_overlapping_pair

from oracles import (
    coalition_triples,
    matrix_of,
    oracle_best_cut,
    oracle_best_deviation,
    oracle_cut_sets,
    oracle_form,
    oracle_gray_walk,
    oracle_restricted,
    random_adjacency,
)

MUTUAL = ActivationRule.MUTUAL
LINKED = ActivationRule.LINKED


def test_stable_network_with_nothing_to_lose():
    inst = GameInstance(n=3, coalitions=(CoalitionSpec((0, 1), 5),))
    net = Network.of(3, [(0, 1), (1, 0)])
    for rule in (MUTUAL, LINKED):
        report = is_stable(inst, net, rule)
        assert report.stable
        assert report.witness is None


def test_witness_has_maximal_gain_and_recomputes():
    inst = GameInstance(
        n=3,
        coalitions=(
            CoalitionSpec((0, 1), -2),
            CoalitionSpec((0, 2), -8),
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
    inst = GameInstance(n=3, coalitions=(CoalitionSpec((0, 1), -4),))
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
        CoalitionSpec((0, 1, 2), -6),
        CoalitionSpec((0, 1, 3), -3),
        CoalitionSpec((0, 2), 4, {0: 1, 2: 1}),
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
    inst = GameInstance(n=3, coalitions=(CoalitionSpec((0, 1), 1),))
    for n in (2, 4):
        message = f"network on {n} players, instance has 3"
        with pytest.raises(ValueError, match=message):
            is_stable(inst, Network.of(n, []), LINKED)
        with pytest.raises(ValueError, match=message):
            check_disjoint_stability(inst, Network.of(n, []), LINKED)


def test_star_of_independent_partners_is_searched_part_by_part():
    # no stake holds two of player 0's 21 partners, so its 2^21 - 1 sets
    # are 21 one-partner parts: 21 cut sets, searched
    inst = GameInstance(
        n=22, coalitions=tuple(CoalitionSpec((0, k), -1) for k in range(1, 22))
    )
    star = Network.of(22, [a for k in range(1, 22) for a in ((0, k), (k, 0))])
    assert 2**21 - 1 > MAX_CUT_SETS
    w = is_stable(inst, star, LINKED).witness
    assert (w.player, w.gain) == (0, Fraction(21, 2))
    assert w.removed_arcs == tuple(sorted(star.arcs))


def test_cut_set_limit_is_refused_before_any_search(monkeypatch):
    # the triples (0, k, k+1) chain player 0's 21 losing partners into one
    # part: 2^21 - 1 cut sets.  Players 1 and 21 add 3 each, and players
    # 2 to 20, whose partners 0, k-1 and k+1 form one part, add 7 each
    inst = GameInstance(
        n=22, coalitions=tuple(CoalitionSpec((0, k, k + 1), -1) for k in range(1, 21))
    )
    complete = Network.of(22, [(i, j) for i in range(22) for j in range(22) if i != j])
    monkeypatch.setattr(stability, "_best_cut", None)  # searching would raise TypeError
    total = 2**21 - 1 + 2 * 3 + 19 * 7
    message = (
        f"^stability search needs {total} cut sets over its partners worth cutting, "
        f"more than the limit of {MAX_CUT_SETS}$"
    )
    with pytest.raises(ValueError, match=message):
        is_stable(inst, complete, LINKED)


def test_one_part_just_under_the_cut_set_limit_is_searched():
    # the triples (0, k, k+1) paying only player 0 chain its 20 partners
    # into one part: 2^20 - 1 cut sets, one under the limit.  Cutting every
    # other partner from 1 stops all 19 triples with the fewest arcs
    inst = GameInstance(
        n=21,
        coalitions=tuple(CoalitionSpec((0, k, k + 1), -1, {0: 1, k: 0, k + 1: 0}) for k in range(1, 20)),
    )
    complete = Network.of(21, [(i, j) for i in range(21) for j in range(21) if i != j])
    assert 2**20 - 1 <= MAX_CUT_SETS
    cut = [(0, q) for q in range(1, 20, 2)]
    for rule, removed in ((MUTUAL, cut), (LINKED, sorted(cut + [(q, 0) for _, q in cut]))):
        w = is_stable(inst, complete, rule).witness
        assert (w.player, w.gain, w.removed_arcs) == (0, Fraction(19), tuple(removed))


def test_members_outside_the_players_are_never_paid_and_raise_nothing():
    # an instance that skipped validation, with coalitions {-1, 0} and
    # {0, n} that no network activates: every engine answers as without them
    base = random_instance(5, n=6, coalition_count=4, disjoint=True)
    strays = (CoalitionSpec((-1, 0), -4), CoalitionSpec((0, 6), -4))
    inst = GameInstance(n=6, coalitions=strays + base.coalitions)
    rng = random.Random(5)
    networks = [Network.from_matrix(random_adjacency(rng, 6, 0.7)) for _ in range(8)]
    for net in networks + [Network.of(6, [(i, j) for i in range(6) for j in range(6) if i != j])]:
        for rule in ActivationRule:
            assert payoff_vector(inst, net, rule) == payoff_vector(base, net, rule)
            assert is_stable(inst, net, rule) == is_stable(base, net, rule)
            assert check_disjoint_stability(inst, net, rule) == check_disjoint_stability(base, net, rule)


@st.composite
def parts(draw):
    """A player, a part of 1 to 10 of its partners as a mask, stakes each
    held by 1 or 2 of them with amounts in -3..3, and 1 or 2 arcs between
    the player and each partner."""
    k = draw(st.integers(min_value=1, max_value=10))
    n = k + 1 + draw(st.integers(min_value=0, max_value=2))
    player = draw(st.integers(min_value=0, max_value=n - 1))
    others = [q for q in range(n) if q != player]
    partners = sorted(draw(st.permutations(others))[:k])
    holder = st.sampled_from(partners)
    drawn = st.lists(st.tuples(holder, holder, st.integers(-3, 3)), min_size=1, max_size=12)
    stakes = [(1 << a | 1 << b, w) for a, b, w in draw(drawn)]
    arcs = []
    for q in partners:
        arcs += draw(st.sampled_from([[(player, q)], [(q, player)], [(player, q), (q, player)]]))
    return n, player, sum(1 << q for q in partners), stakes, arcs


@given(parts(), st.sampled_from(list(ActivationRule)))
@settings(max_examples=200, deadline=None)
def test_a_part_walk_finds_the_least_gaining_cut_set(part, rule):
    n, player, partners, stakes, arcs = part
    found = stability._best_cut(Network.of(n, arcs), player, rule, partners, stakes)
    assert found == oracle_best_cut(matrix_of(arcs, n), player, rule.value, partners, stakes)


@pytest.mark.parametrize("seed, player, gain", [(1, 20, Fraction(33, 2)), (2, 14, Fraction(43, 3))])
def test_complete_40_player_networks_get_a_verdict(seed, player, gain):
    # every partner set would be about 12 billion cut sets; the partners
    # worth cutting, part by part, are 111,280 (seed 1) and 12,870 (seed 2)
    inst = random_instance(seed, n=40, coalition_count=300)
    complete = Network.of(40, [(i, j) for i in range(40) for j in range(40) if i != j])
    w = is_stable(inst, complete, LINKED).witness
    assert (w.player, w.gain) == (player, gain)
    before = payoff_vector(inst, complete, LINKED)[player]
    assert payoff_vector(inst, w.resulting_network, LINKED)[player] - before == gain


def test_profile_pair_limit_is_refused_before_any_network_is_formed(monkeypatch):
    # 362 profiles give 130,682 ordered pairs and 363 give 131,406: the
    # limit sits between them
    empty = OfferProfile([[0, 0], [0, 0]], [[0, 0], [0, 0]])
    pair = (CoalitionSpec((0, 1), 1),)
    assert 362 * 361 <= MAX_PROFILE_PAIRS < 363 * 362
    report = restricted_equilibria(GameInstance(n=2, coalitions=pair, profiles=(empty,) * 362), LINKED)
    assert report.equilibria == tuple(range(362)) and report.deviations == ()
    over = GameInstance(n=2, coalitions=pair, profiles=(empty,) * 363)
    monkeypatch.setattr(stability, "form_network", None)  # forming would raise TypeError
    message = f"compares 131406 profile pairs, more than the limit of {MAX_PROFILE_PAIRS}$"
    with pytest.raises(ValueError, match=message):
        restricted_equilibria(over, LINKED)


def test_cut_set_search_memory_stays_flat():
    # the triples (0, q, q+1) chain player 0's 12 partners into one part,
    # and each partner holds a losing triple: 4,095 cut sets, walked one
    # at a time instead of held in a list (0.42 MiB when listed)
    k = 12
    inst = GameInstance(
        n=k + 1,
        coalitions=tuple(CoalitionSpec((0, q, q + 1), -1 if q % 2 else 1) for q in range(1, k)),
    )
    complete = [(i, j) for i in range(k + 1) for j in range(k + 1) if i != j]
    tracemalloc.start()
    try:
        report = is_stable(inst, Network.of(k + 1, complete), LINKED)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 2**20
    w = report.witness
    stable, best = oracle_cut_sets(coalition_triples(inst), matrix_of(complete, k + 1), "linked")
    assert not stable and (w.gain, w.player, w.removed_arcs) == best


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
            CoalitionSpec(c.members, c.income, {m: Fraction(rng.randint(0, 3), 2) for m in c.members})
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
            CoalitionSpec(
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
            CoalitionSpec((0, 1, 2), 4),
            CoalitionSpec((2, 3), -2),
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
    pair = GameInstance(n=2, coalitions=(CoalitionSpec((0, 1), -2),))
    both = Network.of(2, [(0, 1), (1, 0)])
    w = check_disjoint_stability(pair, both, MUTUAL).witness
    assert (w.player, w.removed_arcs, w.gain) == (0, ((0, 1),), Fraction(1))
    assert w == is_stable(pair, both, MUTUAL).witness


def test_zero_share_negative_coalition_is_stable_for_both_engines():
    # income -1 split 0/0 pays nobody, so breaking the pair gains nothing
    inst = GameInstance(
        n=2,
        coalitions=(CoalitionSpec((0, 1), -1, {0: 0, 1: 0}),),
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
    inst = GameInstance(n=2, coalitions=(CoalitionSpec((0, 1), 1),))
    report = restricted_equilibria(inst, LINKED)
    assert report.equilibria == ()
    assert report.deviations == ()


def test_a_removal_that_touches_both_ends_moves_each_player_that_gains():
    # profile 1 forms only the arc 2 -> 1 (0-based (1, 0)), profile 2 is empty
    inst = GameInstance(
        n=2,
        coalitions=(CoalitionSpec((0, 1), -2),),
        profiles=(
            OfferProfile([[0, 0], [1, 0]], [[0, 1], [0, 0]]),
            OfferProfile([[0, 0], [0, 0]], [[0, 0], [0, 0]]),
        ),
    )
    report = restricted_equilibria(inst, LINKED)
    assert [(d.source, d.target, d.player, d.gain) for d in report.deviations] == [
        (0, 1, 0, Fraction(1)),
        (0, 1, 1, Fraction(1)),
    ]
    assert report.equilibria == (1,)
    # one arc never links the pair under MUTUAL, so nobody pays or gains
    assert restricted_equilibria(inst, MUTUAL) == stability.RestrictedEquilibriaReport((0, 1), ())


def test_restricted_equilibria_memory_follows_the_profiles():
    # 1,024 players: player 1's star and the empty network, as bytes rows
    # (4 MiB in all, built before tracing); a mask per player would take
    # 128 MiB
    n = 1024
    star = (b"\x00" + b"\x01" * (n - 1),) + (b"\x01" + bytes(n - 1),) * (n - 1)
    empty = (bytes(n),) * n
    inst = GameInstance(
        n=n,
        coalitions=(CoalitionSpec((0, 1), -2), CoalitionSpec((0, 2, 3), 3)),
        profiles=(OfferProfile(star, star), OfferProfile(empty, empty)),
    )
    tracemalloc.start()
    try:
        report = restricted_equilibria(inst, LINKED)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert report == stability.RestrictedEquilibriaReport(
        (1,), (stability.ReachableDeviation(0, 1, 0, Fraction(1)),)
    )


UNEVEN_SHARES = [Fraction(s) for s in ("0", "1/12", "1/3", "1/2", "2/3", "1", "5/4")]


@st.composite
def dense_cases(draw, max_players=10, fewest=None):
    """An instance of up to `max_players` players and `fewest` (default
    n) to 3n coalitions (as many as exist on fewer than 4 players), with
    uneven shares and incomes over denominators dividing 12, and a
    complete network that lacks at most n of its arcs."""
    n = draw(st.integers(min_value=2, max_value=max_players))
    groups = [ms for size in (2, 3) for ms in combinations(range(n), size)]
    income = st.builds(
        Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6, 12))
    )
    shares = st.sampled_from(UNEVEN_SHARES)
    least = min(n if fewest is None else fewest, len(groups))
    coalitions = tuple(
        CoalitionSpec(ms, draw(income), {m: draw(shares) for m in ms})
        for ms in draw(st.lists(
            st.sampled_from(groups), min_size=least, max_size=3 * n, unique=True
        ))
    )
    player = st.integers(min_value=0, max_value=n - 1)
    missing = draw(st.sets(st.tuples(player, player), max_size=n))
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j and (i, j) not in missing]
    return GameInstance(n=n, coalitions=coalitions), arcs


@given(dense_cases(), st.sampled_from(list(ActivationRule)))
@settings(max_examples=100, deadline=None)
def test_gray_walk_matches_combinations_walk(case, rule):
    # the reference tries the same partner sets in combinations order and
    # sums every amount from scratch, so the verdict and the whole witness
    # must agree
    inst, arcs = case
    g = matrix_of(arcs, inst.n)
    report = is_stable(inst, Network.of(inst.n, arcs), rule)
    stable, best = oracle_cut_sets(coalition_triples(inst), g, rule.value)
    assert report.stable == stable
    if not stable:
        w = report.witness
        gain, player, removed = best
        assert (w.gain, w.player, w.removed_arcs) == (gain, player, removed)
        assert w.resulting_network == Network.of(inst.n, set(arcs) - set(removed))


@given(dense_cases(max_players=14, fewest=1), st.sampled_from(list(ActivationRule)))
@settings(max_examples=100, deadline=None)
def test_reduced_search_matches_the_full_gray_walk(case, rule):
    # skipping players, keeping partners and splitting the rest into parts
    # must leave the witness as the walk over every partner set finds it;
    # the combinations walk judges both up to 9 players
    inst, arcs = case
    g = matrix_of(arcs, inst.n)
    stable, best = oracle_gray_walk(coalition_triples(inst), g, rule.value)
    if inst.n <= 9:
        assert oracle_cut_sets(coalition_triples(inst), g, rule.value) == (stable, best)
    w = is_stable(inst, Network.of(inst.n, arcs), rule).witness
    got = None if w is None else repr((w.player, w.removed_arcs, w.gain))
    assert got == (None if stable else repr((best[1], best[2], best[0])))


@st.composite
def disjoint_unions(draw):
    """Parts of up to 8 players each, at least 40 players in all."""
    parts = []
    while sum(inst.n for inst, _ in parts) < 40:
        parts.append(draw(dense_cases(max_players=8, fewest=1)))
    return parts


@given(disjoint_unions(), st.sampled_from(list(ActivationRule)))
@settings(max_examples=25, deadline=None)
def test_disjoint_union_is_judged_part_by_part(parts, rule):
    # players of different parts share no coalition, so the union is
    # stable iff every part is, and its witness is that of the first part
    # with the largest gain, relabelled
    coalitions, arcs, offset, witnesses = [], [], 0, []
    for inst, part_arcs in parts:
        coalitions += [
            CoalitionSpec(
                [m + offset for m in c.members], c.income,
                {m + offset: s for m, s in c.shares.items()},
            )
            for c in inst.coalitions
        ]
        arcs += [(i + offset, j + offset) for i, j in part_arcs]
        w = is_stable(inst, Network.of(inst.n, part_arcs), rule).witness
        if w is not None:
            moved = tuple((i + offset, j + offset) for i, j in w.removed_arcs)
            witnesses.append((-w.gain, w.player + offset, moved))
        offset += inst.n
    union = GameInstance(n=offset, coalitions=tuple(coalitions))
    report = is_stable(union, Network.of(offset, arcs), rule)
    assert report.stable == (not witnesses)
    if witnesses:
        loss, player, removed = min(witnesses)
        w = report.witness
        assert (w.gain, w.player, w.removed_arcs) == (-loss, player, removed)


@given(dense_cases(max_players=6), st.sampled_from(list(ActivationRule)), st.data())
@settings(max_examples=100, deadline=None)
def test_relabelling_the_players_permutes_the_payoffs_and_keeps_the_verdict(case, rule, data):
    # player p becomes player perm[p]; the witness player may change,
    # because ties between players are broken by index
    inst, arcs = case
    perm = data.draw(st.permutations(range(inst.n)))
    relabelled = GameInstance(n=inst.n, coalitions=tuple(
        CoalitionSpec([perm[m] for m in c.members], c.income,
                         {perm[m]: s for m, s in c.shares.items()})
        for c in inst.coalitions
    ))
    net = Network.of(inst.n, arcs)
    moved = Network.of(inst.n, [(perm[i], perm[j]) for i, j in arcs])
    payoffs, moved_payoffs = payoff_vector(inst, net, rule), payoff_vector(relabelled, moved, rule)
    assert [moved_payoffs[perm[p]] for p in range(inst.n)] == list(payoffs)
    report, moved_report = is_stable(inst, net, rule), is_stable(relabelled, moved, rule)
    assert moved_report.stable == report.stable
    if not report.stable:
        assert moved_report.witness.gain == report.witness.gain


@given(dense_cases(max_players=6), st.sampled_from(list(ActivationRule)), st.data())
@settings(max_examples=100, deadline=None)
def test_networks_with_the_same_active_coalitions_get_the_same_verdict(case, rule, data):
    # the class relation: payoffs, the verdict and the best gain depend
    # only on the set of active coalitions; the witness arcs may differ.
    # h is the symmetric network on the member pairs of g's active coalitions
    inst, arcs = case
    g = Network.of(inst.n, data.draw(st.sets(st.sampled_from(arcs))) if arcs else ())
    pairs = {pair for c in active_coalitions(inst, g, rule) for pair in c.pairs()}
    h = Network.of(inst.n, [arc for i, j in pairs for arc in ((i, j), (j, i))])
    assert _active(inst, h, rule) == _active(inst, g, rule)
    assert payoff_vector(inst, h, rule) == payoff_vector(inst, g, rule)
    report, class_report = is_stable(inst, g, rule), is_stable(inst, h, rule)
    assert class_report.stable == report.stable
    if not report.stable:
        w, v = report.witness, class_report.witness
        assert (v.gain, v.player) == (w.gain, w.player)


@pytest.mark.parametrize("rule", list(ActivationRule))
def test_worked_example_classes_of_active_coalitions(rule):
    # every symmetric network on the 5 players: 2^10 pair graphs, whose
    # active sets fall into 236 classes, 115 of them stable
    inst = worked_example()
    pairs = list(combinations(range(5), 2))
    verdicts, stable_graphs = {}, 0
    for chosen in range(1 << len(pairs)):
        linked = [p for b, p in enumerate(pairs) if chosen >> b & 1]
        g = Network.of(5, [arc for i, j in linked for arc in ((i, j), (j, i))])
        report = is_stable(inst, g, rule)
        verdict = (report.stable, None if report.stable else report.witness.gain)
        verdicts.setdefault(tuple(_active(inst, g, rule)), set()).add(verdict)
        stable_graphs += report.stable
    assert len(verdicts) == 236
    assert all(len(held) == 1 for held in verdicts.values())
    assert sum((True, None) in held for held in verdicts.values()) == 115
    assert stable_graphs == 446


@given(
    dense_cases(max_players=6),
    st.sampled_from(list(ActivationRule)),
    st.builds(Fraction, st.integers(1, 60), st.integers(1, 60)),
)
@settings(max_examples=100, deadline=None)
def test_scaling_every_income_scales_the_gain_and_keeps_the_witness(case, rule, factor):
    inst, arcs = case
    scaled = GameInstance(n=inst.n, coalitions=tuple(
        CoalitionSpec(c.members, c.income * factor, c.shares) for c in inst.coalitions
    ))
    net = Network.of(inst.n, arcs)
    report, scaled_report = is_stable(inst, net, rule), is_stable(scaled, net, rule)
    assert scaled_report.stable == report.stable
    if not report.stable:
        w, v = report.witness, scaled_report.witness
        assert (v.player, v.removed_arcs, v.gain) == (w.player, w.removed_arcs, w.gain * factor)


@pytest.mark.parametrize("k", [0, 1, 2, 7, 8, 9, 12])
def test_gray_walk_visits_every_partner_set_once(k):
    # the walk repeats a block of 255 flips between the flips of partners
    # 8 and up, so sizes on both sides of 8 are checked
    cut, visited = 0, []
    for bit in _gray_flips([1 << b for b in range(k)]):
        cut ^= bit
        visited.append(cut)
    assert sorted(visited) == list(range(1, 1 << k))


def test_walks_past_the_first_block_match_the_reference(monkeypatch):
    # complete 11-player networks with 60 coalitions: even after the
    # reductions, some players walk parts of 9 or 10 partners, past the
    # first block of 255 sets
    walked = []

    def spy(network, player, rule, partners, stakes):
        walked.append(partners.bit_count())
        return best_cut(network, player, rule, partners, stakes)

    best_cut = stability._best_cut
    monkeypatch.setattr(stability, "_best_cut", spy)
    for seed in (3, 4):
        drawn = random_instance(seed=seed, n=11, coalition_count=60, income_range=(-6, 6))
        rng = random.Random(seed)
        inst = GameInstance(n=11, coalitions=tuple(
            CoalitionSpec(c.members, c.income, {m: rng.choice(UNEVEN_SHARES) for m in c.members})
            for c in drawn.coalitions
        ))
        arcs = [(i, j) for i in range(11) for j in range(11) if i != j]
        for rule in ActivationRule:
            walked.clear()
            report = is_stable(inst, Network.of(11, arcs), rule)
            assert max(walked) >= 9
            stable, best = oracle_cut_sets(coalition_triples(inst), matrix_of(arcs, 11), rule.value)
            assert not stable
            w = report.witness
            assert (w.gain, w.player, w.removed_arcs) == best


@st.composite
def profile_batches(draw):
    """A small instance and a batch of offer/acceptance pairs: random
    parents (whose consents include diagonal ones), children in which a
    player withdraws its offers to and acceptances from some others, and
    exact duplicates, in a drawn order."""
    n = draw(st.integers(min_value=2, max_value=5))
    bit = st.integers(min_value=0, max_value=1)
    square = st.lists(st.lists(bit, min_size=n, max_size=n), min_size=n, max_size=n)
    groups = [ms for size in (2, 3) for ms in combinations(range(n), size)]
    shares = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)])
    coalitions = tuple(
        CoalitionSpec(ms, draw(st.integers(-4, 4)), {m: draw(shares) for m in ms})
        for ms in draw(st.lists(st.sampled_from(groups), min_size=1, max_size=6, unique=True))
    )
    pairs = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        offers, acceptances = draw(square), draw(square)
        pairs.append((offers, acceptances))
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            player = draw(st.integers(min_value=0, max_value=n - 1))
            o, a = [row[:] for row in offers], [row[:] for row in acceptances]
            for q in draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1)):
                o[player][q] = a[player][q] = 0
            pairs.append((o, a))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    order = draw(st.permutations(range(len(pairs))))
    return n, coalitions, [pairs[k] for k in order]


@given(profile_batches())
@settings(max_examples=150)
def test_restricted_equilibria_match_matrix_oracle(batch):
    n, coalitions, pairs = batch
    inst = GameInstance(
        n=n,
        coalitions=coalitions,
        profiles=tuple(OfferProfile(o, a) for o, a in pairs),
    )
    networks = [oracle_form(o, a) for o, a in pairs]
    for rule in ActivationRule:
        report = restricted_equilibria(inst, rule)
        equilibria, moves = oracle_restricted(coalition_triples(inst), networks, rule.value)
        assert list(report.equilibria) == equilibria
        assert [(d.source, d.target, d.player, d.gain) for d in report.deviations] == moves
        assert all(type(d.gain) is Fraction for d in report.deviations)
