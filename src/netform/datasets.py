"""Bundled instances and a seeded random-instance generator.

The two bundled instances are kept digit-for-digit as published in their
source tables, including a share column that does not sum to 1; they are
loaded leniently on purpose.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
import random

from .formation import OfferProfile
from .model import ActivationRule, CoalitionSpec, GameInstance


def _c(members, income, shares=None) -> CoalitionSpec:
    # tables are written 1-based; shift once here
    if shares is not None:
        shares = {m - 1: s for m, s in shares.items()}
    return CoalitionSpec.of(tuple(m - 1 for m in members), income, shares)


_F = Fraction

# offers and acceptances for ten action profiles, in profile order
_PROFILES = [
    (
        [[0, 1, 1, 1, 1], [0, 0, 0, 0, 0], [0, 1, 0, 1, 0], [0, 1, 0, 0, 0], [0, 1, 0, 1, 0]],
        [[0, 0, 0, 0, 0], [0, 0, 0, 0, 1], [1, 0, 0, 0, 0], [1, 0, 1, 0, 1], [1, 0, 0, 0, 0]],
    ),
    (
        [[0, 0, 1, 1, 1], [1, 0, 0, 0, 0], [0, 1, 0, 1, 1], [0, 1, 0, 0, 1], [0, 1, 0, 0, 0]],
        [[0, 0, 0, 0, 0], [0, 0, 1, 1, 1], [1, 0, 0, 0, 0], [1, 0, 1, 0, 0], [1, 0, 1, 0, 0]],
    ),
    (
        [[0, 0, 1, 0, 0], [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [1, 1, 0, 0, 0], [0, 1, 0, 1, 0]],
        [[0, 1, 0, 0, 0], [0, 0, 1, 1, 1], [1, 0, 0, 0, 0], [0, 0, 1, 0, 1], [1, 0, 1, 0, 0]],
    ),
    (
        [[0, 0, 0, 1, 1], [1, 0, 0, 1, 0], [1, 1, 0, 1, 1], [0, 0, 0, 0, 1], [0, 1, 0, 0, 0]],
        [[0, 0, 0, 0, 0], [0, 0, 1, 0, 1], [0, 0, 0, 0, 0], [1, 1, 1, 0, 0], [1, 0, 0, 1, 0]],
    ),
    (
        [[0, 1, 1, 1, 1], [0, 0, 0, 0, 0], [0, 1, 0, 1, 1], [0, 1, 0, 0, 1], [0, 1, 0, 0, 0]],
        [[0, 0, 0, 0, 0], [1, 0, 1, 1, 1], [1, 0, 0, 0, 0], [1, 0, 1, 0, 0], [1, 0, 1, 1, 0]],
    ),
    (
        [[0, 1, 0, 1, 0], [0, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 1, 1, 0, 0], [0, 1, 0, 1, 0]],
        [[0, 0, 0, 0, 0], [1, 0, 0, 1, 1], [0, 0, 0, 0, 0], [1, 0, 0, 0, 0], [1, 0, 0, 0, 0]],
    ),
    (
        [[0, 0, 1, 1, 0], [0, 0, 0, 1, 1], [0, 1, 0, 0, 1], [0, 0, 0, 0, 1], [0, 0, 0, 0, 0]],
        [[0, 0, 0, 0, 1], [0, 0, 1, 0, 0], [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 1, 0, 1, 0]],
    ),
    (
        [[0, 1, 1, 1, 1], [0, 0, 1, 0, 1], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 1, 1, 0]],
        [[0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 1, 0, 0, 1], [1, 0, 0, 0, 1], [1, 1, 0, 0, 0]],
    ),
    (
        [[0, 0, 0, 0, 0], [0, 0, 0, 0, 1], [1, 1, 0, 0, 0], [1, 1, 1, 0, 1], [1, 0, 0, 0, 0]],
        [[0, 0, 0, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 1, 0, 1, 0]],
    ),
    (
        [[0, 0, 0, 0, 0], [0, 0, 0, 1, 1], [0, 1, 1, 1, 0], [1, 0, 0, 0, 1], [0, 1, 0, 0, 0]],
        [[0, 0, 0, 0, 0], [0, 0, 1, 0, 1], [0, 0, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 1, 1, 0]],
    ),
]

# twelve coalitions; shares kept exactly as published (one triple's shares
# sum to 5/4, which lenient validation reports as a warning)
_COALITIONS = [
    _c((1, 3, 4), 4, {1: _F(1, 2), 3: _F(1, 4), 4: _F(1, 4)}),
    _c((2, 5, 4), 3, {2: _F(1, 3), 5: _F(1, 3), 4: _F(1, 3)}),
    _c((1, 4, 5), 6, {1: _F(1, 3), 4: _F(1, 3), 5: _F(1, 3)}),
    _c((1, 3, 5), 8, {1: _F(1, 2), 3: _F(1, 4), 5: _F(1, 4)}),
    _c((3, 4, 2), 4, {3: _F(1, 4), 4: _F(1, 4), 2: _F(1, 2)}),
    _c((1, 2, 5), 12, {1: _F(2, 4), 2: _F(1, 4), 5: _F(1, 4)}),
    _c((1, 4, 2), 8, {1: _F(1, 4), 4: _F(1, 2), 2: _F(1, 2)}),
    _c((3, 4, 5), 18, {3: _F(1, 3), 4: _F(1, 3), 5: _F(1, 3)}),
    _c((3, 5, 2), 16, {3: _F(1, 2), 5: _F(1, 4), 2: _F(1, 4)}),
    _c((3, 2, 1), 21, {3: _F(1, 3), 2: _F(1, 3), 1: _F(1, 3)}),
    _c((1, 3), -2),
    _c((1, 4), -6),
]

# reference payoff table, one row per profile, as published
_REFERENCE_PAYOFFS = [
    [4, 1, 1, 4, 3],
    [6, 2, 4, 2, 2],
    [7, 6, 3, 2, 6],
    [2, 3, 1, 4, 3],
    [23, 21, 26, 15, 22],
    [8, 9, 1, 5, 3],
    [0, 1, 0, 1, 1],
    [2, 4, 8, 2, 6],
    [2, 1, 1, 2, 1],
    [0, 3, 7, 8, 7],
]


def worked_example() -> GameInstance:
    """Five players, twelve coalitions (two with negative income), ten
    offer/acceptance profiles, and a reference payoff table.

    Activation defaults to LINKED, the reading that reproduces the
    table's self-consistent entries; the table also has a few entries
    that disagree with any recomputation (see the tests for the list).
    """
    return GameInstance(
        n=5,
        coalitions=tuple(_COALITIONS),
        profiles=tuple(OfferProfile.of(o, a) for o, a in _PROFILES),
        payoff_matrix=tuple(
            tuple(Fraction(v) for v in row) for row in _REFERENCE_PAYOFFS
        ),
        default_rule=ActivationRule.LINKED,
    )


# unordered pairs of the symmetric companion network, 1-based
_INTERSECTING_PAIRS = [
    (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 4), (3, 5), (4, 5),
]


def intersecting_example() -> GameInstance:
    """Five players and four overlapping triple coalitions, one of them
    with negative income, every share 1/3.

    Because the coalitions overlap, the fast disjoint stability criterion
    refuses this instance; brute force still shows that the companion
    network, formed by its one profile, is stable.  Activation defaults
    to MUTUAL, matching the all-links-present reading of its source.
    """
    adjacency = [[0] * 5 for _ in range(5)]
    for a, b in _INTERSECTING_PAIRS:
        adjacency[a - 1][b - 1] = 1
        adjacency[b - 1][a - 1] = 1
    profile = OfferProfile.of(adjacency, adjacency)
    return GameInstance(
        n=5,
        coalitions=(
            _c((1, 2, 3), 2),
            _c((1, 3, 4), -1),
            _c((1, 4, 5), 2),
            _c((3, 4, 5), 2),
        ),
        profiles=(profile,),
        default_rule=ActivationRule.MUTUAL,
    )


BUILTIN = {
    "worked-example": worked_example,
    "intersecting-example": intersecting_example,
}


# most candidate coalitions, C(n, 2) + C(n, 3), that random_instance
# builds before it samples: at most 181 players
MAX_CANDIDATES = 10 ** 6


def random_instance(
    seed: int,
    n: int = 5,
    coalition_count: int = 4,
    income_range: tuple[int, int] = (-5, 5),
    disjoint: bool = False,
) -> GameInstance:
    """Deterministic random instance: distinct 2- and 3-member coalitions
    with integer incomes and even shares.

    With disjoint=True the coalitions are constrained to pairwise share
    at most one member, so the fast stability criterion applies.  Raises
    ValueError when the requested count cannot be met, or when the
    players would give more than MAX_CANDIDATES candidates.
    """
    if n < 2:
        raise ValueError(f"need at least 2 players, got {n}")
    if coalition_count < 0:
        raise ValueError(f"coalition count must be nonnegative, got {coalition_count}")
    lo, hi = income_range
    if lo > hi:
        raise ValueError(f"empty income range ({lo}, {hi})")
    total = comb(n, 2) + comb(n, 3)
    if total > MAX_CANDIDATES:
        raise ValueError(
            f"{n} players give {total} candidate coalitions, over the limit "
            f"of {MAX_CANDIDATES}"
        )
    rng = random.Random(seed)
    candidates = [tuple(c) for c in combinations(range(n), 2)]
    candidates += [tuple(c) for c in combinations(range(n), 3)]
    if coalition_count > total:
        raise ValueError(
            f"only {total} distinct coalitions exist on {n} players, "
            f"cannot pick {coalition_count}"
        )
    if disjoint:
        rng.shuffle(candidates)
        chosen: list[tuple[int, ...]] = []
        for cand in candidates:
            if len(chosen) == coalition_count:
                break
            if all(len(set(cand) & set(kept)) < 2 for kept in chosen):
                chosen.append(cand)
        if len(chosen) < coalition_count:
            raise ValueError(
                f"could not pick {coalition_count} pairwise-disjoint coalitions "
                f"on {n} players (got {len(chosen)})"
            )
    else:
        chosen = rng.sample(candidates, coalition_count)
    coalitions = tuple(
        CoalitionSpec.of(members, Fraction(rng.randint(lo, hi)))
        for members in chosen
    )
    return GameInstance(n=n, coalitions=coalitions)
