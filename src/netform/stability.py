"""Stability of a network against unilateral link breaking.

The only deviation a player has is to remove a nonempty subset of the
arcs they touch; adding arcs needs the other side's consent and is not a
unilateral move.  A network is stable when no such removal strictly
raises the deviating player's payoff.

Activation is read only from the pair graph (`payoffs.pair_graph`), so a
removal can only switch coalitions off, and only through the member
pairs it takes out of that graph.  Both engines build a witness the same
way: the player cuts a set of partners, removing `payoffs.unlinking_arcs`
for each.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations

from .formation import Arc, Network, form_network, remove_arcs
from .model import ActivationRule, CoalitionSpec, GameInstance
from .payoffs import active_coalitions, payoff_vector, unlinking_arcs

# Largest number of cut sets `is_stable` will try, summed over players.
# At about 25 microseconds per cut set this is about 30 s of search.
MAX_CUT_SETS = 2**20


@dataclass(frozen=True)
class Deviation:
    """One improving move: a player, the arcs removed, the network left
    behind, and the exact payoff gain (always positive)."""

    player: int
    removed_arcs: tuple[Arc, ...]
    resulting_network: Network
    gain: Fraction


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    witness: Deviation | None

    def __post_init__(self) -> None:
        if self.stable and self.witness is not None:
            raise ValueError("stable report cannot carry a witness")


class OverlappingCoalitionsError(ValueError):
    """Raised when the fast stability criterion is asked to run on an
    instance whose coalitions do not have pairwise-disjoint arc sets."""

    def __init__(self, first: CoalitionSpec, second: CoalitionSpec):
        self.first = first
        self.second = second
        super().__init__(
            f"coalitions {first.label()} and {second.label()} share a member pair"
        )


def find_overlapping_pair(
    instance: GameInstance,
) -> tuple[CoalitionSpec, CoalitionSpec] | None:
    """First pair of coalitions whose arc sets intersect, if any.

    Two coalitions use a common arc exactly when they share at least two
    members, so this is a pure member-set test.
    """
    for a in range(len(instance.coalitions)):
        for b in range(a + 1, len(instance.coalitions)):
            ca, cb = instance.coalitions[a], instance.coalitions[b]
            if len(ca.member_set() & cb.member_set()) >= 2:
                return ca, cb
    return None


def is_stable(
    instance: GameInstance, network: Network, rule: ActivationRule
) -> StabilityReport:
    """Exact stability check over every break deviation.

    A player p can only unlink pairs (p, q), so a deviation matters only
    through the set S of co-members it cuts off.  S ranges over the
    nonempty subsets of Q, the co-members of p in the active coalitions
    that pay p a nonzero amount: 2^|Q| sets per player.  The arcs removed
    are the fewest that cut S: `unlinking_arcs` for each q in S.

    When unstable, the witness is the deviation with the largest gain;
    ties go to the lowest player index, then to the fewest removed arcs,
    then lexicographically by arc list.  Raises ValueError, before any
    search, when the players' cut sets add up to more than MAX_CUT_SETS.
    """
    if network.n != instance.n:
        raise ValueError(
            f"network on {network.n} players, instance has {instance.n}"
        )
    active = active_coalitions(instance, network, rule)
    searches = []
    for player in range(instance.n):
        stakes = [
            (c.member_set() - {player}, c.share_of(player) * c.income)
            for c in active
            if player in c.members and c.income != 0 and c.share_of(player) != 0
        ]
        partners = sorted(set().union(*(others for others, _ in stakes)))
        searches.append((player, stakes, partners))
    total = sum(2 ** len(partners) - 1 for _, _, partners in searches)
    if total > MAX_CUT_SETS:
        raise ValueError(
            f"stability search needs {total} cut sets, more than the "
            f"limit of {MAX_CUT_SETS}"
        )
    best = None  # (-gain, player, len(removed), removed): the least key wins
    for player, stakes, partners in searches:
        arcs_to = {q: unlinking_arcs(network, player, q, rule) for q in partners}
        # walked lazily: the least key does not depend on the visiting order
        cuts = chain.from_iterable(
            combinations(partners, k) for k in range(1, len(partners) + 1)
        )
        for cut in cuts:
            gain = -sum(w for others, w in stakes if not others.isdisjoint(cut))
            if gain <= 0:
                continue
            removed = tuple(sorted(a for q in cut for a in arcs_to[q]))
            key = (-gain, player, len(removed), removed)
            if best is None or key < best:
                best = key
    if best is None:
        return StabilityReport(stable=True, witness=None)
    loss, player, _, removed = best
    return StabilityReport(
        stable=False,
        witness=Deviation(
            player=player,
            removed_arcs=removed,
            resulting_network=remove_arcs(network, removed),
            gain=-loss,
        ),
    )


def check_disjoint_stability(
    instance: GameInstance, network: Network, rule: ActivationRule
) -> StabilityReport:
    """Fast stability verdict for instances whose coalitions have
    pairwise-disjoint arc sets: the network is stable exactly when every
    active coalition with a positive-share member has nonnegative income.

    The witness for an unstable network is the first such coalition's
    lowest positive-share member p cutting its lowest fellow member q
    with the fewest arcs, `unlinking_arcs` as in `is_stable`.  No other
    coalition holds the pair {p, q}, so the cut deactivates that
    coalition alone and p gains minus its share of the income.  The
    gain is at most that of `is_stable`'s witness.  Raises
    OverlappingCoalitionsError when the disjointness precondition fails,
    naming the offending pair.
    """
    if network.n != instance.n:
        raise ValueError(
            f"network on {network.n} players, instance has {instance.n}"
        )
    overlap = find_overlapping_pair(instance)
    if overlap is not None:
        raise OverlappingCoalitionsError(*overlap)
    # a coalition whose shares are all 0 pays nobody, so nobody gains by
    # switching it off: it counts only with a positive-share member
    negatives = [
        c
        for c in active_coalitions(instance, network, rule)
        if c.income < 0 and any(c.share_of(m) > 0 for m in c.members)
    ]
    if not negatives:
        return StabilityReport(stable=True, witness=None)
    c = negatives[0]
    p = min(m for m in c.members if c.share_of(m) > 0)
    q = min(m for m in c.members if m != p)
    removed = unlinking_arcs(network, p, q, rule)
    witness = Deviation(
        player=p,
        removed_arcs=removed,
        resulting_network=remove_arcs(network, removed),
        gain=-c.share_of(p) * c.income,
    )
    return StabilityReport(stable=False, witness=witness)


@dataclass(frozen=True)
class ReachableDeviation:
    """A strictly improving one-player move between two stored profiles'
    networks: the target equals the source minus arcs all touching that
    player."""

    source: int
    target: int
    player: int
    gain: Fraction


@dataclass(frozen=True)
class RestrictedEquilibriaReport:
    equilibria: tuple[int, ...]
    deviations: tuple[ReachableDeviation, ...]


def restricted_equilibria(
    instance: GameInstance, rule: ActivationRule
) -> RestrictedEquilibriaReport:
    """Equilibria when deviations are restricted to the stored profiles.

    A profile's network is compared against every other stored profile's
    network; the move counts when the target network is the source minus
    a nonempty arc set that is entirely incident to a single player.
    Only strictly improving moves are reported.
    """
    networks = [form_network(p) for p in instance.profiles]
    payoffs = [payoff_vector(instance, g, rule) for g in networks]
    found: list[ReachableDeviation] = []
    for s, gs in enumerate(networks):
        for t, gt in enumerate(networks):
            if s == t or not gt.arcs < gs.arcs:
                continue
            removed = gs.arcs - gt.arcs
            for player in range(instance.n):
                if not all(player in arc for arc in removed):
                    continue
                gain = payoffs[t][player] - payoffs[s][player]
                if gain > 0:
                    found.append(ReachableDeviation(s, t, player, gain))
    found.sort(key=lambda d: (d.source, d.target, d.player))
    losers = {d.source for d in found}
    equilibria = tuple(s for s in range(len(networks)) if s not in losers)
    return RestrictedEquilibriaReport(equilibria, tuple(found))
