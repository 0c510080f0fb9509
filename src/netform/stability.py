"""Stability of a network against unilateral link breaking.

The engine judges break deviations only: a player removes a nonempty
subset of the arcs they touch.  It does not judge a player adding an arc
whose other side already consents (an offer the other side accepts, or
an acceptance of the other side's offer), though such a move is
unilateral too.  A network is stable here when no removal strictly
raises the deviating player's payoff.

Activation is read only from the pair graph (`payoffs.pair_graph`), so a
removal can only switch coalitions off, and only through the member
pairs it takes out of that graph.  Both engines judge a move by the
same integer stakes, read from `GameInstance.payoff_index`, and build a
witness the same way: the player cuts a set of partners, removing
`payoffs.unlinking_arcs` for each.
"""

from __future__ import annotations

from fractions import Fraction

from .formation import Arc, Network, common_ends, form_network, remove_arcs
from .model import ActivationRule, CoalitionSpec, GameInstance
from .payoffs import _active, _table, unlinking_arcs
from .record import record

# Largest number of cut sets `is_stable` will try: 2^|part| − 1 per part
# of partners left after the reductions, summed over parts and players.
# At the accepted edge, one part of 20 partners (1,048,575 cut sets: the
# hub of 19 chained losing triples on a complete 21-player network) is
# searched in 0.19–0.24 s on an Intel Xeon vCPU under either rule, and
# `equilibria --mode full` on it exits in 0.25–0.37 s.
MAX_CUT_SETS = 2**20

# Most ordered pairs of stored profiles, P·(P−1), that
# `restricted_equilibria` compares.  At the limit, 362 two-player
# profiles with a move in half the pairs (65,522 moves) print 6.1 MB of
# JSON in about 1.1 s and 105 MB peak RSS on an Intel Xeon vCPU.
MAX_PROFILE_PAIRS = 2**17

# The partner that step i (from 1) of a Gray-code walk flips: the number
# of trailing zeros of i.  Every walk starts with these 255 steps.
_RULER = tuple((i & -i).bit_length() - 1 for i in range(1, 256))


@record
class Deviation:
    """One improving move: a player, the arcs removed, the network left
    behind, and the exact payoff gain (always positive)."""

    player: int
    removed_arcs: tuple[Arc, ...]
    resulting_network: Network
    gain: Fraction


@record
class StabilityReport:
    """A stability verdict and, for an unstable network, its witness."""

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
    """First pair of coalitions whose arc sets intersect, if any, in
    lexicographic order of their positions.

    Two coalitions use a common arc exactly when they hold a common
    member pair, so one pass maps each pair to its first holder.
    """
    first: dict[tuple[int, int], int] = {}
    overlaps = []
    for k, c in enumerate(instance.coalitions):
        for pair in c.pairs():
            holder = first.setdefault(pair, k)
            if holder != k:
                overlaps.append((holder, k))
    if not overlaps:
        return None
    a, b = min(overlaps)
    return instance.coalitions[a], instance.coalitions[b]


def _unstable(
    network: Network, player: int, removed: tuple[Arc, ...], paid: int, denominator: int
) -> StabilityReport:
    """The unstable verdict whose witness has `player` remove the arcs
    `removed`, stopping payments to them worth `paid` (negative) over L."""
    gain = Fraction(-paid, denominator)
    return StabilityReport(False, Deviation(player, removed, remove_arcs(network, removed), gain))


def _gray_flips(flips: list):
    """One entry of `flips` per step of a Gray-code walk over its
    nonempty subsets: step i flips entry number (trailing zeros of i),
    so the walk visits every subset once.  Only the first 255 steps are
    held, and they repeat between the flips of entries 8 and up."""
    low = [flips[b] for b in _RULER[: (1 << min(len(flips), 8)) - 1]]
    yield from low
    for j in range(1, 1 << max(len(flips) - 8, 0)):
        yield flips[8 + (j & -j).bit_length() - 1]
        yield from low


def _stake_table(instance: GameInstance, network: Network, rule: ActivationRule) -> list:
    """What each player's search walks: per player, `(floor, parts)`.
    The floor is the sum of the player's negative stakes, so no cut set
    pays less.  Each part is `(partners, stakes)`, the partners a mask
    with bit q for partner q and each stake `(mask of its co-members
    among them, amount × L)`.  Built from the active coalitions' int
    stakes in `GameInstance.payoff_index`, with three exact reductions:
    - a partner that holds no negative stake is never cut: adding it to
      a cut set stops only stakes that pay, and removes more arcs.  A
      stake whose co-members are all such partners is never stopped;
    - so a player with no negative stake has no part, and is not searched;
    - two partners fall in the same part when one stake holds both.  A
      cut set then stops, in each part, what its members in that part
      stop, so each part is searched on its own.
    """
    _, entries = instance.payoff_index
    stakes = [[] for _ in range(instance.n)]  # per player: (co-members, amount × L)
    cuttable = [0] * instance.n  # per player: who holds a negative stake
    floors = [0] * instance.n  # per player: the sum of its negative stakes
    for k in _active(instance, network, rule):
        for m, others, w in entries[k][1]:
            stakes[m].append((others, w))
            if w < 0:
                cuttable[m] |= others
                floors[m] += w
    table = []
    for ws, cut, floor in zip(stakes, cuttable, floors):
        parts = {}  # partners: stakes, the partner masks disjoint
        for others, w in ws if cut else ():
            held = others & cut
            if held:  # one part holds this stake and every part it meets
                through = [(held, w)]
                for partners in [partners for partners in parts if partners & held]:
                    held |= partners
                    through += parts.pop(partners)
                parts[held] = through
        table.append((floor, list(parts.items())))
    return table


def _best_cut(network: Network, player: int, rule: ActivationRule, partners: int, stakes):
    """The least `(paid, arc count, removed arcs)` over the nonempty sets
    of `partners` that `player` can cut and that pay a negative amount,
    or None.

    The sets are walked in Gray-code order over the partners' bits,
    lowest first: each step flips one of them into or out of S.  A stake
    stops being paid when S first meets its co-members, so a flip of q
    changes the amount paid only through the stakes that hold q and no
    other member of S.  The arcs of a set are built only when it pays at
    most the best set found so far."""
    # per partner bit q: what p stops being paid when q joins an S holding
    # none of a stake's other co-members, split into the stakes that
    # q alone holds and (mask of the others, amount) for the rest
    bits, rest = [], partners  # each partner's bit, lowest first
    while rest:
        bits.append(rest & -rest)
        rest &= rest - 1
    alone = dict.fromkeys(bits, 0)
    shared = {bit: [] for bit in bits}
    for held, w in stakes:
        for bit in bits:
            if held == bit:
                alone[bit] += w
            elif held & bit:
                shared[bit].append((held ^ bit, w))
    flips = [(bit, alone[bit], shared[bit]) for bit in bits]
    arcs_to = None  # (bit, `unlinking_arcs`) per partner, once a set is tried
    # a set is tried when it pays at most `limit`, and when it pays
    # exactly that, removes at most `most` arcs
    limit, most = -1, network.n**2
    best = None
    cut = paid = 0
    for bit, change, through in _gray_flips(flips):
        cut ^= bit
        for rest, w in through:
            if not cut & rest:
                change += w
        if cut & bit:
            paid += change
        else:
            paid -= change
        if paid > limit:
            continue
        if arcs_to is None:
            arcs_to = [(b, unlinking_arcs(network, player, b.bit_length() - 1, rule)) for b in bits]
            double = sum(b for b, arcs in arcs_to if len(arcs) == 2)
        size = cut.bit_count() + (cut & double).bit_count()
        if paid == limit and size > most:
            continue
        removed = tuple(sorted(a for b, arcs in arcs_to if cut & b for a in arcs))
        key = (paid, size, removed)
        if best is None or key < best:
            best = key
            limit, most = paid, size
    return best


def is_stable(
    instance: GameInstance, network: Network, rule: ActivationRule
) -> StabilityReport:
    """Exact stability check over every break deviation.

    A player p can only unlink pairs (p, q), so a deviation matters only
    through the set S of co-members it cuts off.  The arcs removed are
    the fewest that cut S: `unlinking_arcs` for each q in S.  Cutting S
    stops every stake of p whose co-members meet S, so p's best S is a
    quadratic pseudo-Boolean minimisation over the partners.
    `_stake_table` reduces it exactly: partners that hold only positive
    stakes are never cut, a player with no negative stake is not
    searched, and the partners left split into parts that no stake
    joins.  Each part's nonempty subsets are walked by `_best_cut`, which
    gives the part's least `(paid, arc count, arcs)` among the sets that
    gain, and the parts' bests combine: their amounts and arc counts
    add, and their arc lists merge.  A player whose negative stakes add
    up to no less than the best amount found so far cannot beat it, and
    is not walked.

    When unstable, the witness is the deviation with the largest gain;
    ties go to the lowest player index, then to the fewest removed arcs,
    then lexicographically by arc list.  Each part's best is the least
    of its own such keys, and the merge of the parts' least arc lists is
    the least merge, so the combined witness is the same; an earlier
    player keeps its ties, as the player is part of the key.  Raises
    ValueError, before any search, when the parts' cut sets, 2^|part| − 1
    each, add up to more than MAX_CUT_SETS over all players.
    """
    table = _stake_table(instance, network, rule)
    total = sum(2 ** partners.bit_count() - 1 for _, parts in table for partners, _ in parts)
    if total > MAX_CUT_SETS:
        raise ValueError(
            f"stability search needs {total} cut sets over its partners worth "
            f"cutting, more than the limit of {MAX_CUT_SETS}"
        )
    best = None  # (paid, player, len(removed), removed): the least key wins
    for player, (floor, parts) in enumerate(table):
        if best is not None and floor >= best[0]:
            continue  # no set pays less than the best so far
        found = [f for f in (_best_cut(network, player, rule, *part) for part in parts) if f]
        if found:
            paid = sum(f[0] for f in found)
            removed = tuple(sorted(a for f in found for a in f[2]))
            key = (paid, player, len(removed), removed)
            if best is None or key < best:
                best = key
    if best is None:
        return StabilityReport(stable=True, witness=None)
    paid, player, _, removed = best
    denominator, _ = instance.payoff_index
    return _unstable(network, player, removed, paid, denominator)


def check_disjoint_stability(
    instance: GameInstance, network: Network, rule: ActivationRule
) -> StabilityReport:
    """Fast stability verdict for instances whose coalitions have
    pairwise-disjoint arc sets: the network is stable exactly when no
    active coalition pays any member a negative amount.  Shares are
    never negative on an instance that `validate_instance` accepts, so
    there a negative amount means exactly a negative income with a
    positive share; a coalition whose shares are all 0 pays nobody and
    never counts.

    The witness for an unstable network is the first such coalition's
    lowest negatively-paid member p cutting its lowest fellow member q
    with the fewest arcs, `unlinking_arcs` as in `is_stable`.  No other
    coalition holds the pair {p, q}, so the cut deactivates that
    coalition alone and p gains minus its share of the income.  The
    gain is at most that of `is_stable`'s witness.  Raises
    OverlappingCoalitionsError when the disjointness precondition fails,
    naming the offending pair.
    """
    active = _active(instance, network, rule)
    overlap = find_overlapping_pair(instance)
    if overlap is not None:
        raise OverlappingCoalitionsError(*overlap)
    denominator, entries = instance.payoff_index
    for k in active:
        losers = [(m, others, w) for m, others, w in entries[k][1] if w < 0]
        if losers:
            p, others, w = min(losers, key=lambda stake: stake[0])
            removed = unlinking_arcs(network, p, (others & -others).bit_length() - 1, rule)
            return _unstable(network, p, removed, w, denominator)
    return StabilityReport(stable=True, witness=None)


@record
class ReachableDeviation:
    """A strictly improving one-player move between two stored profiles'
    networks: the target equals the source minus arcs all touching that
    player."""

    source: int
    target: int
    player: int
    gain: Fraction


@record
class RestrictedEquilibriaReport:
    """The stored profiles that are equilibria and every improving move found."""

    equilibria: tuple[int, ...]
    deviations: tuple[ReachableDeviation, ...]


def restricted_equilibria(
    instance: GameInstance, rule: ActivationRule
) -> RestrictedEquilibriaReport:
    """Equilibria when deviations are restricted to the stored profiles.

    A profile's network is compared against every other stored profile's
    network; the move counts when the target network is the source minus
    a nonempty arc set that is entirely incident to a single player.
    Only strictly improving moves are reported.  Both tests are on masks:
    the target t is a proper part of the source s when it holds fewer
    arcs and `t & s == t`, and the removed arcs all touch p for each p
    of their `formation.common_ends`, at most the two ends of the lowest
    one.  Each mask's arc count is taken once.
    Payoffs are paid in one `payoffs._table` over every stored network
    and compared as ints over the index's denominator L; a reported gain
    becomes a `Fraction` over L.  Raises ValueError, before forming any
    network, when there are more than MAX_PROFILE_PAIRS ordered pairs of
    profiles.
    """
    pairs = len(instance.profiles) * (len(instance.profiles) - 1)
    if pairs > MAX_PROFILE_PAIRS:
        raise ValueError(
            f"restricted search compares {pairs} profile pairs, more than the "
            f"limit of {MAX_PROFILE_PAIRS}"
        )
    denominator, _ = instance.payoff_index
    networks = [form_network(p) for p in instance.profiles]
    payoffs = _table(instance, networks, rule)
    masks = [g.mask for g in networks]
    sizes = [g.bit_count() for g in masks]
    found: list[ReachableDeviation] = []
    for s, gs in enumerate(masks):
        size = sizes[s]
        for t, gt in enumerate(masks):
            if sizes[t] >= size or gt & gs != gt:  # not a proper subnetwork
                continue
            for player in common_ends(gs ^ gt, instance.n):
                gain = payoffs[t][player] - payoffs[s][player]
                if gain > 0:
                    found.append(ReachableDeviation(s, t, player, Fraction(gain, denominator)))
    losers = {d.source for d in found}
    equilibria = tuple(s for s in range(len(networks)) if s not in losers)
    return RestrictedEquilibriaReport(equilibria, tuple(found))
