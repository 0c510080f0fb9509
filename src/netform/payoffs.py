"""Coalition activation and additive payoffs.

Activation depends only on the network's pair graph: the unordered
member pairs that count as linked under the rule (MUTUAL needs both
arcs of a pair, LINKED at least one).  A coalition is active when every
pair of its members is in the pair graph.  A player's payoff is the sum,
over all active coalitions the player belongs to, of the player's share
of that coalition's income; a player in no active coalition earns
exactly 0.

An instance compiles its coalitions once, on first use
(`GameInstance.payoff_index`): each coalition's member pairs, and each
paid member's co-members and share × income as an int over one common
denominator.  Payoffs and both stability engines read that index: they
only test pairs against the graph and add ints, and the totals become
exact `Fraction`s again at the end.
"""

from __future__ import annotations

from fractions import Fraction

from .formation import Arc, Network
from .model import ActivationRule, CoalitionSpec, GameInstance

PayoffVector = tuple[Fraction, ...]


def pair_graph(network: Network, rule: ActivationRule) -> frozenset[tuple[int, int]]:
    """The unordered pairs (low, high) that count as linked: MUTUAL needs
    both arcs of the pair, LINKED at least one."""
    arcs = network.arcs
    if rule is ActivationRule.MUTUAL:
        return frozenset((i, j) for i, j in arcs if i < j and (j, i) in arcs)
    return frozenset((i, j) if i < j else (j, i) for i, j in arcs)


def unlinking_arcs(network: Network, i: int, j: int, rule: ActivationRule) -> tuple[Arc, ...]:
    """The least arcs, sorted, whose removal takes the linked pair {i, j}
    out of the pair graph: MUTUAL removes the smaller arc, LINKED every
    present arc."""
    present = tuple(a for a in sorted([(i, j), (j, i)]) if a in network.arcs)
    return present[:1] if rule is ActivationRule.MUTUAL else present


def _active(instance: GameInstance, network: Network, rule: ActivationRule) -> list[int]:
    """Positions of the active coalitions, in instance order: a coalition
    is active when the pair graph holds every pair of its members."""
    graph = pair_graph(network, rule)
    _, entries = instance.payoff_index
    return [k for k, (pairs, _) in enumerate(entries) if graph.issuperset(pairs)]


def active_coalitions(
    instance: GameInstance, network: Network, rule: ActivationRule
) -> tuple[CoalitionSpec, ...]:
    """The active coalitions, in instance order."""
    return tuple(instance.coalitions[k] for k in _active(instance, network, rule))


def payoff_vector(
    instance: GameInstance, network: Network, rule: ActivationRule
) -> PayoffVector:
    denominator, entries = instance.payoff_index
    totals = [0] * instance.n
    for k in _active(instance, network, rule):
        for m, _, w in entries[k][1]:
            totals[m] += w
    return tuple(Fraction(t, denominator) for t in totals)
