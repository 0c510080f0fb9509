"""Coalition activation and additive payoffs.

Activation depends only on the network's pair graph: the unordered
member pairs that count as linked under the rule (MUTUAL needs both
arcs of a pair, LINKED at least one).  A coalition is active when every
pair of its members is in the pair graph.  A player's payoff is the sum,
over all active coalitions the player belongs to, of the player's share
of that coalition's income; a player in no active coalition earns
exactly 0.
"""

from __future__ import annotations

from fractions import Fraction

from .formation import Arc, Network, form_network
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


def is_active(coalition: CoalitionSpec, network: Network, rule: ActivationRule) -> bool:
    """Whether a coalition is active in a network under the given rule."""
    return pair_graph(network, rule).issuperset(coalition.pairs())


def active_coalitions(
    instance: GameInstance, network: Network, rule: ActivationRule
) -> tuple[CoalitionSpec, ...]:
    """The active coalitions, in instance order."""
    graph = pair_graph(network, rule)
    return tuple(c for c in instance.coalitions if graph.issuperset(c.pairs()))


def payoff_vector(
    instance: GameInstance, network: Network, rule: ActivationRule
) -> PayoffVector:
    totals = [Fraction(0)] * instance.n
    for c in active_coalitions(instance, network, rule):
        for m in c.members:
            totals[m] += c.share_of(m) * c.income
    return tuple(totals)


def profile_payoffs(
    instance: GameInstance, rule: ActivationRule
) -> tuple[PayoffVector, ...]:
    """Payoff vector of every stored profile's formed network, in order."""
    return tuple(
        payoff_vector(instance, form_network(p), rule) for p in instance.profiles
    )
