"""Coalition activation and additive payoffs.

Activation depends only on the network's pair graph: the unordered
member pairs that count as linked under the rule (MUTUAL needs both
arcs of a pair, LINKED at least one).  A coalition is active when every
pair of its members is in the pair graph.  A player's payoff is the sum,
over all active coalitions the player belongs to, of the player's share
of that coalition's income; a player in no active coalition earns
exactly 0.

The pair graph is a mask, like the network it comes from: bit
low*n + high stands for the pair {low, high}.  An instance compiles its
coalitions once, on first use (`GameInstance.payoff_index`): each
coalition's pair mask, and each paid member's co-members, as a mask
with bit q for co-member q, and share × income as an int over one
common denominator.  A coalition with pair mask m is active in graph g
when `g & m == m`.  Payoffs and both
stability engines read that index: they only AND masks and add ints.
A payoff stays an int numerator over L (`_totals`) through every sum,
difference and comparison, which is exact because L > 0; only a value
that leaves the engine becomes a `Fraction`, built once per distinct
value.
"""

from __future__ import annotations

from fractions import Fraction

from .compromise import _fractions
from .formation import Arc, Network, transposed, upper
from .model import ActivationRule, CoalitionSpec, GameInstance

PayoffVector = tuple[Fraction, ...]


def pair_graph(network: Network, rule: ActivationRule) -> int:
    """The unordered pairs (low, high) that count as linked, as a mask
    with bit low*n + high for each: MUTUAL needs both arcs of the pair,
    LINKED at least one."""
    g = network.mask
    back = transposed(g, network.n)
    linked = g & back if rule is ActivationRule.MUTUAL else g | back
    return linked & upper(network.n)


def unlinking_arcs(network: Network, i: int, j: int, rule: ActivationRule) -> tuple[Arc, ...]:
    """The least arcs, sorted, whose removal takes the linked pair {i, j}
    out of the pair graph: MUTUAL removes the smaller arc, LINKED every
    present arc."""
    present = tuple(a for a in sorted([(i, j), (j, i)]) if network.has(*a))
    return present[:1] if rule is ActivationRule.MUTUAL else present


def _active(instance: GameInstance, network: Network, rule: ActivationRule) -> list[int]:
    """Positions of the active coalitions, in instance order: a coalition
    is active when the pair graph holds every pair of its members.  Every
    payoff and stability computation starts here, so this is where a
    network on the wrong number of players is refused (ValueError)."""
    if network.n != instance.n:
        raise ValueError(f"network on {network.n} players, instance has {instance.n}")
    graph = pair_graph(network, rule)
    _, entries = instance.payoff_index
    return [k for k, (pairs, _) in enumerate(entries) if graph & pairs == pairs]


def active_coalitions(
    instance: GameInstance, network: Network, rule: ActivationRule
) -> tuple[CoalitionSpec, ...]:
    """The active coalitions, in instance order."""
    return tuple(instance.coalitions[k] for k in _active(instance, network, rule))


def _totals(instance: GameInstance, network: Network, rule: ActivationRule) -> list[int]:
    """Each player's payoff as an int over the index's denominator L."""
    _, entries = instance.payoff_index
    totals = [0] * instance.n
    for k in _active(instance, network, rule):
        for m, _, w in entries[k][1]:
            totals[m] += w
    return totals


def payoff_vector(
    instance: GameInstance, network: Network, rule: ActivationRule
) -> PayoffVector:
    denominator, _ = instance.payoff_index
    totals = _totals(instance, network, rule)
    return tuple(map(_fractions(denominator, totals).__getitem__, totals))
