"""Coalition activation and additive payoffs.

A player's payoff in a network is the sum, over all active coalitions the
player belongs to, of the player's share of that coalition's income.
Inactive coalitions contribute nothing; a player in no active coalition
earns exactly 0.
"""

from __future__ import annotations

from fractions import Fraction

from .formation import Network, form_network
from .model import ActivationRule, CoalitionSpec, GameInstance

PayoffVector = tuple[Fraction, ...]


def is_active(coalition: CoalitionSpec, network: Network, rule: ActivationRule) -> bool:
    """Whether a coalition is active in a network under the given rule."""
    if rule is ActivationRule.MUTUAL:
        return all(
            (i, j) in network.arcs and (j, i) in network.arcs
            for i, j in coalition.pairs()
        )
    return all(network.linked(i, j) for i, j in coalition.pairs())


def active_coalitions(
    instance: GameInstance, network: Network, rule: ActivationRule
) -> tuple[CoalitionSpec, ...]:
    """The active coalitions, in instance order."""
    return tuple(c for c in instance.coalitions if is_active(c, network, rule))


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
