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
when `g & m == m`.

That test reads one network at a time, and one network is all that
`payoff_vector`, `is_stable` and `check_disjoint_stability` are given.
A list of networks (`payoff_vectors`, `_table`) is tested the other way
round, by columns: for each member pair a paid coalition uses, one int
holds, as bit k, whether network k's pair graph links that pair, so one
AND of a coalition's pair columns gives every network it is active in,
and it pays only those.  On 200 networks of 40 players and 300 coalitions
that takes about a third of the time of 200 mask tests; on one network
it takes many times longer, so the call shape, one network or a list,
picks the form.  Both read the index: they only AND masks and add ints.
The stored profiles' table under a rule is built once per instance
(`GameInstance.linked_table` and `mutual_table`, over its `networks`),
so every command that pays them in one process reads the same one
(`stored_payoffs`); `payoff_vectors` pays any list afresh.
A payoff stays an int numerator over L (`_totals`) through every sum,
difference and comparison, which is exact because L > 0; only a value
that leaves the engine becomes a `Fraction`, built once per distinct
value, or, when the command line prints the stored table, the string
that Fraction prints (`compromise._strings`), with no Fraction kept.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress

from .compromise import _fractions
from .formation import _DIGIT_CELLS, Arc, Network, _digits_of, _mask_of, transposed, upper
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


def _table(instance: GameInstance, networks, rule: ActivationRule) -> list[list[int]]:
    """Each network's `_totals`, in order, from one column pass over all
    of them.  The networks' n²-digit strings are laid end to end, so
    `cells[b::n*n]` is arc bit b of every network: read as an int, bit k
    is network k's.  A pair's column is the AND (MUTUAL) or OR (LINKED)
    of its two arcs' columns, read once per pair a paying coalition
    uses; a coalition's column, the AND of its pairs', holds the
    networks it is active in, and only their rows take its stakes.  The
    pair bit n*n (a repeated or out-of-range member) has an empty
    column.  Raises the ValueError of `_active` for the first network
    on the wrong number of players."""
    n, size = instance.n, instance.n * instance.n
    digits = []
    for network in networks:
        if network.n != n:
            raise ValueError(f"network on {network.n} players, instance has {n}")
        digits.append(_digits_of(network.mask, size))
    _, entries = instance.payoff_index
    cells = "".join(digits)
    rows = [[0] * n for _ in digits]
    # pair bit: the networks whose pair graph holds it; none holds bit n*n
    columns = {size: 0}
    for pairs, stakes in entries:
        if not stakes:
            continue
        active = (1 << len(rows)) - 1
        while pairs:
            low = pairs & -pairs
            pairs ^= low
            b = low.bit_length() - 1
            if b not in columns:
                i, j = divmod(b, n)
                forward, back = _mask_of(cells[b::size]), _mask_of(cells[j * n + i::size])
                columns[b] = forward & back if rule is ActivationRule.MUTUAL else forward | back
            active &= columns[b]
        on = _digits_of(active, len(rows)).encode().translate(_DIGIT_CELLS)
        for row in compress(rows, on):
            for m, _, w in stakes:
                row[m] += w
    return rows


def _vectors(instance: GameInstance, table) -> list[PayoffVector]:
    """A table's rows as payoff vectors: each distinct value of the whole
    table becomes a `Fraction` once."""
    denominator, _ = instance.payoff_index
    exact = _fractions(denominator, chain.from_iterable(table)).__getitem__
    return [tuple(map(exact, row)) for row in table]


def payoff_vectors(instance: GameInstance, networks, rule: ActivationRule) -> list[PayoffVector]:
    """`payoff_vector` of each network, in order, from one `_table`."""
    return _vectors(instance, _table(instance, networks, rule))


def stored_table(instance: GameInstance, rule: ActivationRule) -> tuple[tuple[int, ...], ...]:
    """`_table` of the instance's `networks` under rule, built once per
    instance and rule."""
    return instance.mutual_table if rule is ActivationRule.MUTUAL else instance.linked_table


def stored_payoffs(instance: GameInstance, rule: ActivationRule) -> list[PayoffVector]:
    """`payoff_vectors(instance, instance.networks, rule)`, from the
    instance's `stored_table`."""
    return _vectors(instance, stored_table(instance, rule))
