"""Independent reference implementations for cross-checking the engine.

Everything here works on plain adjacency-matrix rows and bitmask subset
enumeration, deliberately sharing no code with the package internals;
`oracle_load` alone reuses the package's public conversion of an
already parsed document, the part it is not checking.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

RULES = ("mutual", "linked")


def oracle_form(offers, acceptances):
    """Adjacency rows of the formed network: consent in both directions."""
    n = len(offers)
    return [
        [
            1 if i != j and offers[i][j] == 1 and acceptances[j][i] == 1 else 0
            for j in range(n)
        ]
        for i in range(n)
    ]


def oracle_active(members, g, rule: str) -> bool:
    ms = sorted(members)
    for a in range(len(ms)):
        for b in range(a + 1, len(ms)):
            i, j = ms[a], ms[b]
            if rule == "mutual":
                if not (g[i][j] == 1 and g[j][i] == 1):
                    return False
            else:
                if not (g[i][j] == 1 or g[j][i] == 1):
                    return False
    return True


def oracle_payoffs(coalitions, g, rule: str):
    """coalitions: iterable of (members, income, shares dict), 0-based."""
    n = len(g)
    totals = [Fraction(0)] * n
    for members, income, shares in coalitions:
        if oracle_active(members, g, rule):
            for m in members:
                totals[m] += shares.get(m, Fraction(0)) * Fraction(income)
    return totals


def coalition_triples(instance):
    return [(c.members, c.income, c.shares) for c in instance.coalitions]


def matrix_of(arcs, n):
    g = [[0] * n for _ in range(n)]
    for i, j in arcs:
        g[i][j] = 1
    return g


def oracle_best_deviation(coalitions, g, rule: str):
    """Search every nonempty incident-arc removal for every player.

    Returns (stable, best) where best is (gain, player, removed_arcs) for
    the first maximal strictly positive gain in (player, size, lex) order,
    or None when no deviation gains.
    """
    n = len(g)
    base = oracle_payoffs(coalitions, g, rule)
    best = None
    for player in range(n):
        incident = sorted(
            [(i, j) for i in range(n) for j in range(n) if g[i][j] and player in (i, j)]
        )
        k = len(incident)
        subsets = []
        for mask in range(1, 1 << k):
            subsets.append(tuple(incident[b] for b in range(k) if mask >> b & 1))
        subsets.sort(key=lambda s: (len(s), s))
        for removed in subsets:
            trial = [row[:] for row in g]
            for i, j in removed:
                trial[i][j] = 0
            gain = oracle_payoffs(coalitions, trial, rule)[player] - base[player]
            if gain > 0 and (best is None or gain > best[0]):
                best = (gain, player, removed)
    return (best is None), best


def oracle_cut_sets(coalitions, g, rule: str):
    """The partner-set search, walked in `combinations` order with every
    amount summed from scratch.

    A player p can only unlink pairs (p, q), so a deviation matters only
    through the set S of co-members it cuts off: every coalition that
    holds p and a member of S stops paying p.  S ranges over the nonempty
    subsets of the co-members of p's active coalitions that pay p a
    nonzero amount, and removes the fewest arcs that unlink each q in S:
    under mutual the smaller present arc, under linked every present arc.
    Returns (stable, best) as `oracle_best_deviation` does, ties going to
    the lowest player, then the fewest arcs, then the lex arc list.
    """
    n = len(g)

    def unlinking(p, q):
        present = [(i, j) for i, j in sorted([(p, q), (q, p)]) if g[i][j]]
        return present[:1] if rule == "mutual" else present

    best = None  # (paid, player, arc count, arcs): the least wins
    for p in range(n):
        stakes = [
            (set(members) - {p}, shares.get(p, Fraction(0)) * Fraction(income))
            for members, income, shares in coalitions
            if p in members and oracle_active(members, g, rule)
        ]
        stakes = [(others, paid) for others, paid in stakes if paid]
        partners = sorted(set().union(*(others for others, _ in stakes)))
        for k in range(1, len(partners) + 1):
            for cut in combinations(partners, k):
                paid = sum((w for others, w in stakes if others & set(cut)), Fraction(0))
                if paid >= 0:
                    continue
                removed = tuple(sorted(a for q in cut for a in unlinking(p, q)))
                key = (paid, p, len(removed), removed)
                if best is None or key < best:
                    best = key
    if best is None:
        return True, None
    paid, p, _, removed = best
    return False, (-paid, p, removed)


def oracle_gray_walk(coalitions, g, rule: str):
    """The partner-set search over every nonempty subset of each player's
    partners, walked in Gray-code order with the amount paid updated one
    flip at a time, as the engine walked it before it skipped, kept and
    split partners.

    Amounts are ints over the least common denominator of every
    share × income.  Step i of a player's walk flips partner number
    (trailing zeros of i); a flip of q changes the amount paid through
    the stakes that hold q and no other member of the cut set S.  The
    partners, the arcs and the tie-break are those of `oracle_cut_sets`,
    and so is the result.
    """
    n = len(g)

    def unlinking(p, q):
        present = [(i, j) for i, j in sorted([(p, q), (q, p)]) if g[i][j]]
        return present[:1] if rule == "mutual" else present

    amounts = [
        (set(members), {m: shares.get(m, Fraction(0)) * Fraction(income) for m in members})
        for members, income, shares in coalitions
        if oracle_active(members, g, rule)
    ]
    scale = lcm(*(w.denominator for _, pays in amounts for w in pays.values()))
    best = None  # (paid, player, arc count, arcs): the least wins
    for p in range(n):
        stakes = [
            (members - {p}, int(pays[p] * scale))
            for members, pays in amounts
            if p in members and pays[p]
        ]
        partners = sorted(set().union(*(others for others, _ in stakes)))
        bit_of = {q: 1 << b for b, q in enumerate(partners)}
        masks = [(sum(bit_of[q] for q in others), w) for others, w in stakes]
        cut = paid = 0
        for i in range(1, 1 << len(partners)):
            bit = i & -i
            cut ^= bit
            # the stakes through this partner that no other member of S holds
            change = sum(w for held, w in masks if held & bit and not cut & held & ~bit)
            paid += change if cut & bit else -change
            if paid >= 0 or best is not None and paid > best[0]:
                continue
            removed = tuple(sorted(a for q in partners if cut & bit_of[q] for a in unlinking(p, q)))
            key = (paid, p, len(removed), removed)
            if best is None or key < best:
                best = key
    if best is None:
        return True, None
    paid, p, _, removed = best
    return False, (Fraction(-paid, scale), p, removed)


def random_adjacency(rng, n: int, p: float):
    return [
        [1 if i != j and rng.random() < p else 0 for j in range(n)]
        for i in range(n)
    ]


def oracle_restricted(coalitions, networks, rule: str):
    """Equilibria and strictly improving moves among the given adjacency
    matrices.  A move from s to t counts when t is s with a nonempty set
    of cells cleared, all in one player's row or column, and that player
    gains.  Returns (equilibria, moves), moves as (s, t, player, gain)
    in (s, t, player) order."""
    payoffs = [oracle_payoffs(coalitions, g, rule) for g in networks]
    moves = []
    for s, gs in enumerate(networks):
        for t, gt in enumerate(networks):
            cells = [(i, j) for i in range(len(gs)) for j in range(len(gs))]
            if any(gt[i][j] > gs[i][j] for i, j in cells):
                continue
            cleared = [(i, j) for i, j in cells if gs[i][j] > gt[i][j]]
            if not cleared:
                continue
            for player in range(len(gs)):
                if all(player in cell for cell in cleared):
                    gain = payoffs[t][player] - payoffs[s][player]
                    if gain > 0:
                        moves.append((s, t, player, gain))
    losers = {s for s, _, _, _ in moves}
    return [s for s in range(len(networks)) if s not in losers], moves


def oracle_disjoint_picks(candidates, count: int):
    """The first `count` candidates, in order, that share at most one
    member with every candidate kept before them, each compared with
    every kept one; fewer when the candidates run out."""
    chosen = []
    for cand in candidates:
        if len(chosen) == count:
            break
        if all(len(set(cand) & set(kept)) < 2 for kept in chosen):
            chosen.append(cand)
    return chosen


def oracle_compromise(rows, refine_ties: bool):
    """Min-max-regret selection on plain Fraction rows: (ideal, regrets,
    row maxima, value, solutions), every number a Fraction.  Ties on the
    value are refined, when asked, to the rows whose regrets sorted
    descending are lexicographically least."""
    rows = [[Fraction(v) for v in row] for row in rows]
    ideal = [max(row[j] for row in rows) for j in range(len(rows[0]))]
    regrets = [[ideal[j] - row[j] for j in range(len(row))] for row in rows]
    row_max = [max(r) for r in regrets]
    value = min(row_max)
    solutions = [i for i in range(len(rows)) if row_max[i] == value]
    if refine_ties:
        keys = {i: sorted(regrets[i], reverse=True) for i in solutions}
        least = min(keys.values())
        solutions = [i for i in solutions if keys[i] == least]
    return ideal, regrets, row_max, value, solutions


def oracle_load(text: str):
    """("ok", instance) or ("refused", message): what loading a JSON
    document gives when it is parsed by plain `json.loads`, every integer
    literal an int, and the parsed dict is then converted and validated
    by the package's public `instance_from_document` and
    `validated_warnings`, leniently."""
    import json

    from netform.instance_io import DocumentError, instance_from_document, validated_warnings

    try:
        instance = instance_from_document(json.loads(text))
        validated_warnings(instance, False)
    except DocumentError as exc:
        return "refused", str(exc)
    return "ok", instance
