"""Min-max-regret compromise selection over a payoff table.

Rows are candidate outcomes, columns are players.  Each player's ideal is
their best entry across rows; a row's regret vector is the ideal minus
the row.  The compromise rows are those minimizing the largest regret.

A table is worked on as ints over L, the least common denominator of
its entries, built once per table.  Scaling by L > 0 keeps every order
and every tie, so the ideal, the regrets, the row maxima, the value and
the tie refinement are exact int arithmetic, and the results are exact
`Fraction`s.  Each cell is an int as long as L, so a table whose L
passes MAX_DENOMINATOR_BITS is refused: pairwise-coprime denominators
would otherwise make every cell as long as all of them together.

Any positive common denominator serves as well as the least one, so a
table that is already ints over one, like the stored profiles' table
over the payoff index's denominator, is solved as it is (`_solved`), and
a value that is printed goes from its int to its string once per
distinct value (`_strings`), with no `Fraction` kept.
"""

from __future__ import annotations

import math
from functools import cached_property
from fractions import Fraction
from itertools import chain

from .record import record

# Most bits the common denominator of a table's entries, or of an
# instance's coalition payments (`GameInstance.payoff_index`), may need.
# A cell then takes at most 164 bytes as an int, against about 100 for a
# Fraction of small ints; lcm(1, ..., 700) fits.
MAX_DENOMINATOR_BITS = 1024


def common_denominator(denominators, what: str) -> int:
    """The least common multiple of the denominators, taken one at a
    time.  Raises ValueError, naming `what`, at the first step that
    needs more than MAX_DENOMINATOR_BITS bits, so that pairwise-coprime
    denominators are refused for no more than it costs to read them."""
    denominator = 1
    for d in denominators:
        denominator = math.lcm(denominator, d)
        if denominator.bit_length() > MAX_DENOMINATOR_BITS:
            raise ValueError(
                f"{what} need a common denominator of more than "
                f"{MAX_DENOMINATOR_BITS} bits"
            )
    return denominator


@record
class PayoffMatrix:
    """A payoff table: rows are outcomes, columns are players.  Never empty.
    The constructor keeps the rows as tuples of Fractions."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(
            tuple(v if type(v) is Fraction else Fraction(v) for v in row) for row in self.rows
        ))
        if not self.rows:
            raise ValueError("payoff matrix needs at least one row")
        width = len(self.rows[0])
        if width == 0:
            raise ValueError("payoff matrix needs at least one column")
        if any(len(r) != width for r in self.rows):
            raise ValueError("payoff matrix rows must have equal length")

    @property
    def n_players(self) -> int:
        return len(self.rows[0])

    @cached_property
    def _scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """`(L, rows)`: L is the least common denominator of the entries,
        and each entry is an int over L, built on first use.  Raises
        ValueError when L needs more than MAX_DENOMINATOR_BITS bits."""
        denominators = {v.denominator for row in self.rows for v in row}
        denominator = common_denominator(denominators, "payoff table entries")
        scale = {d: denominator // d for d in denominators}
        return denominator, tuple(
            tuple(v.numerator * scale[v.denominator] for v in row) for row in self.rows
        )


@record
class CompromiseReport:
    """Ideal vector, per-row regrets and their maxima, the minimized
    maximal regret, and every row index attaining it (ascending)."""

    ideal: tuple[Fraction, ...]
    regrets: tuple[tuple[Fraction, ...], ...]
    row_max: tuple[Fraction, ...]
    value: Fraction
    solutions: tuple[int, ...]


def _fractions(denominator: int, values) -> dict[int, Fraction]:
    """Each distinct int value over the denominator as a Fraction, built
    once: values repeat (99% of the 8,000 regrets on a large-batch table
    do, and 99% of the 8,000 totals of a large-batch `payoffs._table`
    under either rule, against 41% of one network's under LINKED)."""
    return {t: Fraction(t, denominator) for t in set(values)}


def _strings(denominator: int, values) -> dict[int, str]:
    """Each distinct int value over the denominator as the string of its
    `Fraction`, built once, as `_fractions` builds the Fractions: a
    printed table is its values' strings, and the values repeat."""
    return {t: str(Fraction(t, denominator)) for t in set(values)}


def _regrets(rows) -> tuple[list[int], list[list[int]]]:
    """The ideal (each column's maximum) of int rows over one positive
    denominator, and each row's regrets against it, over the same one."""
    top = list(map(max, zip(*rows)))
    return top, [[t - v for t, v in zip(top, row)] for row in rows]


def _solved(rows, refine_ties: bool):
    """`compromise_solution` on int rows over one positive denominator:
    the ideal, the regrets, the row maxima and the value, all over that
    denominator, and the solutions.  Any such denominator gives the same
    rows, since scaling keeps every order and every tie."""
    top, regrets = _regrets(rows)
    row_max = [max(r) for r in regrets]
    value = min(row_max)
    solutions = tuple(i for i, m in enumerate(row_max) if m == value)
    if refine_ties and len(solutions) > 1:
        keyed = {i: sorted(regrets[i], reverse=True) for i in solutions}
        best = min(keyed.values())
        solutions = tuple(i for i in solutions if keyed[i] == best)
    return top, regrets, row_max, value, solutions


def ideal_vector(matrix: PayoffMatrix) -> tuple[Fraction, ...]:
    """Columnwise maximum: the best any row offers each player."""
    denominator, rows = matrix._scaled
    top, _ = _regrets(rows)
    return tuple(Fraction(t, denominator) for t in top)


def regret_vectors(matrix: PayoffMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """Per-row regrets against the ideal vector, in player order."""
    denominator, rows = matrix._scaled
    _, regrets = _regrets(rows)
    exact = _fractions(denominator, chain.from_iterable(regrets)).__getitem__
    return tuple(tuple(map(exact, r)) for r in regrets)


def compromise_solution(
    matrix: PayoffMatrix, refine_ties: bool = False
) -> CompromiseReport:
    """Pick the rows whose largest regret is smallest.

    With refine_ties, tied rows are compared on their full regret vectors
    sorted descending, keeping only the lexicographically smallest; the
    headline value is unchanged by refinement.
    """
    denominator, rows = matrix._scaled
    top, regrets, row_max, value, solutions = _solved(rows, refine_ties)
    exact = _fractions(denominator, chain.from_iterable(regrets)).__getitem__
    return CompromiseReport(
        ideal=tuple(Fraction(t, denominator) for t in top),
        regrets=tuple(tuple(map(exact, r)) for r in regrets),
        row_max=tuple(map(exact, row_max)),
        value=exact(value),
        solutions=solutions,
    )
