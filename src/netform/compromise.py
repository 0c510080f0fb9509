"""Min-max-regret compromise selection over a payoff table.

Rows are candidate outcomes, columns are players.  Each player's ideal is
their best entry across rows; a row's regret vector is the ideal minus
the row.  The compromise rows are those minimizing the largest regret.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class PayoffMatrix:
    """A payoff table: rows are outcomes, columns are players.  Never empty."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("payoff matrix needs at least one row")
        width = len(self.rows[0])
        if width == 0:
            raise ValueError("payoff matrix needs at least one column")
        if any(len(r) != width for r in self.rows):
            raise ValueError("payoff matrix rows must have equal length")

    @classmethod
    def of(cls, rows) -> PayoffMatrix:
        return cls(tuple(tuple(Fraction(v) for v in row) for row in rows))

    @property
    def n_players(self) -> int:
        return len(self.rows[0])


@dataclass(frozen=True)
class CompromiseReport:
    """Ideal vector, per-row regrets and their maxima, the minimized
    maximal regret, and every row index attaining it (ascending)."""

    ideal: tuple[Fraction, ...]
    regrets: tuple[tuple[Fraction, ...], ...]
    row_max: tuple[Fraction, ...]
    value: Fraction
    solutions: tuple[int, ...]


def ideal_vector(matrix: PayoffMatrix) -> tuple[Fraction, ...]:
    """Columnwise maximum: the best any row offers each player."""
    return tuple(
        max(row[j] for row in matrix.rows) for j in range(matrix.n_players)
    )


def regret_vectors(
    matrix: PayoffMatrix, ascending: bool = False
) -> tuple[tuple[Fraction, ...], ...]:
    """Per-row regrets against the ideal vector, in player order, or with
    each row sorted ascending when requested (a presentation choice that
    never feeds back into the selection)."""
    regrets = _regrets(matrix, ideal_vector(matrix))
    return tuple(tuple(sorted(r)) for r in regrets) if ascending else regrets


def _regrets(matrix: PayoffMatrix, ideal) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(i - v for i, v in zip(ideal, row)) for row in matrix.rows)


def compromise_solution(
    matrix: PayoffMatrix, refine_ties: bool = False
) -> CompromiseReport:
    """Pick the rows whose largest regret is smallest.

    With refine_ties, tied rows are compared on their full regret vectors
    sorted descending, keeping only the lexicographically smallest; the
    headline value is unchanged by refinement.
    """
    ideal = ideal_vector(matrix)
    regrets = _regrets(matrix, ideal)
    row_max = tuple(max(r) for r in regrets)
    value = min(row_max)
    solutions = tuple(i for i, m in enumerate(row_max) if m == value)
    if refine_ties and len(solutions) > 1:
        keyed = {i: tuple(sorted(regrets[i], reverse=True)) for i in solutions}
        best = min(keyed.values())
        solutions = tuple(i for i in solutions if keyed[i] == best)
    return CompromiseReport(
        ideal=ideal,
        regrets=regrets,
        row_max=row_max,
        value=value,
        solutions=solutions,
    )
