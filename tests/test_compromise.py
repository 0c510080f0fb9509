"""Min-max-regret selection."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netform import (
    PayoffMatrix,
    compromise_solution,
    ideal_vector,
    regret_vectors,
)
from oracles import oracle_compromise


def test_matrix_validation():
    with pytest.raises(ValueError, match="at least one row"):
        PayoffMatrix([])
    with pytest.raises(ValueError, match="at least one column"):
        PayoffMatrix([[]])
    with pytest.raises(ValueError, match="equal length"):
        PayoffMatrix([[1, 2], [3]])


def test_ideal_is_columnwise_max():
    m = PayoffMatrix([[1, 5], [4, 2], [3, 3]])
    assert ideal_vector(m) == (4, 5)


def test_regrets_in_player_order_and_sorted_view():
    m = PayoffMatrix([[1, 5], [4, 2]])
    assert regret_vectors(m) == ((3, 0), (0, 3))
    assert tuple(tuple(sorted(r)) for r in regret_vectors(m)) == ((0, 3), (0, 3))
    # the sorted view never changes the selection
    assert compromise_solution(m).solutions == (0, 1)


def test_single_row_matrix_is_its_own_compromise():
    m = PayoffMatrix([[7, -2, 9]])
    report = compromise_solution(m)
    assert report.ideal == (7, -2, 9)
    assert report.value == 0
    assert report.solutions == (0,)


def test_negative_and_fractional_entries():
    m = PayoffMatrix([[Fraction(1, 2), -3], [Fraction(-1, 2), 0]])
    report = compromise_solution(m)
    assert report.ideal == (Fraction(1, 2), 0)
    assert report.regrets == ((0, 3), (1, 0))
    assert report.row_max == (3, 1)
    assert report.value == 1
    assert report.solutions == (1,)


def test_tie_refinement_is_optional_and_value_preserving():
    rows = [[0, 1, 2], [1, 0, 2], [2, 2, 0]]
    m = PayoffMatrix(rows)
    plain = compromise_solution(m)
    assert plain.value == 2
    assert plain.solutions == (0, 1, 2)
    refined = compromise_solution(m, refine_ties=True)
    assert refined.value == plain.value
    # descending regret vectors: (2,1,0), (2,1,0), (2,0,0); the last wins
    assert refined.solutions == (2,)


small_fraction = st.fractions(
    min_value=-20, max_value=20, max_denominator=6
)


@st.composite
def matrices(draw):
    cols = draw(st.integers(min_value=1, max_value=5))
    rows = draw(
        st.lists(
            st.lists(small_fraction, min_size=cols, max_size=cols),
            min_size=1,
            max_size=7,
        )
    )
    return PayoffMatrix(rows)


@given(matrices())
@settings(max_examples=150)
def test_regrets_nonnegative_with_zero_in_each_column(matrix):
    regrets = regret_vectors(matrix)
    for row in regrets:
        assert all(r >= 0 for r in row)
    for c in range(matrix.n_players):
        assert min(row[c] for row in regrets) == 0


@given(matrices(), st.lists(small_fraction, min_size=5, max_size=5))
@settings(max_examples=150)
def test_shift_invariance_per_player(matrix, offsets):
    offsets = offsets[: matrix.n_players]
    shifted = PayoffMatrix(
        [
            [v + offsets[c] for c, v in enumerate(row)]
            for row in matrix.rows
        ]
    )
    base = compromise_solution(matrix)
    moved = compromise_solution(shifted)
    assert moved.regrets == base.regrets
    assert moved.value == base.value
    assert moved.solutions == base.solutions
    assert moved.ideal == tuple(
        m + offsets[c] for c, m in enumerate(base.ideal)
    )


@given(matrices())
@settings(max_examples=100)
def test_solutions_attain_the_value(matrix):
    report = compromise_solution(matrix)
    for s in report.solutions:
        assert max(report.regrets[s]) == report.value
    for r, row in enumerate(report.regrets):
        assert max(row) >= report.value


# entries of mixed kinds: ints, negatives, and fractions whose
# denominators differ from row to row
mixed_entry = st.one_of(
    st.integers(min_value=-30, max_value=30),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


@st.composite
def tables_with_ties(draw):
    """Rows of mixed entries, some repeated (or permuted) so that the
    value and the refinement both see ties."""
    cols = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.lists(st.lists(mixed_entry, min_size=cols, max_size=cols), min_size=1, max_size=6))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        row = list(draw(st.sampled_from(rows)))
        if draw(st.booleans()):
            row = draw(st.permutations(row))
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), row)
    return rows


@given(tables_with_ties(), st.booleans())
@settings(max_examples=300)
def test_compromise_matches_fraction_oracle(rows, refine_ties):
    report = compromise_solution(PayoffMatrix(rows), refine_ties=refine_ties)
    ideal, regrets, row_max, value, solutions = oracle_compromise(rows, refine_ties)
    assert report.ideal == tuple(ideal)
    assert report.regrets == tuple(map(tuple, regrets))
    assert report.row_max == tuple(row_max)
    assert report.value == value
    assert report.solutions == tuple(solutions)
    numbers = [*report.ideal, *(v for r in report.regrets for v in r), *report.row_max, report.value]
    assert all(type(v) is Fraction for v in numbers)
    assert tuple(tuple(sorted(r)) for r in regret_vectors(PayoffMatrix(rows))) == tuple(
        tuple(sorted(r)) for r in regrets
    )


def _primes(start: int, count: int) -> list[int]:
    found, x = [], start
    while len(found) < count:
        x += 1
        if all(x % d for d in range(2, int(x ** 0.5) + 1)):
            found.append(x)
    return found


def test_common_denominator_is_bounded():
    # 40 coprime 30-bit denominators need a 1,200-bit common denominator
    p = _primes(10 ** 9, 40)
    matrix = PayoffMatrix([[Fraction(1, a) for a in p[:20]], [Fraction(1, b) for b in p[20:]]])
    with pytest.raises(ValueError, match="common denominator of more than 1024 bits"):
        compromise_solution(matrix)
    with pytest.raises(ValueError, match="1024 bits"):
        regret_vectors(matrix)
    # lcm(1, ..., 700) has 1,009 bits: within the bound, and exact
    rows = [[Fraction(1, d) for d in range(k, 701, 7)] for k in range(1, 8)]
    report = compromise_solution(PayoffMatrix(rows))
    ideal, regrets, row_max, value, solutions = oracle_compromise(rows, False)
    assert (report.ideal, report.regrets, report.value, report.solutions) == (
        tuple(ideal), tuple(map(tuple, regrets)), value, tuple(solutions)
    )


def test_a_payoff_matrix_keeps_fractions_and_wraps_the_rest():
    m = PayoffMatrix([[1, 2]])
    assert m.rows == ((Fraction(1), Fraction(2)),)
    assert type(m.rows) is tuple and type(m.rows[0]) is tuple
    half = Fraction(1, 2)
    m = PayoffMatrix([[half, 3]])
    assert m.rows[0][0] is half
    assert type(m.rows[0][1]) is Fraction and m.rows[0][1] == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["compromise", "worked-example"],
        ["compromise", "worked-example", "--sorted", "--refine-ties", "--source", "computed"],
    ],
)
def test_ideal_vector_is_computed_once_per_command(monkeypatch, capsys, argv):
    # `_regrets` is the one place that takes the column maxima
    from netform import cli, compromise

    calls = []
    regrets = compromise._regrets

    def counting(matrix):
        calls.append(matrix)
        return regrets(matrix)

    monkeypatch.setattr(compromise, "_regrets", counting)
    assert cli.main(argv) == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_sorted_regrets_sort_each_report_row():
    m = PayoffMatrix([[1, 5, 0], [4, 2, 2], [3, 3, 1]])
    report = compromise_solution(m)
    assert tuple(tuple(sorted(r)) for r in report.regrets) == tuple(
        tuple(sorted(r)) for r in regret_vectors(m)
    )
