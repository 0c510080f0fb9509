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


def test_matrix_validation():
    with pytest.raises(ValueError, match="at least one row"):
        PayoffMatrix.of([])
    with pytest.raises(ValueError, match="at least one column"):
        PayoffMatrix.of([[]])
    with pytest.raises(ValueError, match="equal length"):
        PayoffMatrix.of([[1, 2], [3]])


def test_ideal_is_columnwise_max():
    m = PayoffMatrix.of([[1, 5], [4, 2], [3, 3]])
    assert ideal_vector(m) == (4, 5)


def test_regrets_in_player_order_and_sorted_view():
    m = PayoffMatrix.of([[1, 5], [4, 2]])
    assert regret_vectors(m) == ((3, 0), (0, 3))
    assert regret_vectors(m, ascending=True) == ((0, 3), (0, 3))
    # the sorted view never changes the selection
    assert compromise_solution(m).solutions == (0, 1)


def test_single_row_matrix_is_its_own_compromise():
    m = PayoffMatrix.of([[7, -2, 9]])
    report = compromise_solution(m)
    assert report.ideal == (7, -2, 9)
    assert report.value == 0
    assert report.solutions == (0,)


def test_negative_and_fractional_entries():
    m = PayoffMatrix.of([[Fraction(1, 2), -3], [Fraction(-1, 2), 0]])
    report = compromise_solution(m)
    assert report.ideal == (Fraction(1, 2), 0)
    assert report.regrets == ((0, 3), (1, 0))
    assert report.row_max == (3, 1)
    assert report.value == 1
    assert report.solutions == (1,)


def test_tie_refinement_is_optional_and_value_preserving():
    rows = [[0, 1, 2], [1, 0, 2], [2, 2, 0]]
    m = PayoffMatrix.of(rows)
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
    return PayoffMatrix.of(rows)


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
    shifted = PayoffMatrix.of(
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
