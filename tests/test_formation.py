"""Network formation from offer/acceptance pairs."""

from __future__ import annotations

import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netform import (
    Network,
    OfferProfile,
    complete_network,
    empty_network,
    form_network,
    remove_arcs,
)

from oracles import oracle_form


def test_profile_requires_square_matrices():
    with pytest.raises(ValueError, match="square"):
        OfferProfile.of([[0, 1], [0, 0], [0, 0]], [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="square"):
        OfferProfile.of([[0, 1], [0]], [[0, 0], [0, 0]])


def test_profile_requires_binary_entries():
    with pytest.raises(ValueError, match="0 or 1"):
        OfferProfile.of([[0, 2], [0, 0]], [[0, 0], [0, 0]])


def test_form_needs_consent_in_both_directions():
    # 1 offers to 2, 2 accepts from 1; 2 offers to 1 but 1 does not accept
    profile = OfferProfile.of(
        [[0, 1], [1, 0]],
        [[0, 0], [1, 0]],
    )
    net = form_network(profile)
    assert net.arcs == {(0, 1)}


def test_mutual_self_consent_is_stripped_with_warning():
    profile = OfferProfile.of(
        [[1, 1], [0, 0]],
        [[1, 0], [1, 0]],
    )
    with pytest.warns(UserWarning, match="self-arc"):
        net = form_network(profile)
    assert net.arcs == {(0, 1)}


def test_offer_only_diagonal_is_silently_ignored():
    profile = OfferProfile.of(
        [[1, 1], [0, 0]],
        [[0, 0], [1, 0]],
    )
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        net = form_network(profile)
    assert net.arcs == {(0, 1)}


def test_network_rejects_self_arcs_and_range():
    with pytest.raises(ValueError, match="self-arc"):
        Network.of(3, [(1, 1)])
    with pytest.raises(ValueError, match="out of range"):
        Network.of(3, [(0, 3)])


def test_matrix_round_trip():
    rows = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    net = Network.from_matrix(rows)
    assert [list(r) for r in net.matrix()] == rows


def test_from_matrix_rejects_bad_entries():
    with pytest.raises(ValueError, match="0 or 1"):
        Network.from_matrix([[0, 3], [0, 0]])
    with pytest.raises(ValueError, match="square"):
        Network.from_matrix([[0, 1], [0]])
    for rows in (5, [5, 5], [[0, "1"], [1, 0]], [[0, True], [1, 0]], [[0, 1.0], [1, 0]]):
        with pytest.raises(ValueError):
            Network.from_matrix(rows)


def test_complete_and_empty():
    assert empty_network(4).arcs == frozenset()
    comp = complete_network(5)
    assert len(comp.arcs) == 20
    for player in range(5):
        assert sum(player in arc for arc in comp.arcs) == 8


def test_remove_arcs_requires_presence():
    net = Network.of(3, [(0, 1), (1, 2)])
    smaller = remove_arcs(net, [(0, 1)])
    assert smaller.arcs == {(1, 2)}
    with pytest.raises(ValueError, match="not present"):
        remove_arcs(net, [(2, 0)])
    with pytest.raises(ValueError, match="not present"):
        remove_arcs(smaller, [(0, 1)])


@st.composite
def bit_matrix_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    bit = st.integers(min_value=0, max_value=1)
    rows = st.lists(st.lists(bit, min_size=n, max_size=n), min_size=n, max_size=n)
    return draw(rows), draw(rows)


def _form_quietly(offers, acceptances):
    """Form from arbitrary random consents, ignoring the self-arc warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return form_network(OfferProfile.of(offers, acceptances))


@given(bit_matrix_pairs())
@settings(max_examples=150)
def test_formation_matches_matrix_oracle(pair):
    offers, acceptances = pair
    net = _form_quietly(offers, acceptances)
    assert [list(r) for r in net.matrix()] == oracle_form(offers, acceptances)


@given(bit_matrix_pairs())
@settings(max_examples=100)
def test_formed_arcs_need_offer_and_acceptance(pair):
    offers, acceptances = pair
    net = _form_quietly(offers, acceptances)
    for i, j in net.arcs:
        assert i != j
        assert offers[i][j] == 1
        assert acceptances[j][i] == 1


def test_formation_is_monotone_in_consent():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 5)
        offers = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        acceptances = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        base = _form_quietly(offers, acceptances)
        # granting one more acceptance never removes an arc
        i, j = rng.randrange(n), rng.randrange(n)
        widened = [row[:] for row in acceptances]
        widened[i][j] = 1
        more = _form_quietly(offers, widened)
        assert base.arcs <= more.arcs
