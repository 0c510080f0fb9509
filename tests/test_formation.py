"""Network formation from offer/acceptance pairs."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netform import Network, form_network, load_instance
from netform.cli import main
from netform.formation import OfferProfile, common_ends, remove_arcs
from netform.model import validate_instance

from oracles import oracle_form

SRC = str(Path(__file__).parents[1] / "src")


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


SELF_CONSENT = {
    "schema": "game-instance/1",
    "players": 3,
    "coalitions": [{"members": [1, 2], "income": "1"}],
    "profiles": [
        {"offers": [[0, 0, 0]] * 3, "acceptances": [[0, 0, 0]] * 3},
        {
            "offers": [[1, 1, 0], [0, 0, 0], [0, 0, 1]],
            "acceptances": [[1, 0, 0], [1, 0, 0], [0, 0, 1]],
        },
    ],
}
SELF_CONSENT_WARNING = "profile 2: self-consent of player(s) 1, 3 forms no arc"


def test_mutual_self_consent_is_stripped_with_warning(tmp_path, capsys):
    # forming strips the self-arc without a Python warning ...
    profile = OfferProfile.of(
        [[1, 1], [0, 0]],
        [[1, 0], [1, 0]],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        net = form_network(profile)
    assert net.arcs == {(0, 1)}
    # ... and validation reports it as a warning, also in strict mode
    inst = load_instance(json.dumps(SELF_CONSENT))
    for strict in (False, True):
        report = validate_instance(inst, strict=strict)
        assert (report.errors, report.warnings) == ((), (SELF_CONSENT_WARNING,))
    # the CLI prints it as a warning line on every call, not only the first
    path = tmp_path / "self.json"
    path.write_text(json.dumps(SELF_CONSENT), encoding="utf-8")
    for argv in (["payoffs", str(path)], ["payoffs", str(path)], ["form", str(path), "--strict"]):
        assert main(argv) == 0
        assert capsys.readouterr().err == f"warning: {SELF_CONSENT_WARNING}\n"
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "netform.cli", "payoffs", str(path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert (done.returncode, done.stderr) == (0, f"warning: {SELF_CONSENT_WARNING}\n")


def test_offer_only_diagonal_is_silently_ignored():
    profile = OfferProfile.of(
        [[1, 1], [0, 0]],
        [[0, 0], [1, 0]],
    )
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
    with pytest.raises(ValueError, match=r"^adjacency\[0\]\[1\]: entries must be 0 or 1$"):
        Network.from_matrix([[0, 3], [0, 0]])
    with pytest.raises(ValueError, match="square"):
        Network.from_matrix([[0, 1], [0]])
    for rows in (5, [5, 5], [[0, "1"], [1, 0]], [[0, True], [1, 0]], [[0, 1.0], [1, 0]]):
        with pytest.raises(ValueError):
            Network.from_matrix(rows)


def test_complete_and_empty():
    # from_matrix ignores the diagonal, so all-zero and all-one matrices
    # give the empty and the complete network
    assert Network.from_matrix([[0] * 4] * 4).arcs == frozenset()
    comp = Network.from_matrix([[1] * 5] * 5)
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


def _form(offers, acceptances):
    return form_network(OfferProfile.of(offers, acceptances))


@given(bit_matrix_pairs())
@settings(max_examples=150)
def test_formation_matches_matrix_oracle(pair):
    offers, acceptances = pair
    net = _form(offers, acceptances)
    assert [list(r) for r in net.matrix()] == oracle_form(offers, acceptances)


@given(bit_matrix_pairs())
@settings(max_examples=100)
def test_formed_arcs_need_offer_and_acceptance(pair):
    offers, acceptances = pair
    net = _form(offers, acceptances)
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
        base = _form(offers, acceptances)
        # granting one more acceptance never removes an arc
        i, j = rng.randrange(n), rng.randrange(n)
        widened = [row[:] for row in acceptances]
        widened[i][j] = 1
        more = _form(offers, widened)
        assert base.arcs <= more.arcs


@st.composite
def arc_sets(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    off_diagonal = [(i, j) for i in range(n) for j in range(n) if i != j]
    return n, draw(st.frozensets(st.sampled_from(off_diagonal))) if off_diagonal else frozenset()


@given(arc_sets())
@settings(max_examples=150)
def test_network_mask_round_trips_through_arcs_and_matrix(case):
    n, arcs = case
    net = Network.of(n, arcs)
    assert net.arcs == arcs
    assert net.mask == sum(1 << (i * n + j) for i, j in arcs)
    assert Network.from_matrix(net.matrix()) == net
    assert [list(row) for row in net.matrix()] == [
        [int((i, j) in arcs) for j in range(n)] for i in range(n)
    ]


@given(arc_sets(), st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_remove_arcs_is_set_difference(case, rng):
    n, arcs = case
    net = Network.of(n, arcs)
    gone = {a for a in sorted(arcs) if rng.random() < 0.5}
    assert remove_arcs(net, gone).arcs == arcs - gone


@given(arc_sets(max_n=6))
@settings(max_examples=150)
def test_common_ends_are_the_players_every_arc_touches(case):
    n, arcs = case
    if arcs:
        assert common_ends(Network.of(n, arcs).mask, n) == [p for p in range(n) if all(p in a for a in arcs)]


def test_network_refuses_bad_masks():
    with pytest.raises(ValueError, match="out of range"):
        Network(3, -1)
    with pytest.raises(ValueError, match="out of range"):
        Network(3, 1 << 9)  # arc bits stop at n*n - 1
    for i in range(3):
        with pytest.raises(ValueError, match=rf"self-arc \({i}, {i}\)"):
            Network(3, 1 << (i * 4))
    assert Network(3, (1 << 9) - 1 - (1 | 1 << 4 | 1 << 8)) == Network.from_matrix([[1] * 3] * 3)


@pytest.mark.parametrize(
    "offers, acceptances, message",
    [
        ([[0, 2], [0, 0]], [[0, 0], [0, 0]], "offers[0][1]: entries must be 0 or 1"),
        ([[0, 1], [-1, 0]], [[0, 0], [0, 0]], "offers[1][0]: entries must be 0 or 1"),
        ([[0, 1], [0, 0]], [[0, 256], [0, 0]], "acceptances[0][1]: entries must be 0 or 1"),
        ([[0, 1], [0, 0]], [[-1, 2], [0, 0]], "acceptances[0][0]: entries must be 0 or 1"),
        ([[0, 1], [0]], [[0, 0], [0, 0]], "offers must be a square 2x2 matrix"),
        ([[0, 1], [0]], [[0, 256], [0, 0]], "offers must be a square 2x2 matrix"),
        ([[0, 1], [0, 0]], [[0, 0], [0, 0, 0]], "acceptances must be a square 2x2 matrix"),
        # acceptances of another size: their own fault is named before the size
        ([[0, 1], [0, 0]], [[0, 0, 0]], "acceptances must be a square 1x1 matrix"),
        ([[0, 1], [0, 0]], [[0, 2, 0]] * 3, "acceptances[0][1]: entries must be 0 or 1"),
        ([[0, 1], [0, 0]], [[0, 0, 0]] * 3, "acceptances must be a square 2x2 matrix"),
    ],
)
def test_profile_refusals_keep_their_type_and_message(offers, acceptances, message):
    with pytest.raises(ValueError) as refused:
        OfferProfile.of(offers, acceptances)
    assert type(refused.value) is ValueError
    assert str(refused.value) == message
