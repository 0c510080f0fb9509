"""The contract of the frozen value classes: construction, equality,
hashing, repr, immutability, pickling and the `__post_init__` checks."""

from __future__ import annotations

import pickle
from fractions import Fraction
from functools import cached_property

import pytest

from netform import CoalitionSpec, GameInstance, Network, PayoffMatrix
from netform.compromise import CompromiseReport
from netform.formation import OfferProfile
from netform.model import ValidationReport
from netform.record import record
from netform.stability import (
    Deviation,
    ReachableDeviation,
    RestrictedEquilibriaReport,
    StabilityReport,
)

HALF = Fraction(1, 2)
PAIR = CoalitionSpec((0, 1), Fraction(3), {0: HALF, 1: HALF})
PAIR_TEXT = (
    "CoalitionSpec(members=(0, 1), income=Fraction(3, 1), "
    "shares=mappingproxy({0: Fraction(1, 2), 1: Fraction(1, 2)}))"
)
ROWS = (b"\x00\x01", b"\x01\x00")
CUT = Deviation(0, ((0, 1),), Network(2, 0), HALF)
CUT_TEXT = (
    "Deviation(player=0, removed_arcs=((0, 1),), "
    "resulting_network=Network(n=2, mask=0), gain=Fraction(1, 2))"
)
MOVE = ReachableDeviation(0, 1, 1, Fraction(2))
MOVE_TEXT = "ReachableDeviation(source=0, target=1, player=1, gain=Fraction(2, 1))"
WITNESS = "stable report cannot carry a witness"
# a read-only view of a dict (`CoalitionSpec.shares`) is unhashable, as the dict is
UNHASHABLE = {CoalitionSpec, GameInstance}
CACHED = {
    GameInstance: ["payoff_index", "findings", "networks", "linked_table", "mutual_table"],
    Network: ["arcs"],
    PayoffMatrix: ["_scaled"],
}

# class, field names, the arguments (defaulted fields left out), the
# repr, and argument tuples that `__post_init__` refuses with a message
CASES = [
    (
        CoalitionSpec,
        ("members", "income", "shares"),
        ((0, 1), Fraction(3), {0: HALF, 1: HALF}),
        PAIR_TEXT,
        [],
    ),
    (
        GameInstance,
        ("n", "coalitions", "profiles", "payoff_matrix", "default_rule"),
        (2, (PAIR,)),
        f"GameInstance(n=2, coalitions=({PAIR_TEXT},), profiles=(), "
        "payoff_matrix=None, default_rule=None)",
        [],
    ),
    (
        ValidationReport,
        ("errors", "warnings"),
        (("bad",), ("odd",)),
        "ValidationReport(errors=('bad',), warnings=('odd',))",
        [],
    ),
    (
        OfferProfile,
        ("offers", "acceptances"),
        (ROWS, ROWS[::-1]),
        "OfferProfile(offers=(b'\\x00\\x01', b'\\x01\\x00'), "
        "acceptances=(b'\\x01\\x00', b'\\x00\\x01'))",
        [
            ((ROWS, ROWS[:1]), "acceptances must be a square 1x1 matrix"),
            ((ROWS, (b"\x00\x01", b"\x01")), "acceptances must be a square 2x2 matrix"),
            (((b"\x00\x02", b"\x00\x00"), ROWS), r"offers\[0\]\[1\]: entries must be 0 or 1"),
        ],
    ),
    (
        Network,
        ("n", "mask"),
        (2, 6),
        "Network(n=2, mask=6)",
        [
            ((2, -1), "mask -1 out of range for n=2"),
            ((2, 16), "mask 16 out of range for n=2"),
            ((2, 8), r"self-arc \(1, 1\) not allowed"),
        ],
    ),
    (
        Deviation,
        ("player", "removed_arcs", "resulting_network", "gain"),
        (0, ((0, 1),), Network(2, 0), HALF),
        CUT_TEXT,
        [],
    ),
    (
        StabilityReport,
        ("stable", "witness"),
        (False, CUT),
        f"StabilityReport(stable=False, witness={CUT_TEXT})",
        [((True, CUT), WITNESS)],
    ),
    (
        ReachableDeviation,
        ("source", "target", "player", "gain"),
        (0, 1, 1, Fraction(2)),
        MOVE_TEXT,
        [],
    ),
    (
        RestrictedEquilibriaReport,
        ("equilibria", "deviations"),
        ((1,), (MOVE,)),
        f"RestrictedEquilibriaReport(equilibria=(1,), deviations=({MOVE_TEXT},))",
        [],
    ),
    (
        PayoffMatrix,
        ("rows",),
        (((Fraction(1), HALF), (HALF, Fraction(1))),),
        "PayoffMatrix(rows=((Fraction(1, 1), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 1))))",
        [
            (((),), "payoff matrix needs at least one row"),
            ((((),),), "payoff matrix needs at least one column"),
            ((((1, 2), (1,)),), "payoff matrix rows must have equal length"),
        ],
    ),
    (
        CompromiseReport,
        ("ideal", "regrets", "row_max", "value", "solutions"),
        ((Fraction(1),), ((Fraction(0),),), (Fraction(0),), Fraction(0), (0,)),
        "CompromiseReport(ideal=(Fraction(1, 1),), regrets=((Fraction(0, 1),),), "
        "row_max=(Fraction(0, 1),), value=Fraction(0, 1), solutions=(0,))",
        [],
    ),
]


@pytest.mark.parametrize(
    "cls, fields, args, text, refused", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_value_class_contract(cls, fields, args, text, refused):
    value = cls(*args)
    assert cls.__match_args__ == fields
    assert repr(value) == text

    # keyword construction in field order; left-out fields take their defaults
    assert cls(**dict(zip(fields, args))) == value
    values = tuple(getattr(value, name) for name in fields)
    assert cls(*values) == value and cls(*values) is not value

    # equal only to the same class: not to a subclass or a tuple with the same fields
    lookalike = type(cls.__name__, (cls,), {})(*values)
    assert value != lookalike and value.__eq__(lookalike) is NotImplemented
    assert value != values and value.__eq__(values) is NotImplemented
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(values)

    with pytest.raises(AttributeError):
        setattr(value, fields[0], values[0])
    with pytest.raises(AttributeError):
        delattr(value, fields[-1])
    with pytest.raises(AttributeError):
        value.extra = 1
    assert tuple(getattr(value, name) for name in fields) == values

    # pickling keeps what a cached property already built
    cached = [name for name, v in vars(cls).items() if isinstance(v, cached_property)]
    assert cached == CACHED.get(cls, [])
    for name in cached:
        getattr(value, name)
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and type(copy) is cls
    for name in cached:
        assert vars(copy)[name] == vars(value)[name]

    for bad, message in refused:
        with pytest.raises(ValueError, match=message):
            cls(*bad)


def test_a_field_without_a_default_may_not_follow_a_default():
    with pytest.raises(TypeError) as refused:

        @record
        class Bad:
            first: int = 0
            second: int

    assert str(refused.value) == "Bad: a field without a default follows a default"
