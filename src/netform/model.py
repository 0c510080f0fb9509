"""Core game data: coalitions, instances, and instance validation.

All incomes, shares, and payoffs are exact rationals (fractions.Fraction);
floats never enter the arithmetic.  Players are 0-based internally and
1-based in every message shown to a user.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .formation import OfferProfile


class ActivationRule(Enum):
    """When a coalition counts as active in a network.

    MUTUAL: every ordered pair of distinct members is an arc (all mutual
    links present).  LINKED: every unordered pair of members is linked in
    at least one direction.  MUTUAL activation implies LINKED activation.
    """

    MUTUAL = "mutual"
    LINKED = "linked"

    def __str__(self) -> str:  # argparse help and report output
        return self.value


@dataclass(frozen=True)
class CoalitionSpec:
    """A 2- or 3-player coalition with an income and per-member shares.

    Income may be negative.  Shares are kept exactly as given; whether
    they sum to 1 is a validation concern, not a structural one.
    """

    members: tuple[int, ...]
    income: Fraction
    shares: dict[int, Fraction]

    @classmethod
    def of(cls, members, income, shares=None) -> CoalitionSpec:
        members = tuple(int(m) for m in members)
        income = Fraction(income)
        if shares is None:
            shares = {m: Fraction(1, len(members)) for m in members}
        else:
            shares = {int(m): Fraction(s) for m, s in shares.items()}
        return cls(members, income, shares)

    def share_of(self, player: int) -> Fraction:
        return self.shares.get(player, Fraction(0))

    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Unordered member pairs, each as (low, high)."""
        ms = sorted(self.members)
        return tuple(
            (ms[a], ms[b]) for a in range(len(ms)) for b in range(a + 1, len(ms))
        )

    def label(self) -> str:
        return "(" + ",".join(str(m + 1) for m in self.members) + ")"


@dataclass(frozen=True)
class GameInstance:
    """A full problem instance: player count, coalition list, and
    optionally a list of offer/acceptance profiles plus a reference
    payoff table (one row per profile) carried along for comparison.

    The first payoff or stability check on an instance compiles its
    coalitions into `payoff_index`, which every later one reuses.  So
    the coalitions must not be mutated after that point
    (`CoalitionSpec.shares` is a dict).
    """

    n: int
    coalitions: tuple[CoalitionSpec, ...]
    profiles: tuple[OfferProfile, ...] = ()
    payoff_matrix: tuple[tuple[Fraction, ...], ...] | None = None
    default_rule: ActivationRule | None = None

    def rule_or(self, rule: ActivationRule | None) -> ActivationRule:
        """Resolve a possibly-absent rule choice against the instance default."""
        if rule is not None:
            return rule
        if self.default_rule is not None:
            return self.default_rule
        return ActivationRule.LINKED

    @cached_property
    def payoff_index(self):
        """What payoffs and both stability engines need from the
        coalitions, built on first use: `(L, entries)`, where L is the
        least common denominator of every share × income and `entries`
        holds, per coalition in instance order, `(pairs, stakes)`: the
        coalition's member pairs and `(member, co-members, share × income
        × L)` for each member paid a nonzero amount, the co-members as a
        frozenset and the amount as an int.  This is the only place that
        turns shares and incomes into payments."""
        amounts = [[(m, c.share_of(m) * c.income) for m in c.members] for c in self.coalitions]
        denominator = math.lcm(*(w.denominator for ws in amounts for _, w in ws))
        return denominator, tuple(
            (c.pairs(), tuple(
                (m, c.member_set() - {m}, w.numerator * (denominator // w.denominator))
                for m, w in ws
                if w
            ))
            for c, ws in zip(self.coalitions, amounts)
        )


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_instance(instance: GameInstance, strict: bool = False) -> ValidationReport:
    """Check structural soundness of an instance.

    Errors: player count < 2, coalition size outside {2, 3}, repeated or
    out-of-range members, duplicate coalition member sets, negative shares,
    share keys not matching members, profile or payoff-table dimensions
    not matching the player count, a payoff table whose row count differs
    from the number of stored profiles.  A share sum different from 1 is an
    error in strict mode and a warning otherwise.
    """
    errors: list[str] = []
    warnings_: list[str] = []
    if instance.n < 2:
        errors.append(f"need at least 2 players, got {instance.n}")

    seen: dict[frozenset[int], int] = {}
    for idx, c in enumerate(instance.coalitions):
        where = f"coalition {idx + 1} {c.label()}"
        if len(c.members) not in (2, 3):
            errors.append(f"{where}: size must be 2 or 3, got {len(c.members)}")
        if len(set(c.members)) != len(c.members):
            errors.append(f"{where}: repeated member")
        for m in c.members:
            if not 0 <= m < instance.n:
                errors.append(f"{where}: player {m + 1} out of range")
        key = c.member_set()
        if len(set(c.members)) == len(c.members):
            if key in seen:
                errors.append(
                    f"{where}: same member set as coalition {seen[key] + 1}"
                )
            else:
                seen[key] = idx
        if set(c.shares) != set(c.members):
            errors.append(f"{where}: share keys must match members exactly")
        for m, s in c.shares.items():
            if s < 0:
                errors.append(f"{where}: negative share for player {m + 1}")
        total = sum(c.shares.values(), Fraction(0))
        if total != 1:
            msg = f"{where}: shares sum to {total}, not 1"
            (errors if strict else warnings_).append(msg)

    for idx, p in enumerate(instance.profiles):
        if p.n != instance.n:
            errors.append(
                f"profile {idx + 1}: {p.n}x{p.n} matrices for a "
                f"{instance.n}-player instance"
            )
    if instance.payoff_matrix is not None:
        rows = len(instance.payoff_matrix)
        if instance.profiles and rows != len(instance.profiles):
            errors.append(
                f"payoff table has {rows} rows for {len(instance.profiles)} profiles"
            )
        for r, row in enumerate(instance.payoff_matrix):
            if len(row) != instance.n:
                errors.append(
                    f"payoff table row {r + 1}: {len(row)} entries for "
                    f"{instance.n} players"
                )
    return ValidationReport(tuple(errors), tuple(warnings_))
