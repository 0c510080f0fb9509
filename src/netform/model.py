"""Core game data: coalitions, instances, and instance validation.

All incomes, shares, and payoffs are exact rationals (fractions.Fraction);
floats never enter the arithmetic.  Players are 0-based internally and
1-based in every message shown to a user.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .compromise import common_denominator
from .formation import OfferProfile
from .record import record

# Most players an instance may have: every command builds something per
# player, so a document of a few bytes could otherwise ask for gigabytes.
MAX_PLAYERS = 1024


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


@record
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
        income = income if type(income) is Fraction else Fraction(income)
        if shares is None:
            shares = {m: Fraction(1, len(members)) for m in members}
        else:
            shares = {
                int(m): s if type(s) is Fraction else Fraction(s)
                for m, s in shares.items()
            }
        return cls(members, income, shares)

    def share_of(self, player: int) -> Fraction:
        return self.shares.get(player, Fraction(0))

    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Unordered member pairs, each as (low, high)."""
        return tuple(combinations(sorted(self.members), 2))

    def pair_mask(self, n: int) -> int:
        """The member pairs as a pair-graph mask on n players: bit
        low*n + high per pair.  A pair that no n-player network links (a
        repeated or out-of-range member) sets bit n*n, which no pair
        graph holds."""
        mask = 0
        for i, j in self.pairs():
            mask |= 1 << (i * n + j if 0 <= i < j < n else n * n)
        return mask

    def label(self) -> str:
        return "(" + ",".join(str(m + 1) for m in self.members) + ")"


@record
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
        coalition's `pair_mask` and `(member, co-members, share × income
        × L)` for each member paid a nonzero amount, the co-members as a
        frozenset and the amount as an int.  This is the only place that
        turns shares and incomes into payments.  Raises ValueError, before
        scaling any amount, when L needs more than
        `compromise.MAX_DENOMINATOR_BITS` bits."""
        amounts = [[(m, c.share_of(m) * c.income) for m in c.members] for c in self.coalitions]
        denominator = common_denominator(
            {w.denominator for ws in amounts for _, w in ws}, "coalition payments"
        )
        return denominator, tuple(
            (c.pair_mask(self.n), tuple(
                (m, c.member_set() - {m}, w.numerator * (denominator // w.denominator))
                for m, w in ws
                if w
            ))
            for c, ws in zip(self.coalitions, amounts)
        )


@record
class ValidationReport:
    """The errors and warnings `validate_instance` found; ok when no errors."""

    errors: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def _at(idx: int, c: CoalitionSpec, message: str) -> str:
    return f"coalition {idx + 1} {c.label()}: {message}"


def validate_instance(instance: GameInstance, strict: bool = False) -> ValidationReport:
    """Check structural soundness of an instance.

    Errors: player count < 2 or > MAX_PLAYERS, coalition size outside
    {2, 3}, repeated or out-of-range members, duplicate coalition member
    sets, negative shares, share keys not matching members, profile or
    payoff-table dimensions not matching the player count, a payoff table
    whose row count differs from the number of stored profiles.  A share sum different from 1 is an
    error in strict mode and a warning otherwise.  A profile in which a
    player both offers and accepts a link to itself is a warning in
    either mode: `form_network` forms no arc from it.
    """
    errors: list[str] = []
    warnings_: list[str] = []
    if instance.n < 2:
        errors.append(f"need at least 2 players, got {instance.n}")
    if instance.n > MAX_PLAYERS:
        errors.append(f"at most {MAX_PLAYERS} players are accepted, got {instance.n}")

    seen: dict[frozenset[int], int] = {}
    for idx, c in enumerate(instance.coalitions):
        if len(c.members) not in (2, 3):
            errors.append(_at(idx, c, f"size must be 2 or 3, got {len(c.members)}"))
        key = c.member_set()
        repeated = len(key) != len(c.members)
        if repeated:
            errors.append(_at(idx, c, "repeated member"))
        for m in c.members:
            if not 0 <= m < instance.n:
                errors.append(_at(idx, c, f"player {m + 1} out of range"))
        if not repeated and seen.setdefault(key, idx) != idx:
            errors.append(_at(idx, c, f"same member set as coalition {seen[key] + 1}"))
        if set(c.shares) != set(c.members):
            errors.append(_at(idx, c, "share keys must match members exactly"))
        for m, s in c.shares.items():
            if s < 0:
                errors.append(_at(idx, c, f"negative share for player {m + 1}"))
        total = sum(c.shares.values(), Fraction(0))
        if total != 1:
            msg = _at(idx, c, f"shares sum to {total}, not 1")
            (errors if strict else warnings_).append(msg)

    for idx, p in enumerate(instance.profiles):
        if p.n != instance.n:
            errors.append(
                f"profile {idx + 1}: {p.n}x{p.n} matrices for a "
                f"{instance.n}-player instance"
            )
        offered = b"".join(p.offers)[:: p.n + 1]
        if 1 in offered:
            accepted = b"".join(p.acceptances)[:: p.n + 1]
            players = ", ".join(str(i + 1) for i in range(p.n) if offered[i] & accepted[i])
            if players:
                warnings_.append(
                    f"profile {idx + 1}: self-consent of player(s) {players} forms no arc"
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
