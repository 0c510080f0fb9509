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
from math import gcd, lcm
from types import MappingProxyType

from .compromise import common_denominator
from .formation import Network, OfferProfile, form_network
from .record import record

# Most players an instance may have: every command builds something per
# player, so a document of a few bytes could otherwise ask for gigabytes.
MAX_PLAYERS = 1024

# Most bits the coalitions' pair masks in `GameInstance.payoff_index` may
# hold together.  A mask reaches bit low*n + high of its highest pair, so
# at 1024 players one 3-member coalition can take 128 KiB whatever its
# size in JSON.  The limit is 128 MiB of masks: 1,000 random triples on
# 1024 players hold about 520 million bits.
MAX_INDEX_BITS = 2**30


class ActivationRule(Enum):
    """When a coalition counts as active in a network.

    MUTUAL: every ordered pair of distinct members is an arc (all mutual
    links present).  LINKED: every unordered pair of members is linked in
    at least one direction.  MUTUAL activation implies LINKED activation.
    """

    MUTUAL = "mutual"
    LINKED = "linked"


@record
class CoalitionSpec:
    """A 2- or 3-player coalition with an income and per-member shares.

    The constructor keeps the members as a tuple of ints and the income
    and each share as a Fraction; shares left out split the income evenly.
    Income may be negative.  Shares are kept exactly as given: whether they
    sum to 1 is a validation concern, not a structural one.  `shares` is
    a read-only view of a copy (`types.MappingProxyType`): it reads, and
    compares equal to a dict, as the copy does, is unhashable as a dict
    is, and refuses assignment and deletion with TypeError.  So a
    coalition never changes once built.
    """

    members: tuple[int, ...]
    income: Fraction
    shares: MappingProxyType[int, Fraction] = None

    def __post_init__(self) -> None:
        members = tuple(map(int, self.members))
        if self.shares is None:
            shares = {m: Fraction(1, len(members)) for m in members}
        else:
            shares = {
                int(m): s if type(s) is Fraction else Fraction(s) for m, s in self.shares.items()
            }
        income = self.income if type(self.income) is Fraction else Fraction(self.income)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "income", income)
        object.__setattr__(self, "shares", MappingProxyType(shares))

    def __reduce__(self):
        # a mappingproxy does not pickle: rebuild from a dict of the shares
        return self.__class__, (self.members, self.income, dict(self.shares))

    def share_of(self, player: int) -> Fraction:
        return self.shares.get(player, Fraction(0))

    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Unordered member pairs, each as (low, high)."""
        return tuple(combinations(sorted(self.members), 2))

    def pair_bits(self, n: int) -> tuple[int, ...]:
        """The member pairs as pair-graph bits on n players: low*n + high
        per pair.  A pair that no n-player network links (a repeated or
        out-of-range member) is bit n*n, which no pair graph holds."""
        return tuple(i * n + j if 0 <= i < j < n else n * n for i, j in self.pairs())

    def label(self) -> str:
        return "(" + ",".join(str(m + 1) for m in self.members) + ")"


@record
class GameInstance:
    """A full problem instance: player count, coalition list, and
    optionally a list of offer/acceptance profiles plus a reference
    payoff table (one row per profile) carried along for comparison.

    The coalitions are kept as a tuple, whatever sequence is given, and
    a coalition never changes once built.  So the first payoff or
    stability check on an instance compiles its coalitions into
    `payoff_index`, the first `validate_instance` call, in either mode,
    stores its faults in `findings`, the first command that reads every
    stored profile forms them into `networks`, and the first one that
    pays them all under a rule keeps that rule's `linked_table` or
    `mutual_table`.  Later calls reuse them all, and none can go stale.
    """

    n: int
    coalitions: tuple[CoalitionSpec, ...]
    profiles: tuple[OfferProfile, ...] = ()
    payoff_matrix: tuple[tuple[Fraction, ...], ...] | None = None
    default_rule: ActivationRule | None = None

    def __post_init__(self) -> None:
        # the index is built from the coalitions: a list given here could change under it
        object.__setattr__(self, "coalitions", tuple(self.coalitions))

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
        mask of the coalition's `pair_bits` and `(member, co-members,
        share × income × L)` for each member paid a nonzero amount, the
        co-members as a mask with bit q for co-member q (a member outside
        0..n−1 adds no bit) and the amount as an int.  This is the
        only place that turns shares and incomes into payments.  Raises
        ValueError, before building any mask, when the masks would hold
        more than MAX_INDEX_BITS bits, and before scaling any amount, when
        L needs more than `compromise.MAX_DENOMINATOR_BITS` bits."""
        bits = [c.pair_bits(self.n) for c in self.coalitions]
        size = sum(max(b, default=-1) + 1 for b in bits)
        if size > MAX_INDEX_BITS:
            raise ValueError(
                f"coalition pair masks need {size} bits, more than the limit of {MAX_INDEX_BITS}"
            )
        # each share × income as its reduced numerator and denominator,
        # reduced as `Fraction` multiplies but without building one
        paid = []
        for c, pair_bits in zip(self.coalitions, bits):
            p, q = c.income.numerator, c.income.denominator
            bit = {m: 1 << m for m in c.members if 0 <= m < self.n}
            members = sum(bit.values())
            stakes = []
            for m in c.members:
                s = c.shares.get(m)
                if s and p:
                    g, h = gcd(s.numerator, q), gcd(p, s.denominator)
                    others = members & ~bit.get(m, 0)
                    stakes.append((m, others, (s.numerator // g) * (p // h), (s.denominator // h) * (q // g)))
            paid.append((sum(1 << b for b in set(pair_bits)), stakes))
        denominator = common_denominator(
            {d for _, stakes in paid for *_, d in stakes}, "coalition payments"
        )
        return denominator, tuple(
            (pairs, tuple((m, others, w * (denominator // d)) for m, others, w, d in stakes))
            for pairs, stakes in paid
        )

    @cached_property
    def findings(self) -> tuple[tuple[str, str], ...]:
        """Every fault `validate_instance` reports, found on first use:
        `(kind, message)` pairs in the order found, kind "error",
        "warning", or "share sum" for shares that do not sum to 1 (an
        error only in strict mode).  The instance never changes, so
        neither do they."""
        n = self.n
        found: list[tuple[str, str]] = []
        if n < 2:
            found.append(("error", f"need at least 2 players, got {n}"))
        if n > MAX_PLAYERS:
            found.append(("error", f"at most {MAX_PLAYERS} players are accepted, got {n}"))

        seen: dict[frozenset[int], int] = {}
        for idx, c in enumerate(self.coalitions):
            if len(c.members) not in (2, 3):
                found.append(("error", _at(idx, c, f"size must be 2 or 3, got {len(c.members)}")))
            key = c.member_set()
            repeated = len(key) != len(c.members)
            if repeated:
                found.append(("error", _at(idx, c, "repeated member")))
            for m in c.members:
                if not 0 <= m < n:
                    found.append(("error", _at(idx, c, f"player {m + 1} out of range")))
            if not repeated and seen.setdefault(key, idx) != idx:
                message = f"same member set as coalition {seen[key] + 1}"
                found.append(("error", _at(idx, c, message)))
            if set(c.shares) != set(c.members):
                found.append(("error", _at(idx, c, "share keys must match members exactly")))
            for m, s in c.shares.items():
                if s.numerator < 0:
                    found.append(("error", _at(idx, c, f"negative share for player {m + 1}")))
            # the shares sum to 1 when their numerators over a common
            # denominator add up to it
            shares = c.shares.values()
            common = lcm(*(s.denominator for s in shares))
            if sum(s.numerator * (common // s.denominator) for s in shares) != common:
                total = sum(shares, Fraction(0))
                found.append(("share sum", _at(idx, c, f"shares sum to {total}, not 1")))

        for idx, p in enumerate(self.profiles):
            if p.n != n:
                message = f"profile {idx + 1}: {p.n}x{p.n} matrices for a {n}-player instance"
                found.append(("error", message))
            offered = b"".join(p.offers)[:: p.n + 1]
            if 1 in offered:
                accepted = b"".join(p.acceptances)[:: p.n + 1]
                players = ", ".join(str(i + 1) for i in range(p.n) if offered[i] & accepted[i])
                if players:
                    message = f"profile {idx + 1}: self-consent of player(s) {players} forms no arc"
                    found.append(("warning", message))
        if self.payoff_matrix is not None:
            rows = len(self.payoff_matrix)
            if self.profiles and rows != len(self.profiles):
                message = f"payoff table has {rows} rows for {len(self.profiles)} profiles"
                found.append(("error", message))
            for r, row in enumerate(self.payoff_matrix):
                if len(row) != n:
                    message = f"payoff table row {r + 1}: {len(row)} entries for {n} players"
                    found.append(("error", message))
        return tuple(found)

    @cached_property
    def networks(self) -> tuple[Network, ...]:
        """The network `form_network` forms from each stored profile, in
        order, formed on first use."""
        return tuple(map(form_network, self.profiles))

    @cached_property
    def linked_table(self) -> tuple[tuple[int, ...], ...]:
        """`payoffs._table` of `networks` under LINKED, built on first use:
        each stored profile's payoffs as ints over `payoff_index`'s L."""
        return _stored_table(self, ActivationRule.LINKED)

    @cached_property
    def mutual_table(self) -> tuple[tuple[int, ...], ...]:
        """`linked_table` under MUTUAL."""
        return _stored_table(self, ActivationRule.MUTUAL)


def _stored_table(instance: GameInstance, rule: ActivationRule) -> tuple[tuple[int, ...], ...]:
    from .payoffs import _table  # payoffs imports this module

    return tuple(map(tuple, _table(instance, instance.networks, rule)))


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
    """Check structural soundness of an instance: its `findings`, split
    into errors and warnings, each in the order found.

    Errors: player count < 2 or > MAX_PLAYERS, coalition size outside
    {2, 3}, repeated or out-of-range members, duplicate coalition member
    sets, negative shares, share keys not matching members, profile or
    payoff-table dimensions not matching the player count, a payoff table
    whose row count differs from the number of stored profiles.  A share sum different from 1 is an
    error in strict mode and a warning otherwise.  A profile in which a
    player both offers and accepts a link to itself is a warning in
    either mode: `form_network` forms no arc from it.  The findings are
    found on the first call for an instance, in either mode; every later
    call only splits them again.
    """
    errors = ("error", "share sum") if strict else ("error",)
    return ValidationReport(
        tuple(message for kind, message in instance.findings if kind in errors),
        tuple(message for kind, message in instance.findings if kind not in errors),
    )
