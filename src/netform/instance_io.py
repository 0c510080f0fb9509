"""Reading and writing game instances as JSON documents.

Incomes, shares, and payoff-table entries travel as exact fraction
strings ("3", "-6", "5/4"); floats are rejected so nothing is ever
rounded.  Players and profile indices are 1-based in documents and on
every CLI surface, 0-based inside the engine.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from pathlib import Path

from .formation import OfferProfile
from .model import (
    ActivationRule,
    CoalitionSpec,
    GameInstance,
    validate_instance,
)

SCHEMA = "game-instance/1"


class DocumentError(ValueError):
    """A document could not be parsed or failed validation."""


def parse_fraction(value, where: str) -> Fraction:
    """Exact rational from a JSON value: int, or a string Fraction accepts.

    JSON floats are refused so precision loss cannot sneak in upstream.
    """
    if isinstance(value, bool):
        raise DocumentError(f"{where}: expected a fraction string, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise DocumentError(
            f"{where}: floats are not accepted, write a fraction string like "
            f"\"{Fraction(value).limit_denominator()}\""
        )
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"{where}: bad fraction {value!r} ({exc})") from None
    raise DocumentError(f"{where}: expected a fraction string, got {type(value).__name__}")


def format_fraction(value: Fraction) -> str:
    return str(Fraction(value))


def _expect(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise DocumentError(f"{where}: missing required field {key!r}")
    value = doc[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        names = (
            "/".join(k.__name__ for k in kind)
            if isinstance(kind, tuple)
            else kind.__name__
        )
        raise DocumentError(
            f"{where}.{key}: expected {names}, got {type(value).__name__}"
        )
    return value


def _parse_bit_matrix(value, where: str) -> list[list[int]]:
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise DocumentError(f"{where}: expected a list of rows")
    out = []
    for r, row in enumerate(value):
        vals = []
        for c, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, int) or v not in (0, 1):
                raise DocumentError(f"{where}[{r}][{c}]: entries must be 0 or 1")
            vals.append(v)
        out.append(vals)
    return out


def instance_from_document(doc) -> GameInstance:
    """Build an instance from a parsed JSON document (structure only;
    semantic validation is the loader's second step)."""
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    schema = _expect(doc, "schema", str, "document")
    if schema != SCHEMA:
        raise DocumentError(f"document.schema: expected {SCHEMA!r}, got {schema!r}")
    n = _expect(doc, "players", int, "document")

    coalitions = []
    raw_coalitions = _expect(doc, "coalitions", list, "document")
    for idx, raw in enumerate(raw_coalitions):
        where = f"coalitions[{idx}]"
        if not isinstance(raw, dict):
            raise DocumentError(f"{where}: expected an object")
        members_raw = _expect(raw, "members", list, where)
        members = []
        for m in members_raw:
            if isinstance(m, bool) or not isinstance(m, int):
                raise DocumentError(f"{where}.members: players must be integers")
            members.append(m - 1)
        income = parse_fraction(_expect(raw, "income", (str, int), where), f"{where}.income")
        shares = None  # omitted: CoalitionSpec.of splits the income evenly
        if "shares" in raw:
            shares = {}
            for key, v in _expect(raw, "shares", dict, where).items():
                try:
                    player = int(key)
                except ValueError:
                    raise DocumentError(f"{where}.shares: bad player key {key!r}") from None
                shares[player - 1] = parse_fraction(v, f"{where}.shares[{key!r}]")
        coalitions.append(CoalitionSpec.of(members, income, shares))

    profiles = []
    for idx, raw in enumerate(doc.get("profiles", [])):
        where = f"profiles[{idx}]"
        if not isinstance(raw, dict):
            raise DocumentError(f"{where}: expected an object")
        offers = _parse_bit_matrix(_expect(raw, "offers", list, where), f"{where}.offers")
        acceptances = _parse_bit_matrix(
            _expect(raw, "acceptances", list, where), f"{where}.acceptances"
        )
        try:
            profiles.append(OfferProfile.of(offers, acceptances))
        except ValueError as exc:
            raise DocumentError(f"{where}: {exc}") from None

    payoff_matrix = None
    if doc.get("payoff_matrix") is not None:
        raw_matrix = doc["payoff_matrix"]
        if not isinstance(raw_matrix, list) or not all(
            isinstance(r, list) for r in raw_matrix
        ):
            raise DocumentError("payoff_matrix: expected a list of rows")
        payoff_matrix = tuple(
            tuple(
                parse_fraction(v, f"payoff_matrix[{r}][{c}]")
                for c, v in enumerate(row)
            )
            for r, row in enumerate(raw_matrix)
        )

    default_rule = None
    if doc.get("default_rule") is not None:
        raw_rule = doc["default_rule"]
        try:
            default_rule = ActivationRule(raw_rule)
        except ValueError:
            raise DocumentError(
                f"default_rule: expected 'mutual' or 'linked', got {raw_rule!r}"
            ) from None

    return GameInstance(
        n=n,
        coalitions=tuple(coalitions),
        profiles=tuple(profiles),
        payoff_matrix=payoff_matrix,
        default_rule=default_rule,
    )


def instance_to_document(instance: GameInstance) -> dict:
    doc: dict = {
        "schema": SCHEMA,
        "players": instance.n,
        "coalitions": [
            {
                "members": [m + 1 for m in c.members],
                "income": format_fraction(c.income),
                "shares": {
                    str(m + 1): format_fraction(s)
                    for m, s in sorted(c.shares.items())
                },
            }
            for c in instance.coalitions
        ],
    }
    if instance.profiles:
        doc["profiles"] = [
            {
                "offers": [list(row) for row in p.offers],
                "acceptances": [list(row) for row in p.acceptances],
            }
            for p in instance.profiles
        ]
    if instance.payoff_matrix is not None:
        doc["payoff_matrix"] = [
            [format_fraction(v) for v in row] for row in instance.payoff_matrix
        ]
    if instance.default_rule is not None:
        doc["default_rule"] = instance.default_rule.value
    return doc


def load_instance(text: str, strict: bool = False) -> GameInstance:
    """Parse a JSON document and validate the instance it describes.

    Structural problems and validation errors raise DocumentError; in
    lenient mode a share sum different from 1 is only a warning, which
    callers can re-derive with validate_instance.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from None
    instance = instance_from_document(doc)
    report = validate_instance(instance, strict=strict)
    if report.errors:
        raise DocumentError("; ".join(report.errors))
    return instance


def save_instance(instance: GameInstance) -> str:
    """Serialize deterministically: same instance, same bytes."""
    return json.dumps(instance_to_document(instance), indent=2) + "\n"


def load_instance_file(path, strict: bool = False) -> GameInstance:
    return load_instance(Path(path).read_text(encoding="utf-8"), strict=strict)


def save_instance_file(instance: GameInstance, path) -> None:
    Path(path).write_text(save_instance(instance), encoding="utf-8")


def to_csv(header, rows) -> str:
    """CSV text with a header row; values are written as given."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
