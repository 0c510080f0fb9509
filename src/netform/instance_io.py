"""Reading and writing game instances as JSON documents.

Incomes, shares, and payoff-table entries travel as exact fraction
strings ("3", "-6", "5/4"); floats are rejected so nothing is ever
rounded.  Players and profile indices are 1-based in documents and on
every CLI surface, 0-based inside the engine.

The parser reads the integer literals 0 and 1 as the one-byte cells
b"\x00" and b"\x01", so a row of a 0/1 matrix becomes its `bytes` row
with one join.  Every other read of a number turns such a cell back
into its int (`_number`), so no cell leaves this module.
"""

from __future__ import annotations

import codecs
import os
import re
import sys
from fractions import Fraction
from itertools import repeat

from .formation import Network, OfferProfile
from .model import (
    ActivationRule,
    CoalitionSpec,
    GameInstance,
    validate_instance,
)

SCHEMA = "game-instance/1"


class DocumentError(ValueError):
    """A document could not be parsed or failed validation."""


def _quoted(value) -> str:
    """repr(value) as a refusal prints it: whole up to 60 characters, cut
    to 59 and "…" when longer, so no message is as long as its input."""
    text = repr(value)
    return text if len(text) <= 60 else text[:59] + "…"


def parse_fraction(value, where: str) -> Fraction:
    """Exact rational from a JSON value: int, or a string Fraction accepts
    ("3", "-5/4", "0.25").

    JSON floats are refused so precision loss cannot sneak in upstream,
    and so is exponent notation: Fraction would expand "1e1000000000"
    digit by digit.  So is a string that is not ASCII or holds "_":
    Fraction reads "٣" as 3, and "1_000" as 1000 from Python 3.11 on only.
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
        if re.search(r"[\d.][eE][-+]?\d", value):
            raise DocumentError(f"{where}: exponent notation is not accepted, got {_quoted(value)}")
        if not value.isascii() or "_" in value:
            raise DocumentError(f"{where}: bad fraction {_quoted(value)}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            shown = _quoted(value)  # Fraction's reason repeats the value: a cut one drops it
            reason = f" ({exc})" if shown == repr(value) else ""
            raise DocumentError(f"{where}: bad fraction {shown}{reason}") from None
    raise DocumentError(f"{where}: expected a fraction string, got {type(value).__name__}")


def _number(value):
    """A parsed value, with a 0/1 cell read back as its int."""
    return _CELL_INTS.get(value, value) if type(value) is bytes else value


def _bit_cells(rows):
    """A parsed 0/1 matrix as `formation.bit_rows` takes it: its `bytes`
    rows, one join per row, when every row is a list of 0/1 cells;
    otherwise the rows with their cells read back as ints, which
    `bit_rows` converts or refuses as it does any list of rows."""
    if type(rows) is not list:
        return _number(rows)
    if all(map(isinstance, rows, repeat(list))):
        try:  # join refuses every cell but a 0/1 one: true, 2, -0, "1", null, a list
            return tuple(map(b"".join, rows))
        except TypeError:
            pass
    return [list(map(_number, row)) if type(row) is list else _number(row) for row in rows]


def _field(doc: dict, key: str, where: str):
    if key not in doc:
        raise DocumentError(f"{where}: missing required field {key!r}")
    return doc[key]


def _expect(doc: dict, key: str, kind, where: str):
    value = _number(_field(doc, key, where))
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


def instance_from_document(doc) -> GameInstance:
    """Build an instance from a parsed JSON document (structure only;
    semantic validation is the loader's second step).  Each distinct
    fraction string is parsed once, where it first occurs, so a bad one
    is reported at its first field."""
    parsed: dict[str, Fraction] = {}

    def fraction(value, where: str) -> Fraction:
        if type(value) is not str:
            return parse_fraction(_number(value), where)
        if value not in parsed:
            parsed[value] = parse_fraction(value, where)
        return parsed[value]

    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    schema = _expect(doc, "schema", str, "document")
    if schema != SCHEMA:
        raise DocumentError(f"document.schema: expected {SCHEMA!r}, got {_quoted(schema)}")
    n = _expect(doc, "players", int, "document")

    coalitions = []
    raw_coalitions = _expect(doc, "coalitions", list, "document")
    for idx, raw in enumerate(raw_coalitions):
        where = f"coalitions[{idx}]"
        if not isinstance(raw, dict):
            raise DocumentError(f"{where}: expected an object")
        members_raw = _expect(raw, "members", list, where)
        members = []
        for m in map(_number, members_raw):
            if isinstance(m, bool) or not isinstance(m, int):
                raise DocumentError(f"{where}.members: players must be integers")
            members.append(m - 1)
        income = fraction(_expect(raw, "income", (str, int), where), f"{where}.income")
        shares = None  # omitted: CoalitionSpec splits the income evenly
        if "shares" in raw:
            shares = {}
            for key, v in _expect(raw, "shares", dict, where).items():
                digits = key.strip()  # the whitespace int strips
                try:  # ASCII digits only: int would also take "1_0", "+2" and "٢"
                    if not (digits.isascii() and digits.isdigit()):
                        raise ValueError
                    player = int(digits)
                except ValueError:
                    raise DocumentError(f"{where}.shares: bad player key {_quoted(key)}") from None
                if player - 1 in shares:
                    raise DocumentError(f"{where}.shares: repeated player key {_quoted(key)}")
                shares[player - 1] = fraction(v, f"{where}.shares[{_quoted(key)}]")
        coalitions.append(CoalitionSpec(members, income, shares))

    profiles = []
    raw_profiles = []  # omitted or null: no profiles
    if doc.get("profiles") is not None:
        raw_profiles = _expect(doc, "profiles", list, "document")
    for idx, raw in enumerate(raw_profiles):
        where = f"profiles[{idx}]"
        if not isinstance(raw, dict):
            raise DocumentError(f"{where}: expected an object")
        offers = _bit_cells(_field(raw, "offers", where))
        acceptances = _bit_cells(_field(raw, "acceptances", where))
        try:
            profiles.append(OfferProfile(offers, acceptances))
        except ValueError as exc:
            raise DocumentError(f"{where}.{exc}") from None

    payoff_matrix = None
    if doc.get("payoff_matrix") is not None:
        raw_matrix = doc["payoff_matrix"]
        if not isinstance(raw_matrix, list) or not all(
            isinstance(r, list) for r in raw_matrix
        ):
            raise DocumentError("payoff_matrix: expected a list of rows")
        payoff_matrix = tuple(
            tuple(
                fraction(v, f"payoff_matrix[{r}][{c}]")
                for c, v in enumerate(row)
            )
            for r, row in enumerate(raw_matrix)
        )

    default_rule = None
    if doc.get("default_rule") is not None:
        raw_rule = _number(doc["default_rule"])
        try:
            default_rule = ActivationRule(raw_rule)
        except ValueError:
            raise DocumentError(
                f"default_rule: expected 'mutual' or 'linked', got {_quoted(raw_rule)}"
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
                "income": str(c.income),
                "shares": {
                    str(m + 1): str(s)
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
            [str(v) for v in row] for row in instance.payoff_matrix
        ]
    if instance.default_rule is not None:
        doc["default_rule"] = instance.default_rule.value
    return doc


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict, refusing a key written twice, whose first
    value plain `json.loads` would drop without a word."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise DocumentError(f"repeated object key {_quoted(key)}")
            seen.add(key)
    return obj


class _Literals(dict):
    """The value of a JSON integer literal, looked up by its text: the
    literals 0 and 1 are the cells b"\x00" and b"\x01", each one cached
    object, and every other literal is converted to an int."""

    def __missing__(self, literal: str) -> int:
        try:
            return int(literal)
        except ValueError:  # the scanner passes only valid literals: this is the digit limit
            raise ValueError(
                f"an integer literal has more than {sys.get_int_max_str_digits()} digits"
            ) from None


_LITERALS = _Literals({"0": b"\x00", "1": b"\x01"})
_CELL_INTS = {b"\x00": 0, b"\x01": 1}


def _parse_json(text: str, prefix: str = ""):
    """The value a JSON text holds, with its 0/1 literals as `_LITERALS`
    cells.  Bad JSON, an integer literal longer than the interpreter's
    digit limit and nesting too deep for the parser's recursion raise
    DocumentError, whose message starts with prefix + "not valid JSON: ";
    a repeated object key raises `_unique_keys`' own."""
    import json  # here: a command that reads no document never loads it

    try:
        return json.loads(text, object_pairs_hook=_unique_keys, parse_int=_LITERALS.__getitem__)
    except DocumentError:
        raise
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise DocumentError(f"{prefix}not valid JSON: {exc}") from None


def _json_text(value) -> str:
    """`json.dumps(value, indent=2)`, byte for byte, for the values that
    records and documents hold: dicts with str keys, lists, tuples, str,
    int, bool and None; any other value raises TypeError.  An indent
    sends `json.dumps` to its pure-Python encoder; this writer quotes
    each string with the C encoder's `encode_basestring_ascii`, and
    writes a list of only strings, or only ints, with one join."""
    from json.encoder import encode_basestring_ascii  # here, as `_parse_json` imports json

    return _json_write(value, "\n", encode_basestring_ascii)


def _json_write(value, indent: str, quoted) -> str:
    """`_json_text` of a value whose line starts with indent: a newline
    and two spaces per level of nesting."""
    kind = type(value)
    if kind is str:
        return quoted(value)
    if kind is int:
        return str(value)
    if kind is dict or kind is list or kind is tuple:
        if not value:
            return "{}" if kind is dict else "[]"
        inner = indent + "  "
        if kind is dict:  # quoted raises TypeError for a key that is not a str
            items = [f"{quoted(k)}: {_json_write(v, inner, quoted)}" for k, v in value.items()]
            return "{" + inner + ("," + inner).join(items) + indent + "}"
        kinds = set(map(type, value))
        if kinds == {str}:
            items = map(quoted, value)
        elif kinds == {int}:
            items = map(str, value)
        else:
            items = [_json_write(v, inner, quoted) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def validated_warnings(instance: GameInstance, strict: bool) -> tuple[str, ...]:
    """An instance's validation warnings, or DocumentError naming every
    error.  Its faults are found once per instance, so calling this
    again, as the CLI does on an instance a loader checked, costs only
    the split into errors and warnings."""
    report = validate_instance(instance, strict=strict)
    if report.errors:
        raise DocumentError("; ".join(report.errors))
    return report.warnings


def load_instance(text: str, strict: bool = False) -> GameInstance:
    """Parse a JSON document and validate the instance it describes.

    Structural problems, a repeated object key and validation errors
    raise DocumentError; in lenient mode a share sum different from 1 is
    only a warning, which `validated_warnings` returns.
    """
    instance = instance_from_document(_parse_json(text))
    validated_warnings(instance, strict)
    return instance


def save_instance(instance: GameInstance) -> str:
    """Serialize deterministically: same instance, same bytes."""
    return _json_text(instance_to_document(instance)) + "\n"


def _read_text(path) -> str:
    """A file's text as `open(path, encoding="utf-8").read()` gives it,
    errors and their positions included: one binary read and one decode,
    with "\\r\\n" and a lone "\\r" turned into "\\n" only when the file
    holds a carriage return."""
    with open(path, "rb") as file:
        return _text_of(file)


def _text_of(file) -> str:
    """`_read_text` on the rest of an open binary file; its bytes are
    dropped on return."""
    data = file.read()
    text = data.decode("utf-8")
    if b"\r" in data:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


_CHUNK = 1 << 20  # bytes `_holds` reads at a time: at least 4, since up to 3 are carried


def _holds(file, text: str) -> bool | None:
    """Whether the rest of an open binary file, read as `_read_text`
    reads it, is `text`, found without a copy of the file: it is read
    into one reused buffer of `_CHUNK` bytes, or 4 more than the text's
    length when that is less, so a small file leaves no large block in
    the process.  Each chunk is decoded as UTF-8 in place, with the
    bytes of a character it splits carried to the next, and compared
    with `text` where it should occur.  None when only a whole read can
    settle it: a chunk holds "\\r", which the whole read turns into
    "\\n", or the file is not UTF-8, whose error the whole read places."""
    buffer = bytearray(min(_CHUNK, len(text) + 4))
    view = memoryview(buffer)
    carried = offset = 0
    while size := file.readinto(view[carried:]):
        end = carried + size
        if buffer.find(b"\r", carried, end) >= 0:
            return None
        try:
            part, used = codecs.utf_8_decode(view[:end], "strict", False)
        except UnicodeDecodeError:
            return None
        if not text.startswith(part, offset):
            return False
        offset += len(part)
        del part  # before the next chunk's is decoded
        carried = end - used
        buffer[:carried] = buffer[used:end]
    return None if carried else offset == len(text)


# the last two distinct texts loaded from files, most recent first, each
# with its instance: two, so that commands alternating between two files
# parse neither again, while at most two documents are kept alive
_kept: tuple[tuple[str, GameInstance], ...] = ()


def _held_entry(file, kept):
    """The kept entry whose text an open binary file holds, found by
    `_holds` without a copy of the file, or None, with the file back at
    its start.  Only a seekable file is compared, and an ASCII text only
    with a file of its length, so a miss on a regular file is read once."""
    if not kept or not file.seekable():
        return None
    size = os.fstat(file.fileno()).st_size
    for entry in kept:
        if entry[0].isascii() and len(entry[0]) != size:
            continue
        held = _holds(file, entry[0])
        if held:
            return entry
        file.seek(0)
        if held is None:
            break
    return None


def load_instance_file(path, strict: bool = False) -> GameInstance:
    """`load_instance` on the text of a file, read on every call.

    The loader keeps the last two distinct texts it built an instance
    from, with those instances, most recent first.  A file holding a
    kept text gets that instance back, which `validated_warnings` checks
    again, so a command still warns, or refuses under `strict`, every
    time; once checked, its entry moves to the front.  An instance is
    immutable, so its payoff index, findings, networks and payoff tables
    carry over with it.  A seekable file is compared with the kept texts
    in place, chunk by chunk, with no copy of the file; a pipe, a file
    holding "\\r" and one that is not UTF-8 are read whole, decoded and
    compared as text, so a CRLF copy of a kept text is a hit too.  Any
    other text is parsed and built afresh and goes in front, pushing out
    the least recent entry; a text that is refused leaves both entries
    as they were."""
    global _kept
    kept = _kept  # one read: another thread may replace it meanwhile
    with open(path, "rb") as file:
        held = _held_entry(file, kept)
        text = held[0] if held else _text_of(file)
    for entry in kept:
        if entry[0] == text:
            validated_warnings(entry[1], strict)
            if entry is not kept[0]:
                _kept = (entry, kept[0])
            return entry[1]
    instance = load_instance(text, strict)
    _kept = ((text, instance), *kept[:1])
    return instance


def load_network_file(path) -> Network:
    """The network whose JSON adjacency matrix a file holds, read as a
    document's profile matrices are; bad JSON raises DocumentError
    starting "network file is not valid JSON: ", and a matrix
    `Network.from_matrix` refuses raises its ValueError."""
    return Network.from_matrix(_bit_cells(_parse_json(_read_text(path), "network file is ")))
