"""JSON document round trips and validation failure modes."""

from __future__ import annotations

import ast
import json
import os
import re
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netform
from netform import (
    ActivationRule,
    DocumentError,
    GameInstance,
    CoalitionSpec,
    load_instance,
    random_instance,
    save_instance,
    worked_example,
)
from netform import formation, instance_io
from netform.datasets import intersecting_example
from netform.formation import Network, OfferProfile
from netform.instance_io import (
    _json_text,
    instance_to_document,
    load_instance_file,
    load_network_file,
    parse_fraction,
    validated_warnings,
)

from oracles import oracle_load

DATA = Path(__file__).parent / "data"


def test_worked_example_round_trip():
    inst = worked_example()
    again = load_instance(save_instance(inst))
    assert again == inst


def test_intersecting_example_round_trip():
    inst = intersecting_example()
    assert load_instance(save_instance(inst)) == inst


def test_random_instances_round_trip():
    for seed in range(25):
        inst = random_instance(seed=seed, n=4 + seed % 3, coalition_count=seed % 5)
        assert load_instance(save_instance(inst)) == inst


def test_save_is_deterministic():
    a = save_instance(worked_example())
    b = save_instance(worked_example())
    assert a == b


def test_golden_documents_match_builtins():
    golden = (DATA / "worked_example.json").read_text(encoding="utf-8")
    assert load_instance(golden) == worked_example()
    assert save_instance(worked_example()) == golden
    golden = (DATA / "intersecting_example.json").read_text(encoding="utf-8")
    assert load_instance(golden) == intersecting_example()
    assert save_instance(intersecting_example()) == golden


# ---- the JSON writer

# strings with quotes, backslashes, control characters, non-ASCII
# characters and lone surrogates, each of which json escapes its own way
_JSON_STRINGS = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800\udfff') | st.characters(blacklist_categories=()),
    max_size=6,
)
_JSON_INTS = st.integers(-(2**70), 2**70)
_JSON_SCALARS = st.none() | st.booleans() | _JSON_INTS | _JSON_STRINGS


def _json_values(depth: int):
    """Values up to depth levels of nesting: dicts with str keys, lists
    and tuples, among them lists of only strings, of only ints and of
    ints and bools, which the writer joins whole or item by item."""
    if depth == 0:
        return _JSON_SCALARS
    inner = _json_values(depth - 1)
    return st.one_of(
        _JSON_SCALARS,
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_JSON_STRINGS, inner, max_size=4),
        st.lists(_JSON_STRINGS, max_size=4),
        st.lists(_JSON_INTS, max_size=4),
        st.lists(_JSON_INTS | st.booleans(), max_size=4),
    )


@given(value=_json_values(4))
@settings(max_examples=400)
def test_the_json_writer_matches_json_dumps_with_an_indent(value):
    assert _json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value", [0.5, [1, 0.5], b"1", {"a": Fraction(1, 2)}, Fraction(1, 2), {1: "a"}, {"a": 1, None: 2}]
)
def test_the_json_writer_refuses_any_other_type(value):
    with pytest.raises(TypeError):
        _json_text(value)


def test_a_saved_document_is_json_dumps_with_an_indent():
    # with profiles, a reference table and a rule, which the builtins'
    # golden documents do not all have
    for seed in range(10):
        inst = random_instance(seed=seed, n=3 + seed % 4, coalition_count=seed % 6)
        full = [[int(i != j) for j in range(inst.n)] for i in range(inst.n)]
        profiles = (OfferProfile(full, full), OfferProfile(full, [[0] * inst.n] * inst.n))
        table = tuple(tuple(Fraction(i - j, 1 + seed % 3) for j in range(inst.n)) for i in range(2))
        inst = GameInstance(inst.n, inst.coalitions, profiles, table, ActivationRule.MUTUAL)
        assert save_instance(inst) == json.dumps(instance_to_document(inst), indent=2) + "\n"


def test_file_round_trip(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(save_instance(worked_example()), encoding="utf-8")
    instance = load_instance_file(path)
    assert instance == worked_example()
    assert validated_warnings(instance, False) == ("coalition 7 (1,4,2): shares sum to 5/4, not 1",)


def _text_mode(path) -> str:
    """A file's text read in text mode, as the loaders once read it."""
    with open(path, encoding="utf-8") as file:
        return file.read()


def _result(call, *args):
    try:
        return ("ok", call(*args))
    except Exception as exc:
        return (type(exc), str(exc))


_WORKED = save_instance(worked_example()).encode()
_DOUBLE_COMMA = _WORKED.replace(b'"players": 5,', b'"players": 5,,')


@pytest.mark.parametrize(
    "load, data, outcome",
    [
        # a JSON error is placed by the text with its line ends turned into "\n"
        (load_instance_file, _DOUBLE_COMMA.replace(b"\n", b"\r\n"), (
            DocumentError, "not valid JSON: Expecting property name enclosed in double "
            "quotes: line 3 column 16 (char 48)")),
        (load_instance_file, _DOUBLE_COMMA.replace(b"\n", b"\r"), (
            DocumentError, "not valid JSON: Expecting property name enclosed in double "
            "quotes: line 3 column 16 (char 48)")),
        (load_instance_file, _WORKED.replace(b"\n", b"\r"), ("ok", worked_example())),
        # a byte order mark is kept, and JSON refuses it
        (load_instance_file, b"\xef\xbb\xbf" + _WORKED, (
            DocumentError, "not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
            "line 1 column 1 (char 0)")),
        # invalid UTF-8 is placed in the whole file, past the first 8 KiB too
        (load_instance_file, b'{"schema": "game-instance/1", "note": "' + b"x" * 9000 + b'\xff"}', (
            UnicodeDecodeError, "'utf-8' codec can't decode byte 0xff in position 9039: "
            "invalid start byte")),
        (load_network_file, b"[[0, 1],\r\n [1, 0],\r\n]", (
            DocumentError, "network file is not valid JSON: Expecting value: line 3 column 1 (char 18)")),
        (load_network_file, b"[[0,\r1],\r[1,\r0]]", ("ok", Network.from_matrix([[0, 1], [1, 0]]))),
        (load_network_file, b"\xef\xbb\xbf[[0, 1], [1, 0]]", (
            DocumentError, "network file is not valid JSON: Unexpected UTF-8 BOM (decode using "
            "utf-8-sig): line 1 column 1 (char 0)")),
        (load_network_file, b"[[0, 1], [1, 0]]" + b" " * 9000 + b"\xc3(", (
            UnicodeDecodeError, "'utf-8' codec can't decode byte 0xc3 in position 9016: "
            "invalid continuation byte")),
    ],
    ids=["crlf-error", "cr-error", "cr", "bom", "utf8-past-8k",
         "network-crlf-error", "network-cr", "network-bom", "network-utf8-past-8k"],
)
def test_a_file_reads_as_a_text_mode_read_gives_it(tmp_path, load, data, outcome):
    path = tmp_path / "file.json"
    path.write_bytes(data)
    assert _result(instance_io._read_text, path) == _result(_text_mode, path)
    assert _result(load, path) == outcome


# line ends, multi-byte characters and decoding errors
_PIECES = st.sampled_from([b"\r", b"\n", b"\r\n", b"a", b" " * 4096, b"\xe2\x82\xac",
                           b"\xe2", b"\xff", b"\xef\xbb\xbf"])


@given(chunks=st.lists(_PIECES, max_size=8))
@settings(max_examples=150, deadline=None)
def test_the_file_reader_matches_a_text_mode_read(tmp_path_factory, chunks):
    # line ends, multi-byte characters and decoding errors, across the
    # 8 KiB a text-mode read decodes at a time
    path = tmp_path_factory.mktemp("read") / "file"
    path.write_bytes(b"".join(chunks))
    assert _result(instance_io._read_text, path) == _result(_text_mode, path)


def test_one_text_at_two_paths_is_one_instance(tmp_path, monkeypatch):
    # the file loader keeps the last texts it built and their instances;
    # a refused text between two loads leaves them
    monkeypatch.setattr(instance_io, "_kept", ())
    text = save_instance(worked_example())
    first, second, bad = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "bad.json"
    first.write_text(text)
    second.write_text(text)
    bad.write_text(text.replace('"players": 5', '"players": 0'))
    kept = load_instance_file(first)
    assert load_instance_file(second) is kept
    with pytest.raises(DocumentError):
        load_instance_file(bad)
    assert load_instance_file(first) is kept
    # under strict, the kept instance is refused, and stays kept
    with pytest.raises(DocumentError, match="shares sum to 5/4"):
        load_instance_file(second, strict=True)
    assert load_instance_file(second) is kept
    # a text parsed from memory is always built afresh
    assert load_instance(text) is not load_instance(text)
    assert load_instance(text) == kept


@pytest.fixture
def builds(monkeypatch):
    """The player count of each document the file loader builds an
    instance from, starting from a loader that keeps nothing."""
    monkeypatch.setattr(instance_io, "_kept", ())
    build = instance_io.instance_from_document
    built = []

    def counting(doc):
        built.append(doc["players"])
        return build(doc)

    monkeypatch.setattr(instance_io, "instance_from_document", counting)
    return built


def _documents(tmp_path, *players):
    """One file per player count, each a valid random instance on it."""
    paths = []
    for n in players:
        path = tmp_path / f"players{n}.json"
        path.write_text(save_instance(random_instance(seed=n, n=n, coalition_count=1)))
        paths.append(path)
    return paths


def test_two_alternating_texts_are_each_built_once(tmp_path, builds):
    a, b = _documents(tmp_path, 3, 4)
    first = [load_instance_file(path) for path in (a, b)]
    for _ in range(3):
        for path, instance in zip((a, b), first):
            assert load_instance_file(path) is instance
    assert builds == [3, 4]
    assert [text for text, _ in instance_io._kept] == [b.read_text(), a.read_text()]


def test_a_third_text_pushes_out_the_least_recent(tmp_path, builds):
    a, b, c = _documents(tmp_path, 3, 4, 5)
    kept = load_instance_file(a)
    load_instance_file(b)
    assert load_instance_file(a) is kept  # a hit moves a to the front
    load_instance_file(c)  # so c pushes out b
    assert load_instance_file(a) is kept
    assert builds == [3, 4, 5]
    load_instance_file(b)
    assert builds == [3, 4, 5, 4]
    assert [inst.n for _, inst in instance_io._kept] == [4, 3]


def test_a_refused_text_leaves_both_kept_instances(tmp_path, builds):
    a, b = _documents(tmp_path, 3, 4)
    bad = tmp_path / "bad.json"
    bad.write_text(a.read_text().replace('"players": 3', '"players": 1025'))
    instances = [load_instance_file(path) for path in (a, b)]
    kept = instance_io._kept
    with pytest.raises(DocumentError):
        load_instance_file(bad)
    assert instance_io._kept is kept
    for path, instance in zip((b, a), instances[::-1]):
        assert load_instance_file(path) is instance
    assert builds == [3, 4, 1025]


def test_a_rewritten_file_is_built_again_and_its_old_text_is_kept(tmp_path, builds):
    a, b = _documents(tmp_path, 3, 4)
    path = tmp_path / "doc.json"
    path.write_text(a.read_text())
    old = load_instance_file(path)
    path.write_text(b.read_text())
    new = load_instance_file(path)
    assert new.n == 4 and builds == [3, 4]
    path.write_text(a.read_text())
    assert load_instance_file(path) is old
    assert builds == [3, 4]


def _noted(note: str) -> str:
    """A valid 3-player document whose text holds `note` in a field the
    loader ignores."""
    text = save_instance(random_instance(seed=3, n=3, coalition_count=1))
    return text.replace("{", '{"note": "' + note + '",', 1)


def _split_note(char: str) -> str:
    """`_noted` with `char` two bytes before the end of a 7-byte chunk,
    so a chunk ends inside its UTF-8 bytes."""
    start = len(_noted("").encode().partition(b'"note": "')[0]) + len('"note": "')
    text = _noted("x" * ((5 - start) % 7) + char + " and \u00e9")
    assert text.encode().index(char.encode()) % 7 == 5
    return text


def _refuse(*args):
    raise AssertionError("called")


@pytest.fixture
def chunk7(monkeypatch):
    """`_holds` reads 7 bytes at a time, so a document spans many chunks."""
    monkeypatch.setattr(instance_io, "_CHUNK", 7)


def test_a_file_holding_a_kept_text_is_a_hit_found_in_place(tmp_path, builds, chunk7, monkeypatch):
    kept_path, path = tmp_path / "kept.json", tmp_path / "doc.json"
    for text in (_noted("\u20ac\u00e9"), _noted("plain")):
        kept_path.write_text(text, encoding="utf-8")
        path.write_text(text, encoding="utf-8")
        kept = load_instance_file(kept_path)
        with open(path, "rb") as file:
            assert instance_io._holds(file, text) is True
        with monkeypatch.context() as patched:
            patched.setattr(instance_io, "_text_of", _refuse)  # no whole read
            assert load_instance_file(path) is kept
    assert builds == [3, 3]


@pytest.mark.parametrize(
    "kept_text, text",
    [
        (_noted("\u20ac"), _noted("\u20ac")[:-1] + " "),
        (_noted("\u20ac"), _noted("\u20ac")[:-1]),
        (_noted("\u20ac"), _noted("\u20ac") + " "),
        (_split_note("\u20ac"), _split_note("\u20ad")),
        (_noted("plain"), _noted("plain")[:-1] + " "),
    ],
    ids=["last-byte", "prefix", "extension", "split-character", "ascii-last-byte"],
)
def test_a_file_that_differs_from_the_kept_text_is_built_afresh(tmp_path, builds, chunk7, kept_text, text):
    kept_path, path = tmp_path / "kept.json", tmp_path / "doc.json"
    kept_path.write_text(kept_text, encoding="utf-8")
    path.write_text(text, encoding="utf-8")
    kept = load_instance_file(kept_path)
    with open(path, "rb") as file:
        assert instance_io._holds(file, kept_text) is False
    built = load_instance_file(path)  # an equal instance: only whitespace or the note differs
    assert built is not kept and built == kept
    assert builds == [3, 3]
    assert [entry[0] for entry in instance_io._kept] == [text, kept_text]


@pytest.mark.parametrize("note", ["\u20ac", "plain"])
def test_a_crlf_copy_of_a_kept_text_is_a_hit_through_a_whole_read(tmp_path, builds, chunk7, note):
    kept_path, path = tmp_path / "kept.json", tmp_path / "doc.json"
    kept_path.write_text(_noted(note), encoding="utf-8")
    path.write_bytes(kept_path.read_bytes().replace(b"\n", b"\r\n"))
    kept = load_instance_file(kept_path)
    with open(path, "rb") as file:
        assert instance_io._holds(file, _noted(note)) is None
    assert load_instance_file(path) is kept
    assert builds == [3]


@pytest.mark.parametrize(
    "damage",
    [
        lambda data: data[:-3] + b"\xff" + data[-2:],
        lambda data: data[:data.index("\u20ac".encode()) + 2],
    ],
    ids=["invalid-byte", "cut-character"],
)
def test_a_file_that_is_not_utf8_past_the_kept_text_raises_as_before(tmp_path, builds, chunk7, damage):
    kept_path, path = tmp_path / "kept.json", tmp_path / "doc.json"
    kept_path.write_text(_split_note("\u20ac"), encoding="utf-8")
    path.write_bytes(damage(kept_path.read_bytes()))
    load_instance_file(kept_path)
    kept = instance_io._kept
    with open(path, "rb") as file:
        assert instance_io._holds(file, _split_note("\u20ac")) is None
    outcome = _result(load_instance_file, path)
    assert outcome[0] is UnicodeDecodeError and outcome == _result(_text_mode, path)
    assert instance_io._kept is kept and builds == [3]


@given(chunks=st.lists(_PIECES, max_size=8), edit=st.lists(_PIECES, max_size=2),
       cut=st.integers(0, 8), drop=st.integers(0, 2), size=st.sampled_from([4, 5, 7, 4096]))
@settings(max_examples=150, deadline=None)
def test_holds_agrees_with_a_whole_read_whenever_it_answers(tmp_path_factory, chunks, edit, cut, drop, size):
    # the text is the file's own, or the file's with pieces dropped or
    # put in after `cut` pieces; a chunk of `size` bytes, at least 4
    path = tmp_path_factory.mktemp("holds") / "file"
    path.write_bytes(b"".join(chunks))
    source = b"".join(chunks[:cut] + edit + chunks[cut + drop:])
    text = source.decode("utf-8", "replace").replace("\r\n", "\n").replace("\r", "\n")
    with mock.patch.object(instance_io, "_CHUNK", size), open(path, "rb") as file:
        held = instance_io._holds(file, text)
    whole = _result(instance_io._read_text, path)
    if held is not None:
        assert held == (whole == ("ok", text))
    if whole[0] == "ok" and b"\r" not in path.read_bytes():  # nothing for a whole read to settle
        assert held is not None


def _through_fifo(tmp_path, data: bytes):
    """`load_instance_file` on a FIFO that a writer thread feeds `data`."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb") as end:
            end.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        return load_instance_file(fifo)
    finally:
        writer.join(timeout=10)
        fifo.unlink()
        assert not writer.is_alive()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_a_fifo_loads_as_its_file_does_and_is_a_hit_on_a_kept_text(tmp_path, builds, chunk7, monkeypatch):
    path = tmp_path / "doc.json"
    path.write_text(_noted("\u20ac"), encoding="utf-8")
    expected = load_instance(path.read_text(encoding="utf-8"))
    piped = _through_fifo(tmp_path, path.read_bytes())
    assert piped == expected
    assert load_instance_file(path) is piped
    monkeypatch.setattr(instance_io, "_holds", _refuse)  # a pipe is read whole
    assert _through_fifo(tmp_path, path.read_bytes()) is piped
    assert builds == [3, 3]  # the expected instance and the pipe's


def test_a_miss_on_a_file_of_no_kept_ascii_texts_size_is_not_compared(tmp_path, builds, monkeypatch):
    a, b, c = _documents(tmp_path, 3, 4, 5)
    assert len({path.stat().st_size for path in (a, b, c)}) == 3
    for path in (a, b):
        load_instance_file(path)
    monkeypatch.setattr(instance_io, "_holds", _refuse)
    assert load_instance_file(c).n == 5
    assert builds == [3, 4, 5]


@pytest.mark.parametrize("size", [64 << 10, 4 << 20], ids=["64KiB", "4MiB"])
def test_a_hit_allocates_no_copy_of_the_file(tmp_path, monkeypatch, size):
    # nor, on a file smaller than a chunk, a whole chunk
    monkeypatch.setattr(instance_io, "_kept", ())
    path = tmp_path / "doc.json"
    path.write_text(_noted("x" * size), encoding="utf-8")
    kept = load_instance_file(path)
    tracemalloc.start()
    try:
        assert load_instance_file(path) is kept
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size >= size
    assert peak < 3 * min(instance_io._CHUNK, size)


def test_document_shape():
    doc = instance_to_document(worked_example())
    assert doc["schema"] == "game-instance/1"
    assert doc["players"] == 5
    assert len(doc["coalitions"]) == 12
    assert doc["coalitions"][9] == {
        "members": [3, 2, 1],
        "income": "21",
        "shares": {"1": "1/3", "2": "1/3", "3": "1/3"},
    }
    assert doc["payoff_matrix"][4] == ["23", "21", "26", "15", "22"]
    assert doc["default_rule"] == "linked"
    assert len(doc["profiles"]) == 10


def test_not_json_is_a_positioned_parse_error():
    with pytest.raises(DocumentError, match=r"line 1 column"):
        load_instance("{nope")


def test_an_integer_past_the_digit_limit_is_refused_as_a_document():
    doc = instance_to_document(worked_example())
    text = json.dumps(doc).replace('"players": 5', '"players": ' + "9" * 5000, 1)
    with pytest.raises(DocumentError) as refused:
        load_instance(text)
    # an interpreter without a digit limit parses it, and validation refuses it
    if hasattr(sys, "get_int_max_str_digits"):
        limit = sys.get_int_max_str_digits()
        assert str(refused.value) == f"not valid JSON: an integer literal has more than {limit} digits"


@pytest.mark.parametrize("field", ['"members": [', '"offers": [[', '"payoff_matrix": [['])
def test_an_over_long_literal_in_any_field_is_refused_while_parsing(field):
    text = json.dumps(instance_to_document(worked_example())).replace(field, field + "9" * 5000 + ", ", 1)
    assert text.count("9" * 5000) == 1
    with pytest.raises(DocumentError) as refused:
        load_instance(text)
    if hasattr(sys, "get_int_max_str_digits"):
        assert str(refused.value).startswith("not valid JSON: an integer literal has more than ")


@pytest.mark.parametrize("strict", [False, True])
def test_a_key_written_twice_is_refused_at_any_depth(strict):
    text = save_instance(worked_example())
    # the first profile's offers, written again in front of the real ones
    doubled = text.replace('"offers":', '"offers": [], "offers":', 1)
    assert json.loads(doubled) == json.loads(text)  # what plain parsing keeps
    with pytest.raises(DocumentError, match="repeated object key 'offers'"):
        load_instance(doubled, strict=strict)


def test_wrong_schema_tag():
    doc = instance_to_document(worked_example())
    doc["schema"] = "something/9"
    with pytest.raises(DocumentError, match="schema"):
        load_instance(json.dumps(doc))


def test_missing_required_field():
    doc = instance_to_document(worked_example())
    del doc["players"]
    with pytest.raises(DocumentError, match="players"):
        load_instance(json.dumps(doc))


def test_zero_denominator_share_named():
    doc = instance_to_document(worked_example())
    doc["coalitions"][0]["shares"]["1"] = "1/0"
    with pytest.raises(DocumentError, match=r"coalitions\[0\].shares\['1'\]"):
        load_instance(json.dumps(doc))


def test_repeated_bad_fraction_is_named_at_its_first_field():
    # fraction strings are parsed once per document: the error must still
    # name the first field that holds the bad string
    doc = instance_to_document(worked_example())
    doc["coalitions"][2]["shares"]["1"] = "1//3"
    doc["coalitions"][5]["income"] = "1//3"
    with pytest.raises(DocumentError, match=r"^coalitions\[2\]\.shares\['1'\]: bad fraction '1//3'"):
        load_instance(json.dumps(doc))


def _refusal(edit) -> str:
    doc = instance_to_document(worked_example())
    edit(doc)
    with pytest.raises(DocumentError) as refused:
        load_instance(json.dumps(doc))
    return str(refused.value)


def _set(*path):
    def edit(doc):
        *parents, last = path[:-1]
        for key in parents:
            doc = doc[key]
        doc[last] = path[-1]
    return edit


def _add_share(value):
    return lambda doc: doc["coalitions"][0]["shares"].update({value: "0"})


@pytest.mark.parametrize(
    "edit, head",
    [
        (lambda v: _set("schema", v), ""),
        (lambda v: _set("default_rule", v), ""),
        (lambda v: _set("coalitions", 4, "income", v), ""),  # bad fraction
        (lambda v: _set("coalitions", 4, "income", v), "1e1"),  # exponent notation
        (_add_share, ""),  # bad player key
    ],
    ids=["schema", "default_rule", "bad fraction", "exponent", "share key"],
)
def test_a_refusal_quotes_a_document_value_at_most_60_characters_long(edit, head):
    value = head + "z" * (58 - len(head))  # a repr of exactly 60 characters
    assert repr(value) in _refusal(edit(value))
    cut = _refusal(edit(head + "z" * 100_000))
    assert cut.count("z") <= 58 and cut.endswith("z…")


def test_a_repeated_long_key_is_quoted_cut():
    key = "k" * 1000
    with pytest.raises(DocumentError) as refused:
        load_instance('{"%s": 1, "%s": 2}' % (key, key))
    assert str(refused.value) == f"repeated object key '{'k' * 58}…"


def test_float_income_rejected():
    doc = instance_to_document(worked_example())
    doc["coalitions"][0]["income"] = 4.5
    with pytest.raises(DocumentError, match="income.*got float"):
        load_instance(json.dumps(doc))


def test_bad_rule_value():
    doc = instance_to_document(worked_example())
    doc["default_rule"] = "chained"
    with pytest.raises(DocumentError, match="default_rule"):
        load_instance(json.dumps(doc))


def test_profile_entries_must_be_bits():
    doc = instance_to_document(worked_example())
    doc["profiles"][0]["offers"][0][1] = 2
    with pytest.raises(DocumentError, match=r"offers\[0\]\[1\]"):
        load_instance(json.dumps(doc))


@pytest.mark.parametrize("later_bad", [False, True])
@pytest.mark.parametrize("field", ["offers", "acceptances"])
@pytest.mark.parametrize("bad", [True, False, 1.0, "1", None, -1, 256, [1]])
def test_first_bad_profile_cell_is_named(field, bad, later_bad):
    # valid cells come first in the row; a later bad cell, when there is
    # one, must not be the one named
    doc = instance_to_document(worked_example())
    row = doc["profiles"][3][field][1]
    row[2] = bad
    if later_bad:
        row[4] = 2
    with pytest.raises(DocumentError, match=rf"profiles\[3\]\.{field}\[1\]\[2\]: entries must be 0 or 1"):
        load_instance(json.dumps(doc))


BAD_CELLS = [2, -1, 256, 10**30, True, False, 1.0, "1", None, [1], [[0]], {}]
NOT_LISTS = [{}, "ab", 3, True, None]  # outer values that are no list of rows at all
NAME = re.compile(r"^(offers|acceptances|adjacency)(.*)$")


@st.composite
def nested_matrices(draw):
    """A list of 2 to 5 rows, mostly square lists of 0/1 cells; some
    cells are replaced by other JSON values, and some rows are cut, grown
    or replaced by a cell."""
    n = draw(st.integers(min_value=2, max_value=5))
    bit = st.integers(min_value=0, max_value=1)
    rows = draw(st.lists(st.lists(bit, min_size=n, max_size=n), min_size=n, max_size=n))
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for (r, c), v in draw(st.dictionaries(cells, st.sampled_from(BAD_CELLS), max_size=3)).items():
        rows[r][c] = v
    odd_rows = st.sampled_from(BAD_CELLS + [[0] * (n + 1), [0]])
    for r, row in draw(st.dictionaries(st.integers(0, n - 1), odd_rows, max_size=1)).items():
        rows[r] = row
    return rows


def _outcome(read):
    """("ok", rows) or ("refused", message with its matrix name cut off)."""
    try:
        return "ok", read()
    except ValueError as exc:
        assert type(exc) in (ValueError, DocumentError)
        return "refused", NAME.match(str(exc).removeprefix("profiles[0].")).group(2)


def _oracle(rows):
    """What reading rows as a 0/1 matrix gives, checked one rule at a time."""
    if type(rows) is not list or not all(type(row) is list for row in rows):
        return "refused", " must be a list of rows"
    n = len(rows)
    if any(len(row) != n for row in rows):
        return "refused", f" must be a square {n}x{n} matrix"
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if type(v) is not int or v not in (0, 1):
                return "refused", f"[{r}][{c}]: entries must be 0 or 1"
    return "ok", tuple(bytes(row) for row in rows)


@given(
    st.one_of(st.sampled_from(NOT_LISTS), nested_matrices()),
    st.sampled_from(["offers", "acceptances"]),
)
@settings(max_examples=300)
def test_every_matrix_reader_names_the_first_bad_cell(rows, field):
    # the loader, OfferProfile on the drawn rows and on bytes rows, and
    # Network.from_matrix accept the same matrices, read the same rows and
    # refuse the same first bad cell, by its position, or a value that is
    # no list of rows with one message
    n = len(rows) if type(rows) is list else 2
    matrices = {"offers": [[0] * n for _ in range(n)], "acceptances": [[0] * n for _ in range(n)]}
    matrices[field] = rows
    doc = {
        "schema": "game-instance/1",
        "players": n,
        "coalitions": [{"members": [1, 2], "income": "1"}],
        "profiles": [matrices],
    }
    expected = _oracle(rows)
    loaded = _outcome(lambda: getattr(load_instance(json.dumps(doc)).profiles[0], field))
    assert loaded == expected
    assert _outcome(lambda: getattr(OfferProfile(**matrices), field)) == expected
    if type(rows) is list and all(type(row) is list and len(row) == n for row in rows) and all(
        type(v) is int and 0 <= v < 256 for row in rows for v in row
    ):
        as_bytes = {k: tuple(map(bytes, m)) for k, m in matrices.items()}
        assert _outcome(lambda: getattr(OfferProfile(**as_bytes), field)) == expected
    if expected[0] == "ok":
        expected = "ok", tuple(
            bytes(v * (i != j) for j, v in enumerate(row)) for i, row in enumerate(rows)
        )
    assert _outcome(lambda: Network.from_matrix(rows).matrix()) == expected


def test_loaded_profile_rows_are_bytes_of_0_and_1():
    loaded = load_instance(save_instance(worked_example()))
    for profile in loaded.profiles:
        for matrix in (profile.offers, profile.acceptances):
            assert type(matrix) is tuple
            assert all(type(row) is bytes for row in matrix)
            # every cell reads back as exactly the int 0 or 1, never a bool
            assert {type(v) for row in matrix for v in row} == {int}
            assert {v for row in matrix for v in row} == {0, 1}


def test_a_loaded_profile_keeps_the_parsed_rows(monkeypatch):
    # the parser's exact `bytes` rows are taken as they are, with no conversion
    parsed = []
    bit_cells = instance_io._bit_cells
    monkeypatch.setattr(instance_io, "_bit_cells", lambda rows: parsed.append(bit_cells(rows)) or parsed[-1])
    loaded = load_instance(save_instance(worked_example()))
    kept = [m for p in loaded.profiles for m in (p.offers, p.acceptances)]
    assert len(kept) == len(parsed) == 20
    assert all(m is rows for m, rows in zip(kept, parsed))


def test_rows_of_a_bytes_subclass_are_converted():
    class Row(bytes):
        pass

    profile = OfferProfile([Row(b"\x00\x01"), b"\x00\x00"], (Row(b"\x00\x00"), Row(b"\x01\x00")))
    assert all(type(row) is bytes for row in (*profile.offers, *profile.acceptances))
    assert profile == OfferProfile([[0, 1], [0, 0]], [[0, 0], [1, 0]])


def test_each_loaded_profile_matrix_is_checked_once(monkeypatch):
    # `bit_rows` reads and checks each matrix once: one square check and
    # one 0/1 pass (a `bytes.translate`) per matrix
    text = save_instance(worked_example())
    passes = []

    def count(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", "") == "translate":
            passes.append(frame.f_globals["__name__"])

    sys.setprofile(count)
    try:
        loaded = load_instance(text)
    finally:
        sys.setprofile(None)
    assert passes == ["netform.formation"] * 2 * len(loaded.profiles)
    checked = []
    read = formation.bit_rows
    monkeypatch.setattr(formation, "bit_rows", lambda rows, name: checked.append(name) or read(rows, name))
    assert load_instance(text) == loaded
    assert checked == ["offers", "acceptances"] * len(loaded.profiles)


def test_a_document_of_0_1_literals_never_runs_the_per_cell_type_pass(monkeypatch):
    # the loader joins each row of 0/1 literals into `bytes`, which no
    # bool can be, so `bit_rows` has no cell to look at; a list of ints
    # from a caller still takes the pass
    passes = []
    int_cells = formation._int_cells
    monkeypatch.setattr(formation, "_int_cells", lambda rows: passes.append(rows) or int_cells(rows))
    assert load_instance(save_instance(worked_example())) == worked_example()
    assert passes == []
    OfferProfile([[0, 1], [0, 0]], [[0, 0], [1, 0]])
    assert len(passes) == 2


def test_a_bool_cell_from_a_caller_is_still_refused():
    with pytest.raises(ValueError, match=r"^offers\[0\]\[1\]: entries must be 0 or 1$"):
        OfferProfile([[0, True], [0, 0]], [[0, 0], [0, 0]])


# literals that the parser reads as cells (0, 1), as ints (-0, 2), or as
# values of another type; each may stand in any numeric field of a document
LITERALS = ["0", "1", "-0", "2", "true", '"1"', "1.0"]
LITERAL_FIELDS = ["schema", "players", "members", "income", "shares", "cells", "payoffs", "default_rule"]


def _raw_json(value) -> str:
    """The JSON text of nested dicts and lists whose leaves are JSON texts."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_raw_json(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_raw_json, value)) + "]"
    return value


@st.composite
def literal_documents(draw):
    """The JSON text of a small document in which up to three kinds of
    field hold drawn literals in place of some of their valid values."""
    n = draw(st.integers(min_value=2, max_value=3))
    chosen = draw(st.sets(st.sampled_from(LITERAL_FIELDS), max_size=3))

    def value(field, valid):
        return draw(st.sampled_from([valid, valid] + LITERALS)) if field in chosen else valid

    def matrix():
        rows = [[draw(st.sampled_from(["0", "1"])) for _ in range(n)] for _ in range(n)]
        if "cells" in chosen:
            for r, c in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2)):
                rows[r][c] = draw(st.sampled_from(LITERALS))
        return rows

    return _raw_json({
        "schema": value("schema", '"game-instance/1"'),
        "players": value("players", str(n)),
        "coalitions": [{
            "members": [value("members", "1"), value("members", "2")],
            "income": value("income", '"3"'),
            "shares": {"1": value("shares", '"1/2"'), "2": value("shares", '"1/2"')},
        }],
        "profiles": [{"offers": matrix(), "acceptances": matrix()} for _ in range(2)],
        "payoff_matrix": [[value("payoffs", '"1"') for _ in range(n)] for _ in range(2)],
        "default_rule": value("default_rule", '"linked"'),
    })


@given(literal_documents())
@settings(max_examples=300)
def test_0_1_literals_load_as_plain_ints_do(text):
    # reading 0 and 1 as cells changes no accepted instance and no
    # refusal, and no message names the cells' type
    try:
        loaded = "ok", load_instance(text)
    except DocumentError as exc:
        loaded = "refused", str(exc)
    assert loaded == oracle_load(text)
    assert "bytes" not in str(loaded[1])


def test_validation_errors_surface_on_load():
    doc = {
        "schema": "game-instance/1",
        "players": 3,
        "coalitions": [
            {"members": [1, 1, 2], "income": "1", "shares": {"1": "1/2", "2": "1/2"}}
        ],
    }
    with pytest.raises(DocumentError, match="repeated member"):
        load_instance(json.dumps(doc))


def test_strict_mode_rejects_share_sums():
    doc = {
        "schema": "game-instance/1",
        "players": 2,
        "coalitions": [
            {"members": [1, 2], "income": "1", "shares": {"1": "1/2", "2": "1/4"}}
        ],
    }
    text = json.dumps(doc)
    lenient = load_instance(text)
    assert isinstance(lenient, GameInstance)
    with pytest.raises(DocumentError, match="shares sum"):
        load_instance(text, strict=True)


def test_fraction_strings_stay_exact():
    assert parse_fraction("5/4", "x") == Fraction(5, 4)
    assert parse_fraction("-6", "x") == Fraction(-6)
    assert parse_fraction(3, "x") == Fraction(3)
    with pytest.raises(DocumentError, match="bad fraction"):
        parse_fraction("one half", "x")
    with pytest.raises(DocumentError, match="floats"):
        parse_fraction(0.5, "x")


def test_members_one_based_in_documents():
    inst = GameInstance(n=3, coalitions=(CoalitionSpec((0, 2), 1),))
    doc = instance_to_document(inst)
    assert doc["coalitions"][0]["members"] == [1, 3]
    assert set(doc["coalitions"][0]["shares"]) == {"1", "3"}
    assert load_instance(json.dumps(doc)) == inst


def test_readme_instance_document_loads():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Instance documents", 1)[1]
    text = section.split("```json\n", 1)[1].split("```", 1)[0]
    inst = load_instance(text)
    assert inst.n == 3 and len(inst.profiles) == 1
    assert inst.default_rule is ActivationRule.MUTUAL
    # the triple omits shares: its income is split evenly
    assert inst.coalitions[1].shares == {0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)}


def test_readme_library_block_runs_and_shows_its_outputs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    scope: dict = {}
    shown = []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README", "exec"), scope)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README", "eval"), scope)
        # an output the README shows is the comment line right below
        below = lines[stmt.end_lineno] if stmt.end_lineno < len(lines) else ""
        if below.startswith("# "):
            assert below[2:].startswith(repr(value)), below
            shown.append(value)
    assert shown == [(19, 21, 24, 12, 18), (4,)]
    # the entry points the README lists are exactly the package's exports
    listed = readme.split("Key entry points:", 1)[1].split("\n\n", 1)[0]
    assert set(re.findall(r"`(\w+)`", listed)) == set(netform.__all__)


def _pair_doc(income="1", share="1/2", cell="0") -> str:
    return json.dumps({
        "schema": "game-instance/1",
        "players": 2,
        "coalitions": [{"members": [1, 2], "income": income, "shares": {"1": share, "2": "1/2"}}],
        "payoff_matrix": [["0", cell]],
    })


@pytest.mark.parametrize(
    "field, where",
    [
        ({"income": "1e9"}, "coalitions[0].income"),
        ({"share": "5E-1"}, "coalitions[0].shares['1']"),
        ({"cell": "2e3"}, "payoff_matrix[0][1]"),
    ],
)
def test_exponent_notation_is_refused(field, where):
    with pytest.raises(DocumentError, match=r"exponent notation") as err:
        load_instance(_pair_doc(**field))
    assert str(err.value).startswith(where)


@pytest.mark.parametrize("text", ["1_000", "٢", "1/٣"])
@pytest.mark.parametrize(
    "field, where",
    [("income", "coalitions[0].income"), ("share", "coalitions[0].shares['1']"),
     ("cell", "payoff_matrix[0][1]")],
)
def test_a_fraction_string_that_is_not_ascii_or_holds_an_underscore_is_refused(field, where, text):
    # Fraction reads "1_000" as 1000 from Python 3.11 on only, and the
    # Arabic-Indic digits as 2 and 1/3 on every version
    with pytest.raises(DocumentError) as refused:
        load_instance(_pair_doc(**{field: text}))
    assert str(refused.value) == f"{where}: bad fraction {text!r}"


@pytest.mark.parametrize(
    "doc, message",
    [
        (_pair_doc(share=True), "coalitions[0].shares['1']: expected a fraction string, got True"),
        (
            _pair_doc().replace('[["0", "0"]]', '[[false, "0"]]'),
            "payoff_matrix[0][0]: expected a fraction string, got False",
        ),
    ],
)
def test_a_json_boolean_is_not_a_fraction(doc, message):
    with pytest.raises(DocumentError) as refused:
        load_instance(doc)
    assert str(refused.value) == message
