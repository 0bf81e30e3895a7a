import json
import os
import re
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from topecycles import io
from topecycles.arrangements import hypercube_topes, moment_curve, rank2_fan, totally_cyclic_fan
from topecycles.cli import main
from topecycles.core import DimensionError, _masks, _minus_mask, parse_sign_vector, sign_vector_str
from topecycles.cycles import CycleError, canonical_hypercube_cycle, find_symmetric_cycle
from topecycles.decomposition import decompose

from reference import text_mask


def test_rational_round_trip():
    for text in ("3", "-7/2", "0", "22/7"):
        assert io.rational_to_str(io.rational_from_str(text)) == text
    assert io.rational_to_str(Fraction(4, 2)) == "2"
    # an integer string reads as an int, a quotient as a Fraction, each by value
    for text, value in (("-7", -7), ("007", 7), ("-0", 0), ("6/4", Fraction(3, 2)), ("-8/4", -2)):
        assert io.rational_from_str(text) == value
        assert type(io.rational_from_str(text)) is (Fraction if "/" in text else int)


def test_rational_rejects_garbage():
    for bad in ("1/0", "x", "", 3, "3.5"):
        with pytest.raises(io.SchemaError):
            io.rational_from_str(bad)


@pytest.mark.parametrize("text", ["１", "٣/٢", "1/２", "-𝟕"])
def test_rationals_are_ascii_digits(text, capsys, tmp_path):
    # a digit outside ASCII (fullwidth, Arabic-Indic, mathematical) is no rational, in the reader and the CLI
    with pytest.raises(io.SchemaError, match=f"^rationals must be strings 'p' or 'p/q', got {re.escape(repr(text))}$"):
        io.rational_from_str(text)
    path = tmp_path / "arr.json"
    path.write_text(json.dumps({"t": 2, "dim": 2, "normals": [[text, "0"], ["0", "1"]]}))
    assert main(["topes", "--arrangement", str(path)]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("form", ["{}", "-1/{}", "{}/7"])
@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no limit on integer strings before 3.10.7")
def test_rational_over_the_digit_limit_is_a_schema_error(form):
    # int() refuses more than sys.get_int_max_str_digits() digits with a bare ValueError
    limit = sys.get_int_max_str_digits()
    text = form.format("3" * (limit + 700))
    with pytest.raises(io.SchemaError, match=f"has {limit + 700} digits, more than the {limit} this interpreter reads$"):
        io.rational_from_str(text)


def test_arrangement_doc_round_trip():
    for arr in (rank2_fan(4), moment_curve(5, 3), totally_cyclic_fan(5)):
        assert io.arrangement_from_doc(io.arrangement_to_doc(arr)) == arr


def test_arrangement_doc_schema_errors():
    doc = io.arrangement_to_doc(rank2_fan(3))
    for mutate in (
        lambda d: d.pop("t"),
        lambda d: d.__setitem__("t", 2),
        lambda d: d.__setitem__("t", "3"),
        lambda d: d.__setitem__("normals", [["1"]]),
        lambda d: d["normals"][0].append("1"),
        lambda d: d["normals"][0].__setitem__(0, "1/0"),
    ):
        broken = json.loads(json.dumps(doc))
        mutate(broken)
        with pytest.raises(io.SchemaError):
            io.arrangement_from_doc(broken)


def test_tope_set_doc_round_trip():
    topes = [parse_sign_vector(s) for s in ("+++", "++-", "---", "--+")]
    t, strings, form = io.tope_set_from_doc(io.tope_set_to_doc(3, topes))
    assert t == 3 and list(map(parse_sign_vector, strings)) == topes
    assert _masks(form, t) == [_minus_mask(v, t) for v in topes]


def test_tope_set_doc_rejects_wrong_length():
    with pytest.raises(io.SchemaError):
        io.tope_set_from_doc({"t": 3, "topes": ["++"]})
    with pytest.raises(io.SchemaError):
        io.tope_set_from_doc({"t": 3, "topes": ["+x+"]})
    with pytest.raises(io.SchemaError, match="sign vectors must be strings"):
        io.tope_set_from_doc({"t": 3, "topes": [123]})


def test_tope_writers_write_only_what_the_reader_reads():
    # a tope of another length than t, or with an entry other than a sign, raises instead of being written
    with pytest.raises(DimensionError, match="has length 2, expected 3"):
        io.tope_set_to_doc(3, [(1, 1), (1, -1, 1)])
    with pytest.raises(DimensionError, match="has length 4, expected 3"):
        io.tope_set_to_doc(3, [(1, -1, 1), (1, 1, 1, 1)])
    with pytest.raises(ValueError, match="not a sign vector"):
        io.tope_set_to_doc(3, [(1, -1, 1), (1, 0, 1)])
    # entries are read by value, as the reader reads them
    assert io.tope_set_to_doc(2, [(1.0, Fraction(-1)), (True, -1), (-1, 1)]) == {"t": 2, "topes": ["+-", "+-", "-+"]}


@given(st.integers(1, 12).flatmap(lambda t: st.tuples(st.just(t), st.lists(st.tuples(*[st.sampled_from((1, -1))] * t), min_size=1))))
def test_tope_set_doc_writes_each_tope_as_sign_vector_str_does(t_topes):
    t, topes = t_topes
    assert io.tope_set_to_doc(t, topes) == {"t": t, "topes": [sign_vector_str(v) for v in topes]}


NOT_A_STRING = "sign vectors must be strings, got 123"
BAD_CHARACTER = "invalid sign character 'x' in '+x+'"
WRONG_LENGTH = "sign vector '++' has length 2, expected t=3"


FIRST_OFFENDERS = [
    (["+++", 123, "+x+"], NOT_A_STRING),
    (["+x+", "+++", 123], BAD_CHARACTER),
    ([123, "++"], NOT_A_STRING),
    (["++", 123], WRONG_LENGTH),
    (["---", "+x+", "++"], BAD_CHARACTER),
    (["++", "+x+", "---"], WRONG_LENGTH),
    (["++", "++++"], WRONG_LENGTH),  # six characters, as two strings of length t would have
    # a character outside ASCII encodes to more than one byte, so the string has more bytes than characters
    (["+++", "+é+"], "invalid sign character 'é' in '+é+'"),
    (["+++", "+＋+"], "invalid sign character '＋' in '+＋+'"),  # a fullwidth plus
    (["+++", "é+"], "invalid sign character 'é' in 'é+'"),  # t = 3 bytes in 2 characters: the character is named
    # repeats: of the offender, and of a good string before it
    (["+x+", "+++", "+x+"], BAD_CHARACTER),
    (["+++", 123, "---", 123], NOT_A_STRING),
    (["+++", "---", "+++", "++", "+x+"], WRONG_LENGTH),
    (["---", "---", "+x+", "---", "++"], BAD_CHARACTER),
    # an unhashable entry, which is no string, wherever it is listed
    ([["+", "+"], "++"], "sign vectors must be strings, got ['+', '+']"),
    (["+++", "+++", "++", ["+"]], WRONG_LENGTH),
]


@pytest.mark.parametrize("strings, message", FIRST_OFFENDERS)
def test_tope_readers_report_the_first_offender(strings, message):
    # the batched read fails as a whole, and the per-string read names the first offender: repeats
    # are dropped first, and the first listing of an entry comes before its repeats
    with pytest.raises(io.SchemaError, match=f"^{re.escape(message)}$"):
        io.tope_set_from_doc({"t": 3, "topes": strings})


@pytest.mark.parametrize("strings, message", FIRST_OFFENDERS)
def test_the_vertex_reader_reports_the_first_offender(strings, message):
    # the 2t = 6 vertices repeat the strings, so their first offender is the strings' first offender
    with pytest.raises(io.SchemaError, match=f"^{re.escape(message)}$"):
        io.cycle_masks_from_doc({"t": 3, "vertices": (strings * 6)[:6]})


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 70).flatmap(lambda t: st.tuples(st.just(t), st.lists(st.text("+-", min_size=t, max_size=t), min_size=1))))
def test_tope_readers_read_each_string_as_the_codec_does(t_strings):
    t, strings = t_strings
    read_t, distinct, form = io.tope_set_from_doc({"t": t, "topes": strings})
    assert read_t == t and list(distinct) == list(dict.fromkeys(strings))
    assert _masks(form, t) == [text_mask(s) for s in distinct]
    vertices = (strings * 2 * t)[: 2 * t]
    assert io.cycle_masks_from_doc({"t": t, "vertices": vertices}) == (t, [text_mask(s) for s in vertices])


def test_a_tope_list_with_repeats_is_checked_once(monkeypatch, tmp_path):
    # one checked codec pass over the distinct strings, in the reader and in the census command
    strings = ["+++", "---", "+++", "-+-", "---"]
    calls, text_forms = [], io._text_forms
    monkeypatch.setattr(io, "_text_forms", lambda texts, t: calls.append(list(texts)) or text_forms(texts, t))
    io.tope_set_from_doc({"t": 3, "topes": strings})
    path = tmp_path / "topes.json"
    path.write_text(json.dumps({"t": 3, "topes": strings}))
    assert main(["census", "--topes", str(path), "--cycle", "canonical", "--output", str(tmp_path / "census.json")]) == 0
    assert calls == [["+++", "---", "-+-"]] * 2


@pytest.mark.parametrize(
    "doc",
    [
        {"t": 3, "topes": ["+++", "-+-", "+++", "---"]},
        {"t": 3, "topes": ["++"]},
        {"t": 3, "topes": ["+++", "+x+"]},
        {"t": 3, "topes": ["+++", "+0+"]},
        {"t": 3, "topes": ["+++", ""]},
        {"t": 3, "topes": ["+++", 123]},
        {"t": 3, "topes": []},
        {"t": 0, "topes": ["+"]},
        {"t": 3, "topes": ["---", "+++", "---", "+x+", "+x+"]},
        {"t": 3, "topes": ["+++", "+++", ["+++"]]},
    ],
)
def test_mask_readers_read_what_the_tuple_readers_read(doc):
    # tope_set_from_doc reads the distinct strings straight into their form, and cycle_masks_from_doc
    # reads what cycle_from_doc reads before it checks the invariants; the errors are the same
    vertices = {"t": doc["t"], "vertices": (doc["topes"] * 6)[: 2 * doc["t"]]}

    def read_every_listing(d):
        """t, then every listed string as a tuple, repeats and all, checked in one pass over the whole list."""
        t, _, _ = io.tope_set_from_doc({"t": d["t"], "topes": d["topes"][:1]})
        io._read_forms(d["topes"], t)
        return t, [parse_sign_vector(s) for s in d["topes"]]

    def read_distinct(d):
        t, strings, form = io.tope_set_from_doc(d)
        return t, {_minus_mask(parse_sign_vector(s), t): s for s in strings}, _masks(form, t)

    def read_cycle(d):
        try:
            return io.cycle_from_doc(d).masks
        except CycleError:
            return None

    for read_tuples, read_masks, d in (
        (read_every_listing, read_distinct, doc),
        (read_cycle, io.cycle_masks_from_doc, vertices),
    ):
        try:
            expected = read_tuples(d)
        except io.SchemaError as exc:
            with pytest.raises(io.SchemaError, match=f"^{re.escape(str(exc))}$"):
                read_masks(d)
            continue
        masks = read_masks(d)
        if read_masks is read_distinct:
            t, vs = expected
            assert masks[:2] == (t, {_minus_mask(v, t): sign_vector_str(v) for v in vs})
            assert masks[2] == list(masks[1])
        else:
            assert masks == (d["t"], [_minus_mask(parse_sign_vector(s), d["t"]) for s in d["vertices"]])
            assert expected in (None, tuple(masks[1]))


def test_load_doc_requires_an_object(tmp_path):
    path = tmp_path / "array.json"
    path.write_text("[]")
    with pytest.raises(io.SchemaError, match="expected a JSON object"):
        io.load_doc(str(path))


def _load_by_text_file(path):
    """``json.load`` of the file opened as UTF-8 text: what ``load_doc`` read through before it read bytes,
    with its error messages."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_load_doc_reads_a_document_larger_than_one_read(monkeypatch, tmp_path):
    path = tmp_path / "topes.json"
    text = json.dumps(io.tope_set_to_doc(13, hypercube_topes(13)), indent=2) + "\r\n"
    path.write_bytes(text.encode())
    assert len(text) > 2 * io._READ_CHUNK
    reads, read = [], os.read
    monkeypatch.setattr(os, "read", lambda fd, n: reads.append(n) or read(fd, n))
    assert io.load_doc(str(path)) == _load_by_text_file(path)
    assert len(reads) == len(text) // io._READ_CHUNK + 2  # the last one reads the end of the file


def _unreadable(tmp_path):
    """(path, how it fails to read through a text file, the SchemaError message load_doc gives or None for
    the text file's own error) for each way a document can fail to load."""
    deep, digits, bad = tmp_path / "deep.json", tmp_path / "digits.json", tmp_path / "latin.json"
    deep.write_text('{"t": ' + "[" * 100_000 + "]" * 100_000 + "}")
    digits.write_text('{"t": 5, "f": [1, ' + "9" * (sys.get_int_max_str_digits() + 1) + "]}")
    bad.write_bytes(b'{"t": 3, "topes": ["+\xff+"]}')
    limit = sys.get_int_max_str_digits()
    return [
        (tmp_path, None),  # a directory
        (tmp_path / "missing.json", None),
        (bad, f"{bad}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 21: invalid start byte"),
        (deep, f"{deep}: nested deeper than the JSON decoder reads"),
        (digits, f"{digits}: an integer has more than the {limit} digits this interpreter reads"),
    ]


def test_load_doc_keeps_the_message_of_each_unreadable_document(capsys, tmp_path):
    for path, message in _unreadable(tmp_path):
        if message is None:  # the OSError the text file raises, naming the path
            with pytest.raises(OSError) as expected:
                _load_by_text_file(path)
            with pytest.raises(OSError) as excinfo:
                io.load_doc(str(path))
            assert type(excinfo.value) is type(expected.value) and str(excinfo.value) == str(expected.value), path
            assert f"'{path}'" in str(excinfo.value)
        else:
            with pytest.raises(io.SchemaError) as excinfo:
                io.load_doc(str(path))
            assert str(excinfo.value) == message
        assert main(["verify-ds", "--fvector", str(path)]) == 1
        assert capsys.readouterr() == ("", f"topecycles: error: {excinfo.value}\n")


@pytest.mark.parametrize(
    "text",
    ["", "{not json", '{"t": 3,\r\n "topes": ["+++"],\r\n oops}', '{"t": 3}\r\r{', '{"t": "+\r-"}', "﻿{}"],
    ids=["empty", "brace", "crlf", "cr", "control", "bom"],
)
def test_load_doc_names_a_document_that_is_not_json(text, tmp_path):
    # the decoder's message as a text file reads it, line ends and all, after the path
    path = tmp_path / "doc.json"
    path.write_bytes(text.encode())
    with pytest.raises(json.JSONDecodeError) as expected:
        _load_by_text_file(path)
    with pytest.raises(io.SchemaError) as excinfo:
        io.load_doc(str(path))
    assert str(excinfo.value) == f"{path}: not JSON: {expected.value}"


def test_cycle_doc_is_normalized_and_round_trips():
    cycle = find_symmetric_cycle([parse_sign_vector(s) for s in ("+++", "-++", "--+", "---", "+--", "++-")], seed=5)
    doc = io.cycle_to_doc(cycle)
    strings = doc["vertices"]
    assert strings[0] == min(strings)
    assert strings[1] <= strings[-1]
    back = io.cycle_from_doc(doc)
    assert [sign_vector_str(v) for v in back.vertices] == strings  # the cycle in normal form
    assert io.cycle_to_doc(back) == doc


def test_cycle_doc_validation_failure_raises_cycle_error():
    doc = {"t": 2, "vertices": ["++", "--", "-+", "+-"]}
    with pytest.raises(CycleError):
        io.cycle_from_doc(doc)
    # a vertex count other than 2t is a malformed document, whichever reader reads it
    doc = {"t": 2, "vertices": ["++", "-+", "--", "+-", "++", "-+"]}
    for read in (io.cycle_masks_from_doc, io.cycle_from_doc):
        with pytest.raises(io.SchemaError, match="t=2 but 6 vertices given"):
            read(doc)


def test_decomposition_doc():
    cycle = canonical_hypercube_cycle(5)
    doc = io.decomposition_to_doc(decompose(parse_sign_vector("+-+-+"), cycle))
    assert doc == {
        "tope": "+-+-+",
        "coeffs": [1, -1, 1, -1, 1],
        "members": ["+++++", "--+++", "----+", "+----", "+++--"],
    }


@pytest.mark.parametrize("t", [0, -3])
@pytest.mark.parametrize(
    "read, fields",
    [
        (io.tope_set_from_doc, {"topes": []}),
        (io.cycle_masks_from_doc, {"vertices": []}),
        (io.cycle_from_doc, {"vertices": []}),
        (io.arrangement_from_doc, {"dim": 2, "normals": []}),
        (io.fvector_from_doc, {"f": [1]}),
    ],
)
def test_readers_reject_nonpositive_t(read, fields, t):
    with pytest.raises(io.SchemaError, match="'t' must be >= 1"):
        read({"t": t, **fields})


@pytest.mark.parametrize(
    "write, message",
    [
        (lambda: io.tope_set_to_doc(0, [()]), "a tope set needs t >= 1, got t=0"),
        (lambda: io.tope_set_to_doc(3, []), "t=3 but no topes given"),
        (lambda: io.fvector_to_doc((1,)), "an f-vector needs t >= 1, got t=0 from [1]"),
        (lambda: io.fvector_to_doc(()), "an f-vector needs t >= 1, got t=-1 from []"),
    ],
    ids=["tope-set-t0", "tope-set-empty", "fvector-t0", "fvector-empty"],
)
def test_the_writers_raise_for_what_their_readers_reject(write, message):
    # a document with t < 1 or no topes would be a SchemaError when read back, so none is written
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as excinfo:
        write()
    assert type(excinfo.value) is ValueError


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-1, 8).flatmap(
        lambda t: st.tuples(st.just(t), st.lists(st.tuples(*[st.sampled_from((1, -1))] * max(t, 0)), max_size=5))
    ),
    st.lists(st.integers(-(10**30), 10**30), max_size=8).map(tuple),
)
def test_every_tope_set_and_fvector_document_written_reads_back_equal(t_topes, f):
    # through its JSON text; an input whose document the reader would reject raises instead
    t, topes = t_topes
    if t >= 1 and topes:
        read_t, strings, form = io.tope_set_from_doc(json.loads(json.dumps(io.tope_set_to_doc(t, topes))))
        distinct = list(dict.fromkeys(topes))
        assert read_t == t and list(map(parse_sign_vector, strings)) == distinct
        assert _masks(form, t) == [_minus_mask(v, t) for v in distinct]
    else:
        with pytest.raises(ValueError, match="t >= 1|no topes"):
            io.tope_set_to_doc(t, topes)
    if len(f) >= 2:
        assert io.fvector_from_doc(json.loads(json.dumps(io.fvector_to_doc(f)))) == (len(f) - 1, f)
    else:
        with pytest.raises(ValueError, match="t >= 1"):
            io.fvector_to_doc(f)


def test_fvector_doc_round_trip_and_length_check():
    t, f = io.fvector_from_doc(io.fvector_to_doc((1, 5, 10, 5, 0, 0)))
    assert t == 5 and f == (1, 5, 10, 5, 0, 0)
    with pytest.raises(io.SchemaError):
        io.fvector_from_doc({"t": 5, "f": [1, 5, 10]})
    with pytest.raises(io.SchemaError):
        io.fvector_from_doc({"t": 2, "f": [1, True, 0]})
