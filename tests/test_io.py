import json
from fractions import Fraction

import pytest

from topecycles import io
from topecycles.arrangements import moment_curve, rank2_fan, totally_cyclic_fan
from topecycles.core import parse_sign_vector
from topecycles.cycles import canonical_hypercube_cycle, find_symmetric_cycle, normalize_cycle
from topecycles.decomposition import decompose


def test_rational_round_trip():
    for text in ("3", "-7/2", "0", "22/7"):
        assert io.rational_to_str(io.rational_from_str(text)) == text
    assert io.rational_to_str(Fraction(4, 2)) == "2"


def test_rational_rejects_garbage():
    for bad in ("1/0", "x", "", 3, "3.5"):
        with pytest.raises(io.SchemaError):
            io.rational_from_str(bad)


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
    t, back = io.tope_set_from_doc(io.tope_set_to_doc(3, topes))
    assert t == 3 and back == topes


def test_tope_set_doc_rejects_wrong_length():
    with pytest.raises(io.SchemaError):
        io.tope_set_from_doc({"t": 3, "topes": ["++"]})
    with pytest.raises(io.SchemaError):
        io.tope_set_from_doc({"t": 3, "topes": ["+x+"]})
    with pytest.raises(io.SchemaError, match="sign vectors must be strings"):
        io.tope_set_from_doc({"t": 3, "topes": [123]})


def test_load_doc_requires_an_object(tmp_path):
    path = tmp_path / "array.json"
    path.write_text("[]")
    with pytest.raises(io.SchemaError, match="expected a JSON object"):
        io.load_doc(str(path))


def test_cycle_doc_is_normalized_and_round_trips():
    cycle = find_symmetric_cycle([parse_sign_vector(s) for s in ("+++", "-++", "--+", "---", "+--", "++-")], seed=5)
    doc = io.cycle_to_doc(cycle)
    strings = doc["vertices"]
    assert strings[0] == min(strings)
    assert strings[1] <= strings[-1]
    back = io.cycle_from_doc(doc)
    assert back == normalize_cycle(cycle)


def test_cycle_doc_validation_failure_raises_cycle_error():
    from topecycles.cycles import CycleError

    doc = {"t": 2, "vertices": ["++", "--", "-+", "+-"]}
    with pytest.raises(CycleError):
        io.cycle_from_doc(doc)
    # a vertex count other than 2t is a malformed document, whichever reader reads it
    doc = {"t": 2, "vertices": ["++", "-+", "--", "+-", "++", "-+"]}
    for read in (io.cycle_vertices_from_doc, io.cycle_from_doc):
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
        (io.cycle_vertices_from_doc, {"vertices": []}),
        (io.cycle_from_doc, {"vertices": []}),
        (io.arrangement_from_doc, {"dim": 2, "normals": []}),
        (io.fvector_from_doc, {"f": [1]}),
    ],
)
def test_readers_reject_nonpositive_t(read, fields, t):
    with pytest.raises(io.SchemaError, match="'t' must be >= 1"):
        read({"t": t, **fields})


def test_fvector_doc_round_trip_and_length_check():
    t, f = io.fvector_from_doc(io.fvector_to_doc(5, (1, 5, 10, 5, 0, 0)))
    assert t == 5 and f == (1, 5, 10, 5, 0, 0)
    with pytest.raises(io.SchemaError):
        io.fvector_from_doc({"t": 5, "f": [1, 5, 10]})
    with pytest.raises(io.SchemaError):
        io.fvector_from_doc({"t": 2, "f": [1, True, 0]})
