import json
import os
import re
import sys
import tempfile
import threading
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topecycles import cli, io
from topecycles.arrangements import Arrangement, enumerate_topes, hypercube_topes, moment_curve, rank2_fan, totally_cyclic_fan
from topecycles.cli import main
from topecycles.core import DimensionError, _minus_mask, parse_sign_vector, sign_vector_str
from topecycles.cycles import SymmetricCycle, canonical_hypercube_cycle, find_symmetric_cycle
from topecycles.oracles import census


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_gen_hypercube_and_census_canonical(capsys, tmp_path):
    topes = tmp_path / "topes3.json"
    code, _ = run(capsys, "gen", "hypercube", "--t", "3", "--output", str(topes))
    assert code == 0
    code, doc = run_json(capsys, "census", "--topes", str(topes), "--cycle", "canonical")
    assert code == 0
    assert doc["histogram"] == {"1": 6, "3": 2}
    assert doc["match"] is True


@pytest.mark.parametrize(
    "kind, params, instance",
    [
        ("hypercube", ["--t", "2"], io.tope_set_to_doc(2, hypercube_topes(2))),
        ("rank2_fan", ["--t", "4"], io.arrangement_to_doc(rank2_fan(4))),
        ("moment_curve", ["--t", "5", "--r", "3"], io.arrangement_to_doc(moment_curve(5, 3))),
        ("totally_cyclic_fan", ["--t", "5"], io.arrangement_to_doc(totally_cyclic_fan(5))),
    ],
)
def test_gen_writes_each_generator(capsys, kind, params, instance):
    assert run_json(capsys, "gen", kind, *params) == (0, instance)


def test_fvector_writes_t_and_f(capsys, tmp_path):
    cyc = tmp_path / "cyc5.json"
    assert run(capsys, "cycle", "canonical", "--t", "5", "--output", str(cyc))[0] == 0
    code, doc = run_json(capsys, "fvector", "--tope", "+-+-+", "--cycle", str(cyc))
    assert code == 0
    assert doc == {"t": 5, "f": [1, 5, 10, 5, 0, 0]}


def test_verify_ds_pass_and_tampered_file(capsys, tmp_path):
    good = tmp_path / "good.json"
    assert run(capsys, "fvector", "--tope", "+-+-+", "--cycle", "canonical", "--output", str(good))[0] == 0
    code, doc = run_json(capsys, "verify-ds", "--fvector", str(good))
    assert code == 0
    assert doc["passes"] is True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"t": 5, "f": [1, 5, 10, 6, 0, 0]}))
    code, doc = run_json(capsys, "verify-ds", "--fvector", str(bad))
    assert code == 3
    assert doc["passes"] is False


def test_verify_ds_requires_inputs(capsys):
    code, _ = run(capsys, "verify-ds")
    assert code == 1


def test_decompose_round_trip_through_files(capsys, tmp_path):
    topes = tmp_path / "topes.json"
    cyc = tmp_path / "cyc.json"
    assert run(capsys, "gen", "rank2_fan", "--t", "5", "--output", str(tmp_path / "arr.json"))[0] == 0
    assert run(capsys, "topes", "--arrangement", str(tmp_path / "arr.json"), "--output", str(topes))[0] == 0
    assert run(capsys, "cycle", "find", "--topes", str(topes), "--output", str(cyc))[0] == 0
    code, doc = run_json(capsys, "decompose", "--tope", "+++++", "--cycle", str(cyc))
    assert code == 0
    assert doc["members"] == ["+++++"]
    code, vdoc = run_json(capsys, "cycle", "validate", "--cycle", str(cyc), "--topes", str(topes))
    assert code == 0 and vdoc["ok"] is True


def test_cycle_find_not_found(capsys, tmp_path):
    topes = tmp_path / "topes.json"
    topes.write_text(json.dumps({"t": 2, "topes": ["++", "--"]}))
    code, doc = run_json(capsys, "cycle", "find", "--topes", str(topes))
    assert code == 0
    assert doc == {"found": False, "t": 2}


def test_cycle_find_deterministic(capsys, tmp_path):
    topes = tmp_path / "topes.json"
    assert run(capsys, "gen", "hypercube", "--t", "4", "--output", str(topes))[0] == 0
    _, first = run(capsys, "cycle", "find", "--topes", str(topes), "--seed", "7")
    _, second = run(capsys, "cycle", "find", "--topes", str(topes), "--seed", "7")
    assert first == second


def test_cycle_find_with_an_empty_start_exits_2(capsys, tmp_path):
    # an empty --start is an empty sign vector, not an unpinned search, as decompose --tope "" is
    topes = tmp_path / "topes.json"
    assert run(capsys, "gen", "hypercube", "--t", "3", "--output", str(topes))[0] == 0
    for argv in (["cycle", "find", "--topes", str(topes), "--start", ""], ["decompose", "--tope", "", "--cycle", "canonical"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "topecycles: error: empty sign vector\n"


def test_cycle_find_reads_a_bad_start_after_the_pool_checks(capsys, tmp_path):
    # the command reads --start where the library reads start: after the tope set is found closed under negation
    open_set, closed_set = tmp_path / "open.json", tmp_path / "closed.json"
    open_set.write_text(json.dumps({"t": 3, "topes": ["+++", "++-"]}))
    closed_set.write_text(json.dumps({"t": 3, "topes": ["+++", "---"]}))
    with pytest.raises(ValueError) as excinfo:
        find_symmetric_cycle([(1, 1, 1), (1, 1, -1)], start=(1, 1, "x"))
    for topes, message in ((open_set, str(excinfo.value)), (closed_set, "invalid sign character 'x' in '++x'")):
        assert main(["cycle", "find", "--topes", str(topes), "--start", "++x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"topecycles: error: {message}\n"
    assert str(excinfo.value) == "tope set is not closed under negation: missing -+++"


def test_cycle_find_with_a_start_of_another_length_exits_2(capsys, tmp_path):
    # the command reads --start as the library reads start: a length other than t is a DimensionError
    topes = tmp_path / "topes.json"
    assert run(capsys, "gen", "hypercube", "--t", "3", "--output", str(topes))[0] == 0
    for start in ("++", "++++"):
        with pytest.raises(DimensionError) as excinfo:
            find_symmetric_cycle(hypercube_topes(3), start=parse_sign_vector(start))
        assert main(["cycle", "find", "--topes", str(topes), "--start", start]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"topecycles: error: {excinfo.value}\n"


@pytest.mark.parametrize(
    "argv, option, value, check",
    [
        (["decompose", "--cycle", "canonical"], "--tope", "-+-", lambda doc: doc["tope"] == "-+-"),
        (["fvector", "--cycle", "canonical"], "--tope", "-+-+-", lambda doc: doc == {"t": 5, "f": [1, 5, 10, 5, 0, 0]}),
        (["cycle", "find", "--topes", "TOPES", "--seed", "3"], "--start", "-++", lambda doc: "-++" in doc["vertices"]),
    ],
    ids=["decompose", "fvector", "cycle-find"],
)
def test_a_sign_vector_that_starts_with_minus_is_a_separate_argument(capsys, tmp_path, argv, option, value, check):
    # argparse reads "-+-" as an option; --tope and --start take it as their value, as they take "--tope=-+-"
    topes = tmp_path / "topes.json"
    assert run(capsys, "gen", "hypercube", "--t", "3", "--output", str(topes))[0] == 0
    argv = [str(topes) if a == "TOPES" else a for a in argv]
    code, doc = run_json(capsys, *argv, option, value)
    assert code == 0 and check(doc)
    assert run_json(capsys, *argv, f"{option}={value}") == (code, doc)


def test_a_separate_sign_vector_is_joined_only_to_tope_and_start(capsys, tmp_path, monkeypatch):
    # every other option, and --tope where no command takes it, still exits 1 on a value that starts with '-'
    monkeypatch.chdir(tmp_path)
    fvec = tmp_path / "f.json"
    fvec.write_text(json.dumps({"t": 5, "f": [1, 5, 10, 5, 0, 0]}))
    for argv in (
        ["verify-ds", "--fvector", str(fvec), "--tope", "-+-+-"],
        ["decompose", "--tope", "+-+", "--cycle", "-+-"],
        ["decompose", "--tope", "-+x", "--cycle", "canonical"],
        ["cycle", "canonical", "--t", "3", "--output", "-+-"],
    ):
        assert run(capsys, *argv) == (1, ""), argv
    assert not (tmp_path / "-+-").exists()


def test_option_prefixes_are_usage_errors(capsys, tmp_path):
    # argparse would take --top for --tope, but the join above reads only the exact option,
    # so "--top -+-" failed while "--top +--" passed: no prefix is accepted now, whatever its value
    topes = tmp_path / "topes.json"
    assert run(capsys, "gen", "hypercube", "--t", "3", "--output", str(topes))[0] == 0
    for argv in (
        ["decompose", "--top", "-+-", "--cycle", "canonical"],
        ["decompose", "--top", "+--", "--cycle", "canonical"],
        ["cycle", "find", "--topes", str(topes), "--sta", "-++"],
        ["cycle", "find", "--topes", str(topes), "--sta", "+-+"],
        ["cycle", "find", "--top", str(topes)],
        ["gen", "hypercube", "--t", "3", "--out", str(tmp_path / "cube.json")],
    ):
        assert run(capsys, *argv) == (1, ""), argv
    assert not (tmp_path / "cube.json").exists()
    code, doc = run_json(capsys, "decompose", "--tope", "-+-", "--cycle", "canonical")
    assert code == 0 and doc["tope"] == "-+-"
    code, doc = run_json(capsys, "cycle", "find", "--topes", str(topes), "--start", "-++")
    assert code == 0 and "-++" in doc["vertices"]


@pytest.mark.parametrize("t, r", [(6, 3), (7, 4), (6, 5)])
def test_cycle_find_on_masks_writes_what_the_library_search_finds(capsys, tmp_path, t, r):
    # the command searches the minus masks it reads from the strings; the library searches tuples
    topes = enumerate_topes(moment_curve(t, r))
    all_topes, cycle_file = tmp_path / "topes.json", tmp_path / "cycle.json"
    all_topes.write_text(json.dumps(io.tope_set_to_doc(t, topes[::-1])))
    for seed in range(4):
        for start in (None, topes[seed], topes[-1 - seed]):
            argv = ["cycle", "find", "--topes", str(all_topes), "--seed", str(seed), "--output", str(cycle_file)]
            if start is not None:
                argv.append(f"--start={sign_vector_str(start)}")
            assert run(capsys, *argv) == (0, "")
            assert json.loads(cycle_file.read_text()) == io.cycle_to_doc(find_symmetric_cycle(topes, start=start, seed=seed))
            code, report = run_json(capsys, "cycle", "validate", "--cycle", str(cycle_file), "--topes", str(all_topes))
            assert code == 0 and report == {"ok": True, "violations": []}
    # both name the same tope in an error: a start outside the set, and a missing negation
    outside = next(v for v in hypercube_topes(t) if v not in set(topes))
    some_topes = tmp_path / "some.json"
    some_topes.write_text(json.dumps(io.tope_set_to_doc(t, topes[1:])))
    for argv, call in (
        (["--topes", str(all_topes), f"--start={sign_vector_str(outside)}"], lambda: find_symmetric_cycle(topes, start=outside)),
        (["--topes", str(some_topes)], lambda: find_symmetric_cycle(topes[1:])),
    ):
        with pytest.raises(ValueError) as excinfo:
            call()
        assert main(["cycle", "find", *argv]) == 2
        assert capsys.readouterr().err == f"topecycles: error: {excinfo.value}\n"


def test_cycle_validate_failure_exits_2(capsys, tmp_path):
    cyc = tmp_path / "bad.json"
    cyc.write_text(json.dumps({"t": 3, "vertices": ["+++", "-++", "--+", "+-+", "+--", "++-"]}))
    code, doc = run_json(capsys, "cycle", "validate", "--cycle", str(cyc))
    assert code == 2
    assert doc["ok"] is False
    assert doc["violations"][0]["kind"] == "antipodal"


def write_cycle_and_topes(tmp_path, vertices, topes):
    cyc, pool = tmp_path / "cycle.json", tmp_path / "topes.json"
    t = len(vertices[0])
    cyc.write_text(json.dumps({"t": t, "vertices": vertices}))
    pool.write_text(json.dumps({"t": t, "topes": topes}))
    return str(cyc), str(pool)


def test_cycle_validate_names_every_missing_vertex(capsys, tmp_path):
    vertices = ["+++", "-++", "--+", "---", "+--", "++-"]
    all_topes = ["+++", "++-", "+-+", "+--", "-++", "-+-", "--+", "---"]
    cyc, pool = write_cycle_and_topes(tmp_path, vertices, [v for v in all_topes if v not in ("+++", "--+")])
    code, doc = run_json(capsys, "cycle", "validate", "--cycle", cyc, "--topes", pool)
    assert code == 2
    assert doc == {
        "ok": False,
        "violations": [
            {"kind": "membership", "where": [0], "detail": "vertex 0 (+++) is not in the tope set"},
            {"kind": "membership", "where": [2], "detail": "vertex 2 (--+) is not in the tope set"},
        ],
    }
    cyc, pool = write_cycle_and_topes(tmp_path, vertices, all_topes)
    assert run_json(capsys, "cycle", "validate", "--cycle", cyc, "--topes", pool) == (0, {"ok": True, "violations": []})


def test_cycle_validate_lists_membership_after_the_invariants(capsys, tmp_path):
    # a closed walk that flips element 1 twice, checked against four topes of the 3-cube
    cyc, pool = write_cycle_and_topes(
        tmp_path, ["+++", "-++", "--+", "+-+", "+--", "++-"], ["-++", "--+", "---", "+-+"]
    )
    code, doc = run_json(capsys, "cycle", "validate", "--cycle", cyc, "--topes", pool)
    assert code == 2
    assert doc == {
        "ok": False,
        "violations": [
            {"kind": "antipodal", "where": [0], "detail": "antipodal symmetry fails at k=0"},
            {
                "kind": "flip_permutation",
                "where": [],
                "detail": "first-half flips are not a permutation of the ground set",
            },
            {"kind": "membership", "where": [0], "detail": "vertex 0 (+++) is not in the tope set"},
            {"kind": "membership", "where": [4], "detail": "vertex 4 (+--) is not in the tope set"},
            {"kind": "membership", "where": [5], "detail": "vertex 5 (++-) is not in the tope set"},
        ],
    }
    code, doc = run_json(capsys, "cycle", "validate", "--cycle", cyc)
    assert code == 2
    assert [v["kind"] for v in doc["violations"]] == ["antipodal", "flip_permutation"]


def test_cycle_validate_of_a_t1_cycle_reports_only_its_shape(capsys, tmp_path):
    cyc, pool = write_cycle_and_topes(tmp_path, ["+", "-"], ["+"])
    shape = {"kind": "shape", "where": [], "detail": "vertex count 2 is not an even number >= 4"}
    for extra in ([], ["--topes", pool]):
        assert run_json(capsys, "cycle", "validate", "--cycle", cyc, *extra) == (2, {"ok": False, "violations": [shape]})


def test_cycle_validate_reads_both_documents_before_any_check(capsys, tmp_path):
    # a malformed tope-set document is a usage error even when the cycle is invalid too
    bad_cycles = (["+++", "-++", "--+", "+-+", "+--", "++-"], ["+", "-"])
    bad_pools = ("{not json", json.dumps({"t": 3, "topes": ["++"]}), json.dumps({"t": 3}))
    for vertices in bad_cycles:
        cyc, pool = write_cycle_and_topes(tmp_path, vertices, [])
        for text in bad_pools:
            (tmp_path / "topes.json").write_text(text)
            assert run(capsys, "cycle", "validate", "--cycle", cyc, "--topes", pool) == (1, "")
        assert run(capsys, "cycle", "validate", "--cycle", cyc, "--topes", str(tmp_path / "missing.json")) == (1, "")


def test_cycle_validate_against_a_tope_set_of_another_t_exits_2(capsys, tmp_path):
    cyc, _ = write_cycle_and_topes(tmp_path, ["++", "-+", "--", "+-"], [])
    pool = tmp_path / "topes3.json"
    assert run(capsys, "gen", "hypercube", "--t", "3", "--output", str(pool))[0] == 0
    assert main(["cycle", "validate", "--cycle", cyc, "--topes", str(pool)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "topecycles: error: tope set t=3 does not match cycle ground set t=2\n"


def test_a_tope_set_without_topes_exits_1_from_every_reader(capsys, tmp_path):
    # no tope backs the document's t, so census --cycle canonical would build a cycle of any size
    cyc, pool = write_cycle_and_topes(tmp_path, ["+++", "-++", "--+", "---", "+--", "++-"], [])
    errors = set()
    for argv in (
        ["census", "--topes", pool, "--cycle", "canonical"],
        ["census", "--topes", pool, "--cycle", cyc],
        ["cycle", "find", "--topes", pool],
        ["cycle", "validate", "--cycle", cyc, "--topes", pool],
    ):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.add(captured.err)
    assert errors == {"topecycles: error: t=3 but no topes given\n"}


def test_cycle_document_without_2t_vertices_exits_1_from_every_reader(capsys, tmp_path):
    cyc = tmp_path / "six.json"
    cyc.write_text(json.dumps({"t": 2, "vertices": ["++", "+-", "--", "-+", "++", "+-"]}))
    errors = set()
    for argv in (["cycle", "validate", "--cycle", str(cyc)], ["decompose", "--tope", "++", "--cycle", str(cyc)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.add(captured.err)
    assert errors == {"topecycles: error: t=2 but 6 vertices given\n"}


def test_census_of_the_hypercube_matches_without_a_flag(capsys, tmp_path):
    topes = tmp_path / "topes.json"
    for t in range(2, 9):
        expected = {str(j): 2 * comb(t, j) for j in range(1, t + 1, 2)}
        assert run(capsys, "gen", "hypercube", "--t", str(t), "--output", str(topes))[0] == 0
        cycles = ["canonical"]
        for seed in range(3):
            path = tmp_path / f"cyc{seed}.json"
            assert run(capsys, "cycle", "find", "--topes", str(topes), "--seed", str(seed), "--output", str(path))[0] == 0
            cycles.append(str(path))
        for spec in cycles:
            code, doc = run_json(capsys, "census", "--topes", str(topes), "--cycle", spec)
            assert code == 0
            assert doc["histogram"] == doc["expected"] == expected
            assert doc["match"] is True


def test_census_of_a_partial_tope_set_has_no_expectation(capsys, tmp_path):
    arr, topes, cyc = (tmp_path / n for n in ("arr.json", "topes.json", "cyc.json"))
    for kind, params in (("rank2_fan", ["--t", "5"]), ("moment_curve", ["--t", "6", "--r", "3"])):
        assert run(capsys, "gen", kind, *params, "--output", str(arr))[0] == 0
        assert run(capsys, "topes", "--arrangement", str(arr), "--output", str(topes))[0] == 0
        assert run(capsys, "cycle", "find", "--topes", str(topes), "--output", str(cyc))[0] == 0
        code, doc = run_json(capsys, "census", "--topes", str(topes), "--cycle", str(cyc))
        assert code == 0
        assert set(doc) == {"t", "histogram"}
        assert sum(doc["histogram"].values()) == len(json.loads(topes.read_text())["topes"])
        if kind == "rank2_fan":  # a rank-2 tope set is its own symmetric cycle
            assert doc["histogram"] == {"1": 10}


def test_census_mismatch_exits_3(monkeypatch, capsys, tmp_path):
    # a census of the whole hypercube is checked against 2*C(t,j); a wrong size is reported, not hidden
    import topecycles.cli as cli

    topes = tmp_path / "topes.json"
    run(capsys, "gen", "hypercube", "--t", "3", "--output", str(topes))
    # every one of the n topes in the class of size 1
    monkeypatch.setattr(cli, "_size_classes", lambda columns, n, cycle: [(1, (1 << n) - 1)])
    code, doc = run_json(capsys, "census", "--topes", str(topes), "--cycle", "canonical")
    assert code == 3
    assert doc["match"] is False
    assert doc["histogram"] == {"1": 8}
    assert doc["expected"] == {"1": 6, "3": 2}


def test_census_list_topes(capsys, tmp_path):
    topes = tmp_path / "topes.json"
    run(capsys, "gen", "hypercube", "--t", "5", "--output", str(topes))
    code, doc = run_json(
        capsys, "census", "--topes", str(topes), "--cycle", "canonical", "--list-topes"
    )
    assert code == 0
    assert doc["topes"]["5"] == ["+-+-+", "-+-+-"]


def test_census_names_a_document_that_is_not_json(capsys, tmp_path):
    # an empty tope set or an empty cycle: exit 1, and the message names the file that is not JSON
    topes, cycle = tmp_path / "topes.json", tmp_path / "cycle.json"
    empty_topes, empty_cycle = tmp_path / "empty_topes.json", tmp_path / "empty_cycle.json"
    run(capsys, "gen", "hypercube", "--t", "3", "--output", str(topes))
    run(capsys, "cycle", "canonical", "--t", "3", "--output", str(cycle))
    empty_topes.write_text("")
    empty_cycle.write_text("")
    for bad, argv in ((empty_topes, [empty_topes, cycle]), (empty_cycle, [topes, empty_cycle])):
        assert main(["census", "--topes", str(argv[0]), "--cycle", str(argv[1])]) == 1
        message = f"{bad}: not JSON: Expecting value: line 1 column 1 (char 0)"
        assert capsys.readouterr() == ("", f"topecycles: error: {message}\n")


@st.composite
def _census_inputs(draw):
    """The strings of a tope-set document over t elements, some of them repeated and in any order, and
    a symmetric cycle of the t-cube: a start and an order of the t flips, taken twice."""
    t = draw(st.integers(2, 7))
    cube = ["".join(s) for s in product("+-", repeat=t)]
    strings = cube if draw(st.booleans()) else draw(st.lists(st.sampled_from(cube), min_size=1, max_size=40))
    strings = draw(st.permutations(strings + draw(st.lists(st.sampled_from(strings), max_size=10))))
    masks, order = [draw(st.integers(0, 2**t - 1))], draw(st.permutations(range(t)))
    for k in range(2 * t - 1):
        masks.append(masks[-1] ^ 1 << order[k % t])
    return t, strings, SymmetricCycle(masks)


@settings(max_examples=80, deadline=None)
@given(_census_inputs(), st.booleans(), st.booleans())
def test_census_writes_the_library_census_document(inputs, list_topes, canonical):
    # the command reads the strings into columns with no tuple; the library census reads the tuples
    t, strings, cycle = inputs
    if canonical:
        cycle = canonical_hypercube_cycle(t)
    result = census(map(parse_sign_vector, strings), cycle, list_topes)
    expected = {j: 2 * comb(t, j) for j in range(1, t + 1, 2)} if sum(result.histogram.values()) == 2**t else None
    with tempfile.TemporaryDirectory() as tmp:
        topes, cyc, out = (os.path.join(tmp, name) for name in ("topes.json", "cycle.json", "census.json"))
        with open(topes, "w") as fh:
            json.dump({"t": t, "topes": strings}, fh)
        with open(cyc, "w") as fh:
            json.dump(io.cycle_to_doc(cycle), fh)
        argv = ["census", "--topes", topes, "--cycle", "canonical" if canonical else cyc, "--output", out]
        assert main(argv + ["--list-topes"] * list_topes) == 0
        with open(out) as fh:
            assert fh.read() == json.dumps(_census_doc(result, expected), indent=2) + "\n"


def _census_doc(result, expected=None):
    """The census document of the library census's result: its classes through sign_vector_str into the one writer."""
    listed = None if result.by_size is None else {j: list(map(sign_vector_str, vs)) for j, vs in result.by_size.items()}
    return io.census_to_doc(result.t, result.histogram, expected, listed)


def test_nu_command(capsys, tmp_path):
    arr = tmp_path / "fan.json"
    run(capsys, "gen", "totally_cyclic_fan", "--t", "5", "--output", str(arr))
    code, doc = run_json(capsys, "nu", "--arrangement", str(arr))
    assert code == 0
    assert doc == {"t": 5, "nu": [1, 5, 10, 5, 0, 0]}


def test_nu_builds_the_arrangement_once(capsys, tmp_path, monkeypatch):
    arr = tmp_path / "fan.json"
    arr.write_text(json.dumps(io.arrangement_to_doc(totally_cyclic_fan(11))))
    built = []
    post_init = Arrangement.__post_init__
    monkeypatch.setattr(Arrangement, "__post_init__", lambda self: built.append(post_init(self)))
    code, doc = run_json(capsys, "nu", "--arrangement", str(arr))
    assert code == 0 and doc["t"] == 11
    assert len(built) == 1


def test_nu_feasible_system_exits_2(capsys, tmp_path):
    arr = tmp_path / "fan.json"
    run(capsys, "gen", "rank2_fan", "--t", "5", "--output", str(arr))
    code, _ = run(capsys, "nu", "--arrangement", str(arr))
    assert code == 2


def test_usage_errors_exit_1(capsys, tmp_path):
    assert main(["nosuchcommand"]) == 1
    assert main(["gen", "hypercube"]) == 1  # missing --t
    assert main(["gen", "klein_bottle", "--t", "5"]) == 1  # unknown kind
    assert main(["decompose", "--tope", "+-+", "--cycle", "missing.json"]) == 1  # I/O
    # an argument the command cannot use, or a missing one it needs, is a usage error
    assert main(["gen", "moment_curve", "--t", "5"]) == 1
    assert main(["gen", "rank2_fan", "--t", "3", "--r", "7"]) == 1
    assert main(["gen", "hypercube", "--t", "3", "--r", "3"]) == 1
    fvec = tmp_path / "f.json"
    fvec.write_text(json.dumps({"t": 5, "f": [1, 5, 10, 5, 0, 0]}))
    assert main(["verify-ds", "--fvector", str(fvec)]) == 0
    assert main(["verify-ds", "--fvector", str(fvec), "--tope", "+-+-+"]) == 1
    assert main(["verify-ds", "--fvector", str(fvec), "--cycle", "canonical"]) == 1
    assert main(["verify-ds", "--fvector", str(fvec), "--tope", "+-+-+", "--cycle", "canonical"]) == 1
    # a document whose ground set is not positive is malformed
    neg = tmp_path / "neg.json"
    neg.write_text(json.dumps({"t": -3, "topes": []}))
    assert main(["cycle", "find", "--topes", str(neg)]) == 1


def test_each_answer_has_one_route_and_one_format(capsys, tmp_path):
    # the DS report is read only from an f-vector document, and every answer is written only as JSON
    topes, arr = tmp_path / "topes.json", tmp_path / "fan.json"
    assert run(capsys, "gen", "hypercube", "--t", "3", "--output", str(topes))[0] == 0
    assert run(capsys, "gen", "totally_cyclic_fan", "--t", "5", "--output", str(arr))[0] == 0
    for argv in (
        ["verify-ds", "--tope", "+-+-+", "--cycle", "canonical"],
        ["verify-ds", "--output", str(tmp_path / "ds.json")],
        ["fvector", "--tope", "+-+-+", "--cycle", "canonical", "--format", "tsv"],
        ["census", "--topes", str(topes), "--cycle", "canonical", "--format", "tsv"],
        ["nu", "--arrangement", str(arr), "--format", "tsv"],
    ):
        assert run(capsys, *argv) == (1, ""), argv


def test_invalid_inputs_exit_2(capsys, tmp_path):
    bad_arr = tmp_path / "arr.json"
    bad_arr.write_text(json.dumps({"t": 2, "dim": 2, "normals": [["1", "0"], ["2", "0"]]}))
    assert main(["topes", "--arrangement", str(bad_arr)]) == 2
    assert main(["gen", "moment_curve", "--t", "3", "--r", "9"]) == 2
    assert main(["decompose", "--tope", "+0+", "--cycle", "canonical"]) == 2


def test_internal_error_propagates_instead_of_exit_2(monkeypatch, capsys):
    # a broken decomposition is a bug, not invalid input: exit 4 with the traceback, never exit 2
    import topecycles.complexes as complexes
    from topecycles.decomposition import DecompositionError

    monkeypatch.setattr(complexes, "_coefficients", lambda T, c: (tuple(T), _minus_mask(T, c.t), (1, 1, 0)))
    assert main(["fvector", "--tope", "+++", "--cycle", "canonical"]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and DecompositionError.__name__ in err


def test_fvector_lambda_delta_mismatch_is_internal_error(monkeypatch, capsys):
    # Lambda facets that form an antichain other than Delta's facets are a bug: exit 4, not exit 3
    import topecycles.complexes as complexes
    from topecycles.decomposition import DecompositionError

    monkeypatch.setattr(complexes, "_coefficients", lambda T, c: (tuple(T), _minus_mask(T, c.t), (0,) * c.t))
    assert main(["fvector", "--tope", "+-+-+", "--cycle", "canonical"]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and DecompositionError.__name__ in err


def test_malformed_json_exits_1(capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["topes", "--arrangement", str(broken)]) == 1


def test_non_utf8_document_exits_1(capsys, tmp_path):
    # a decoding error is a ValueError, but the document is unreadable, not invalid input
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert main(["cycle", "find", "--topes", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"topecycles: error: {bad}: not UTF-8 text")


def test_emitted_docs_are_consumable(capsys, tmp_path):
    # every emitted document feeds the consuming subcommand unchanged
    arr, topes, cyc, fvec = (tmp_path / n for n in ("a.json", "t.json", "c.json", "f.json"))
    assert run(capsys, "gen", "moment_curve", "--t", "5", "--r", "3", "--output", str(arr))[0] == 0
    assert run(capsys, "topes", "--arrangement", str(arr), "--output", str(topes))[0] == 0
    assert run(capsys, "cycle", "find", "--topes", str(topes), "--output", str(cyc))[0] == 0
    assert run(capsys, "cycle", "validate", "--cycle", str(cyc), "--topes", str(topes))[0] == 0
    assert run(capsys, "fvector", "--tope", "++-++", "--cycle", str(cyc), "--output", str(fvec))[0] == 0
    code, _ = run_json(capsys, "verify-ds", "--fvector", str(fvec))
    assert code in (0, 3)  # consumable either way; pass/fail depends on |Q|


def test_output_over_a_longer_file_is_the_document_alone(capsys, tmp_path):
    # the output is written in place from its start, so its old tail must be cut off
    out = tmp_path / "cycle.json"
    out.write_bytes(b"junk " * 2048)
    assert run(capsys, "cycle", "canonical", "--t", "5", "--output", str(out)) == (0, "")
    code, stdout = run(capsys, "cycle", "canonical", "--t", "5")
    assert code == 0 and out.read_bytes() == stdout.encode()


def test_output_to_dev_null_and_to_a_fifo(capsys, tmp_path):
    assert run(capsys, "cycle", "canonical", "--t", "5", "--output", os.devnull) == (0, "")
    expected = run(capsys, "cycle", "canonical", "--t", "5")[1].encode()
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    try:
        assert run(capsys, "cycle", "canonical", "--t", "5", "--output", str(fifo)) == (0, "")
    finally:
        if reader.is_alive():  # the writer failed before opening: let the reader's open return
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(5)
    assert received == [expected]


def test_output_to_a_directory_exits_1(capsys, tmp_path):
    assert main(["cycle", "canonical", "--t", "3", "--output", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("topecycles: error: ") and "Traceback" not in captured.err


def test_new_output_has_the_mode_open_gives(capsys, tmp_path):
    old = os.umask(0o027)
    try:
        with open(tmp_path / "by_open.json", "w"):
            pass
        assert run(capsys, "cycle", "canonical", "--t", "3", "--output", str(tmp_path / "by_cli.json"))[0] == 0
    finally:
        os.umask(old)
    assert (tmp_path / "by_cli.json").stat().st_mode == (tmp_path / "by_open.json").stat().st_mode


def test_validate_reads_its_cycle_before_writing_over_it(capsys, tmp_path):
    cyc = tmp_path / "c.json"
    assert run(capsys, "cycle", "canonical", "--t", "4", "--output", str(cyc))[0] == 0
    assert run(capsys, "cycle", "validate", "--cycle", str(cyc), "--output", str(cyc)) == (0, "")
    assert json.loads(cyc.read_text()) == {"ok": True, "violations": []}


@pytest.mark.parametrize("form", ["{}", "1/{}"])
@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no limit on integer strings before 3.10.7")
def test_rational_over_the_digit_limit_exits_1(capsys, tmp_path, form):
    # the interpreter's limit on integer strings, not input validation (exit 2) or a bug (exit 4)
    digits = sys.get_int_max_str_digits() + 700
    arr = tmp_path / "arr.json"
    arr.write_text(json.dumps({"t": 2, "dim": 2, "normals": [["1", "0"], ["0", form.format("9" * digits)]]}))
    assert main(["topes", "--arrangement", str(arr)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("topecycles: error: rational '") and f" has {digits} digits, more than the " in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no limit on integer strings before 3.10.7")
def test_an_integer_over_the_digit_limit_in_a_document_read_exits_1(capsys, tmp_path):
    digits = sys.get_int_max_str_digits() + 700
    fvec = tmp_path / "f.json"
    fvec.write_text('{"t": 5, "f": [1, 5, 10, ' + "9" * digits + ", 0, 0]}")
    message = f"{fvec}: an integer has more than the {sys.get_int_max_str_digits()} digits this interpreter reads"
    with pytest.raises(io.SchemaError, match=f"^{re.escape(message)}$"):
        io.load_doc(str(fvec))
    assert main(["verify-ds", "--fvector", str(fvec)]) == 1
    assert capsys.readouterr() == ("", f"topecycles: error: {message}\n")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no limit on integer strings before 3.10.7")
def test_an_integer_over_the_digit_limit_in_a_document_written_exits_1_and_writes_nothing(capsys, tmp_path):
    # the f-vector of 2,200 '+' holds binomials of up to 661 digits, past the least limit, 640
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        out = tmp_path / "f.json"
        for target, argv in ((str(out), ["--output", str(out)]), ("stdout", [])):
            assert main(["fvector", "--tope", "+" * 2200, "--cycle", "canonical", *argv]) == 1
            message = f"{target}: an integer has more than the 640 digits this interpreter writes"
            assert capsys.readouterr() == ("", f"topecycles: error: {message}\n")
        assert not out.exists()
    finally:
        sys.set_int_max_str_digits(old)


def test_a_document_nested_deeper_than_the_decoder_reads_exits_1(capsys, tmp_path):
    # the decoder's RecursionError is bad input, not a bug in the package (exit 4)
    deep = tmp_path / "deep.json"
    deep.write_text('{"t": ' + "[" * 100_000 + "]" * 100_000 + "}")
    with pytest.raises(io.SchemaError) as excinfo:
        io.load_doc(str(deep))
    assert str(excinfo.value) == f"{deep}: nested deeper than the JSON decoder reads"
    assert main(["topes", "--arrangement", str(deep)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"topecycles: error: {excinfo.value}\n"


@pytest.mark.parametrize(
    "arr",
    [rank2_fan(1), Arrangement([(3,)]), rank2_fan(5), totally_cyclic_fan(9), moment_curve(7, 4), moment_curve(6, 5), moment_curve(9, 3),
     Arrangement([(Fraction(1, 2), 1, 0), (0, Fraction(2, 3), 1), (1, Fraction(-1, 3), Fraction(1, 5)), (Fraction(-3, 4), Fraction(1, 2), 1)])],
    ids=["line", "dim1", "fan5", "cyclic9", "mc74", "mc65", "mc93", "rational"],
)
def test_topes_writes_the_library_topes_as_the_standard_encoder_writes_them(capsys, tmp_path, arr):
    # the command's one form on the way from the chambers to the strings changes no byte
    doc = tmp_path / "arr.json"
    doc.write_text(json.dumps(io.arrangement_to_doc(arr)))
    expected = json.dumps(io.tope_set_to_doc(arr.t, enumerate_topes(arr)), indent=2) + "\n"
    assert run(capsys, "topes", "--arrangement", str(doc)) == (0, expected)


_text = st.text(st.characters(exclude_categories=())) | st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é€😀", "\ud800", "+-+"])
# the values a document holds: str, bool, int, list and dict (None and tuples raise, as a float does)
_scalars = _text | st.integers() | st.integers(min_value=-(2**200), max_value=2**200) | st.booleans()
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(_text, inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(st.dictionaries(_text, _values, max_size=6))
def test_the_writer_writes_what_json_dumps_indent_2_writes(doc):
    assert cli._json_text(doc, "") == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [{"k": [[], {}, [{}], {"": []}]}, {}], ids=["empty-containers", "empty"])
def test_the_writer_writes_empty_containers_as_json_dumps_does(doc):
    assert cli._json_text(doc, "") == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "doc, kind",
    [
        ({"a": [1, 2.5]}, "float"),
        ({"a": {"b": float("nan")}}, "float"),
        ({"a": {1: "x"}}, "int"),
        ({"a": {None: [True]}}, "NoneType"),
        ({"a": [1, None]}, "NoneType"),
        ({"a": {"b": (1, 2)}}, "tuple"),
    ],
    ids=["float", "nan", "int-key", "none-key", "none", "tuple"],
)
def test_the_writer_raises_type_error_naming_any_other_value(capsys, monkeypatch, tmp_path, doc, kind):
    # no document holds such a value, so writing one is a bug in the package: exit 4, nothing written
    with pytest.raises(TypeError, match=f" {kind}$"):
        cli._json_text(doc, "")
    monkeypatch.setattr(io, "fvector_to_doc", lambda f: doc)
    out = tmp_path / "f.json"
    assert main(["fvector", "--tope", "+-+", "--cycle", "canonical", "--output", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and err.rstrip().endswith(f" {kind}")
    assert not out.exists()


def test_the_writer_raises_what_json_dumps_raises():
    for doc, kind in (({"a": [Fraction(1, 2)]}, "Fraction"), ({"a": {(1,): 2}}, "tuple")):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError, match=f" {kind}$"):
            cli._json_text(doc, "")


def _every_document():
    """One document of each shape the commands write, from every io builder and the inline ones."""
    from topecycles.complexes import lambda_face_masks
    from topecycles.cycles import canonical_hypercube_cycle
    from topecycles.decomposition import decompose
    from topecycles.dehn_sommerville import check_ds
    from topecycles.oracles import census, nu_counts

    cycle = canonical_hypercube_cycle(5)
    tope = parse_sign_vector("+-+-+")
    fan = totally_cyclic_fan(7)
    topes = hypercube_topes(5)
    f = lambda_face_masks(tope, cycle).f_vector
    bad_f = (1, 5, 10, 6, 0, 0)
    return {
        "arrangement": io.arrangement_to_doc(Arrangement([(Fraction(1, 2), -1), (3, Fraction(-7, 3))])),
        "moment_curve": io.arrangement_to_doc(moment_curve(6, 3)),
        "tope_set": io.tope_set_to_doc(5, topes),
        "cycle": io.cycle_to_doc(cycle),
        "not_found": {"found": False, "t": 2},
        "decomposition": io.decomposition_to_doc(decompose(tope, cycle)),
        "fvector": io.fvector_to_doc(f),
        "ds_report": io.ds_report_to_doc(check_ds(f)),
        "ds_report_failing": io.ds_report_to_doc(check_ds(bad_f)),
        "census": _census_doc(census(topes, cycle)),
        "census_listed": _census_doc(census(topes, cycle, list_topes=True), {1: 10, 3: 20, 5: 2}),
        "validate_ok": {"ok": True, "violations": []},
        "validate_failing": {"ok": False, "violations": [{"kind": "adjacency", "where": [0, 1], "detail": 'vertices 0 and 1 "differ"'}]},
        "nu": {"t": fan.t, "nu": list(nu_counts(fan))},
    }


@pytest.mark.parametrize("name", list(_every_document()))
def test_every_document_is_written_as_json_dumps_indent_2_writes_it(name):
    doc = _every_document()[name]
    assert cli._json_text(doc, "") == json.dumps(doc, indent=2)


# argvs every command parses, from the tests above and the README
_VALID_ARGVS = [
    ["gen", "hypercube", "--t", "5", "--output", "topes5.json"],
    ["gen", "moment_curve", "--t", "6", "--r", "3"],
    ["gen", "rank2_fan", "--t", "4"],
    ["gen", "totally_cyclic_fan", "--t", "5", "--output", "fan.json"],
    ["topes", "--arrangement", "arr.json", "--output", "topes.json"],
    ["cycle", "canonical", "--t", "5", "--output", "cycle5.json"],
    ["cycle", "find", "--topes", "topes.json"],
    ["cycle", "find", "--topes", "topes.json", "--seed", "2", "--output", "cycle.json"],
    ["cycle", "find", "--topes", "topes.json", "--seed", "3", "--start", "-++"],
    ["cycle", "find", "--topes", "topes.json", "--start=-++"],
    ["cycle", "validate", "--cycle", "cycle.json", "--topes", "topes.json"],
    ["cycle", "validate", "--cycle", "cycle.json"],
    ["decompose", "--tope", "+-+-+", "--cycle", "cycle5.json"],
    ["decompose", "--cycle", "canonical", "--tope", "-+-"],
    ["decompose", "--tope=-+-", "--cycle", "canonical"],
    ["fvector", "--tope", "+-+-+", "--cycle", "canonical", "--output", "fvector5.json"],
    ["fvector", "--cycle", "canonical", "--tope", "-+-+-"],
    ["verify-ds", "--fvector", "fvector5.json"],
    ["census", "--topes", "topes5.json", "--cycle", "canonical"],
    ["census", "--topes", "topes.json", "--cycle", "cycle.json", "--list-topes", "--output", "census.json"],
    ["nu", "--arrangement", "fan.json"],
]


def test_the_leaf_parsers_are_the_commands():
    cli.build_parser()
    assert set(cli._COMMANDS) == {
        ("gen",), ("topes",), ("cycle", "canonical"), ("cycle", "find"), ("cycle", "validate"),
        ("decompose",), ("fvector",), ("verify-ds",), ("census",), ("nu",),
    }
    for words, parser in cli._COMMANDS.items():  # recorded under the words the tree parses them by
        assert parser.prog == " ".join(("topecycles",) + words)


@pytest.mark.parametrize("argv", _VALID_ARGVS, ids=[" ".join(a[:2]) for a in _VALID_ARGVS])
def test_the_leaf_parses_what_the_tree_parses(monkeypatch, argv):
    tree = vars(cli.build_parser().parse_args(argv))
    del tree["command"]
    tree.pop("cycle_command", None)

    def unreachable():
        raise AssertionError("the tree was reached for an argv that names a command")

    cli.build_parser()  # records the commands once, before the tree is made unreachable
    monkeypatch.setattr(cli, "build_parser", unreachable)
    assert vars(cli._parse(argv)) == tree


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # -h prints its help and exits, on either route
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_errors_and_help_read_the_same_on_both_routes(capsys, monkeypatch, tmp_path):
    # the argvs of test_usage_errors_exit_1 and test_option_prefixes_are_usage_errors, an argv that
    # names only a command group, an empty one and help: exit code, stdout and stderr as the tree gives them
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.json").write_text(json.dumps({"t": 5, "f": [1, 5, 10, 5, 0, 0]}))
    (tmp_path / "neg.json").write_text(json.dumps({"t": -3, "topes": []}))
    assert run(capsys, "gen", "hypercube", "--t", "3", "--output", "topes.json")[0] == 0
    argvs = [
        ["nosuchcommand"], ["gen", "hypercube"], ["gen", "klein_bottle", "--t", "5"],
        ["decompose", "--tope", "+-+", "--cycle", "missing.json"], ["gen", "moment_curve", "--t", "5"],
        ["gen", "rank2_fan", "--t", "3", "--r", "7"], ["gen", "hypercube", "--t", "3", "--r", "3"],
        ["verify-ds", "--fvector", "f.json", "--tope", "+-+-+"], ["verify-ds", "--fvector", "f.json", "--cycle", "canonical"],
        ["verify-ds", "--fvector", "f.json", "--tope", "+-+-+", "--cycle", "canonical"], ["cycle", "find", "--topes", "neg.json"],
        ["decompose", "--top", "-+-", "--cycle", "canonical"], ["decompose", "--top", "+--", "--cycle", "canonical"],
        ["cycle", "find", "--topes", "topes.json", "--sta", "-++"], ["cycle", "find", "--topes", "topes.json", "--sta", "+-+"],
        ["cycle", "find", "--top", "topes.json"], ["gen", "hypercube", "--t", "3", "--out", "cube.json"],
        ["topes", "--arrangement", "arr.json", "extra"], ["cycle", "nosuch"],
        ["cycle"], [], ["topes", "-h"], ["cycle", "find", "-h"], ["cycle", "-h"], ["-h"],
    ]
    leaf = [_outcome(capsys, argv) for argv in argvs]
    monkeypatch.setattr(cli, "_COMMANDS", {})  # every argv through the whole tree
    assert [_outcome(capsys, argv) for argv in argvs] == leaf
    for argv, (code, _, err) in zip(argvs, leaf):
        assert code == (("SystemExit", 0) if "-h" in argv else 1), argv
        assert err.startswith("topecycles: error: ") or "-h" in argv, argv
    assert not (tmp_path / "cube.json").exists()
