import json
from math import comb

import pytest

from topecycles import io
from topecycles.arrangements import hypercube_topes, moment_curve, rank2_fan, totally_cyclic_fan
from topecycles.cli import main


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
    code, doc = run_json(capsys, "verify-ds", "--tope", "+-+-+", "--cycle", "canonical")
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


def test_cycle_validate_failure_exits_2(capsys, tmp_path):
    cyc = tmp_path / "bad.json"
    cyc.write_text(json.dumps({"t": 3, "vertices": ["+++", "-++", "--+", "+-+", "+--", "++-"]}))
    code, doc = run_json(capsys, "cycle", "validate", "--cycle", str(cyc))
    assert code == 2
    assert doc["ok"] is False
    assert doc["violations"][0]["kind"] == "antipodal"


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
        code, out = run(capsys, "census", "--topes", str(topes), "--cycle", str(cyc), "--format", "tsv")
        assert code == 0
        assert out.splitlines() == ["j\tcount"] + [f"{j}\t{n}" for j, n in doc["histogram"].items()]


def test_census_mismatch_exits_3(monkeypatch, capsys, tmp_path):
    # a census of the whole hypercube is checked against 2*C(t,j); a wrong size is reported, not hidden
    from types import SimpleNamespace

    import topecycles.oracles as oracles

    topes = tmp_path / "topes.json"
    run(capsys, "gen", "hypercube", "--t", "3", "--output", str(topes))
    monkeypatch.setattr(oracles, "decompose", lambda T, c: SimpleNamespace(size=1))
    code, doc = run_json(capsys, "census", "--topes", str(topes), "--cycle", "canonical")
    assert code == 3
    assert doc["match"] is False
    assert doc["histogram"] == {"1": 8}
    assert doc["expected"] == {"1": 6, "3": 2}


def test_census_list_topes_and_jobs(capsys, tmp_path):
    topes = tmp_path / "topes.json"
    run(capsys, "gen", "hypercube", "--t", "5", "--output", str(topes))
    code, doc = run_json(
        capsys, "census", "--topes", str(topes), "--cycle", "canonical", "--list-topes"
    )
    assert code == 0
    assert doc["topes"]["5"] == ["+-+-+", "-+-+-"]


def test_census_tsv(capsys, tmp_path):
    topes = tmp_path / "topes.json"
    run(capsys, "gen", "hypercube", "--t", "3", "--output", str(topes))
    code, out = run(capsys, "census", "--topes", str(topes), "--cycle", "canonical", "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "j\tcount\texpected\tmatch"
    assert lines[1] == "1\t6\t6\ttrue"
    assert lines[2] == "3\t2\t2\ttrue"


def test_fvector_tsv(capsys):
    code, out = run(capsys, "fvector", "--tope", "+-+-+", "--cycle", "canonical", "--format", "tsv")
    assert code == 0
    assert out.splitlines()[:3] == ["j\tf", "0\t1", "1\t5"]


def test_nu_command(capsys, tmp_path):
    arr = tmp_path / "fan.json"
    run(capsys, "gen", "totally_cyclic_fan", "--t", "5", "--output", str(arr))
    code, doc = run_json(capsys, "nu", "--arrangement", str(arr))
    assert code == 0
    assert doc == {"t": 5, "nu": [1, 5, 10, 5, 0, 0]}
    code, out = run(capsys, "nu", "--arrangement", str(arr), "--format", "tsv")
    assert code == 0
    assert out.splitlines()[:3] == ["j\tnu", "0\t1", "1\t5"]


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


def test_invalid_inputs_exit_2(capsys, tmp_path):
    bad_arr = tmp_path / "arr.json"
    bad_arr.write_text(json.dumps({"t": 2, "dim": 2, "normals": [["1", "0"], ["2", "0"]]}))
    assert main(["topes", "--arrangement", str(bad_arr)]) == 2
    assert main(["gen", "moment_curve", "--t", "3", "--r", "9"]) == 2
    assert main(["decompose", "--tope", "+0+", "--cycle", "canonical"]) == 2


def test_internal_error_propagates_instead_of_exit_2(monkeypatch, capsys):
    # a broken decomposition is a bug, not invalid input: exit 4 with the traceback, never exit 2
    import topecycles.complexes as complexes
    from topecycles.cycles import canonical_hypercube_cycle
    from topecycles.decomposition import Decomposition, DecompositionError

    cycle = canonical_hypercube_cycle(3)
    members = (cycle.vertices[0], cycle.vertices[1])
    monkeypatch.setattr(complexes, "decompose", lambda T, c: Decomposition(tuple(T), c, (1, 1, 0), members))
    assert main(["fvector", "--tope", "+++", "--cycle", "canonical"]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and DecompositionError.__name__ in err


def test_fvector_lambda_delta_mismatch_is_internal_error(monkeypatch, capsys):
    # Lambda facets that form an antichain other than Delta's facets are a bug: exit 4, not exit 3
    import topecycles.complexes as complexes
    from topecycles.cycles import canonical_hypercube_cycle
    from topecycles.decomposition import Decomposition, DecompositionError

    cycle = canonical_hypercube_cycle(5)
    members = complexes.decompose((1, -1, 1, -1, 1), cycle).members[:3]
    monkeypatch.setattr(complexes, "decompose", lambda T, c: Decomposition(tuple(T), c, (0,) * c.t, members))
    for command in ("fvector", "verify-ds"):
        assert main([command, "--tope", "+-+-+", "--cycle", "canonical"]) == 4
        err = capsys.readouterr().err
        assert "Traceback" in err and DecompositionError.__name__ in err


def test_malformed_json_exits_1(capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["topes", "--arrangement", str(broken)]) == 1


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
