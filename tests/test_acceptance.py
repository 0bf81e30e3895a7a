"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them as they execute)."""

from dataclasses import dataclass
from math import comb

import json
import pytest

from topecycles.arrangements import (
    enumerate_topes,
    hypercube_topes,
    moment_curve,
    rank2_fan,
    totally_cyclic_fan,
)
from topecycles.cli import main
from topecycles.complexes import delta_face_masks, lambda_face_masks, long_f_vector
from topecycles.core import negate, parse_sign_vector, sign_vector_str
from topecycles.cycles import SymmetricCycle, canonical_hypercube_cycle, find_symmetric_cycle
from topecycles.decomposition import decompose
from topecycles.dehn_sommerville import check_ds
from topecycles.oracles import check_halfplane_condition, nu_counts

from reference import all_plus, brute_force_decompose, check_recurrence, maxpos_vertices


@dataclass
class Record:
    tope: tuple
    size: int
    fvec: tuple | None = None
    coincide: bool | None = None


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def evaluate(topes, cycle: SymmetricCycle, with_complexes: bool) -> list[Record]:
    records = []
    for tope in sorted(topes, key=sign_vector_str):
        size = len(decompose(tope, cycle).members)
        if with_complexes:
            lam = lambda_face_masks(tope, cycle)
            delta = delta_face_masks(tope, cycle)
            records.append(Record(tope, size, long_f_vector(lam, cycle.t), lam == delta))
        else:
            records.append(Record(tope, size))
    return records


@pytest.fixture(scope="module")
def hyper():
    return {
        t: evaluate(hypercube_topes(t), canonical_hypercube_cycle(t), with_complexes=t >= 5)
        for t in range(2, 9)
    }


def moment_instance(t: int):
    """Deterministic pick: first seed whose cycle decomposes some tope with |Q| >= 5."""
    arr = moment_curve(t, 3)
    topes = enumerate_topes(arr)
    fallback = None
    for seed in range(40):
        cycle = find_symmetric_cycle(topes, seed=seed)
        if cycle is None:
            continue
        if fallback is None:
            fallback = cycle
        if any(len(decompose(tope, cycle).members) >= 5 for tope in topes):
            return topes, cycle
    return topes, fallback


@pytest.fixture(scope="module")
def moment():
    out = {}
    for t in range(5, 9):
        topes, cycle = moment_instance(t)
        assert cycle is not None
        out[t] = evaluate(topes, cycle, with_complexes=True)
    return out


def test_criterion_01_hypercube_census(hyper):
    checked = 0
    for t in range(2, 9):
        histogram = {}
        for record in hyper[t]:
            histogram[record.size] = histogram.get(record.size, 0) + 1
        expected = {j: 2 * comb(t, j) for j in range(1, t + 1, 2)}
        assert histogram == expected, (t, histogram, expected)
        checked += len(hyper[t])
    report(1, "hypercube census equals 2*C(t,j) on odd j for t=2..8", True, f"{checked} topes")


def test_criterion_02_t5_bullet(hyper):
    big = [r for r in hyper[5] if r.size == 5]
    assert len(big) == 2
    assert parse_sign_vector("+-+-+") in {r.tope for r in big}
    for r in big:
        assert r.fvec == (1, 5, 10, 5, 0, 0)
        assert r.fvec[3] == 5
    report(2, "t=5: both |Q|=5 topes have f = (1,5,10,5,0,0)", True)


def test_criterion_03_t6_bullet(hyper):
    big = [r for r in hyper[6] if r.size == 5]
    assert len(big) == 12
    for r in big:
        assert r.fvec[3] == 12 and r.fvec[4] == 3, r
    report(3, "t=6: all 12 |Q|=5 topes have f3=12, f4=3", True)


def test_criterion_04_t7_bullet(hyper):
    big = [r for r in hyper[7] if r.size in (5, 7)]
    assert len(big) == 44
    for r in big:
        f = r.fvec
        assert f[4] == 2 * f[3] - 35
        assert f[5] == f[3] - 21
        assert f[4] == 2 * f[5] + 7
        assert f[4] % 2 == 1
    report(4, "t=7: all |Q| in {5,7} topes satisfy the linear relations and f4 odd", True)


def test_criterion_05_full_ds_system(hyper, moment):
    instances = [hyper[t] for t in range(5, 9)] + [moment[t] for t in range(5, 9)]
    checked = 0
    for records in instances:
        for r in records:
            if r.size >= 5:
                rep = check_ds(r.fvec)
                assert rep.boundary_ok and not any(rep.polynomial_residual), r
                assert all(check_recurrence(r.fvec).values()), r
                assert rep.alternating_sum == 0, r
                assert rep.passes
                checked += 1
    moment_big = sum(1 for t in range(5, 9) for r in moment[t] if r.size >= 5)
    assert moment_big > 0, "moment-curve instances contributed no |Q| >= 5 topes"
    report(5, "DS system passes for every |Q|>=5 tope (hypercube 5..8 + moment curves)", True,
           f"{checked} topes, {moment_big} from arrangements")


def test_criterion_06_lambda_delta_coincide(hyper, moment):
    checked = 0
    for records in [hyper[t] for t in range(5, 9)] + [moment[t] for t in range(5, 9)]:
        for r in records:
            assert r.coincide, r
            checked += 1
    report(6, "faces(lambda facets) == delta faces for every tope in the instance set", True,
           f"{checked} topes")


def test_criterion_07_decomposition_oracle_equivalence():
    instances = []
    for t in range(2, 8):
        instances.append((hypercube_topes(t), canonical_hypercube_cycle(t)))
    for t in (5, 7):
        topes = enumerate_topes(rank2_fan(t))
        instances.append((topes, find_symmetric_cycle(topes)))
    for t in (6, 7):
        topes = enumerate_topes(moment_curve(t, 3))
        instances.append((topes, find_symmetric_cycle(topes)))
    checked = 0
    for topes, cycle in instances:
        assert cycle is not None
        for tope in topes:
            hits = brute_force_decompose(tope, cycle)
            minimal = [members for members, flag in hits if flag]
            assert len(minimal) == 1, sign_vector_str(tope)
            d = decompose(tope, cycle)
            assert set(minimal[0]) == set(d.members)
            assert tuple(sum(col) for col in zip(*d.members)) == tope
            assert len(d.members) % 2 == 1
            checked += 1
    report(7, "brute force finds exactly one minimal subset == decompose(...) for t<=7", True,
           f"{checked} topes")


def test_criterion_08_maxpos_identity():
    checked = []
    for t in (3, 5, 6):
        topes = enumerate_topes(rank2_fan(t))
        cycle = find_symmetric_cycle(topes)
        assert set(decompose(all_plus(t), cycle).members) == set(maxpos_vertices(cycle))
        checked.append(f"fan t={t}")
    for t in (3, 4, 5):
        cycle = _hypercube_cycle_avoiding_all_plus(t)
        assert all_plus(t) not in cycle.vertices
        assert set(decompose(all_plus(t), cycle).members) == set(maxpos_vertices(cycle))
        checked.append(f"cube t={t}")
    report(8, "decompose(T+, R) == maxpos vertices on acyclic instances", True, ", ".join(checked))


def _hypercube_cycle_avoiding_all_plus(t: int) -> SymmetricCycle:
    topes = hypercube_topes(t)
    banned = {all_plus(t), negate(all_plus(t))}
    for seed in range(30):
        for start in sorted(set(topes) - banned, key=sign_vector_str):
            cycle = find_symmetric_cycle(topes, start=start, seed=seed)
            if cycle is not None and all_plus(t) not in cycle.vertices:
                return cycle
    raise AssertionError(f"no symmetric cycle avoiding the all-plus tope found for t={t}")


def test_criterion_09_geometry_combinatorics_cross_check():
    checked = 0
    for t in (5, 6, 7):
        arr = totally_cyclic_fan(t)
        topes = enumerate_topes(arr)
        cycle = find_symmetric_cycle(topes)
        scan = hypercube_topes(t) if t == 5 else [all_plus(t)]
        if t == 7:
            scan = [r for r in hypercube_topes(7) if len(decompose(r, cycle).members) >= 5]
        for tope in scan:
            reoriented = [tuple(tope[e] * c for c in arr.normals[e]) for e in range(t)]
            if not check_halfplane_condition(reoriented).holds:
                continue
            nu = nu_counts(reoriented)
            f = long_f_vector(delta_face_masks(tope, cycle), t)
            assert nu == f, (t, sign_vector_str(tope), nu, f)
            assert nu[0] == 1 and nu[1] == t and nu[2] == comb(t, 2)
            assert nu[t - 1] == 0 and nu[t] == 0
            checked += 1
    assert checked >= 40
    report(9, "nu counts == delta f-vector and boundary rows hold (half-plane instances)", True,
           f"{checked} reorientations")


def test_criterion_10_negative_controls(tmp_path, capsys):
    base_vectors = [(1, 5, 10, 5, 0, 0), (1, 6, 15, 12, 3, 0, 0)]
    perturbations = 0
    for f in base_vectors:
        assert check_ds(f).passes
        for j in range(len(f)):
            for delta in (1, -1):
                if f[j] + delta < 0:
                    continue
                tampered = list(f)
                tampered[j] += delta
                rep = check_ds(tampered)
                broken = (
                    not rep.boundary_ok
                    or any(rep.polynomial_residual)
                    or rep.alternating_sum != 0
                )
                assert broken, (f, j, delta)
                perturbations += 1
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps({"t": 5, "f": [1, 5, 10, 6, 0, 0]}))
    code = main(["verify-ds", "--fvector", str(bad)])
    capsys.readouterr()
    assert code == 3
    report(10, "every single-entry perturbation breaks a check; CLI exits 3", True,
           f"{perturbations} perturbations")
