import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topecycles.arrangements import (
    enumerate_topes,
    hypercube_topes,
    moment_curve,
    rank2_fan,
    totally_cyclic_fan,
)
from topecycles.complexes import (
    FaceComplex,
    delta_face_masks,
    lambda_face_masks,
    lambda_facets,
    long_f_vector,
)
from topecycles.core import DimensionError, all_plus, negate, parse_sign_vector
from topecycles.cycles import canonical_hypercube_cycle, find_symmetric_cycle
from topecycles.decomposition import Decomposition, DecompositionError

from reference import count_faces_by_size, rank2_feasible

T5 = parse_sign_vector("+-+-+")
C5 = canonical_hypercube_cycle(5)


def mask(*elements):
    """The bitmask of a set of 1-based elements."""
    return sum(1 << (e - 1) for e in set(elements))


def test_lambda_facets_t5_fixture():
    facets = lambda_facets(T5, C5)
    assert facets == sorted(facets)
    assert set(facets) == {
        mask(1, 3, 5),
        mask(2, 3, 5),
        mask(2, 4, 5),
        mask(1, 2, 4),
        mask(1, 3, 4),
    }


def test_lambda_facets_vertex_tope_is_full_simplex():
    assert lambda_facets(C5.vertices[0], C5) == [mask(1, 2, 3, 4, 5)]


def test_lambda_negation_invariance():
    assert lambda_facets(negate(T5), C5) == lambda_facets(T5, C5)
    for tope in hypercube_topes(4):
        c4 = canonical_hypercube_cycle(4)
        assert lambda_facets(negate(tope), c4) == lambda_facets(tope, c4)


def test_delta_faces_examples():
    faces = delta_face_masks(T5, C5)
    assert mask() in faces
    assert mask(1, 3, 5) in faces
    assert mask(1, 2, 3) not in faces


def test_delta_faces_vertex_tope_is_power_set():
    assert delta_face_masks(C5.vertices[2], C5) == set(range(2**5))


def test_delta_faces_downward_closed():
    faces = delta_face_masks(T5, C5)
    for face in faces:
        for e in range(1, 6):
            if face & mask(e):
                assert face & ~mask(e) in faces


def test_lambda_delta_coincide_on_hypercube_5():
    for tope in hypercube_topes(5):
        assert lambda_face_masks(tope, C5) == delta_face_masks(tope, C5)


def test_lambda_delta_coincide_on_fan_cycle():
    topes = enumerate_topes(rank2_fan(5))
    cycle = find_symmetric_cycle(topes)
    for tope in hypercube_topes(5):
        assert lambda_face_masks(tope, cycle) == delta_face_masks(tope, cycle)


def test_count_faces_by_size_full_simplex():
    assert count_faces_by_size(range(32), 5) == (1, 5, 10, 10, 5, 1)


def test_long_f_vector_t5_fixture():
    assert long_f_vector(lambda_face_masks(T5, C5), 5) == (1, 5, 10, 5, 0, 0)


def test_count_faces_by_size_trivial_family():
    assert count_faces_by_size({0}, 5) == (1, 0, 0, 0, 0, 0)


def test_long_f_vector_of_lambda_and_delta_masks():
    assert long_f_vector(lambda_face_masks(T5, C5), 5) == (1, 5, 10, 5, 0, 0)
    assert long_f_vector(delta_face_masks(T5, C5), 5) == (1, 5, 10, 5, 0, 0)


def test_long_f_vector_rejects_another_ground_set():
    with pytest.raises(DimensionError):
        long_f_vector(delta_face_masks(T5, C5), 6)


def test_face_complex_equality():
    # complexes compare by ground set and facets, and against a plain set by faces
    delta = delta_face_masks(T5, C5)
    assert delta == lambda_face_masks(T5, C5) == set(delta)
    assert delta != set(delta) - {0}
    assert delta - {0} == set(delta) - {0}
    assert delta != FaceComplex(6, delta.facets, delta.f_vector + (0,))


def test_masks_outside_the_ground_set_are_not_faces():
    full = delta_face_masks(C5.vertices[0], C5)
    assert mask(1, 2, 3, 4, 5) in full
    for m in (1 << 5, mask(1, 6), (1 << 5) - 1 + (1 << 40), -1, -mask(1)):
        assert m not in full
    assert "x" not in full


def test_boundary_rows_when_decomposition_is_large():
    # |Q| = 5 instances: f_0..f_2 binomial, f_{t-1} = f_t = 0
    for t, tope in [(5, T5), (6, parse_sign_vector("+-+-+-"))]:
        cycle = canonical_hypercube_cycle(t)
        f = long_f_vector(lambda_face_masks(tope, cycle), t)
        assert f[0] == 1 and f[1] == t and f[2] == t * (t - 1) // 2
        assert f[t - 1] == 0 and f[t] == 0


def test_geometric_acyclicity_cross_check():
    # combinatorial faces == subsets whose reoriented normals fit in an open half-plane
    for arr in (rank2_fan(5), totally_cyclic_fan(5)):
        topes = enumerate_topes(arr)
        cycle = find_symmetric_cycle(topes)
        for tope in (all_plus(5), T5, parse_sign_vector("--+-+")):
            faces = delta_face_masks(tope, cycle)
            for subset_mask in range(1 << 5):
                picked = [
                    tuple(tope[e] * c for c in arr.normals[e]) for e in range(5) if subset_mask >> e & 1
                ]
                geometric = rank2_feasible(picked) if picked else True
                assert geometric == (subset_mask in faces), (tope, subset_mask)


def test_broken_decomposition_raises_not_asserts(monkeypatch):
    # members whose agreement masks are nested cannot come from a genuine decomposition
    import topecycles.complexes as complexes

    cycle = canonical_hypercube_cycle(3)
    tope = (1, 1, 1)
    members = (cycle.vertices[0], cycle.vertices[1])
    monkeypatch.setattr(complexes, "decompose", lambda T, c: Decomposition(tuple(T), c, (1, 1, 0), members))
    with pytest.raises(DecompositionError):
        lambda_facets(tope, cycle)


def test_lambda_facets_other_than_delta_facets_raise(monkeypatch):
    # three of the five members: their agreement masks are an antichain, but not Delta's facets
    import topecycles.complexes as complexes

    members = complexes.decompose(T5, C5).members[:3]
    monkeypatch.setattr(complexes, "decompose", lambda T, c: Decomposition(tuple(T), c, (0,) * c.t, members))
    assert len(lambda_facets(T5, C5)) == 3
    with pytest.raises(DecompositionError):
        lambda_face_masks(T5, C5)


@st.composite
def hypercube_topes_and_cycles(draw):
    t = draw(st.integers(2, 10))
    cycle = find_symmetric_cycle(hypercube_topes(t), seed=draw(st.integers(0, 10**6)))
    tope = tuple(draw(st.sampled_from((1, -1))) for _ in range(t))
    return tope, cycle


@functools.cache
def moment_curve_topes(t, r):
    return enumerate_topes(moment_curve(t, r))


@st.composite
def moment_curve_topes_and_cycles(draw):
    topes = moment_curve_topes(*draw(st.sampled_from(((6, 3), (7, 4), (6, 5)))))
    cycle = find_symmetric_cycle(topes, seed=draw(st.integers(0, 10**6)))
    return draw(st.sampled_from(topes)), cycle


@settings(max_examples=120, deadline=None)
@given(st.one_of(hypercube_topes_and_cycles(), moment_curve_topes_and_cycles()))
def test_closures_match_full_scan_oracle(case):
    # the 2^t scans below are the definitions the closed forms must reproduce
    tope, cycle = case
    t = cycle.t
    facets = lambda_facets(tope, cycle)
    agreements = [sum(1 << i for i in range(t) if tope[i] == q[i]) for q in cycle.vertices]
    for complex_, generators in ((lambda_face_masks(tope, cycle), facets), (delta_face_masks(tope, cycle), agreements)):
        scan = {a for a in range(1 << t) if any(a & ~g == 0 for g in generators)}
        assert complex_ == scan
        assert long_f_vector(complex_, t) == count_faces_by_size(scan, t)
        assert len(complex_) == len(scan)
        assert [m in complex_ for m in range(1 << t)] == [m in scan for m in range(1 << t)]
        assert set(complex_) == scan
