import functools
from fractions import Fraction

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
    _face_counts,
    delta_face_masks,
    lambda_face_masks,
    long_f_vector,
)
from topecycles.core import DimensionError, _minus_mask, negate, parse_sign_vector
from topecycles.cycles import canonical_hypercube_cycle, find_symmetric_cycle
from topecycles.decomposition import DecompositionError, decompose

from reference import all_plus, count_faces_by_size, downward_closure, face_counts_by_binomials, rank2_feasible

T5 = parse_sign_vector("+-+-+")
C5 = canonical_hypercube_cycle(5)


def mask(*elements):
    """The bitmask of a set of 1-based elements."""
    return sum(1 << (e - 1) for e in set(elements))


def agreement_mask(tope, q):
    """E_t - S(T,Q): the elements on which the tope and the vertex agree."""
    return sum(1 << i for i, (a, b) in enumerate(zip(tope, q)) if a == b)


def test_lambda_facets_t5_fixture():
    facets = lambda_face_masks(T5, C5).facets
    assert facets == tuple(sorted(facets))
    assert set(facets) == {
        mask(1, 3, 5),
        mask(2, 3, 5),
        mask(2, 4, 5),
        mask(1, 2, 4),
        mask(1, 3, 4),
    }


def test_lambda_facets_vertex_tope_is_full_simplex():
    assert lambda_face_masks(C5.vertices[0], C5).facets == (mask(1, 2, 3, 4, 5),)


def test_lambda_negation_invariance():
    assert lambda_face_masks(negate(T5), C5).facets == lambda_face_masks(T5, C5).facets
    for tope in hypercube_topes(4):
        c4 = canonical_hypercube_cycle(4)
        assert lambda_face_masks(negate(tope), c4).facets == lambda_face_masks(tope, c4).facets


def test_delta_faces_examples():
    faces = delta_face_masks(T5, C5)
    assert mask() in faces
    assert mask(1, 3, 5) in faces
    assert mask(1, 2, 3) not in faces


def test_delta_faces_vertex_tope_is_power_set():
    full = delta_face_masks(C5.vertices[2], C5)
    assert downward_closure(full.facets) == set(range(2**5))
    assert len(full) == 2**5


def test_delta_faces_downward_closed():
    faces = delta_face_masks(T5, C5)
    closure = downward_closure(faces.facets)
    assert closure == {m for m in range(2**5) if m in faces}
    for face in closure:
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


@st.composite
def face_count_inputs(draw):
    """t and a list of k in [0, t): any, empty, all equal or all t - 1."""
    t = draw(st.integers(1, 300))
    k = st.integers(0, t - 1)
    size = draw(st.integers(1, 2 * t))
    ks = draw(st.one_of(st.lists(k, max_size=2 * t), st.just([]), k.map(lambda c: [c] * size), st.just([t - 1] * size)))
    return ks, t


@settings(max_examples=150, deadline=None)
@given(face_count_inputs())
def test_face_counts_match_the_binomial_sums(case):
    # every f_m of the Kronecker-substituted integer must come out of its own slot, at any t and any list length
    ks, t = case
    assert _face_counts(ks, t) == face_counts_by_binomials(ks, t)


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
    # complexes are values: equal when t, facets and f-vector are, and never equal to a set of faces
    delta = delta_face_masks(T5, C5)
    assert delta == lambda_face_masks(T5, C5) == FaceComplex(5, delta.facets, delta.f_vector)
    assert downward_closure(delta.facets) == {m for m in range(2**5) if m in delta}
    assert delta != downward_closure(delta.facets)
    assert delta != delta_face_masks(parse_sign_vector("--+-+"), C5)
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
    # coefficients selecting R^0 and R^1, whose agreement masks are nested, cannot come from a genuine decomposition
    import topecycles.complexes as complexes

    cycle = canonical_hypercube_cycle(3)
    tope = (1, 1, 1)
    monkeypatch.setattr(complexes, "_coefficients", lambda T, c: (tuple(T), _minus_mask(T, c.t), (1, 1, 0)))
    with pytest.raises(DecompositionError):
        lambda_face_masks(tope, cycle)


def test_lambda_facets_other_than_delta_facets_raise(monkeypatch):
    # three of the five members: their agreement masks are an antichain, but not Delta's facets
    import topecycles.complexes as complexes

    coeffs = list(decompose(T5, C5).coeffs)
    kept = [i for i, c in enumerate(coeffs) if c][:3]
    coeffs = tuple(c if i in kept else 0 for i, c in enumerate(coeffs))
    members = tuple(C5.vertices[i if coeffs[i] > 0 else i + 5] for i in kept)
    assert sorted(agreement_mask(T5, q) for q in members) != list(delta_face_masks(T5, C5).facets)
    monkeypatch.setattr(complexes, "_coefficients", lambda T, c: (tuple(T), _minus_mask(T, c.t), coeffs))
    with pytest.raises(DecompositionError):
        lambda_face_masks(T5, C5)


@pytest.mark.parametrize("tope", [(1, -1, 1, 0, 1), (1, -1, 1.5, -1, 1), (1, -1, 1), (1, -1, 1, -1, 1, 1)])
def test_complexes_reject_a_bad_tope_as_decompose_does(tope):
    with pytest.raises(ValueError) as expected:
        decompose(tope, C5)
    for build in (lambda_face_masks, delta_face_masks):
        with pytest.raises(ValueError) as got:
            build(tope, C5)
        assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))


def test_each_complex_checks_the_tope_once(monkeypatch):
    import topecycles.decomposition as decomposition

    checked = []
    read = decomposition._minus_mask
    monkeypatch.setattr(decomposition, "_minus_mask", lambda v, t: checked.append(v) or read(v, t))
    for build in (lambda_face_masks, delta_face_masks):
        checked.clear()
        assert build(list(T5), C5).f_vector == (1, 5, 10, 5, 0, 0)
        assert checked == [T5]


def test_every_tope_is_read_by_one_codec_call(monkeypatch):
    # decompose, Lambda and Delta read a valid tope with one _minus_mask call; the search reads its pool with one _minus_masks call
    import topecycles.complexes as complexes
    import topecycles.core as core
    import topecycles.cycles as cycles
    import topecycles.decomposition as decomposition
    import topecycles.oracles as oracles

    calls = []

    def counted(name, read):
        return lambda *args: calls.append(name) or read(*args)

    for module in (core, cycles, decomposition, complexes, oracles):
        for name in ("_minus_mask", "_minus_masks"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    cycle = find_symmetric_cycle(hypercube_topes(5), seed=1)
    assert calls == ["_minus_masks"]
    for tope in (T5, list(T5), (1.0, -1, True, Fraction(-1), 1)):
        for build in (decompose, lambda_face_masks, delta_face_masks):
            calls.clear()
            build(tope, cycle)
            assert calls == ["_minus_mask"], (build, tope)


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


@functools.cache
def fan_topes(kind, t):
    return enumerate_topes({"rank2_fan": rank2_fan, "totally_cyclic_fan": totally_cyclic_fan}[kind](t))


@st.composite
def fan_cycles_and_sign_vectors(draw):
    # a rank-2 tope set is one 2t-cycle; the sign vector ranges over all of {+1,-1}^t, not only the topes
    kind = draw(st.sampled_from(("rank2_fan", "totally_cyclic_fan")))
    t = draw(st.integers(5, 8))
    cycle = find_symmetric_cycle(fan_topes(kind, t), seed=draw(st.integers(0, 10**6)))
    return tuple(draw(st.sampled_from((1, -1))) for _ in range(t)), cycle


@settings(max_examples=120, deadline=None)
@given(st.one_of(hypercube_topes_and_cycles(), moment_curve_topes_and_cycles(), fan_cycles_and_sign_vectors()))
def test_closures_match_full_scan_oracle(case):
    # the 2^t scans below are the definitions the closed forms must reproduce
    tope, cycle = case
    t = cycle.t
    lam = lambda_face_masks(tope, cycle)
    delta = delta_face_masks(tope, cycle)
    # Lambda's facets by the definition E_t - S(T,Q) over the members Q; Delta's facets are an antichain
    assert lam.facets == tuple(sorted(agreement_mask(tope, q) for q in decompose(tope, cycle).members))
    assert not any(a != b and a & b == a for a in delta.facets for b in delta.facets)
    agreements = [agreement_mask(tope, q) for q in cycle.vertices]
    for complex_, generators in ((lam, lam.facets), (delta, agreements)):
        scan = {a for a in range(1 << t) if any(a & ~g == 0 for g in generators)}
        assert downward_closure(complex_.facets) == scan
        assert long_f_vector(complex_, t) == count_faces_by_size(scan, t)
        assert len(complex_) == len(scan)
        assert [m in complex_ for m in range(1 << t)] == [m in scan for m in range(1 << t)]
