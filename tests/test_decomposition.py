from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from topecycles.arrangements import enumerate_topes, hypercube_topes, moment_curve, rank2_fan, totally_cyclic_fan
from topecycles.core import DimensionError, all_plus, negate, parse_sign_vector
from topecycles.cycles import CycleError, SymmetricCycle, canonical_hypercube_cycle, find_symmetric_cycle
from topecycles.decomposition import decompose

from reference import brute_force_decompose


def sign_vectors(t):
    return st.tuples(*[st.sampled_from((1, -1))] * t)


def vector_sum(vectors):
    return tuple(map(sum, zip(*vectors)))


def test_vertex_decomposes_to_itself():
    cycle = canonical_hypercube_cycle(4)
    for i, v in enumerate(cycle.vertices):
        d = decompose(v, cycle)
        assert d.members == (v,)
        assert sum(1 for c in d.coeffs if c) == 1
        expected = [0] * 4
        expected[i % 4] = 1 if i < 4 else -1
        assert list(d.coeffs) == expected


def test_alternating_tope_t5():
    cycle = canonical_hypercube_cycle(5)
    d = decompose(parse_sign_vector("+-+-+"), cycle)
    assert d.coeffs == (1, -1, 1, -1, 1)
    assert d.members == tuple(cycle.vertices[i] for i in (0, 2, 4, 6, 8))
    assert vector_sum(d.members) == parse_sign_vector("+-+-+")


def test_decompose_all_plus_over_fan_cycle():
    topes = enumerate_topes(rank2_fan(5))
    cycle = find_symmetric_cycle(topes)
    d = decompose(all_plus(5), cycle)
    assert d.members == (all_plus(5),)


def test_decompose_input_validation():
    cycle = canonical_hypercube_cycle(3)
    with pytest.raises(DimensionError):
        decompose((1, 1), cycle)
    with pytest.raises(ValueError):
        decompose((1, 0, 1), cycle)


def test_dependent_first_half_rejected_at_construction():
    # the first half is linearly dependent, so no decomposition could exist
    with pytest.raises(CycleError):
        SymmetricCycle(((1, 1), (-1, -1), (-1, -1), (1, 1)))


def test_hadamard_first_half_rejected_at_construction():
    # Hadamard-style first half: invertible, but solutions would land in (1/2)Z
    half = ((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1))
    with pytest.raises(CycleError):
        SymmetricCycle(half + tuple(negate(v) for v in half))


@settings(max_examples=60)
@given(st.integers(2, 7).flatmap(lambda t: st.tuples(st.just(t), sign_vectors(t))))
def test_decomposition_properties_on_canonical_cycles(case):
    t, tope = case
    cycle = canonical_hypercube_cycle(t)
    d = decompose(tope, cycle)
    assert d.size % 2 == 1
    assert vector_sum(d.members) == tope
    assert (d.size == 1) == (tope in cycle.vertices)
    # no antipodal pair among members
    assert not any(negate(m) in d.members for m in d.members)
    # antipodal equivariance
    dn = decompose(negate(tope), cycle)
    assert set(dn.members) == {negate(m) for m in d.members}
    assert dn.coeffs == tuple(-c for c in d.coeffs)


def test_brute_force_unique_minimal_t3():
    cycle = canonical_hypercube_cycle(3)
    hits = brute_force_decompose(all_plus(3), cycle)
    minimal = [members for members, flag in hits if flag]
    assert minimal == [(all_plus(3),)]


def test_brute_force_matches_solver_t5():
    cycle = canonical_hypercube_cycle(5)
    tope = parse_sign_vector("+-+-+")
    minimal = [members for members, flag in brute_force_decompose(tope, cycle) if flag]
    assert len(minimal) == 1
    assert set(minimal[0]) == set(decompose(tope, cycle).members)


def test_brute_force_always_contains_solver_answer():
    cycle = canonical_hypercube_cycle(4)
    for tope in [(1, -1, 1, -1), (1, 1, -1, 1), (-1, -1, 1, 1)]:
        d = decompose(tope, cycle)
        found = {frozenset(members) for members, _ in brute_force_decompose(tope, cycle)}
        assert frozenset(d.members) in found
        for members, _ in brute_force_decompose(tope, cycle):
            assert vector_sum(members) == tope


def test_brute_force_guard():
    with pytest.raises(ValueError):
        brute_force_decompose(all_plus(9), canonical_hypercube_cycle(9))


@cache
def _tope_set(kind, t):
    if kind == "hypercube":
        return tuple(hypercube_topes(t))
    if kind == "moment_curve":
        return tuple(enumerate_topes(moment_curve(t, 3)))
    return tuple(enumerate_topes(totally_cyclic_fan(t)))


@st.composite
def topes_and_cycles(draw):
    kind = draw(st.sampled_from(("hypercube", "moment_curve", "totally_cyclic_fan")))
    t = draw(st.integers({"hypercube": 2, "moment_curve": 4, "totally_cyclic_fan": 5}[kind], 6))
    topes = _tope_set(kind, t)
    cycle = find_symmetric_cycle(topes, seed=draw(st.integers(0, 10**6)))
    return draw(st.sampled_from(topes)), cycle


@settings(max_examples=150, deadline=None)
@given(topes_and_cycles())
def test_closed_form_matches_brute_force_oracle(case):
    tope, cycle = case
    d = decompose(tope, cycle)
    assert set(d.coeffs) <= {-1, 0, 1}
    assert d.size % 2 == 1
    minimal = [members for members, flag in brute_force_decompose(tope, cycle) if flag]
    assert minimal == [d.members]
