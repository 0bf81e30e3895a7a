from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import topecycles.arrangements as arrangements
from topecycles.arrangements import (
    Arrangement,
    ArrangementError,
    enumerate_topes,
    hypercube_topes,
    moment_curve,
    primitive_vector,
    rank2_fan,
    totally_cyclic_fan,
)
from topecycles.core import DimensionError, negate, sign_vector_str
from topecycles.oracles import check_halfplane_condition

from reference import (
    primitive_vector_by_fractions,
    rank2_feasible,
    strict_feasible,
    validate_simple_by_minors,
    zaslavsky_rank3_chambers,
)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonzero_rationals = rationals.filter(bool)
simple_rank3 = st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=1, max_size=7).filter(
    lambda rows: not validate_simple_by_minors(rows)
)


def signed(rows, sigma):
    """The rows sigma_e * a_e, whose strict feasibility says sigma is a tope."""
    return [tuple(s * c for c in a) for a, s in zip(rows, sigma)]


def violations(normals):
    """The violations ArrangementError reports for the normals."""
    with pytest.raises(ArrangementError) as excinfo:
        Arrangement(normals)
    return excinfo.value.violations


def test_validate_simple_ok():
    assert Arrangement([(1, 0), (0, 1), (1, 1)]).rows == ((1, 0), (0, 1), (1, 1))


def test_validate_simple_parallel_pair():
    found = violations([(1, 0), (2, 0)])
    assert len(found) == 1
    assert found[0].kind == "parallel"
    assert found[0].where == (1, 2)


def test_validate_simple_antiparallel_pair():
    found = violations([(1, 1), (-1, -1)])
    assert found[0].kind == "antiparallel"
    assert found[0].where == (1, 2)


def test_validate_simple_zero_normal():
    assert violations([(0, 0), (1, 1)])[0].kind == "loop"


@pytest.mark.parametrize(
    "normals, error, message",
    [([], ValueError, "at least one normal"), ([(1, 0), (0, 1, 0)], DimensionError, "dimension 2")],
)
def test_construction_rejects_malformed_normals(normals, error, message):
    with pytest.raises(error, match=message):
        Arrangement(normals)


def test_built_from_lists_or_generators_equals_and_hashes_like_tuples():
    normals = ((Fraction(1, 2), 1), (0, 3), (1, -1))
    arr = Arrangement(normals)
    for other in (Arrangement([list(n) for n in normals]), Arrangement(list(n) for n in normals)):
        assert other == arr and hash(other) == hash(arr)
        assert other.normals == normals and other.rows == arr.rows


def test_primitive_vector():
    assert primitive_vector((Fraction(2, 3), Fraction(-4, 3))) == (1, -2)
    assert primitive_vector((6, -9)) == (2, -3)
    assert primitive_vector((0, 0)) == (0, 0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(-60, 60), st.fractions(min_value=-20, max_value=20, max_denominator=12)), max_size=5))
def test_primitive_vector_matches_fraction_oracle(row):
    assert primitive_vector(row) == primitive_vector_by_fractions(row)


def test_exact_coordinates_only():
    # a float reaches no decision: the integer rows are made only from ints and Fractions
    with pytest.raises(TypeError):
        primitive_vector((0.5, 1))
    with pytest.raises(TypeError):
        strict_feasible([(1, 0), (0.5, 1)])
    with pytest.raises(TypeError):
        check_halfplane_condition([(1, 0), (0, 1.0)])
    with pytest.raises(TypeError):
        Arrangement([(0.5, 1)])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 3).flatmap(lambda d: st.lists(st.tuples(*[rationals] * d), min_size=1, max_size=4)),
    st.lists(st.tuples(st.integers(0, 3), nonzero_rationals), min_size=1, max_size=7),
)
def test_validate_simple_matches_minors_oracle(pool, picks):
    # scaled copies of a small pool: parallel and antiparallel pairs (and loops) are common
    normals = [tuple(k * c for c in pool[i % len(pool)]) for i, k in picks]
    expected = validate_simple_by_minors(normals)
    if expected:
        assert violations(normals) == expected
    else:
        assert Arrangement(normals).rows == tuple(map(primitive_vector_by_fractions, normals))


def test_strict_feasible_single_vector():
    assert strict_feasible([(1, 0)])


def test_strict_feasible_antipodal_pair():
    assert not strict_feasible([(1, 0), (-1, 0)])


def test_strict_feasible_positive_spanning_triple():
    # (1,0), (0,1), (-1,-1) positively span the plane: no common strict solution
    assert not strict_feasible([(1, 0), (0, 1), (-1, -1)])


def test_strict_feasible_with_signs():
    assert strict_feasible(signed([(1, 0), (0, 1)], (1, -1)))
    assert not strict_feasible(signed([(1, 0), (1, 0)], (1, -1)))


def test_strict_feasible_three_dimensional():
    assert strict_feasible([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert not strict_feasible([(1, 0, 0), (-1, 0, 0), (0, 1, 0)])


def test_rank2_feasible_examples():
    assert rank2_feasible([(1, 0)])
    assert rank2_feasible([(1, 0), (0, 1)])
    # sorted angular gaps 135/135/90 degrees: none exceeds 180
    assert not rank2_feasible([(1, 0), (-1, 1), (0, -1)])


def test_rank2_feasible_rejects_zero():
    with pytest.raises(ValueError):
        rank2_feasible([(0, 0), (1, 0)])


def test_rank2_agrees_with_fourier_motzkin():
    pool = [(1, 0), (2, 1), (0, 1), (-1, 2), (-1, -1), (1, -2)]
    for size in range(1, len(pool) + 1):
        for sub in combinations(pool, size):
            assert rank2_feasible(sub) == strict_feasible(sub), sub


def test_enumerate_topes_rank2_fan():
    topes = enumerate_topes(rank2_fan(3))
    assert len(topes) == 6
    assert topes == sorted(topes, key=sign_vector_str)
    for sigma in topes:
        assert tuple(negate(sigma)) in topes
        assert strict_feasible(signed(rank2_fan(3).normals, sigma))


def test_enumerate_topes_rank2_count_is_2t():
    for t in (2, 4, 5, 7):
        assert len(enumerate_topes(rank2_fan(t))) == 2 * t


def test_enumerate_topes_moment_curve_vs_exhaustive_scan():
    arr = moment_curve(4, 3)
    topes = enumerate_topes(arr)
    assert len(topes) == 14  # 2 * (C(3,0) + C(3,1) + C(3,2))
    scan = [s for s in product((1, -1), repeat=4) if strict_feasible(signed(arr.normals, s))]
    assert topes == scan


simple_small = st.integers(1, 4).flatmap(
    lambda d: st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=6)
).filter(lambda rows: not validate_simple_by_minors(rows))


@settings(max_examples=300, deadline=None)
@given(simple_small)
@example([(0, 0, 1)])
@example([(1, 0, 0), (0, 0, 1)])
@example([(3,)])
def test_enumerate_topes_matches_fourier_motzkin_scan(rows):
    # small entries make many restricted rows coincide up to sign, so the copy-a-sign path runs
    scan = [s for s in product((1, -1), repeat=len(rows)) if strict_feasible(signed(rows, s))]
    assert enumerate_topes(Arrangement(rows)) == scan


def test_enumerate_topes_generic_count_law():
    # a generic arrangement of t hyperplanes in R^r has 2 * sum_{i<r} C(t-1, i) chambers
    for t, r in ((9, 5), (12, 4), (10, 6), (8, 8)):
        assert len(enumerate_topes(moment_curve(t, r))) == 2 * sum(comb(t - 1, i) for i in range(r)), (t, r)
    assert len(enumerate_topes(totally_cyclic_fan(40))) == 80


def test_enumerate_topes_witness_failure_is_an_internal_error(monkeypatch):
    # a witness on a hyperplane certifies no chamber; that is a bug in the enumeration, not bad input
    arr = rank2_fan(2)
    monkeypatch.setattr(arrangements, "_chambers", lambda rows, dim: [((1, 1), (1, 0)), ((1, -1), (1, -1))])
    with pytest.raises(RuntimeError) as excinfo:
        enumerate_topes(arr)
    assert not isinstance(excinfo.value, ValueError)


@settings(max_examples=150, deadline=None)
@given(simple_rank3)
def test_enumerate_topes_count_matches_zaslavsky_rank3(rows):
    # a check of chamber enumeration above rank 2 that does not rest on Fourier-Motzkin
    assert len(enumerate_topes(Arrangement(rows))) == zaslavsky_rank3_chambers(rows)


@settings(max_examples=60, deadline=None)
@given(simple_rank3, st.lists(st.fractions(min_value=0, max_value=9, max_denominator=7).filter(bool), min_size=7, max_size=7))
def test_enumerate_topes_invariant_under_positive_rescaling(rows, scales):
    scaled = [tuple(k * c for c in row) for k, row in zip(scales, rows)]
    assert enumerate_topes(Arrangement(scaled)) == enumerate_topes(Arrangement(rows))


def test_enumerate_topes_rejects_non_simple():
    with pytest.raises(ArrangementError):
        enumerate_topes(Arrangement([(1, 0), (2, 0)]))


def test_hypercube_topes():
    topes = hypercube_topes(2)
    assert topes == [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    assert topes == sorted(topes, key=sign_vector_str)
    assert len(hypercube_topes(3)) == 8


def test_rank2_fan_normals():
    assert rank2_fan(3).normals == ((1, 0), (1, 1), (1, 2))


def test_moment_curve_normals():
    assert moment_curve(4, 3).normals == ((1, 1, 1), (1, 2, 4), (1, 3, 9), (1, 4, 16))


def test_totally_cyclic_fan_is_verified():
    for t in (5, 6, 8, 11):
        arr = totally_cyclic_fan(t)
        assert validate_simple_by_minors(arr.normals) == []
        assert check_halfplane_condition(arr.normals).holds


def test_generators_reject_bad_parameters():
    with pytest.raises(ValueError):
        hypercube_topes(0)
    with pytest.raises(ValueError):
        rank2_fan(0)
    with pytest.raises(ValueError):
        moment_curve(0, 2)
    with pytest.raises(ValueError):
        moment_curve(5, 1)
    with pytest.raises(ValueError):
        moment_curve(3, 4)
    with pytest.raises(ValueError):
        totally_cyclic_fan(4)
