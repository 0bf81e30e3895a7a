import math
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from topecycles.arrangements import (
    ArrangementError,
    enumerate_topes,
    hypercube_topes,
    rank2_fan,
    totally_cyclic_fan,
)
from topecycles.complexes import delta_face_masks, long_f_vector
from topecycles.core import DimensionError, sign_vector_str
from topecycles.cycles import CycleError, SymmetricCycle, canonical_hypercube_cycle, find_symmetric_cycle
from topecycles.oracles import (
    FullSystemFeasibleError,
    census,
    check_halfplane_condition,
    nu_counts,
)

from reference import strict_feasible, validate_simple_by_minors

SPREAD5 = [(1, 0), (0, 1), (-1, 1), (-1, -1), (1, -2)]


def sampled_min_count(vectors, samples=360):
    """Independent sampling oracle: minimum strict count over many rational directions."""
    best = None
    for k in range(samples):
        angle = 2 * math.pi * k / samples
        u = (round(10000 * math.cos(angle)), round(10000 * math.sin(angle)))
        count = sum(1 for v in vectors if v[0] * u[0] + v[1] * u[1] > 0)
        best = count if best is None else min(best, count)
    return best


def open_count(vectors, u):
    """How many of the vectors lie strictly inside the open half-plane with inner normal u."""
    return sum(1 for v in vectors if v[0] * u[0] + v[1] * u[1] > 0)


def perpendicular_min_count(vectors):
    """Exact oracle: an emptiest open half-plane can be turned onto an input
    vector without gaining one, so the least open count over both directions
    perpendicular to every input vector is the least count overall."""
    return min(open_count(vectors, u) for x, y in vectors for u in ((-y, x), (y, -x)))


planar = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(any)


@settings(max_examples=150, deadline=None)
@given(st.lists(planar, min_size=1, max_size=8))
def test_nu_counts_match_fourier_motzkin_subsystem_oracle(normals):
    # the 2^t subsystem loop survives only here, over Fourier-Motzkin feasibility
    assume(not validate_simple_by_minors(normals))
    if strict_feasible(normals):
        with pytest.raises(FullSystemFeasibleError):
            nu_counts(normals)
        return
    nu = nu_counts(normals)
    assert len(nu) == len(normals) + 1
    for j, count in enumerate(nu):
        assert count == sum(strict_feasible(p) for p in combinations(normals, j)), j


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(any), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 3), st.sampled_from((-2, -1, 1, 2, 3))), min_size=1, max_size=8),
)
def test_halfplane_min_count_matches_perpendicular_oracle(pool, picks):
    # scaled copies of a small pool: duplicates, parallel and antiparallel vectors are common
    vectors = [(k * pool[i % len(pool)][0], k * pool[i % len(pool)][1]) for i, k in picks]
    check = check_halfplane_condition(vectors)
    assert check.min_count == perpendicular_min_count(vectors)
    assert check.holds == (check.min_count >= 2)
    if check.holds:
        assert check.witness is None
    else:
        assert all(isinstance(c, Fraction) for c in check.witness)
        assert open_count(vectors, check.witness) == check.min_count


def test_nu_trivial_rows():
    nu = nu_counts(totally_cyclic_fan(6).normals)
    t = 6
    assert nu[0] == 1
    assert nu[1] == t
    assert nu[2] == comb(t, 2)
    assert nu[t - 1] == 0 and nu[t] == 0


def test_nu_t5_bullet():
    nu = nu_counts(totally_cyclic_fan(5).normals)
    assert nu == (1, 5, 10, 5, 0, 0)
    assert nu[3] == comb(5, 2) - 5


def test_nu_alternating_sum_vanishes():
    for t in (5, 6, 7):
        nu = nu_counts(totally_cyclic_fan(t).normals)
        assert sum((-1) ** j * nu[j] for j in range(1, t - 1)) == 0


def test_nu_rejects_feasible_full_system():
    with pytest.raises(FullSystemFeasibleError):
        nu_counts(rank2_fan(5).normals)


def test_nu_rejects_non_simple():
    with pytest.raises(ArrangementError):
        nu_counts([(1, 0), (2, 0), (0, 1)])


def test_nu_rejects_higher_dimension():
    with pytest.raises(ValueError):
        nu_counts([(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_nu_matches_delta_f_vector():
    arr = totally_cyclic_fan(5)
    topes = enumerate_topes(arr)
    cycle = find_symmetric_cycle(topes)
    f = long_f_vector(delta_face_masks((1,) * 5, cycle), 5)
    assert nu_counts(arr.normals) == f


def test_halfplane_spread5_holds_and_matches_sampling():
    check = check_halfplane_condition(SPREAD5)
    assert check.holds
    assert check.min_count == sampled_min_count(SPREAD5)
    assert check.witness is None


def test_halfplane_two_vectors_fails():
    check = check_halfplane_condition([(1, 0), (0, 1)])
    assert not check.holds
    w = check.witness
    assert sum(1 for v in [(1, 0), (0, 1)] if v[0] * w[0] + v[1] * w[1] > 0) < 2


def test_halfplane_fan_fails_with_witness():
    normals = rank2_fan(5).normals
    check = check_halfplane_condition(normals)
    assert not check.holds
    w = check.witness
    assert sum(1 for v in normals if v[0] * w[0] + v[1] * w[1] > 0) < 2
    # the open half-plane with inner normal (-1, 0) already witnesses this
    assert sum(1 for v in normals if -v[0] > 0) == 0


def test_halfplane_minimum_attained_at_critical_direction():
    # the minimum needs an input vector on the half-plane's boundary, where
    # it stops counting; no half-plane that avoids the inputs' lines reaches it
    vectors = [(1, 0), (0, 1), (0, -1)]
    check = check_halfplane_condition(vectors)
    assert not check.holds
    assert check.min_count == 0  # at u = (-1, 0); u = (1, 0) counts only (1,0)
    assert sampled_min_count(vectors) <= 1


def test_halfplane_collinear_vectors():
    check = check_halfplane_condition([(1, 0), (-2, 0), (3, 0)])
    assert not check.holds
    assert check.min_count == 0


def test_halfplane_of_no_vectors_fails_with_zero_count():
    check = check_halfplane_condition([])
    assert (check.holds, check.min_count, check.witness) == (False, 0, (1, 0))


def test_halfplane_rejects_zero_vector():
    with pytest.raises(ValueError):
        check_halfplane_condition([(0, 0), (1, 0)])


def test_halfplane_rejects_non_planar_vectors():
    with pytest.raises(DimensionError):
        check_halfplane_condition([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(DimensionError):
        check_halfplane_condition([(1,), (-2,)])


def test_halfplane_witness_is_exact_rational():
    check = check_halfplane_condition([(1, 0), (0, 1)])
    assert all(isinstance(c, Fraction) for c in check.witness)


@pytest.mark.parametrize("t,expected", [(3, {1: 6, 3: 2}), (5, {1: 10, 3: 20, 5: 2})])
def test_census_hypercube(t, expected):
    result = census(hypercube_topes(t), canonical_hypercube_cycle(t))
    assert result.histogram == expected
    assert sum(result.histogram.values()) == 2**t


def test_census_only_odd_sizes():
    result = census(hypercube_topes(6), canonical_hypercube_cycle(6))
    assert all(j % 2 == 1 for j in result.histogram)


def test_census_list_topes():
    result = census(hypercube_topes(5), canonical_hypercube_cycle(5), list_topes=True)
    assert [sign_vector_str(v) for v in result.by_size[5]] == ["+-+-+", "-+-+-"]
    assert sum(len(v) for v in result.by_size.values()) == 32


def test_census_topes_sorted_lexicographically():
    result = census(hypercube_topes(4), canonical_hypercube_cycle(4), list_topes=True)
    for group in result.by_size.values():
        keys = [sign_vector_str(v) for v in group]
        assert keys == sorted(keys)


def test_census_cycle_rejected_at_construction():
    # a malformed cycle never reaches census: construction names the violations
    with pytest.raises(CycleError) as excinfo:
        SymmetricCycle(((1, 1), (-1, -1), (-1, -1), (1, 1)))
    assert {v.kind for v in excinfo.value.violations} >= {"distinct", "adjacency"}


def test_census_histogram_independent_of_cycle_for_spread_fan():
    # not asserted in general; recorded for the instances at hand
    arr = totally_cyclic_fan(5)
    cycle = find_symmetric_cycle(enumerate_topes(arr))
    result = census(hypercube_topes(5), cycle)
    assert result.histogram == {1: 10, 3: 20, 5: 2}
    assert [sign_vector_str(v) for v in census(hypercube_topes(5), cycle, list_topes=True).by_size[5]] == [
        "+++++",
        "-----",
    ]
