import math
import random
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
from topecycles.core import DimensionError, _packer, sign_vector_str
from topecycles.cycles import CycleError, canonical_hypercube_cycle, find_symmetric_cycle, symmetric_cycle
from topecycles.decomposition import decompose
from topecycles.oracles import (
    CensusResult,
    FullSystemFeasibleError,
    census,
    check_halfplane_condition,
    nu_counts,
)

from reference import census_by_tope_masks, strict_feasible, validate_simple_by_minors
from test_decomposition import _tope_set

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
        symmetric_cycle(((1, 1), (-1, -1), (-1, -1), (1, 1)))
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


@st.composite
def cycles_and_sign_vector_lists(draw):
    # the cycles of test_decomposition.topes_and_cycles, with topes of the set and any other sign vectors
    kind = draw(st.sampled_from(("hypercube", "moment_curve", "totally_cyclic_fan")))
    t = draw(st.integers({"hypercube": 2, "moment_curve": 4, "totally_cyclic_fan": 5}[kind], 6))
    topes = _tope_set(kind, t)
    cycle = find_symmetric_cycle(topes, seed=draw(st.integers(0, 10**6)))
    vectors = st.one_of(st.sampled_from(topes), st.tuples(*[st.sampled_from((1, -1))] * t))
    return cycle, draw(st.lists(vectors, max_size=40))


@settings(max_examples=150, deadline=None)
@given(cycles_and_sign_vector_lists())
def test_census_tallies_the_decomposition_sizes(case):
    cycle, vectors = case
    histogram, by_size = {}, {}
    for tope in sorted(set(vectors), reverse=True):
        size = len(decompose(tope, cycle).members)
        histogram[size] = histogram.get(size, 0) + 1
        by_size.setdefault(size, []).append(tope)
    expected = CensusResult(cycle.t, dict(sorted(histogram.items())), by_size)
    assert census(vectors, cycle, list_topes=True) == expected
    assert census(vectors, cycle) == CensusResult(cycle.t, expected.histogram)


@settings(max_examples=100, deadline=None)
@given(cycles_and_sign_vector_lists(), st.randoms(use_true_random=False))
def test_census_does_not_depend_on_order_or_repeats(case, rng):
    cycle, vectors = case
    copy = vectors + rng.sample(vectors, len(vectors) // 2)
    rng.shuffle(copy)
    for list_topes in (False, True):
        result, shuffled = (census(v, cycle, list_topes=list_topes) for v in (vectors, copy))
        assert shuffled == result
        assert list(shuffled.histogram) == list(result.histogram)
    assert list(shuffled.by_size) == list(result.by_size) == sorted(result.by_size)


@st.composite
def wide_topes_and_moved_cycles(draw):
    # a rotated or reflected canonical cycle has flips other than 1..t; the topes are words of 60..200 bits
    t = draw(st.integers(60, 200))
    verts = canonical_hypercube_cycle(t).vertices
    k = draw(st.integers(0, 2 * t - 1))
    verts = verts[k:] + verts[:k]
    cycle = symmetric_cycle(verts[::-1] if draw(st.booleans()) else verts)
    assume(cycle.flips != tuple(range(1, t + 1)))
    if draw(st.booleans()):  # near a cycle vertex: few members
        near = draw(st.sets(st.integers(0, t - 1), max_size=4))
        mask = cycle.masks[draw(st.integers(0, 2 * t - 1))] ^ sum(1 << i for i in near)
    else:  # anywhere: about t/2 members
        mask = draw(st.integers(0, 2**t - 1))
    return tuple(-1 if mask >> i & 1 else 1 for i in range(t)), cycle


@settings(max_examples=100, deadline=None)
@given(wide_topes_and_moved_cycles())
def test_census_reads_topes_wider_than_a_machine_word(case):
    tope, cycle = case
    size = len(decompose(tope, cycle).members)
    assert census([tope], cycle).histogram == {size: 1}
    assert census([tope], cycle, list_topes=True).by_size == {size: [tope]}


BY_VALUE = {1: (1.0, True, Fraction(1)), -1: (-1.0, Fraction(-1))}


@st.composite
def wide_tope_lists_and_moved_cycles(draw):
    # a canonical cycle with its elements permuted and sign-flipped, so its flips and R^0 are any;
    # more than 64 distinct topes (all 2^t when fewer), so every column is wider than a machine word,
    # some near a cycle vertex (few members); by-value entries in up to three columns, repeats and a shuffle
    t = draw(st.integers(2, 70))
    rng = random.Random(draw(st.integers(0, 2**32)))  # the bulk draws: a seed keeps hypothesis' input small
    perm, signs = rng.sample(range(t), t), [rng.choice((1, -1)) for _ in range(t)]
    cycle = symmetric_cycle(tuple(s * v[i] for s, i in zip(signs, perm)) for v in canonical_hypercube_cycle(t).vertices)
    n = min(2**t, draw(st.integers(65, 200)))
    masks = set()
    while len(masks) < n:
        mask = cycle.masks[rng.randrange(2 * t)] if rng.random() < 0.3 else rng.getrandbits(t)
        for _ in range(rng.randrange(3)):
            mask ^= 1 << rng.randrange(t)
        masks.add(mask)
    distinct = sorted((tuple(-1 if m >> i & 1 else 1 for i in range(t)) for m in masks), reverse=True)
    columns = rng.sample(range(t), min(t, draw(st.integers(0, 3))))

    def by_value(v):
        return tuple(rng.choice(BY_VALUE[x]) if i in columns and rng.random() < 0.5 else x for i, x in enumerate(v))

    vectors = [by_value(v) for v in distinct + rng.choices(distinct, k=n // 3)]
    rng.shuffle(vectors)
    return cycle, distinct, vectors


@settings(max_examples=100, deadline=None)
@given(wide_tope_lists_and_moved_cycles())
def test_census_matches_the_per_tope_oracle_and_decompose_on_wide_columns(case):
    cycle, distinct, vectors = case
    histogram, by_size = {}, {}
    for tope in distinct:
        size = len(decompose(tope, cycle).members)
        histogram[size] = histogram.get(size, 0) + 1
        by_size.setdefault(size, []).append(tope)
    expected = CensusResult(cycle.t, dict(sorted(histogram.items())), dict(sorted(by_size.items())))
    for list_topes in (False, True):
        result = census(vectors, cycle, list_topes=list_topes)
        assert result == census_by_tope_masks(vectors, cycle, list_topes=list_topes)
        assert result == (expected if list_topes else CensusResult(cycle.t, expected.histogram))
        assert list(result.histogram) == list(expected.histogram)
    assert list(result.by_size) == list(expected.by_size)


def test_census_edge_cases():
    cycle = canonical_hypercube_cycle(4)
    assert census([], cycle) == CensusResult(4, {}, None)
    assert census([], cycle, list_topes=True) == CensusResult(4, {}, {})
    assert census(iter(()), cycle, list_topes=True) == CensusResult(4, {}, {})
    tope = (1, -1, -1, 1)
    size = len(decompose(tope, cycle).members)
    one = CensusResult(4, {size: 1}, {size: [tope]})
    assert census([tope], cycle, list_topes=True) == one
    assert census([tope] * 7, cycle, list_topes=True) == one
    assert census([list(tope)], cycle, list_topes=True) == one
    assert census([tope], cycle) == CensusResult(4, {size: 1})
    whole = census(hypercube_topes(4), cycle, list_topes=True)
    assert census((v for v in hypercube_topes(4)), cycle, list_topes=True) == whole
    assert whole.histogram == {1: 8, 3: 8}


def test_census_on_many_set_sizes_keeps_the_packer_cache_bounded():
    # a set with a by-value entry reads each tope by value, with the one packer of length t
    cycle, topes = canonical_hypercube_cycle(8), hypercube_topes(8)
    _packer.cache_clear()
    for n in range(1, 257):
        pool = [tuple(map(float, topes[0]))] + topes[1:n]
        assert census(pool, cycle) == census_by_tope_masks(pool, cycle)
        assert census(topes[:n], cycle) == census_by_tope_masks(topes[:n], cycle)
    info = _packer.cache_info()
    assert info.misses == 1
    assert info.currsize <= info.maxsize


# each invalid input names its first offender given; reversed, it names the other one
@pytest.mark.parametrize(
    "vectors, error, message, reversed_error, reversed_message",
    [
        ([(1, 1, 1), (1, 0, 1)], ValueError, r"not a sign vector: \(1, 0, 1\)", None, None),
        ([(1, 1, 1), (1, -1)], DimensionError, "tope length 2 does not match cycle ground set t=3", None, None),
        (
            [(1, 1, 1), (1, 1), (1, 0, 1)],
            DimensionError,
            "tope length 2 does not match cycle ground set t=3",
            ValueError,
            r"not a sign vector: \(1, 0, 1\)",
        ),
        (
            [(1, 1, 1), (1, 2, 1), (-1, 1)],
            ValueError,
            r"not a sign vector: \(1, 2, 1\)",
            DimensionError,
            "tope length 2 does not match cycle ground set t=3",
        ),
        (
            [(1, 1, 1, 1), (0, 1, 1), (1, 1, 1)],
            DimensionError,
            "tope length 4 does not match cycle ground set t=3",
            ValueError,
            r"not a sign vector: \(0, 1, 1\)",
        ),
    ],
)
def test_census_names_the_first_offender_in_descending_order(vectors, error, message, reversed_error, reversed_message):
    reversed_case = (vectors[::-1], reversed_error or error, reversed_message or message)
    for order, err, msg in ((vectors, error, message), reversed_case):
        with pytest.raises(err, match=f"^{msg}$") as excinfo:
            census(order, canonical_hypercube_cycle(3))
        assert type(excinfo.value) is err


def test_census_rejects_a_longer_tope_of_signs():
    # the census reads the t entries its flip order names; the extra entry of a longer tope still counts
    with pytest.raises(DimensionError, match="^tope length 4 does not match cycle ground set t=3$"):
        census([(1, 1, 1), (1, -1, 1, -1)], canonical_hypercube_cycle(3))


@pytest.mark.parametrize(
    "vectors, message, reversed_message",
    [
        ([(1, 1, 1), ("+", 1, 1)], r"not a sign vector: \('\+', 1, 1\)", None),
        ([(1, 1, 1), (None, 1, 1)], r"not a sign vector: \(None, 1, 1\)", None),
        (
            [(1, None, 1), (1, 1, 1), *((1, c, 1) for c in "zyxwvutsrq"), (-1, -1, -1)],
            r"not a sign vector: \(1, None, 1\)",
            r"not a sign vector: \(1, 'q', 1\)",
        ),
    ],
)
def test_census_rejects_entries_that_do_not_compare_with_an_int(vectors, message, reversed_message):
    for order, msg in ((vectors, message), (vectors[::-1], reversed_message or message)):
        with pytest.raises(ValueError, match=f"^{msg}$") as excinfo:
            census(order, canonical_hypercube_cycle(3))
        assert type(excinfo.value) is ValueError


@pytest.mark.parametrize("vectors", [[None], [(1, 1, 1), 5], [(1, 1, 1), [[1], 1, 1]]])
def test_census_rejects_an_entry_that_is_not_a_hashable_sequence(vectors):
    with pytest.raises(TypeError):
        census(vectors, canonical_hypercube_cycle(3))
