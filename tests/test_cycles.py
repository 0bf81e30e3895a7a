import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topecycles.arrangements import enumerate_topes, hypercube_topes, moment_curve, rank2_fan
from topecycles.core import DimensionError, all_plus, negate, parse_sign_vector, sign_vector_str
from topecycles.cycles import (
    CycleError,
    SymmetricCycle,
    canonical_hypercube_cycle,
    find_symmetric_cycle,
    normalize_cycle,
    symmetric_cycle,
    validate_cycle,
)
from topecycles.decomposition import decompose

from reference import find_symmetric_cycle_recursively, maxpos_vertices


def strs(vertices):
    return [sign_vector_str(v) for v in vertices]


def test_canonical_t3():
    assert strs(canonical_hypercube_cycle(3).vertices) == ["+++", "-++", "--+", "---", "+--", "++-"]


def test_canonical_t2():
    assert strs(canonical_hypercube_cycle(2).vertices) == ["++", "-+", "--", "+-"]


def test_canonical_t5_validates():
    assert validate_cycle(canonical_hypercube_cycle(5).vertices) == []


def test_canonical_rejects_small_t():
    with pytest.raises(ValueError):
        canonical_hypercube_cycle(1)


def test_validate_antipodal_violation_named_first():
    # closed 6-walk in the 3-cube that flips element 1 twice: not antipodally symmetric
    vertices = [parse_sign_vector(s) for s in ["+++", "-++", "--+", "+-+", "+--", "++-"]]
    violations = validate_cycle(vertices)
    assert violations
    assert violations[0].kind == "antipodal"
    assert violations[0].where == (0,)
    assert "flip_permutation" in {v.kind for v in violations}


def test_validate_adjacency_violation():
    vertices = [parse_sign_vector(s) for s in ["+++", "--+", "-++", "---", "++-", "+--"]]
    kinds = {v.kind for v in validate_cycle(vertices)}
    assert "adjacency" in kinds


def test_validate_duplicate_vertices():
    vertices = [parse_sign_vector(s) for s in ["+++", "-++", "+++", "---", "+--", "---"]]
    kinds = {v.kind for v in validate_cycle(vertices)}
    assert "distinct" in kinds


def test_validate_reports_every_violation_in_order():
    def report(strings):
        return [(v.kind, v.where) for v in validate_cycle([parse_sign_vector(x) for x in strings])]

    assert report(["+++", "-++", "+++", "---", "+--", "---"]) == [
        ("distinct", (0, 2)),
        ("distinct", (3, 5)),
        ("adjacency", (2,)),
        ("adjacency", (5,)),
    ]
    assert report(["+++", "-++", "--+", "+-+", "+--", "++-"]) == [("antipodal", (0,)), ("flip_permutation", ())]


def test_validate_shape():
    assert validate_cycle([])[0].kind == "shape"
    assert validate_cycle([(1, 1), (1, -1), (-1, -1)])[0].kind == "shape"
    assert validate_cycle([(1, 1, 1), (1, -1), (-1, -1), (-1, 1)])[0].kind == "shape"


def test_validate_membership():
    cycle = canonical_hypercube_cycle(3)
    pool = [v for v in hypercube_topes(3) if v != (1, 1, 1)]
    violations = validate_cycle(cycle.vertices, pool)
    assert violations[0].kind == "membership"
    assert violations[0].where == (0,)


def test_validate_membership_names_every_missing_vertex():
    cycle = canonical_hypercube_cycle(3)
    pool = [v for v in hypercube_topes(3) if v not in ((1, 1, 1), (-1, -1, 1))]
    violations = validate_cycle(cycle.vertices, pool)
    assert [(v.kind, v.where) for v in violations] == [("membership", (0,)), ("membership", (2,))]
    assert validate_cycle(cycle.vertices, hypercube_topes(3)) == []


def test_symmetric_cycle_factory_raises():
    with pytest.raises(CycleError):
        symmetric_cycle([(1, 1), (1, -1), (-1, -1)])
    cycle = canonical_hypercube_cycle(3)
    assert symmetric_cycle(list(cycle)) == cycle


def test_construction_validates_and_records_flip_order():
    cycle = canonical_hypercube_cycle(4)
    assert (cycle.t, cycle.flips) == (4, (1, 2, 3, 4))
    rotated = SymmetricCycle(cycle.vertices[3:] + cycle.vertices[:3])
    assert rotated.flips == (4, 1, 2, 3)
    vertices = [parse_sign_vector(s) for s in ["+++", "-++", "--+", "+-+", "+--", "++-"]]
    with pytest.raises(CycleError) as excinfo:
        SymmetricCycle(vertices)
    assert excinfo.value.violations == validate_cycle(vertices)


def test_built_from_lists_or_generators_equals_and_hashes_like_tuples():
    cycle = canonical_hypercube_cycle(2)
    for other in (
        SymmetricCycle([[1, 1], [-1, 1], [-1, -1], [1, -1]]),
        SymmetricCycle(list(v) for v in cycle),
        symmetric_cycle([list(v) for v in cycle]),
    ):
        assert other == cycle and hash(other) == hash(cycle)
        assert other.vertices == cycle.vertices and (other.t, other.flips) == (2, (1, 2))


def test_find_in_hypercube_from_all_plus():
    topes = hypercube_topes(4)
    cycle = find_symmetric_cycle(topes, start=all_plus(4))
    assert cycle is not None
    assert cycle.vertices[0] == all_plus(4)
    assert validate_cycle(cycle.vertices, topes) == []


def test_find_in_rank2_fan_uses_whole_tope_set():
    # a rank-2 tope graph is itself one symmetric 2t-cycle
    topes = enumerate_topes(rank2_fan(5))
    cycle = find_symmetric_cycle(topes)
    assert cycle is not None
    assert validate_cycle(cycle.vertices, topes) == []
    assert set(cycle.vertices) == set(topes)


def test_find_not_found_is_none():
    assert find_symmetric_cycle([(1, 1), (-1, -1)]) is None
    assert find_symmetric_cycle([]) is None


def test_find_rejects_a_ground_set_of_one_element():
    with pytest.raises(ValueError, match="t >= 2"):
        find_symmetric_cycle([(1,), (-1,)])


def test_find_requires_negation_closure():
    with pytest.raises(ValueError):
        find_symmetric_cycle([(1, 1), (1, -1)])


@pytest.mark.parametrize(
    "pool",
    [[(1, 2), (-1, -2), (2, 1), (-2, -1)], [(1, 0), (-1, 0), (0, 1), (0, -1)]],
)
def test_find_rejects_vectors_that_are_not_sign_vectors(pool):
    with pytest.raises(ValueError) as excinfo:
        find_symmetric_cycle(pool)
    assert not isinstance(excinfo.value, CycleError)
    message = str(excinfo.value)
    assert "not a sign vector" in message
    assert any(repr(v) in message for v in pool)
    # a start vector is checked before the tope-set membership test
    with pytest.raises(ValueError) as excinfo:
        find_symmetric_cycle(hypercube_topes(2), start=(1, 0))
    assert "not a sign vector" in str(excinfo.value) and repr((1, 0)) in str(excinfo.value)
    with pytest.raises(DimensionError):
        find_symmetric_cycle(hypercube_topes(2), start=(1, 1, 1))


def test_find_requires_start_in_pool():
    with pytest.raises(ValueError):
        find_symmetric_cycle(hypercube_topes(3), start=(1, 1))
    with pytest.raises(ValueError, match=r"start tope \+- is not in the tope set"):
        find_symmetric_cycle([(1, 1), (-1, -1)], start=(1, -1))


def test_find_is_deterministic_per_seed():
    topes = enumerate_topes(rank2_fan(6))
    a = find_symmetric_cycle(topes, seed=3)
    b = find_symmetric_cycle(topes, seed=3)
    assert a == b


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_find_searches_deeper_than_the_recursion_limit():
    # the search takes t = 200 steps with 50 frames to spare: a recursive search overflows
    vertices = canonical_hypercube_cycle(200).vertices
    expected = find_symmetric_cycle_recursively(vertices, start=vertices[0])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        cycle = find_symmetric_cycle(vertices, start=vertices[0])
    finally:
        sys.setrecursionlimit(limit)
    assert cycle == expected
    assert set(cycle.vertices) == set(vertices)


@st.composite
def negation_closed_pools(draw):
    # half of a hypercube's topes, each kept with its negation, or all topes of a moment curve
    if draw(st.booleans()):
        t = draw(st.integers(2, 7))
        half = [v for v in hypercube_topes(t) if v[0] == 1]
        kept = draw(st.lists(st.sampled_from(half), min_size=1, unique=True))
        return kept + [negate(v) for v in kept]
    return enumerate_topes(moment_curve(*draw(st.sampled_from(((5, 3), (6, 3), (6, 4))))))


@settings(max_examples=150, deadline=None)
@given(negation_closed_pools(), st.integers(0, 10**6), st.data())
def test_find_visits_in_the_recursive_search_order(pool, seed, data):
    # the same cycle, or the same None, as the recursive search: cycle find's output depends on it
    start = data.draw(st.one_of(st.none(), st.sampled_from(pool)))
    assert find_symmetric_cycle(pool, start=start, seed=seed) == find_symmetric_cycle_recursively(pool, start, seed)


def test_every_element_flipped_twice_around_cycle():
    cycle = canonical_hypercube_cycle(6)
    n = len(cycle.vertices)
    counts = {e: 0 for e in range(1, 7)}
    for k in range(n):
        a, b = cycle.vertices[k], cycle.vertices[(k + 1) % n]
        (e,) = [i + 1 for i in range(6) if a[i] != b[i]]
        counts[e] += 1
    assert all(c == 2 for c in counts.values())


def test_maxpos_canonical_t3():
    assert maxpos_vertices(canonical_hypercube_cycle(3)) == [(1, 1, 1)]


def test_maxpos_any_cycle_containing_all_plus():
    assert maxpos_vertices(canonical_hypercube_cycle(7)) == [all_plus(7)]


def test_maxpos_is_antichain():
    topes = enumerate_topes(rank2_fan(5))
    cycle = find_symmetric_cycle(topes)
    parts = [frozenset(e + 1 for e in range(5) if v[e] > 0) for v in maxpos_vertices(cycle)]
    for p in parts:
        for q in parts:
            assert p == q or not p < q


def test_maxpos_equals_decomposition_of_all_plus_on_fan_cycle():
    topes = enumerate_topes(rank2_fan(5))
    cycle = find_symmetric_cycle(topes)
    assert set(maxpos_vertices(cycle)) == set(decompose(all_plus(5), cycle).members)


def test_normalize_cycle():
    norm = normalize_cycle(canonical_hypercube_cycle(3))
    assert strs(norm.vertices) == ["+++", "++-", "+--", "---", "--+", "-++"]
    assert validate_cycle(norm.vertices) == []
    assert set(norm.vertices) == set(canonical_hypercube_cycle(3).vertices)
    # normalization is idempotent and rotation/reflection independent
    rotated = SymmetricCycle(norm.vertices[2:] + norm.vertices[:2])
    assert normalize_cycle(rotated) == norm
    reflected = SymmetricCycle((norm.vertices[0],) + tuple(reversed(norm.vertices[1:])))
    assert normalize_cycle(reflected) == norm
