import hashlib
import json
import random
import sys
from functools import cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from topecycles import io
from topecycles.arrangements import enumerate_topes, hypercube_topes, moment_curve, rank2_fan, totally_cyclic_fan
from topecycles.cli import main
from topecycles.complexes import delta_face_masks, lambda_face_masks
from topecycles.core import DimensionError, Violation, _minus_masks, negate, parse_sign_vector, sign_vector_str
from topecycles.cycles import (
    CycleError,
    SymmetricCycle,
    _half_cycle,
    canonical_hypercube_cycle,
    find_symmetric_cycle,
    symmetric_cycle,
)
from topecycles.decomposition import decompose
from topecycles.oracles import census

from reference import (
    all_plus,
    cycle_violations_by_separation_sets,
    find_symmetric_cycle_recursively,
    flip,
    maxpos_vertices,
    separation_set,
)


def strs(vertices):
    return [sign_vector_str(v) for v in vertices]


def violations(vertices):
    """The violations CycleError reports for the vertices."""
    with pytest.raises(CycleError) as excinfo:
        symmetric_cycle(vertices)
    return excinfo.value.violations


def test_canonical_t3():
    assert strs(canonical_hypercube_cycle(3).vertices) == ["+++", "-++", "--+", "---", "+--", "++-"]


def test_canonical_t2():
    assert strs(canonical_hypercube_cycle(2).vertices) == ["++", "-+", "--", "+-"]


def test_canonical_t5_validates():
    cycle = canonical_hypercube_cycle(5)
    assert symmetric_cycle(list(cycle.vertices)) == cycle
    assert cycle.flips == (1, 2, 3, 4, 5)


def test_canonical_is_the_cycle_that_flips_elements_in_turn():
    for t in range(2, 13):
        half = [all_plus(t)]
        for e in range(1, t):
            half.append(flip(half[-1], e))
        assert canonical_hypercube_cycle(t) == symmetric_cycle(half + [negate(v) for v in half])


def test_canonical_rejects_small_t():
    with pytest.raises(ValueError):
        canonical_hypercube_cycle(1)


def test_validate_antipodal_violation_named_first():
    # closed 6-walk in the 3-cube that flips element 1 twice: not antipodally symmetric
    vertices = [parse_sign_vector(s) for s in ["+++", "-++", "--+", "+-+", "+--", "++-"]]
    found = violations(vertices)
    assert found[0].kind == "antipodal"
    assert found[0].where == (0,)
    assert "flip_permutation" in {v.kind for v in found}


def test_validate_adjacency_violation():
    vertices = [parse_sign_vector(s) for s in ["+++", "--+", "-++", "---", "++-", "+--"]]
    kinds = {v.kind for v in violations(vertices)}
    assert "adjacency" in kinds


def test_validate_duplicate_vertices():
    vertices = [parse_sign_vector(s) for s in ["+++", "-++", "+++", "---", "+--", "---"]]
    kinds = {v.kind for v in violations(vertices)}
    assert "distinct" in kinds


def test_validate_reports_every_violation_in_order():
    def report(strings):
        return [(v.kind, v.where) for v in violations([parse_sign_vector(x) for x in strings])]

    assert report(["+++", "-++", "+++", "---", "+--", "---"]) == [
        ("distinct", (0, 2)),
        ("distinct", (3, 5)),
        ("adjacency", (2,)),
        ("adjacency", (5,)),
    ]
    assert report(["+++", "-++", "--+", "+-+", "+--", "++-"]) == [("antipodal", (0,)), ("flip_permutation", ())]


def test_validate_shape():
    assert violations([])[0].kind == "shape"
    assert violations([(1, 1), (1, -1), (-1, -1)])[0].kind == "shape"
    assert violations([(1, 1, 1), (1, -1), (-1, -1), (-1, 1)])[0].kind == "shape"
    # an entry other than +/-1 in a vertex of the right length is a shape violation too, and the only one
    for k, bad in ((1, (0, 1)), (2, (-1, 2))):
        vertices = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
        vertices[k] = bad
        assert violations(vertices) == [Violation("shape", (k,), f"vertex {k} is not a +/-1 vector of length t=2")]


@cache
def hypercube_cycles(t):
    """The canonical cycle of the t-cube and its depth-first cycles for seeds 0-2."""
    return (canonical_hypercube_cycle(t),) + tuple(find_symmetric_cycle(hypercube_topes(t), seed=s) for s in range(3))


@st.composite
def perturbed_cycles(draw):
    """The vertices of a t-cube cycle (t = 2..8) after 1-3 edits: swap two
    vertices, flip one entry, copy a vertex over another, negate a vertex,
    rotate, or reverse."""
    t = draw(st.integers(2, 8))
    verts = list(draw(st.sampled_from(hypercube_cycles(t))).vertices)
    n = 2 * t
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(("swap", "flip", "copy", "negate", "rotate", "reverse")))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if edit == "swap":
            verts[i], verts[j] = verts[j], verts[i]
        elif edit == "flip":
            verts[i] = flip(verts[i], draw(st.integers(1, t)))
        elif edit == "copy":
            verts[j] = verts[i]
        elif edit == "negate":
            verts[i] = negate(verts[i])
        elif edit == "rotate":
            verts = verts[i:] + verts[:i]
        else:
            verts.reverse()
    return verts


@settings(max_examples=400, deadline=None)
@given(perturbed_cycles())
def test_validation_reports_what_separation_sets_report(verts):
    expected = cycle_violations_by_separation_sets(verts)
    if expected:
        assert violations(verts) == expected
    else:
        t = len(verts) // 2
        assert symmetric_cycle(verts).flips == tuple(min(separation_set(verts[k], verts[k + 1])) for k in range(t))


def membership_report(tmp_path, capsys, cycle, pool):
    """(kind, where) of each violation `cycle validate --topes` reports for the cycle against the pool."""
    cyc, topes = tmp_path / "cycle.json", tmp_path / "topes.json"
    cyc.write_text(json.dumps({"t": cycle.t, "vertices": strs(cycle.vertices)}))
    topes.write_text(json.dumps(io.tope_set_to_doc(cycle.t, list(pool))))
    code = main(["cycle", "validate", "--cycle", str(cyc), "--topes", str(topes)])
    doc = json.loads(capsys.readouterr().out)
    assert code == (0 if doc["ok"] else 2)
    return [(v["kind"], tuple(v["where"])) for v in doc["violations"]]


def test_validate_membership(tmp_path, capsys):
    cycle = canonical_hypercube_cycle(3)
    pool = [v for v in hypercube_topes(3) if v != (1, 1, 1)]
    assert membership_report(tmp_path, capsys, cycle, pool)[0] == ("membership", (0,))


def test_validate_membership_names_every_missing_vertex(tmp_path, capsys):
    cycle = canonical_hypercube_cycle(3)
    pool = [v for v in hypercube_topes(3) if v not in ((1, 1, 1), (-1, -1, 1))]
    assert membership_report(tmp_path, capsys, cycle, pool) == [("membership", (0,)), ("membership", (2,))]
    assert membership_report(tmp_path, capsys, cycle, hypercube_topes(3)) == []


def test_symmetric_cycle_factory_raises():
    with pytest.raises(CycleError):
        symmetric_cycle([(1, 1), (1, -1), (-1, -1)])
    cycle = canonical_hypercube_cycle(3)
    assert symmetric_cycle(list(cycle)) == cycle


def test_construction_validates_and_records_flip_order():
    cycle = canonical_hypercube_cycle(4)
    assert (cycle.t, cycle.flips) == (4, (1, 2, 3, 4))
    rotated = symmetric_cycle(cycle.vertices[3:] + cycle.vertices[:3])
    assert rotated.flips == (4, 1, 2, 3)
    vertices = [parse_sign_vector(s) for s in ["+++", "-++", "--+", "+-+", "+--", "++-"]]
    assert [(v.kind, v.where) for v in violations(vertices)] == [("antipodal", (0,)), ("flip_permutation", ())]


def test_built_from_lists_or_generators_equals_and_hashes_like_tuples():
    cycle = canonical_hypercube_cycle(2)
    for other in (
        symmetric_cycle([[1, 1], [-1, 1], [-1, -1], [1, -1]]),
        symmetric_cycle(list(v) for v in cycle),
        SymmetricCycle(m for m in cycle.masks),
    ):
        assert other == cycle and hash(other) == hash(cycle)
        assert other.vertices == cycle.vertices and (other.t, other.flips) == (2, (1, 2))


def test_a_cycle_holds_its_masks_and_builds_its_vertices_on_request():
    # no producer and no consumer on the mask path builds the 2t vertex tuples
    canonical = canonical_hypercube_cycle(4000)
    found = find_symmetric_cycle(hypercube_topes(6), seed=2)
    read = io.cycle_from_doc(io.cycle_to_doc(canonical_hypercube_cycle(7)))
    used = [canonical_hypercube_cycle(5) for _ in range(3)]
    lambda_face_masks(parse_sign_vector("+-+-+"), used[0])
    delta_face_masks(parse_sign_vector("+-+-+"), used[1])
    census(hypercube_topes(5), used[2], list_topes=True)
    for c in (canonical, found, read, *used):
        assert "vertices" not in vars(c)
        again = SymmetricCycle(c.masks)
        assert again == c and hash(again) == hash(c)
        assert "vertices" not in vars(c)
    assert canonical.masks[:3] == (0, 1, 3) and canonical.masks[4000] == (1 << 4000) - 1


def test_a_cycle_is_rebuilt_from_its_masks_or_from_its_vertices():
    cycles = [c for t in range(2, 9) for c in hypercube_cycles(t)]
    cycles += [find_symmetric_cycle(enumerate_topes(moment_curve(t, r)), seed=s) for t, r in ((6, 3), (7, 4)) for s in range(3)]
    for c in cycles:
        assert SymmetricCycle(c.masks) == c and SymmetricCycle(list(c.masks)).flips == c.flips
        assert symmetric_cycle(c.vertices) == c


def test_a_mask_that_is_not_an_int_below_2_to_the_t_is_a_shape_violation():
    masks = canonical_hypercube_cycle(3).masks
    shape = [Violation("shape", (0,), "mask 0 is not an int in [0, 2^t) for t=3")]
    # a stray bit above t, and complements taken as Python ints, which are negative
    assert violations_of_masks([m | 8 for m in masks]) == shape
    assert violations_of_masks([~m for m in masks]) == shape
    for k in range(6):
        for bad in (-1, 8, 1 << 70, 1.0, True, "1", None):
            spoiled = list(masks)
            spoiled[k] = bad
            assert violations_of_masks(spoiled) == [Violation("shape", (k,), f"mask {k} is not an int in [0, 2^t) for t=3")]
    assert violations_of_masks(masks[:3]) == [Violation("shape", (), "vertex count 3 is not an even number >= 4")]


def violations_of_masks(masks):
    """The violations CycleError reports for a cycle built from the masks."""
    with pytest.raises(CycleError) as excinfo:
        SymmetricCycle(masks)
    return excinfo.value.violations


def test_vertices_are_int_tuples_read_off_the_masks():
    # the vertex lists of canonical and DFS cycles, pinned by an md5 recorded when a cycle stored its tuples
    cycles = [canonical_hypercube_cycle(t) for t in range(2, 7)]
    cycles += [find_symmetric_cycle(hypercube_topes(t), seed=s) for t in range(2, 7) for s in (0, 1)]
    cycles += [find_symmetric_cycle(enumerate_topes(moment_curve(t, r)), seed=s) for t, r in ((6, 3), (7, 4)) for s in range(3)]
    text = json.dumps([[list(v) for v in c.vertices] for c in cycles])
    assert hashlib.md5(text.encode()).hexdigest() == "a6a037970458b68e2b8ebb58c7cc936e"
    for t in range(2, 7):
        half = [(-1,) * k + (1,) * (t - k) for k in range(t)]
        assert canonical_hypercube_cycle(t).vertices == tuple(half + [negate(v) for v in half])
    # the vertices are int tuples read off the masks, whatever entries the cycle was built from
    floats = symmetric_cycle([tuple(float(x) for x in v) for v in canonical_hypercube_cycle(3)])
    assert floats.vertices == canonical_hypercube_cycle(3).vertices
    assert {type(x) for v in floats.vertices for x in v} == {int}
    assert list(floats) == list(floats.vertices) and len(floats) == 6


def test_find_in_hypercube_from_all_plus():
    topes = hypercube_topes(4)
    cycle = find_symmetric_cycle(topes, start=all_plus(4))
    assert cycle is not None
    assert cycle.vertices[0] == all_plus(4)
    assert set(cycle.vertices) <= set(topes)


def test_find_in_rank2_fan_uses_whole_tope_set():
    # a rank-2 tope graph is itself one symmetric 2t-cycle
    topes = enumerate_topes(rank2_fan(5))
    cycle = find_symmetric_cycle(topes)
    assert cycle is not None
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


@st.composite
def pools_not_closed_under_negation(draw):
    t = draw(st.integers(2, 7))
    pool = draw(st.lists(st.sampled_from(hypercube_topes(t)), min_size=1, max_size=30))
    assume(any(negate(v) not in pool for v in pool))
    return draw(st.permutations(pool + draw(st.lists(st.sampled_from(pool), min_size=1))))


@settings(max_examples=150, deadline=None)
@given(pools_not_closed_under_negation())
def test_find_names_the_first_unpaired_tope(pool):
    missing = max(v for v in pool if negate(v) not in pool)
    with pytest.raises(ValueError) as excinfo:
        find_symmetric_cycle(pool)
    assert type(excinfo.value) is ValueError
    assert str(excinfo.value) == f"tope set is not closed under negation: missing -{sign_vector_str(missing)}"


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


def test_find_checks_the_pool_before_the_start():
    # a pool error wins over a start that is not a sign vector: the start is read after the pool checks
    with pytest.raises(ValueError) as excinfo:
        find_symmetric_cycle([(1, 1), (1, -1)], start=(1, 0))
    assert (type(excinfo.value), str(excinfo.value)) == (ValueError, "tope set is not closed under negation: missing -++")
    with pytest.raises(ValueError) as excinfo:
        find_symmetric_cycle([(1,), (-1,)], start=(1, 0))
    assert (type(excinfo.value), str(excinfo.value)) == (ValueError, "ground set must have t >= 2")


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


class RecordingMembers:
    """A member set that counts its membership tests and records the members they find."""

    def __init__(self, masks):
        self.masks, self.tests, self.found = set(masks), 0, set()

    def __contains__(self, m):
        self.tests += 1
        if m in self.masks:
            self.found.add(m)
            return True
        return False


def search_bits(t, seed):
    """The element bits in the order the search tries them for this seed."""
    bits = [1 << i for i in range(t)]
    random.Random(seed).shuffle(bits)
    return bits


def middle_free_masks(t):
    """The minus masks of the t-cube without its middle layer: negation-closed, but no half cycle crosses it."""
    return [m for m in range(1 << t) if 2 * m.bit_count() != t]


def test_the_walk_makes_at_most_2n_plus_1_times_t_lookups_per_start():
    # a popped mask is never entered again: from all-+ the walk reaches every mask below the middle layer once
    t = 12
    members = RecordingMembers(middle_free_masks(t))
    n = len(members.masks)
    assert n == 3172
    assert _half_cycle(0, search_bits(t, 0), members) is None
    assert members.tests <= (2 * n + 1) * t
    assert members.found == {m for m in members.masks if 0 < 2 * m.bit_count() < t}


def test_a_failed_start_and_its_antipode_are_walked_no_more(monkeypatch):
    # without a start every walk on the middle-free 8-cube fails: one walk per negation pair, not one per mask
    pool = [v for v in hypercube_topes(8) if 2 * v.count(-1) != 8]
    walks = []

    def counted(m0, bits, members):
        walks.append(m0)
        return _half_cycle(m0, bits, members)

    monkeypatch.setattr("topecycles.cycles._half_cycle", counted)
    assert find_symmetric_cycle(pool) is None
    assert len(pool) == 186 and len(walks) == len({min(m, m ^ 255) for m in walks}) <= 93


def test_the_walk_never_backs_up_on_a_tope_set():
    # tope graphs are isometric subgraphs of the cube: every member the walk finds is on the half cycle it returns
    instances = [enumerate_topes(moment_curve(t, r)) for t, r in ((5, 3), (6, 3), (6, 4), (7, 4), (6, 5), (8, 4))]
    instances += [enumerate_topes(rank2_fan(t)) for t in range(2, 8)]
    instances += [enumerate_topes(totally_cyclic_fan(t)) for t in range(5, 9)]
    instances += [hypercube_topes(t) for t in range(2, 7)]
    for topes in instances:
        t = len(topes[0])
        masks = _minus_masks(topes, t)
        for seed in range(4):
            bits = search_bits(t, seed)
            for m0 in masks:
                members = RecordingMembers(masks)
                half = _half_cycle(m0, bits, members)
                assert half is not None and members.found == {*half[1:], m0 ^ ((1 << t) - 1)}, (topes, seed, m0)
    # the contrast: on the middle-free 6-cube every walk finds members, backs up over them and returns None
    pool = middle_free_masks(6)
    for m0 in pool:
        members = RecordingMembers(pool)
        assert _half_cycle(m0, search_bits(6, 0), members) is None and members.found


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
    # a cycle document lists the vertices in normal form
    doc = io.cycle_to_doc(canonical_hypercube_cycle(3))
    norm = doc["vertices"]
    assert norm == ["+++", "++-", "+--", "---", "--+", "-++"]
    assert set(norm) == set(strs(canonical_hypercube_cycle(3).vertices))
    # normalization is idempotent and rotation/reflection independent
    assert io.cycle_to_doc(io.cycle_from_doc(doc)) == doc
    rotated = symmetric_cycle(map(parse_sign_vector, norm[2:] + norm[:2]))
    assert io.cycle_to_doc(rotated) == doc
    reflected = symmetric_cycle(map(parse_sign_vector, norm[:1] + norm[:0:-1]))
    assert io.cycle_to_doc(reflected) == doc
