from fractions import Fraction
from itertools import combinations, product
from math import comb
from operator import itemgetter

import pytest
from hypothesis import assume, example, given, settings
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
from topecycles.core import DimensionError, _key_form, negate, sign_vector_str
from topecycles.oracles import check_halfplane_condition

from reference import (
    certify_by_substitution,
    chambers_by_restriction,
    half_turn_counts_by_pairs,
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


def test_primitive_vector_returns_plain_ints_on_every_route():
    # a row of ints alone goes straight to the gcd; a bool or a Fraction is read off its numerator
    for row, expected in [((6, -9), (2, -3)), ((True, 2), (1, 2)), ((Fraction(4), 6), (2, 3)), ((), ())]:
        got = primitive_vector(row)
        assert got == expected and set(map(type, got)) <= {int}, row
    with pytest.raises(TypeError):
        primitive_vector((1, 0.5))


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


@settings(max_examples=50, deadline=None)
@given(
    st.integers(2, 3).flatmap(lambda d: st.lists(st.tuples(*[rationals] * d), min_size=1, max_size=5)),
    st.lists(st.tuples(st.integers(0, 4), nonzero_rationals), min_size=20, max_size=80),
)
def test_validate_simple_matches_minors_oracle_on_large_groups(pool, picks):
    # 20-80 scaled copies of at most five directions: groups of three or more equal or negated rows,
    # whose pairs must come out once each, in (e, f) order
    normals = [tuple(k * c for c in pool[i % len(pool)]) for i, k in picks]
    assert violations(normals) == validate_simple_by_minors(normals)


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


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any), min_size=1, max_size=8),
    st.lists(st.tuples(st.integers(0, 7), st.sampled_from((-3, -2, -1, 1, 2, 3))), max_size=8),
)
@example([(1, 0), (0, 1)], [(0, -1), (0, 2), (1, -1), (1, 1)])
def test_half_turn_counts_match_the_pairwise_oracle_element_by_element(base, copies):
    # the base vectors and multiples of them: repeats (k > 0) and antiparallel copies (k < 0), which lie on
    # the boundary of each other's half-turn and count for neither
    vectors = base + [tuple(k * c for c in base[i % len(base)]) for i, k in copies]
    counts, expected = arrangements._half_turn_counts(vectors), half_turn_counts_by_pairs(vectors)
    assert len(counts) == len(expected) == len(vectors)
    for d, got, want in zip(vectors, counts, expected):
        assert got == want, (d, vectors)


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


def _line(row):
    """The key a row shares with every row parallel or antiparallel to it."""
    r = primitive_vector(row)
    return max(r, negate(r))


def _distinct_lines(coordinate, dim, max_size):
    return st.lists(st.tuples(*[coordinate] * dim).filter(any), min_size=1, max_size=max_size, unique_by=_line)


def _in_a_plane(dim):
    """Rows c_1 u + c_2 v for independent u, v in Z^dim and pairwise non-parallel (c_1, c_2)."""

    def rows(u, v, coefficients):
        assume(any(u[i] * v[j] != u[j] * v[i] for i, j in combinations(range(dim), 2)))
        return [tuple(c * x + d * y for x, y in zip(u, v)) for c, d in coefficients]

    vector = st.tuples(*[st.integers(-4, 4)] * dim)
    return st.builds(rows, vector, vector, _distinct_lines(st.integers(-5, 5), 2, 8))


ARRANGEMENT_FAMILIES = {
    "rank2_up_to_t40": _distinct_lines(st.integers(-60, 60), 2, 40),
    "rank3_up_to_t10": _distinct_lines(st.integers(-9, 9), 3, 10),
    "rank4_up_to_t10": _distinct_lines(st.integers(-9, 9), 4, 10),
    "in_a_2_plane_of_R3": _in_a_plane(3),
    "in_a_2_plane_of_R4": _in_a_plane(4),
    # few distinct lines: many earlier rows restrict to one line, up to sign, on a later hyperplane
    "restrictions_repeat_R3": _distinct_lines(st.integers(-1, 1), 3, 10),
    "restrictions_repeat_R4": _distinct_lines(st.integers(-1, 1), 4, 10),
}


@pytest.mark.parametrize("family", ARRANGEMENT_FAMILIES.values(), ids=ARRANGEMENT_FAMILIES.keys())
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_enumerate_topes_matches_deletion_restriction_down_to_dimension_0(family, data):
    # the closed form in the plane against the recursion it replaced, order included
    arr = Arrangement(data.draw(family))
    assert enumerate_topes(arr) == [sigma for sigma, _ in chambers_by_restriction(arr.rows, arr.dim)]


def test_chambers_are_never_entered_below_the_plane(monkeypatch):
    # every rank-2 restriction comes from the closed form, a rank-2 arrangement takes one call, and
    # hyperplane 1 makes its one cell with no call
    inner, dims = arrangements._half_chambers, []

    def counting(rows, dim):
        dims.append(dim)
        return inner(rows, dim)

    monkeypatch.setattr(arrangements, "_half_chambers", counting)
    for arr in (rank2_fan(1), rank2_fan(6), totally_cyclic_fan(9), Arrangement([(3, -1), (-2, 5)])):
        dims.clear()
        enumerate_topes(arr)
        assert dims == [2], arr
    plane = Arrangement([(1, 0, 1), (0, 1, 1), (1, 1, 2), (1, -1, 0), (2, 1, 3)])  # rows in x + y = z
    for arr in (moment_curve(7, 4), moment_curve(7, 5), plane):
        dims.clear()
        enumerate_topes(arr)
        assert min(dims) == 2 and dims.count(arr.dim) == 1, arr
    dims.clear()
    enumerate_topes(moment_curve(6, 3))
    assert dims == [3] + [2] * 5


@pytest.mark.parametrize("family", ARRANGEMENT_FAMILIES.values(), ids=ARRANGEMENT_FAMILIES.keys())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_recursion_builds_the_chambers_on_the_plus_side_of_row_1(family, data):
    # the oracle's chambers whose first sign is '+', no two antipodal, each certified by its own point;
    # the negations make up the rest, so enumerate_topes still lists the oracle's topes in its order
    arr = Arrangement(data.draw(family))
    oracle = [sigma for sigma, _ in chambers_by_restriction(arr.rows, arr.dim)]
    half = _sign_tuples(arrangements._half_chambers(arr.rows, arr.dim), arr.t)
    signs = [sigma for sigma, _ in half]
    assert sorted(signs, reverse=True) == [sigma for sigma in oracle if sigma[0] == 1]
    assert set(signs).isdisjoint(map(negate, signs))
    assert _raised(certify_by_substitution, arr.rows, half) is None
    assert enumerate_topes(arr) == oracle


@pytest.mark.parametrize(
    "rows, repeating",
    [
        ([(3,)], []),
        # on H_5 = {x_4 = 0} rows 1 and 2 restrict to one row, parallel or antiparallel, in a 3-dimensional call
        ([(1, 0, 0, 0), (1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], [[(1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]]),
        ([(1, 0, 0, 0), (-1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], [[(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)]]),
    ],
)
def test_the_half_on_a_line_and_with_rows_that_repeat_in_a_restriction(monkeypatch, rows, repeating):
    arr = Arrangement(rows)
    oracle = [sigma for sigma, _ in chambers_by_restriction(arr.rows, arr.dim)]
    half = _sign_tuples(arrangements._half_chambers(arr.rows, arr.dim), arr.t)
    assert sorted((sigma for sigma, _ in half), reverse=True) == [sigma for sigma in oracle if sigma[0] == 1]
    assert _raised(certify_by_substitution, arr.rows, half) is None
    inner, repeats = arrangements._half_chambers, []

    def recording(rows, dim):
        if dim == 3 and len(set(map(_line, rows))) < len(rows):
            repeats.append(rows)
        return inner(rows, dim)

    monkeypatch.setattr(arrangements, "_half_chambers", recording)
    assert enumerate_topes(arr) == oracle
    assert repeats == repeating
    if arr.dim == 1:  # row 1 alone is the half, witnessed by itself
        assert half == [((1,), (1,))] and oracle == [(1,), (-1,)]


def test_enumerate_topes_generic_count_law():
    # a generic arrangement of t hyperplanes in R^r has 2 * sum_{i<r} C(t-1, i) chambers
    for t, r in ((9, 5), (12, 4), (10, 6), (8, 8)):
        assert len(enumerate_topes(moment_curve(t, r))) == 2 * sum(comb(t - 1, i) for i in range(r)), (t, r)
    assert len(enumerate_topes(totally_cyclic_fan(40))) == 80


def test_enumerate_topes_witness_failure_is_an_internal_error(monkeypatch):
    # a witness on a hyperplane certifies no chamber; that is a bug in the enumeration, not bad input
    arr = rank2_fan(2)
    monkeypatch.setattr(arrangements, "_half_chambers", lambda rows, dim: [(0b00, (1, -1))])
    with pytest.raises(RuntimeError) as excinfo:
        enumerate_topes(arr)
    assert not isinstance(excinfo.value, ValueError)


def _sign_tuples(cells, t):
    """cells with each int key (element 1 the top bit, a set bit -1) as its sign tuple, as
    ``certify_by_substitution`` reads them."""
    return [(tuple(-1 if key >> (t - 1 - e) & 1 else 1 for e in range(t)), x) for key, x in cells]


def _expanded(half, t):
    """The 2m int-key cells over t elements that m half cells stand for, in the form's order: the half,
    then the antipode of each cell (key complemented, point negated) in reverse order."""
    everyone = (1 << t) - 1
    return half + [(key ^ everyone, negate(x)) for key, x in reversed(half)]


def _certify_half(rows, keys, half):
    """``_certify`` on the form of the 2m int keys, read as ``_tope_form`` reads them, and the m points
    of the half cells."""
    arrangements._certify(rows, _key_form(keys, len(rows)), [x for _, x in half])


def _substituted(rows, keys, half):
    """What ``certify_by_substitution`` raises, or None, on the 2m int keys with the points they stand
    for: the half's, then their negations in reverse order."""
    points = [x for _, x in _expanded(half, len(rows))]
    return _raised(certify_by_substitution, rows, _sign_tuples(list(zip(keys, points)), len(rows)))


def _raised(check, *args):
    """The message of the RuntimeError check(*args) raises, or None if it returns."""
    try:
        check(*args)
    except RuntimeError as exc:
        return str(exc)
    return None


def _mutated(keys, half, data, t):
    """The 2m int keys over t elements and the m half cells with one drawn change that may or may not
    break their certificate: none, a sign flipped in the half or in the negated half of the keys, or a
    half cell's point zeroed, scaled by a power of 2, negated, shifted, or swapped with another half
    cell's (which changes the point of its antipode too)."""
    keys, half = list(keys), list(half)
    m = len(half)
    kind = data.draw(st.sampled_from(["none", "flip", "flip_negated", "zero", "scale", "negate", "shift", "swap"]))
    if kind in ("flip", "flip_negated"):
        k = data.draw(st.integers(0, m - 1)) + (m if kind == "flip_negated" else 0)
        keys[k] ^= 1 << (t - 1 - data.draw(st.integers(0, t - 1)))
        return keys, half
    k = data.draw(st.integers(0, m - 1))
    key, x = half[k]
    if kind == "zero":
        x = (0,) * len(x)
    elif kind == "scale":
        x = tuple(c << data.draw(st.integers(1, 300)) for c in x)
    elif kind == "negate":
        x = negate(x)
    elif kind == "shift":
        x = tuple(c + d for c, d in zip(x, data.draw(st.tuples(*[st.integers(-2, 2)] * len(x)))))
    elif kind == "swap":
        x = half[data.draw(st.integers(0, m - 1))][1]
    half[k] = (key, x)
    return keys, half


@pytest.mark.parametrize("family", ARRANGEMENT_FAMILIES.values(), ids=ARRANGEMENT_FAMILIES.keys())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_certificate_accepts_exactly_what_substitution_accepts(family, data):
    # on the enumerated half and the keys of all chambers in output order, as they are, or with one drawn
    # change; the oracle substitutes every chamber's point, the negations of the half's included
    arr = Arrangement(data.draw(family))
    half = sorted(arrangements._half_chambers(arr.rows, arr.dim), key=itemgetter(0))
    keys = [key for key, _ in _expanded(half, arr.t)]
    assert _raised(_certify_half, arr.rows, keys, half) is None
    keys, half = _mutated(keys, half, data, arr.t)
    assert _raised(_certify_half, arr.rows, keys, half) == _substituted(arr.rows, keys, half)


def _flip(cells, k, e, t):
    """int-key cells over t elements with the sign of element e (0-based) of cell k flipped."""
    key, x = cells[k]
    return cells[:k] + [(key ^ 1 << (t - 1 - e), x)] + cells[k + 1 :]


def _flip_key(keys, k, e, t):
    """int keys over t elements with the sign of element e (0-based) of key k flipped."""
    return keys[:k] + [keys[k] ^ 1 << (t - 1 - e)] + keys[k + 1 :]


def _rewitness(cells, k, x):
    return cells[:k] + [(cells[k][0], x)] + cells[k + 1 :]


def _certificate_cases():
    """(arrangement, half cells, the 2m keys of the form or None, whether they certify): the half of a
    moment curve, a fan and a line, changed the ways a bug could change it, and the keys of the form
    it stands for, changed in the negated half.  With keys None the form is the one ``_tope_form``
    reads off the half."""
    cases = []
    for arr in (moment_curve(7, 4), totally_cyclic_fan(9), Arrangement([(3,)])):
        half = sorted(arrangements._half_chambers(arr.rows, arr.dim), key=itemgetter(0))
        m, t, last = len(half), arr.t, len(half) - 1
        huge = [(key, tuple(c << 300 for c in x)) for key, x in half]
        keys = [key for key, _ in _expanded(half, t)]
        n = len(keys)
        cases += [
            (arr, half, None, True),
            (arr, huge, None, True),  # 300 bits wider slots, every sign still right
            (arr, _rewitness(half, last, huge[last][1]), None, True),  # one huge witness among small ones
            (arr, half[:1], None, True),  # one half cell: two chambers
            (arr, half[last:], None, True),
            (arr, _flip(half, 0, 0, t), None, False),
            (arr, _flip(half, 0, t - 1, t), None, False),
            (arr, _flip(half, last, 0, t), None, False),
            (arr, _flip(half, last, t - 1, t), None, False),
            (arr, _flip(half, m // 2, t // 2, t), None, False),
            # the first bad cell is named; the line's one half cell flips back
            (arr, _flip(_flip(half, last, 0, t), last // 2, t - 1, t), None, m == 1),
            (arr, _flip(huge, last, t - 1, t), None, False),
            (arr, _flip(half[:1], 0, t - 1, t), None, False),
            (arr, _rewitness(half, 0, (0,) * arr.dim), None, False),  # a point on every hyperplane
            (arr, _rewitness(half, last, (0,) * arr.dim), None, False),
            (arr, _rewitness(half[last:], 0, (0,) * arr.dim), None, False),
            (arr, _rewitness(half, 0, negate(half[0][1])), None, False),
            # every point moved to the next half cell; the line's one cell stays where it is
            (arr, [(key, x) for (key, _), (_, x) in zip(half, half[1:] + half[:1])], None, m == 1),
            # a key of the negated half of the form, where the witness is a negated point
            (arr, half, _flip_key(keys, m, 0, t), False),
            (arr, half, _flip_key(keys, n - 1, t - 1, t), False),
            (arr, huge, _flip_key(keys, m + last // 2, t // 2, t), False),
            (arr, half, _flip_key(_flip_key(keys, n - 1, 0, t), last // 2, t - 1, t), False),  # the half's is named
            # the first bad negated cell is named; the line's one negated key flips back
            (arr, half, _flip_key(_flip_key(keys, n - 1, 0, t), m + last // 2, t - 1, t), m == 1),
        ]
    return cases


@pytest.mark.parametrize("arr, cells, keys, certified", _certificate_cases())
def test_the_certificate_names_the_tope_and_witness_substitution_names(monkeypatch, arr, cells, keys, certified):
    # the half through enumerate_topes, which sorts it and reads the form's keys off it, and keys changed
    # past the half straight through _certify, each against the oracle on the expanded list
    half, through_enumeration = cells, keys is None
    if through_enumeration:
        monkeypatch.setattr(arrangements, "_half_chambers", lambda rows, dim: list(cells))
        half = sorted(cells, key=itemgetter(0))
        keys = [key for key, _ in _expanded(half, arr.t)]
    expected = _substituted(arr.rows, keys, half)
    assert (expected is None) == certified
    assert _raised(_certify_half, arr.rows, keys, half) == expected
    if through_enumeration:
        assert _raised(enumerate_topes, arr) == expected
        if certified:
            assert enumerate_topes(arr) == [sigma for sigma, _ in _sign_tuples(_expanded(half, arr.t), arr.t)]


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
