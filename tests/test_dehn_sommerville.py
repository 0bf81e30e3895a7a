import random
from functools import cache
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topecycles.arrangements import enumerate_topes, hypercube_topes, moment_curve, rank2_fan
from topecycles.complexes import lambda_face_masks
from topecycles.cycles import canonical_hypercube_cycle, find_symmetric_cycle
from topecycles.decomposition import decompose
from topecycles.dehn_sommerville import check_ds
from topecycles.oracles import FullSystemFeasibleError, nu_counts

from reference import check_recurrence, ds_polynomial_sides_by_binomials, half_turn_counts_by_pairs

F5 = (1, 5, 10, 5, 0, 0)
F6 = (1, 6, 15, 12, 3, 0, 0)


def poly_eval(coeffs, x):
    return sum(c * x**i for i, c in enumerate(coeffs))


def side_difference(f):
    """lhs - rhs of the polynomial identity, coefficient by coefficient, from the binomial expansion."""
    lhs, rhs = ds_polynomial_sides_by_binomials(f)
    return tuple(a - b for a, b in zip(lhs, rhs))


def test_t5_passes():
    report = check_ds(F5)
    assert report.passes
    assert report.boundary_ok
    assert report.polynomial_residual == (0, 0, 0)
    assert report.recurrence_ok == {3: True}
    assert report.alternating_sum == 0
    assert all(note.holds for note in report.special_case_notes)


def test_t5_polynomial_sides_are_5x2_minus_5x_plus_1():
    lhs, rhs = ds_polynomial_sides_by_binomials(F5)
    assert lhs == rhs == (1, -5, 5)
    assert check_ds(F5).polynomial_residual == side_difference(F5) == (0, 0, 0)


def test_t6_passes_with_sides_8x3_minus_12x2_plus_6x_minus_1():
    report = check_ds(F6)
    assert report.passes
    lhs, rhs = ds_polynomial_sides_by_binomials(F6)
    assert lhs == rhs == (-1, 6, -12, 8)
    assert report.polynomial_residual == side_difference(F6) == (0, 0, 0, 0)


def test_t5_perturbed_f3_fails_with_nonzero_residual():
    report = check_ds((1, 5, 10, 6, 0, 0))
    assert not report.passes
    assert any(report.polynomial_residual)


def test_residual_symmetric_under_side_exchange():
    for f in (F5, F6, (1, 5, 10, 6, 0, 0)):
        lhs, rhs = ds_polynomial_sides_by_binomials(f)
        report = check_ds(f)
        assert report.polynomial_residual == tuple(a - b for a, b in zip(lhs, rhs))
        assert tuple(-(b - a) for a, b in zip(lhs, rhs)) == report.polynomial_residual


def test_coefficient_expansion_agrees_with_pointwise_evaluation():
    # evaluate both sides directly at t-2 distinct integer points
    for f in (F5, F6, (1, 5, 10, 6, 0, 0), (1, 7, 21, 24, 13, 3, 0, 0)):
        t = len(f) - 1
        lhs, rhs = ds_polynomial_sides_by_binomials(f)
        residual = check_ds(f).polynomial_residual
        assert residual == side_difference(f)
        for x in range(2, t):
            direct_lhs = sum((comb(t, j) - f[j]) * (x - 1) ** (t - j) for j in range(3, t + 1))
            direct_rhs = -sum((-1) ** j * (comb(t, j) - f[j]) * x ** (t - j) for j in range(3, t + 1))
            assert poly_eval(lhs, x) == direct_lhs
            assert poly_eval(rhs, x) == direct_rhs
            assert poly_eval(residual, x) == direct_lhs - direct_rhs


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40).flatmap(lambda t: st.lists(st.integers(-(10**12), 10**12), min_size=t + 1, max_size=t + 1)))
@example([1, 1])
@example([1, 2, 1])
@example([1, 3, 3, 5])
@example([1, 3, 3, 1])
def test_horner_sides_match_binomial_expansion(f):
    # check_ds's one Horner pass gives lhs - rhs of the binomially expanded sides
    assert check_ds(f).polynomial_residual == side_difference(f)


def test_recurrence_t5_j3():
    # 10 - 5 == -(-1)^3 * C(2,0) * (10 - 5)
    assert check_ds(F5).recurrence_ok == {3: True}


def test_recurrence_t6_j4():
    # 15 - 3 == 12 == -[(-1)^3 C(3,1)(20-12) + (-1)^4 C(2,0)(15-3)] == 24 - 12
    assert check_ds(F6).recurrence_ok == {3: True, 4: True}


def test_recurrence_vacuous_below_t5():
    assert check_ds((1, 4, 6, 4, 0)).recurrence_ok == {}


def test_recurrence_detects_broken_row():
    assert check_ds((1, 6, 15, 12, 4, 0, 0)).recurrence_ok == {3: True, 4: False}


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 14).flatmap(lambda t: st.lists(st.integers(-40, 4000), min_size=t + 1, max_size=t + 1)))
def test_recurrence_matches_row_by_row_oracle(f):
    # most random rows break the recurrence, so both True and False entries are compared
    assert check_ds(f).recurrence_ok == check_recurrence(f)


def test_alternating_sum_examples():
    assert check_ds(F5).alternating_sum == -5 + 10 - 5 == 0
    assert check_ds(F6).alternating_sum == -6 + 15 - 12 + 3 == 0
    assert check_ds((1, 5, 10, 4, 0, 0)).alternating_sum == 1
    # the sum stops at j = t-2: neither f_(t-1) nor f_t enters it
    assert check_ds((1, 5, 10, 4, 3, 7)).alternating_sum == -5 + 10 - 4 == 1
    assert check_ds((1, 6, 15, 12, 3, 2, 9)).alternating_sum == -6 + 15 - 12 + 3 == 0


def test_special_cases_t5():
    assert [n.holds for n in check_ds(F5).special_case_notes] == [True]
    assert [n.holds for n in check_ds((1, 5, 10, 6, 0, 0)).special_case_notes] == [False]


def test_special_cases_t6():
    assert [n.holds for n in check_ds(F6).special_case_notes] == [True, True]


def test_special_cases_t7_parity():
    good = (1, 7, 21, 24, 13, 3, 0, 0)
    assert all(n.holds for n in check_ds(good).special_case_notes)
    even_f4 = (1, 7, 21, 24, 12, 3, 0, 0)
    notes = {n.label: n.holds for n in check_ds(even_f4).special_case_notes}
    assert notes["f4 is odd"] is False


def test_special_cases_empty_outside_5_6_7():
    assert check_ds((1, 4, 6, 4, 0)).special_case_notes == ()
    assert check_ds((1, 8, 28, 48, 33, 8, 0, 0, 0)).special_case_notes == ()


def test_boundary_failure_detected():
    report = check_ds((2, 5, 10, 5, 0, 0))
    assert not report.boundary_ok
    report = check_ds((1, 5, 10, 5, 1, 0))
    assert not report.boundary_ok


def test_rejects_too_short():
    with pytest.raises(ValueError):
        check_ds((1,))


def test_takes_int_entries_only():
    # a float entry would make the residual float and the verdict inexact, so check_ds names it instead
    t, rng = 120, random.Random(3)
    cycle = canonical_hypercube_cycle(t)
    f = lambda_face_masks(tuple(rng.choice((1, -1)) for _ in range(t)), cycle).f_vector
    assert check_ds(f).passes  # the first tope of this seed passes, but not with its f-vector as floats
    for entries, message in [
        ([float(x) for x in f], "f-vector entry f_0 = 1.0 is not an int"),
        ([1.0, 5, 10, 5.0, 0, 0], "f-vector entry f_0 = 1.0 is not an int"),
        ([1, 5, 10, 5.0, 0, 0], "f-vector entry f_3 = 5.0 is not an int"),
        ([1, True, 0], "f-vector entry f_1 = True is not an int"),  # a bool is not an int, as in io.fvector_from_doc
    ]:
        with pytest.raises(TypeError) as excinfo:
            check_ds(entries)
        assert str(excinfo.value) == message


def boundary_forced_vectors(t, rng, count):
    """f_0..f_2 binomial and f_(t-1) = f_t = 0, with random entries in between (t >= 4)."""
    for _ in range(count):
        middle = [rng.randint(0, comb(t, j)) for j in range(3, t - 1)]
        yield (*(comb(t, j) for j in range(3)), *middle, 0, 0)


def test_passes_is_the_boundary_rows_and_a_zero_residual():
    # at x = 1 the identity reads d_t == -sum_j (-1)^j d_j with d_j = C(t,j) - f_j; once the
    # boundary rows hold, that is the alternating sum, so a zero residual forces it to 0
    rng = random.Random(16)
    vectors = []
    for t in range(2, 13):
        cycle = canonical_hypercube_cycle(t)
        hypercube = [lambda_face_masks(T, cycle).f_vector for T in hypercube_topes(t)]
        forced = list(boundary_forced_vectors(t, rng, 200)) if t >= 4 else []
        vectors += hypercube + forced
        for f in rng.sample(hypercube, min(len(hypercube), 100)) + forced[:100]:
            for j in range(t + 1):
                vectors.append(f[:j] + (f[j] + rng.choice((-1, 1)),) + f[j + 1 :])
                if j + 2 <= t:  # keeps the alternating sum and moves the residual
                    vectors.append(f[:j] + (f[j] + 1, f[j + 1], f[j + 2] + 1) + f[j + 3 :])
    verdicts = set()
    for f in vectors:
        report = check_ds(f)
        exact = report.boundary_ok and not any(report.polynomial_residual)
        assert report.passes == exact, f
        if exact:
            assert report.alternating_sum == 0, f
        verdicts.add((report.boundary_ok, not any(report.polynomial_residual), report.alternating_sum == 0))
    # every mix of the three parts occurs except the one the identity rules out
    assert verdicts == {(b, r, a) for b in (True, False) for r in (True, False) for a in (True, False)} - {
        (True, True, False)
    }


# The exact law, a verified conjecture beyond the paper's "|Q| >= 5 implies DS": the f-vector depends
# only on the flip-order signs x, so the canonical cycle's topes cover every case with that t.


def flip_order_signs(tope, cycle):
    r0 = cycle.vertices[0]
    return [tope[e - 1] * r0[e - 1] for e in cycle.flips]


def twisted_runs(x):
    """Lengths of the cyclic runs of the twisted sequence (x_1..x_t, -x_1..-x_t)."""
    s = [*x, *(-v for v in x)]
    cuts = [i for i in range(len(s)) if s[i - 1] != s[i]]  # s[t] = -s[0], so there are at least two
    return [(b - a) % len(s) for a, b in zip(cuts, cuts[1:] + cuts[:1])]


def exact_law(size, x):
    """check_ds passes exactly when |Q| >= 5, or when |Q| = 3 and every run is at least 2 long."""
    return size >= 5 or size == 3 and min(twisted_runs(x)) >= 2


def test_exact_law_on_every_canonical_cycle_tope_for_t_3_to_12():
    passing_threes = {}
    for t in range(3, 13):
        cycle = canonical_hypercube_cycle(t)
        for tope in hypercube_topes(t):
            x, size = flip_order_signs(tope, cycle), len(decompose(tope, cycle).members)
            assert len(twisted_runs(x)) == 2 * size
            law = exact_law(size, x)
            assert check_ds(lambda_face_masks(tope, cycle).f_vector).passes == law, tope
            passing_threes[t] = passing_threes.get(t, 0) + (size == 3 and law)
    assert [passing_threes[t] for t in range(3, 13)] == [0, 0, 0, 4, 14, 32, 60, 100, 154, 224]
    assert all(passing_threes[t] == 2 * t * comb(t - 4, 2) // 3 for t in range(4, 13))


@cache
def cached_canonical_cycle(t):
    return canonical_hypercube_cycle(t)


def test_exact_law_on_every_dfs_cycle_tope():
    # depth-first cycles of moment curves (seeds 0-3) and of t-cubes (seeds 0-2): each tope has the
    # f-vector of the canonical-cycle tope with its flip-order signs, and check_ds obeys the exact law
    instances = [(enumerate_topes(moment_curve(t, r)), range(4)) for t, r in ((6, 3), (7, 4), (6, 5), (8, 4), (9, 3))]
    instances += [(hypercube_topes(t), range(3)) for t in range(3, 10)]
    pairs = 0
    for topes, seeds in instances:
        for seed in seeds:
            cycle = find_symmetric_cycle(topes, seed=seed)
            canonical = cached_canonical_cycle(cycle.t)
            for tope in topes:
                x, f = flip_order_signs(tope, cycle), lambda_face_masks(tope, cycle).f_vector
                assert f == lambda_face_masks(tuple(x), canonical).f_vector, (tope, seed)
                assert check_ds(f).passes == exact_law(len(decompose(tope, cycle).members), x), (tope, seed)
                pairs += 1
    assert pairs == 4568


@st.composite
def canonical_cycle_topes(draw):
    """A tope of the t-cube, t <= 200, as sign changes along the canonical cycle's flip order: few or any."""
    t = draw(st.integers(3, 200))
    changes = draw(st.sets(st.integers(1, t - 1), max_size=draw(st.sampled_from((4, t - 1)))))
    sign, tope = draw(st.sampled_from((1, -1))), []
    for e in range(t):
        sign = -sign if e in changes else sign
        tope.append(sign)
    return tuple(tope)


@settings(max_examples=200, deadline=None)
@given(canonical_cycle_topes())
def test_exact_law_on_random_topes_up_to_t200(tope):
    cycle = cached_canonical_cycle(len(tope))
    x, size = flip_order_signs(tope, cycle), len(decompose(tope, cycle).members)
    assert check_ds(lambda_face_masks(tope, cycle).f_vector).passes == exact_law(size, x)


def reoriented_fan(tope):
    """V(T,R) on the canonical cycle, where x = T: the rows of rank2_fan(t), row e negated where T(e) = -1."""
    return [tuple(s * c for c in row) for s, row in zip(tope, rank2_fan(len(tope)).rows)]


def growing_mask_sizes(tope, cycle):
    """n_k: the agreement-walk masks of size k+1 that grow the mask before them, counted as the delta complex counts them."""
    plus = sum(1 << e for e, s in enumerate(tope) if s == 1)
    walk = [plus ^ m for m in cycle.masks]
    n = [0] * cycle.t
    for before, m in zip(walk[-1:] + walk[:-1], walk):
        if m & ~before:
            n[m.bit_count() - 1] += 1
    return n


def test_the_law_is_the_two_per_half_plane_condition_on_the_reoriented_fan():
    # on every canonical-cycle tope for t = 3..11: the verdict, the f-vector as nu counts, and a palindromic n
    topes = 0
    for t in range(3, 12):
        cycle = canonical_hypercube_cycle(t)
        for tope in hypercube_topes(t):
            size, f, V = len(decompose(tope, cycle).members), lambda_face_masks(tope, cycle).f_vector, reoriented_fan(tope)
            assert check_ds(f).passes == (min(half_turn_counts_by_pairs(V)) >= 2), tope
            if size >= 3:
                assert f == nu_counts(V), tope
            else:  # V lies in one open half-plane: every subset is a face
                assert f == tuple(comb(t, j) for j in range(t + 1)), tope
                with pytest.raises(FullSystemFeasibleError):
                    nu_counts(V)
            n = growing_mask_sizes(tope, cycle)
            assert n == n[::-1] and n[0] == (size == 1), tope
            topes += 1
    assert topes == 4088


@settings(max_examples=100, deadline=None)
@given(canonical_cycle_topes())
def test_the_law_is_the_two_per_half_plane_condition_up_to_t200(tope):
    # the same pins on hypothesis topes up to t = 200: the verdict, the f-vector as nu counts when |Q| >= 3,
    # and a palindromic n with n_0 = [|Q| = 1]
    cycle = cached_canonical_cycle(len(tope))
    size, f, V = len(decompose(tope, cycle).members), lambda_face_masks(tope, cycle).f_vector, reoriented_fan(tope)
    assert check_ds(f).passes == (min(half_turn_counts_by_pairs(V)) >= 2)
    if size >= 3:
        assert f == nu_counts(V)
    n = growing_mask_sizes(tope, cycle)
    assert n == n[::-1] and n[0] == (size == 1)
