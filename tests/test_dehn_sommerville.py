import random
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topecycles.arrangements import hypercube_topes
from topecycles.complexes import lambda_face_masks
from topecycles.cycles import canonical_hypercube_cycle
from topecycles.dehn_sommerville import (
    check_alternating_sum,
    check_ds,
    ds_polynomial_sides,
    special_cases,
)

from reference import check_recurrence, ds_polynomial_sides_by_binomials

F5 = (1, 5, 10, 5, 0, 0)
F6 = (1, 6, 15, 12, 3, 0, 0)


def poly_eval(coeffs, x):
    return sum(c * x**i for i, c in enumerate(coeffs))


def test_t5_passes():
    report = check_ds(F5)
    assert report.passes
    assert report.boundary_ok
    assert report.polynomial_residual == (0, 0, 0)
    assert report.recurrence_ok == {3: True}
    assert report.alternating_sum == 0
    assert all(note.holds for note in report.special_case_notes)


def test_t5_polynomial_sides_are_5x2_minus_5x_plus_1():
    lhs, rhs = ds_polynomial_sides(F5)
    assert lhs == rhs == (1, -5, 5)


def test_t6_passes_with_sides_8x3_minus_12x2_plus_6x_minus_1():
    report = check_ds(F6)
    assert report.passes
    lhs, rhs = ds_polynomial_sides(F6)
    assert lhs == rhs == (-1, 6, -12, 8)


def test_t5_perturbed_f3_fails_with_nonzero_residual():
    report = check_ds((1, 5, 10, 6, 0, 0))
    assert not report.passes
    assert any(report.polynomial_residual)


def test_residual_symmetric_under_side_exchange():
    for f in (F5, F6, (1, 5, 10, 6, 0, 0)):
        lhs, rhs = ds_polynomial_sides(f)
        report = check_ds(f)
        assert report.polynomial_residual == tuple(a - b for a, b in zip(lhs, rhs))
        assert tuple(-(b - a) for a, b in zip(lhs, rhs)) == report.polynomial_residual


def test_coefficient_expansion_agrees_with_pointwise_evaluation():
    # evaluate both sides directly at t-2 distinct integer points
    for f in (F5, F6, (1, 5, 10, 6, 0, 0), (1, 7, 21, 24, 13, 3, 0, 0)):
        t = len(f) - 1
        lhs, rhs = ds_polynomial_sides(f)
        for x in range(2, t):
            direct_lhs = sum((comb(t, j) - f[j]) * (x - 1) ** (t - j) for j in range(3, t + 1))
            direct_rhs = -sum((-1) ** j * (comb(t, j) - f[j]) * x ** (t - j) for j in range(3, t + 1))
            assert poly_eval(lhs, x) == direct_lhs
            assert poly_eval(rhs, x) == direct_rhs


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40).flatmap(lambda t: st.lists(st.integers(-(10**12), 10**12), min_size=t + 1, max_size=t + 1)))
@example([1, 1])
@example([1, 2, 1])
@example([1, 3, 3, 5])
@example([1, 3, 3, 1])
def test_horner_sides_match_binomial_expansion(f):
    assert ds_polynomial_sides(f) == ds_polynomial_sides_by_binomials(f)


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
    assert check_alternating_sum(F5) == -5 + 10 - 5 == 0
    assert check_alternating_sum(F6) == -6 + 15 - 12 + 3 == 0
    assert check_alternating_sum((1, 5, 10, 4, 0, 0)) == 1


def test_special_cases_t5():
    assert [n.holds for n in special_cases(F5)] == [True]
    assert [n.holds for n in special_cases((1, 5, 10, 6, 0, 0))] == [False]


def test_special_cases_t6():
    assert [n.holds for n in special_cases(F6)] == [True, True]


def test_special_cases_t7_parity():
    good = (1, 7, 21, 24, 13, 3, 0, 0)
    assert all(n.holds for n in special_cases(good))
    even_f4 = (1, 7, 21, 24, 12, 3, 0, 0)
    notes = {n.label: n.holds for n in special_cases(even_f4)}
    assert notes["f4 is odd"] is False


def test_special_cases_empty_outside_5_6_7():
    assert special_cases((1, 4, 6, 4, 0)) == []
    assert special_cases((1, 8, 28, 48, 33, 8, 0, 0, 0)) == []


def test_boundary_failure_detected():
    report = check_ds((2, 5, 10, 5, 0, 0))
    assert not report.boundary_ok
    report = check_ds((1, 5, 10, 5, 1, 0))
    assert not report.boundary_ok


def test_rejects_too_short():
    with pytest.raises(ValueError):
        check_ds((1,))


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
