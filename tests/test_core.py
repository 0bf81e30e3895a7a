from hypothesis import given
from hypothesis import strategies as st
import pytest

from topecycles.core import (
    DimensionError,
    all_plus,
    flip,
    negate,
    parse_sign_vector,
    separation_set,
    sign_vector_str,
)
from topecycles.cycles import canonical_hypercube_cycle

from reference import positive_part


def sign_vectors(t):
    return st.tuples(*[st.sampled_from((1, -1))] * t)


def paired_sign_vectors(min_t=1, max_t=8):
    return st.integers(min_t, max_t).flatmap(lambda t: st.tuples(sign_vectors(t), sign_vectors(t)))


def test_parse_and_format_round_trip():
    assert parse_sign_vector("+-+") == (1, -1, 1)
    assert sign_vector_str((1, -1, 1)) == "+-+"
    assert parse_sign_vector(sign_vector_str((-1, -1, 1, 1))) == (-1, -1, 1, 1)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_sign_vector("")
    with pytest.raises(ValueError):
        parse_sign_vector("+-x")


def test_separation_set_examples():
    T = parse_sign_vector("+-+-+")
    assert separation_set(T, all_plus(5)) == {2, 4}
    assert separation_set(T, T) == frozenset()
    assert separation_set(T, negate(T)) == {1, 2, 3, 4, 5}


def test_separation_set_length_mismatch():
    with pytest.raises(DimensionError):
        separation_set((1, 1), (1, 1, 1))


def test_sum_of_five_canonical_cycle_vertices():
    # R^0 + R^2 + R^4 + R^6 + R^8 of the canonical t=5 cycle, summed coordinate-wise
    cycle = canonical_hypercube_cycle(5)
    members = [cycle.vertices[i] for i in (0, 2, 4, 6, 8)]
    assert tuple(map(sum, zip(*members))) == (1, -1, 1, -1, 1)


def test_flip_and_parts():
    assert flip((1, 1, 1), 2) == (1, -1, 1)
    assert positive_part((1, -1, 1)) == {1, 3}


def test_element_and_ground_set_bounds():
    with pytest.raises(ValueError, match="outside 1..3"):
        flip((1, 1, 1), 0)
    with pytest.raises(ValueError, match="t must be positive"):
        all_plus(0)


@given(paired_sign_vectors())
def test_separation_symmetry_and_negation_invariance(pair):
    a, b = pair
    assert separation_set(a, b) == separation_set(b, a)
    assert separation_set(negate(a), negate(b)) == separation_set(a, b)
    assert (separation_set(a, b) == frozenset()) == (a == b)
