import re
from fractions import Fraction
from itertools import cycle as repeat_cyclically

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from topecycles.arrangements import hypercube_topes
from topecycles.core import (
    DimensionError,
    Violation,
    _mask_text,
    _minus_columns,
    _minus_mask,
    _minus_masks,
    check_sign_vector,
    negate,
    parse_sign_vector,
    sign_vector_str,
)
from topecycles.cycles import CycleError, canonical_hypercube_cycle, find_symmetric_cycle, symmetric_cycle
from topecycles.decomposition import decompose
from topecycles.oracles import census

from reference import all_plus, flip, positive_part, separation_set, text_mask


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


@pytest.mark.parametrize("arg", [None, [], 0, 7, 1.0, b"+-", bytearray(b"+"), ["+", "-"], (1, -1), {"+": 1}])
def test_parse_sign_vector_rejects_a_non_string_naming_its_type(arg):
    with pytest.raises(TypeError, match=f"must be a str, got {type(arg).__name__}$"):
        parse_sign_vector(arg)


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


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 1200), st.randoms(use_true_random=False))
def test_minus_mask_sets_bit_e_minus_1_for_each_minus_element(t, rng):
    # by value: 1.0, True and Fraction(1) read as +1, -1.0 and Fraction(-1) as -1
    v = tuple(rng.choice((1, -1, 1.0, True, Fraction(1), -1.0, Fraction(-1))) for _ in range(t))
    m = sum(1 << (e - 1) for e, x in enumerate(v, 1) if x < 0)
    assert _minus_mask(v, t) == m
    ints = tuple(map(int, v))
    assert _minus_masks([ints, negate(ints)], t) == [m, m ^ ((1 << t) - 1)]  # one comprehension
    assert _minus_masks([ints, v], t) == [m, m]  # an entry read by value: one vector at a time
    # the string codec round-trips
    text = "".join("+" if x > 0 else "-" for x in v)
    assert sign_vector_str(v) == _mask_text(m, t) == text
    assert text_mask(text) == m and parse_sign_vector(text) == v


# 48, 49, 32 and 95 pack as the bytes of '0', '1', ' ' and '_', 43 and 45 as '+' and '-', which
# int(..., 2) or a string table could take for a digit, a separator or a sign
NOT_SIGNS = (0, 2, -2, 32, 43, 45, 48, 49, 95, 127, -128, 255, -129, 2**70)


@pytest.mark.parametrize("bad", NOT_SIGNS)
def test_every_entry_but_a_sign_is_rejected_naming_the_first_offender(bad):
    t, pos = 4, 2
    cycle = canonical_hypercube_cycle(t)
    topes = hypercube_topes(t)

    def spoiled(v, value):
        return v[:pos] + (value,) + v[pos + 1 :]

    first = spoiled(topes[5], bad)
    pool = topes[:5] + [first] + topes[6:9] + [spoiled(topes[9], 0)] + topes[10:]
    message = f"^{re.escape(f'not a sign vector: {first!r}')}$"
    for call in (
        lambda: find_symmetric_cycle(pool),
        lambda: find_symmetric_cycle(topes, start=first),
        lambda: census(pool, cycle),
        lambda: census(pool, cycle, list_topes=True),
        lambda: decompose(first, cycle),
    ):
        with pytest.raises(ValueError, match=message) as excinfo:
            call()
        assert type(excinfo.value) is ValueError
    vertices = list(cycle.vertices)
    vertices[3], vertices[6] = spoiled(vertices[3], bad), spoiled(vertices[6], 0)
    with pytest.raises(CycleError) as excinfo:
        symmetric_cycle(vertices)
    assert excinfo.value.violations == [Violation("shape", (3,), "vertex 3 is not a +/-1 vector of length t=4")]


@pytest.mark.parametrize("bad", NOT_SIGNS + (1.5, -1.0 + 1e-9, None, "+"))
def test_the_codec_rejects_every_entry_but_a_sign(bad):
    v = (1, -1, bad, 1)
    for call in (
        lambda: _minus_mask(v, 4),
        lambda: _minus_masks([(1,) * 4, v], 4),
        lambda: _minus_columns([(1,) * 4, v], 4),
        lambda: sign_vector_str(v),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(f'not a sign vector: {v!r}')}$"):
            call()
    with pytest.raises(DimensionError, match="^sign vector has length 4, expected 5$"):
        _minus_mask((1, -1, -1, 1), 5)
    for text in ("+-0+", "+-1+", "+- +", "+-_+", " +-+", "0b1"):
        with pytest.raises(ValueError, match="^invalid sign character"):
            text_mask(text)


@given(paired_sign_vectors())
def test_separation_symmetry_and_negation_invariance(pair):
    a, b = pair
    assert separation_set(a, b) == separation_set(b, a)
    assert separation_set(negate(a), negate(b)) == separation_set(a, b)
    assert (separation_set(a, b) == frozenset()) == (a == b)


def test_sign_entries_are_compared_by_value():
    # 1.0, True and Fraction(1) equal 1, so every function treats them as the sign +1
    plus, minus = repeat_cyclically((1.0, True, Fraction(1), 1)), repeat_cyclically((-1.0, Fraction(-1), -1))

    def twin(v):
        return tuple(next(plus) if x == 1 else next(minus) for x in v)

    for t in range(2, 7):
        cycle = canonical_hypercube_cycle(t)
        topes = hypercube_topes(t)
        twins = [twin(T) for T in topes]
        for T, U in zip(topes, twins):
            check_sign_vector(U, t)
            assert decompose(U, cycle) == decompose(T, cycle)
        assert census(twins, cycle, list_topes=True) == census(topes, cycle, list_topes=True)
        assert census(topes + twins, cycle) == census(topes, cycle)  # a twin is the same tope
        twin_cycle = symmetric_cycle([twin(v) for v in cycle.vertices])
        assert twin_cycle == cycle and hash(twin_cycle) == hash(cycle)
        assert twin_cycle.flips == cycle.flips
        assert decompose(topes[-1], twin_cycle) == decompose(topes[-1], cycle)
