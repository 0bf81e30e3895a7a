"""Independent counts tying the geometry to the combinatorics: feasible-subsystem
counts of a simple planar arrangement, read off the half-turn counts of its
integer rows, the two-per-open-half-plane condition on any planar vectors,
and the per-tope decomposition census."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Sequence

from .arrangements import Arrangement, ccw_half_turn_counts, primitive_vector
from .complexes import _face_counts
from .core import DimensionError, SignVector, _mask_text, _minus_masks, _text_mask
from .cycles import SymmetricCycle
from .decomposition import _checked_tope


class FullSystemFeasibleError(ValueError):
    """The full system fits in an open half-plane; subsystem counting assumes it does not."""


@dataclass(frozen=True)
class HalfplaneCheck:
    holds: bool
    min_count: int
    witness: tuple[Fraction, Fraction] | None  # inner normal of an emptiest open half-plane


@dataclass(frozen=True)
class CensusResult:
    t: int
    histogram: dict[int, int]
    by_size: dict[int, list[SignVector]] | None = None


def nu_counts(vectors: Arrangement | Sequence[Sequence]) -> tuple[int, ...]:
    """nu_j = number of strictly feasible cardinality-j subsystems of an
    infeasible planar system, for j = 0..t (nu_0 = 1: the empty system is
    feasible by convention).

    A feasible subsystem has exactly one most clockwise member d, and its
    other j - 1 members are any of the k vectors inside d's open half-turn,
    so nu_j sums comb(k, j - 1) over the half-turn counts k: the sum the
    delta f-vector takes over |M| - 1 for its walk's growing masks M, which
    is why nu equals it.  The vectors are an ``Arrangement``, used as it is,
    or the normals of one, so they must form a simple one: a zero vector or
    an (anti)parallel pair raises ArrangementError.
    """
    arr = vectors if isinstance(vectors, Arrangement) else Arrangement(vectors)
    if arr.dim != 2:
        raise ValueError("subsystem counts are defined for rank-2 (dim 2) systems")
    counts = ccw_half_turn_counts(arr.rows)
    nu = _face_counts(counts, arr.t)
    if nu[-1]:
        raise FullSystemFeasibleError("the full system is feasible; counts apply to infeasible systems")
    return nu


def check_halfplane_condition(vectors: Sequence[Sequence]) -> HalfplaneCheck:
    """Does every open half-plane through the origin contain at least two of the vectors?

    An emptiest open half-plane can be turned, without gaining a vector,
    until some input vector d lies on its boundary with the half-plane on
    d's counterclockwise side.  So the least count, with multiplicity, is
    the least half-turn count over the inputs, and the inner normal
    (-d_y, d_x) of the minimising d is a witness.
    """
    dirs = []
    for v in vectors:
        if len(v) != 2:
            raise DimensionError("half-plane check needs 2-dimensional vectors")
        d = primitive_vector(v)
        if not any(d):
            raise ValueError("zero vector in half-plane check")
        dirs.append(d)
    if not dirs:
        return HalfplaneCheck(False, 0, (Fraction(1), Fraction(0)))
    best_count, (x, y) = min(zip(ccw_half_turn_counts(dirs), dirs))
    holds = best_count >= 2
    witness = None if holds else (Fraction(-y), Fraction(x))
    return HalfplaneCheck(holds, best_count, witness)


def census(
    topes: Iterable[Sequence[int]],
    cycle: SymmetricCycle,
    list_topes: bool = False,
) -> CensusResult:
    """Tally the distinct topes by decomposition size, read off one integer per tope.

    A tope's integer is the minus mask of its flip-order signs x_j = T(e_j) * R^0(e_j), read in
    one C pass: bit j-1 is set iff x_j = -1.  |Q| counts x's sign changes: one where x_1 = x_t and
    one per j with x_(j+1) != x_j.

    Topes are checked in the order given, so an invalid input names its first offender (an
    entry that is not iterable or not hashable raises TypeError before any is checked).
    Each listed class is in lexicographic order, '+' before '-' (descending tuples)."""
    t = cycle.t
    unique = dict.fromkeys(map(tuple, topes))
    order = itemgetter(*[e - 1 for e in cycle.flips])  # t >= 2 indices, so it returns a tuple
    try:
        if not {t}.issuperset(map(len, unique)):  # itemgetter would ignore a long tope's extra entries
            raise DimensionError
        masks = _minus_masks(list(map(order, unique)), t)
    except ValueError:  # some tope is not a +/-1 vector of length t: name the first, as decompose does
        for tope in unique:
            _checked_tope(tope, cycle)
        raise
    r0 = _text_mask("".join(order(_mask_text(cycle.masks[0], t))))  # R^0's minus mask in flip order
    low = (1 << (t - 1)) - 1
    sizes = [(((x := m ^ r0) ^ (x >> 1)) & low).bit_count() + (not (x ^ (x >> (t - 1))) & 1) for m in masks]
    listed = None
    if list_topes:
        by_size: dict[int, list[SignVector]] = {}
        for size, tope in zip(sizes, unique):
            by_size.setdefault(size, []).append(tope)
        listed = {j: sorted(by_size[j], reverse=True) for j in sorted(by_size)}
    return CensusResult(t, dict(sorted(Counter(sizes).items())), listed)
