"""Independent counts tying the geometry to the combinatorics: feasible-subsystem
counts of a simple planar arrangement, read off the half-turn counts of its
integer rows, the two-per-open-half-plane condition on any planar vectors,
and the per-tope decomposition census."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .arrangements import Arrangement, ccw_half_turn_counts, primitive_vector
from .complexes import _face_counts
from .core import DimensionError, SignVector
from .cycles import SymmetricCycle
from .decomposition import decompose


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


def nu_counts(vectors: Sequence[Sequence]) -> tuple[int, ...]:
    """nu_j = number of strictly feasible cardinality-j subsystems of an
    infeasible planar system, for j = 0..t (nu_0 = 1: the empty system is
    feasible by convention).

    A feasible subsystem has exactly one most clockwise member d, and its
    other j - 1 members are any of the k vectors inside d's open half-turn,
    so nu_j sums comb(k, j - 1) over the half-turn counts k: the sum the
    delta f-vector takes over its k_j, which is why nu equals it.  The
    vectors are the normals of an ``Arrangement``, so they must form a simple
    one: a zero vector or an (anti)parallel pair raises ArrangementError.
    """
    arr = Arrangement(vectors)
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
    """Decompose every tope against the cycle and tally by member count.

    Topes are processed in lexicographic order, '+' before '-' (descending tuples)."""
    histogram: dict[int, int] = {}
    by_size: dict[int, list[SignVector]] = {}
    for tope in sorted({tuple(v) for v in topes}, reverse=True):
        size = decompose(tope, cycle).size
        histogram[size] = histogram.get(size, 0) + 1
        if list_topes:
            by_size.setdefault(size, []).append(tope)
    return CensusResult(cycle.t, dict(sorted(histogram.items())), by_size if list_topes else None)
