"""Independent counts tying the geometry to the combinatorics: feasible-subsystem
counts of a simple planar arrangement, read off the half-turn counts of its
integer rows, the two-per-open-half-plane condition on any planar vectors,
and the decomposition census of a tope set."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import xor
from typing import Iterable, Sequence

from .arrangements import Arrangement, _half_turn_counts, primitive_vector
from .complexes import _face_counts
from .core import DimensionError, SignVector, _first_offender, _minus_columns, _selectors
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
    counts = _half_turn_counts(arr.rows)
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
    best_count, (x, y) = min(zip(_half_turn_counts(dirs), dirs))
    holds = best_count >= 2
    witness = None if holds else (Fraction(-y), Fraction(x))
    return HalfplaneCheck(holds, best_count, witness)


def census(
    topes: Iterable[Sequence[int]],
    cycle: SymmetricCycle,
    list_topes: bool = False,
) -> CensusResult:
    """Tally the distinct topes by decomposition size, all topes at once, one column per element.

    Each element's column of the n distinct topes is read in C into an n-bit minus mask, and
    ``_size_classes`` splits the topes into size classes on those columns.  That is O(t) operations
    on n-bit integers and no interpreted step per tope, so a tope set (n >= 2t) costs little more
    than reading it; but a few topes on a long ground set pay for all t columns (5 topes at
    t = 1100: about 0.6 ms, where reading them one at a time took 0.3 ms).

    Topes are checked in the order given, so an invalid input names its first offender (an
    entry that is not iterable or not hashable raises TypeError before any is checked).
    Each listed class is in lexicographic order, '+' before '-' (descending tuples).  The CLI
    ``census`` runs ``_size_classes`` on the columns of the strings it reads, with no tuple."""
    t = cycle.t
    unique = dict.fromkeys(map(tuple, topes))
    n = len(unique)
    if not n:
        return CensusResult(t, {}, {} if list_topes else None)
    try:
        columns = _minus_columns(unique, t)
    except DimensionError:  # the first offender is signs of another length: say so in decompose's words
        _checked_tope(_first_offender(unique, t)[1], cycle)
        raise
    classes = _size_classes(columns, n, cycle)
    listed = None
    if list_topes:
        listed = {s: sorted(compress(unique, _selectors(m, n)), reverse=True) for s, m in classes}
    return CensusResult(t, {s: m.bit_count() for s, m in classes}, listed)


def _size_classes(columns: Sequence[int], n: int, cycle: SymmetricCycle) -> list[tuple[int, int]]:
    """(|Q|, the n-bit mask of the topes of that size) for each size that occurs, by size, for the n >= 1
    distinct topes of the cycle's length whose minus columns are columns: bit i of column e - 1 is
    set iff tope i is - on e.

    With x_j = T(e_j) * R^0(e_j), |Q| counts x's sign changes: one where x_1 = x_t and one per j
    with x_(j+1) != x_j.  XOR of column e_j with R^0's sign gives X_j (bit i set iff x_j = -1 on
    tope i), and the t change planes not(X_1 ^ X_t) and X_j ^ X_(j+1) mark the topes that have a
    member there.  Full adders on whole planes sum them into about log2(t) count planes (bit i of
    plane k is bit k of tope i's |Q|), and splitting the topes on those gives one n-bit mask per
    size class: bit-slicing (Biham, FSE 1997)."""
    full, r0 = (1 << n) - 1, cycle.masks[0]
    x = [columns[e - 1] ^ (full if r0 >> (e - 1) & 1 else 0) for e in cycle.flips]  # X_1..X_t
    planes = [full ^ x[0] ^ x[-1], *map(xor, x, x[1:])]  # bit i set iff tope i gains a member at j
    counts: list[int] = []  # bit i of counts[k] is bit k of tope i's member count
    while planes:  # full adders sum the planes of weight 2^k into count plane k and carries of weight 2^(k+1)
        total, carries = planes.pop(), []
        while planes:
            a = planes.pop()
            b = planes.pop() if planes else 0
            ab = a ^ b
            carries.append(total & ab | a & b)
            total ^= ab
        counts.append(total)
        planes = carries
    classes = [(0, full)]  # (size read so far, topes of that size), split on each count plane
    for k, c in enumerate(counts):
        classes = [(size, m) for s, mask in classes for size, m in ((s, mask & ~c), (s | 1 << k, mask & c)) if m]
    classes.sort()
    return classes
