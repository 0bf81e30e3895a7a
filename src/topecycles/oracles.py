"""Independent brute-force counts tying the geometry to the combinatorics:
feasible-subsystem counts, the two-per-open-half-plane condition, and the
per-tope decomposition census."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .arrangements import (
    ArrangementError,
    ccw_sorted_rays,
    make_arrangement,
    primitive_vector,
    rank2_feasible,
    validate_simple,
)
from .core import SignVector, sign_vector_str
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
    feasible by convention)."""
    arr = make_arrangement(vectors)
    if arr.dim != 2:
        raise ValueError("subsystem counts are defined for rank-2 (dim 2) systems")
    violations = validate_simple(arr)
    if violations:
        raise ArrangementError(violations)
    if rank2_feasible(arr.normals):
        raise FullSystemFeasibleError("the full system is feasible; counts apply to infeasible systems")
    t = arr.t
    nu = [1] + [0] * t
    for j in range(1, t + 1):
        for picked in combinations(arr.normals, j):
            if rank2_feasible(picked):
                nu[j] += 1
    return tuple(nu)


def check_halfplane_condition(vectors: Sequence[Sequence]) -> HalfplaneCheck:
    """Does every open half-plane through the origin contain at least two of the vectors?

    The count is piecewise constant as the half-plane's inner normal sweeps
    the circle, changing only at the 2t critical directions orthogonal to an
    input vector.  Evaluating one representative inside each arc between
    consecutive criticals (their sum: arcs span less than pi) and at each
    critical direction itself (where boundary vectors stop counting) covers
    every possible count.
    """
    dirs = [primitive_vector(v) for v in vectors]
    if any(not any(d) for d in dirs):
        raise ValueError("zero vector in half-plane check")
    if not dirs:
        return HalfplaneCheck(False, 0, (Fraction(1), Fraction(0)))
    criticals = set()
    for x, y in dirs:
        criticals.add(primitive_vector((-y, x)))
        criticals.add(primitive_vector((y, -x)))
    ring = ccw_sorted_rays(criticals)
    candidates = list(ring)
    n = len(ring)
    if n > 2:
        for i in range(n):
            a, b = ring[i], ring[(i + 1) % n]
            candidates.append((a[0] + b[0], a[1] + b[1]))
    best_count = None
    best_u = None
    for u in candidates:
        count = sum(1 for d in dirs if d[0] * u[0] + d[1] * u[1] > 0)
        if best_count is None or count < best_count:
            best_count, best_u = count, u
    holds = best_count >= 2
    witness = None if holds else (Fraction(best_u[0]), Fraction(best_u[1]))
    return HalfplaneCheck(holds, best_count, witness)


def census(
    topes: Iterable[Sequence[int]],
    cycle: SymmetricCycle,
    list_topes: bool = False,
) -> CensusResult:
    """Decompose every tope against the cycle and tally by member count.

    Topes are processed in lexicographic order."""
    histogram: dict[int, int] = {}
    by_size: dict[int, list[SignVector]] = {}
    for tope in sorted({tuple(v) for v in topes}, key=sign_vector_str):
        size = decompose(tope, cycle).size
        histogram[size] = histogram.get(size, 0) + 1
        if list_topes:
            by_size.setdefault(size, []).append(tope)
    return CensusResult(cycle.t, dict(sorted(histogram.items())), by_size if list_topes else None)
