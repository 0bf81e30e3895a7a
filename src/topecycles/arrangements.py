"""Central hyperplane arrangements over exact rationals: simple arrangements
validated on construction, strict feasibility, chamber enumeration, and
instance generators."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Sequence

from .core import DimensionError, SignVector, Violation, negate


class ArrangementError(ValueError):
    """An arrangement (or candidate arrangement) failed validation."""

    def __init__(self, violations: Sequence[Violation]):
        super().__init__("; ".join(v.detail for v in violations) or "invalid arrangement")
        self.violations = list(violations)


@dataclass(frozen=True)
class Arrangement:
    """A simple central arrangement: t hyperplanes in R^dim with exact normals
    of ints and Fractions (elements are 1-based).

    Construction raises DimensionError on mixed dimensions and
    ArrangementError on any ``validate_simple`` violation, so every instance
    is simple.  ``normals`` keep the caller's values; the derived ``rows``
    are their primitive integer rows (any other coordinate raises TypeError).
    """

    normals: tuple[tuple[int | Fraction, ...], ...]
    rows: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.normals:
            raise ValueError("an arrangement needs at least one normal")
        if any(len(n) != self.dim for n in self.normals):
            raise DimensionError(f"every normal must have dimension {self.dim}")
        violations, rows = _check_simple(self.normals)
        if violations:
            raise ArrangementError(violations)
        object.__setattr__(self, "rows", rows)

    @property
    def t(self) -> int:
        return len(self.normals)

    @property
    def dim(self) -> int:
        return len(self.normals[0])


def make_arrangement(normals: Iterable[Sequence[int | Fraction]]) -> Arrangement:
    return Arrangement(tuple(tuple(n) for n in normals))


def validate_simple(normals: Iterable[Sequence[int | Fraction]]) -> list[Violation]:
    """Check for loops (zero normals) and (anti)parallel pairs; empty list means ok.

    Two nonzero normals are parallel exactly when their primitive integer rows
    are equal, and antiparallel exactly when one row is the other negated."""
    return _check_simple(normals)[0]


def _check_simple(normals: Iterable[Sequence[int | Fraction]]) -> tuple[list[Violation], tuple[tuple[int, ...], ...]]:
    """The violations in report order and the primitive integer rows they are read off."""
    rows = tuple(primitive_vector(n) for n in normals)
    out = [Violation("loop", (e,), f"normal {e} is the zero vector") for e, r in enumerate(rows, start=1) if not any(r)]
    if out:
        return out, rows
    for (e, u), (f, v) in combinations(enumerate(rows, start=1), 2):
        kind = "parallel" if u == v else "antiparallel" if u == negate(v) else None
        if kind:
            out.append(Violation(kind, (e, f), f"normals {e} and {f} are {kind}"))
    return out, rows


def primitive_vector(row: Sequence[int | Fraction]) -> tuple[int, ...]:
    """Scale a vector of ints and Fractions to coprime integers, preserving its direction.

    Rationals become integers here, read off each coordinate's numerator and
    denominator; any other coordinate type (a float, say) raises TypeError."""
    for c in row:
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"coordinates must be ints or Fractions, got {c!r}")
    scale = math.lcm(*[c.denominator for c in row])
    ints = [c.numerator * (scale // c.denominator) for c in row]
    g = math.gcd(*ints)
    return tuple([c // g for c in ints]) if g > 1 else tuple(ints)


def strict_feasible(vectors: Sequence[Sequence[int | Fraction]]) -> bool:
    """Decide whether some x satisfies <a, x> > 0 for every row a.  To test a
    sign vector sigma against normals a_e, pass the signed rows sigma_e * a_e.

    Rows hold ints or Fractions and each becomes its primitive integer row on
    entry, so all later arithmetic is on integers.  Exact Fourier-Motzkin
    elimination on the homogeneous strict system: each round eliminates the
    leading coordinate by combining opposite-sign rows with positive
    multipliers (which preserves strictness), and an all-zero derived row
    reads 0 > 0 and certifies infeasibility.  An emptied system is feasible;
    the empty collection is vacuously feasible.
    """
    work: set[tuple[int, ...]] = set()
    for v in vectors:
        if len(v) != len(vectors[0]):
            raise DimensionError("vectors of mixed dimension")
        row = primitive_vector(v)
        if not any(row):
            return False
        work.add(row)
    while work:
        zero, pos, neg = [], [], []
        for row in work:
            (zero if row[0] == 0 else pos if row[0] > 0 else neg).append(row)
        nxt = {r[1:] for r in zero}
        if pos and neg:
            for p in pos:
                for n in neg:
                    comb = tuple(p[0] * n[k] - n[0] * p[k] for k in range(1, len(p)))
                    if not any(comb):
                        return False
                    nxt.add(primitive_vector(comb))
        work = nxt
    return True


def ccw_half_turn_counts(dirs: Sequence[Sequence]) -> list[int]:
    """For each d in dirs, #{a in dirs : d_x a_y - d_y a_x > 0}: the vectors strictly
    inside the open half-turn counterclockwise of d (parallel and antiparallel
    ones lie on its boundary and do not count)."""
    return [sum(1 for a in dirs if d[0] * a[1] - d[1] * a[0] > 0) for d in dirs]


def enumerate_topes(arr: Arrangement) -> list[SignVector]:
    """All chamber sign vectors, in lexicographic order with '+' before '-'.

    Incremental sign-prefix tree: a prefix survives iff the strict subsystem
    of its first k hyperplanes is feasible, so infeasible subtrees are pruned
    wholesale instead of scanning all 2^t sign vectors.  Each child costs
    one ``strict_feasible`` call on its signed integer rows ``arr.rows``.
    """
    topes: list[SignVector] = [()]
    for _ in range(arr.t):
        topes = [
            child
            for T in topes
            for child in (T + (1,), T + (-1,))
            if strict_feasible([a if s > 0 else negate(a) for a, s in zip(arr.rows, child)])
        ]
    return topes


def hypercube_topes(t: int) -> list[SignVector]:
    """The full tope set {+1,-1}^t in lexicographic order ('+' < '-')."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return list(product((1, -1), repeat=t))


def rank2_fan(t: int) -> Arrangement:
    """Normals (1, e-1): t distinct slopes in the open right half-plane (acyclic)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return make_arrangement([(1, e - 1) for e in range(1, t + 1)])


def moment_curve(t: int, r: int) -> Arrangement:
    """Normals (1, e, ..., e^(r-1)); any r of them are linearly independent."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if r < 2 or r > t:
        raise ValueError(f"need 2 <= r <= t, got r={r}, t={t}")
    return make_arrangement([tuple(e**i for i in range(r)) for e in range(1, t + 1)])


def totally_cyclic_fan(t: int) -> Arrangement:
    """t planar vectors spread so that every open half-plane holds at least two.

    Integer coordinates come from rounding evenly spread directions (a small
    per-index stagger keeps antipodal collisions away for even t); the
    rounding is only a construction heuristic.  Simplicity (on construction)
    and the two-per-half-plane condition are then verified exactly, and
    failure raises instead of returning an unusable instance.
    """
    if t < 5:
        raise ValueError("t must be >= 5")
    radius = 100 * t
    rows = []
    for k in range(t):
        theta = 2 * math.pi * k / t + math.pi * k / (4 * t * t)
        rows.append((round(radius * math.cos(theta)), round(radius * math.sin(theta))))
    arr = make_arrangement(rows)
    # the least half-turn count is the least open half-plane count (see oracles.check_halfplane_condition)
    if min(ccw_half_turn_counts(arr.rows)) < 2:
        raise ArrangementError(
            [Violation("halfplane", (), "generated fan leaves an open half-plane with fewer than two vectors")]
        )
    return arr


def generate(kind: str, t: int, r: int | None = None) -> Arrangement | list[SignVector]:
    """Instance factory; 'hypercube' yields a tope list, everything else an Arrangement."""
    if kind == "hypercube":
        return hypercube_topes(t)
    if kind == "rank2_fan":
        return rank2_fan(t)
    if kind == "moment_curve":
        if r is None:
            raise ValueError("moment_curve requires r")
        return moment_curve(t, r)
    if kind == "totally_cyclic_fan":
        return totally_cyclic_fan(t)
    raise ValueError(f"unknown instance kind {kind!r}")
