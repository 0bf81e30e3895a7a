"""Central hyperplane arrangements over exact rationals: simple arrangements
validated on construction, chamber enumeration by deletion-restriction with
certified integer witnesses, and instance generators."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from operator import mul
from typing import Sequence

from .core import DimensionError, SignVector, Violation, _ViolationsError, negate, sign_vector_str


class ArrangementError(_ViolationsError):
    """An arrangement (or candidate arrangement) failed validation."""

    fallback = "invalid arrangement"


@dataclass(frozen=True)
class Arrangement:
    """A simple central arrangement: t hyperplanes in R^dim with exact normals
    of ints and Fractions (elements are 1-based), kept as a tuple of tuples.

    Construction raises ValueError on no normals, DimensionError on mixed
    dimensions and ArrangementError on loops (zero normals), else on
    (anti)parallel pairs, so every instance is simple.  The derived ``rows``
    are the primitive integer rows of the normals (any other coordinate
    raises TypeError); two normals are (anti)parallel exactly when one row
    equals the other (negated).
    """

    normals: tuple[tuple[int | Fraction, ...], ...]
    rows: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        normals = tuple(map(tuple, self.normals))
        if not normals:
            raise ValueError("an arrangement needs at least one normal")
        object.__setattr__(self, "normals", normals)
        if any(len(n) != self.dim for n in normals):
            raise DimensionError(f"every normal must have dimension {self.dim}")
        rows = tuple(primitive_vector(n) for n in normals)
        numbered = list(enumerate(rows, start=1))
        violations = [Violation("loop", (e,), f"normal {e} is the zero vector") for e, r in numbered if not any(r)]
        if not violations:
            for (e, u), (f, v) in combinations(numbered, 2):
                kind = "parallel" if u == v else "antiparallel" if u == negate(v) else None
                if kind:
                    violations.append(Violation(kind, (e, f), f"normals {e} and {f} are {kind}"))
        if violations:
            raise ArrangementError(violations)
        object.__setattr__(self, "rows", rows)

    @property
    def t(self) -> int:
        return len(self.normals)

    @property
    def dim(self) -> int:
        return len(self.normals[0])


def primitive_vector(row: Sequence[int | Fraction]) -> tuple[int, ...]:
    """Scale a vector of ints and Fractions to coprime integers, preserving its direction.

    Rationals become integers here, read off each coordinate's numerator and
    denominator; any other coordinate type (a float, say) raises TypeError."""
    for c in row:
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"coordinates must be ints or Fractions, got {c!r}")
    scale = math.lcm(*[c.denominator for c in row])
    return _primitive([c.numerator * (scale // c.denominator) for c in row])


def _primitive(v: list[int]) -> tuple[int, ...]:
    """The integer vector divided by the gcd of its entries."""
    g = math.gcd(*v)
    return tuple([c // g for c in v]) if g > 1 else tuple(v)


def ccw_half_turn_counts(dirs: Sequence[Sequence]) -> list[int]:
    """For each d in dirs, #{a in dirs : d_x a_y - d_y a_x > 0}: the vectors strictly
    inside the open half-turn counterclockwise of d (parallel and antiparallel
    ones lie on its boundary and do not count)."""
    return [sum(1 for a in dirs if d[0] * a[1] - d[1] * a[0] > 0) for d in dirs]


def enumerate_topes(arr: Arrangement) -> list[SignVector]:
    """All chamber sign vectors, in lexicographic order with '+' before '-'.

    Deletion-restriction (Zaslavsky): the sign prefix grows one hyperplane
    at a time, and a cell of the first k-1 hyperplanes is split by H_k
    exactly when it meets H_k in a chamber of their restriction to H_k, one
    recursive call one dimension lower.  Every cell carries an exact integer
    interior point; at the end each tope is certified by substituting its
    point into every row of ``arr.rows``, and a failure (a bug, not bad
    input) raises RuntimeError.  No feasibility test is run.
    """
    cells = _chambers(arr.rows, arr.dim)
    for sigma, x in cells:
        if any(_dot(a, x) * s <= 0 for a, s in zip(arr.rows, sigma)):
            raise RuntimeError(f"witness {x} does not certify tope {sign_vector_str(sigma)}")
    return [sigma for sigma, _ in cells]


def _dot(a: Sequence[int], x: Sequence[int]) -> int:
    return sum(map(mul, a, x))


def _chambers(rows: Sequence[tuple[int, ...]], dim: int) -> list[tuple[SignVector, tuple[int, ...]]]:
    """Each chamber of the central arrangement of the nonzero primitive integer
    rows in Z^dim, as (sign vector, integer interior point), in the order of
    ``enumerate_topes``.  Rows may repeat up to sign: a repeat copies the sign
    of its first occurrence (negated if antiparallel) and splits nothing.

    The dimension is explicit because it cannot be read off an empty row list."""
    cells: list[tuple[SignVector, tuple[int, ...]]] = [((), (0,) * dim)]
    first: dict[tuple[int, ...], tuple[int, int]] = {}  # row -> (index of its first occurrence, +1 or -1)
    for k, a in enumerate(rows):
        if a in first:
            i, s = first[a]
            cells = [(sigma + (s * sigma[i],), x) for sigma, x in cells]
            continue
        first[a], first[negate(a)] = (k, 1), (k, -1)
        earlier = rows[:k]
        # H_k in the coordinates other than a pivot j: b restricts to
        # sign(a_j) * (a_j * b_l - b_j * a_l) for l != j
        j = next(l for l, c in enumerate(a) if c)
        p = abs(a[j])
        sj = 1 if a[j] > 0 else -1
        others = [l for l in range(dim) if l != j]
        restricted = [_primitive([p * b[l] - sj * b[j] * a[l] for l in others]) for b in earlier]
        splits = dict(_chambers(restricted, dim - 1))
        along = [_dot(b, a) for b in earlier]
        nxt: list[tuple[SignVector, tuple[int, ...]]] = []
        for sigma, x in cells:
            z = splits.get(sigma)
            if z is None:  # the cell misses H_k, so its point's side is the whole cell's
                nxt.append((sigma + ((1 if _dot(a, x) > 0 else -1),), x))
                continue
            # lift z to y in H_k, then step off it by a_k on either side, far
            # enough inside the cell that no earlier row changes sign
            y = [0] * dim
            for l, c in zip(others, z):
                y[l] = p * c
            y[j] = -sj * _dot([a[l] for l in others], z)
            n = 1 + max((abs(ab) // abs(_dot(b, y)) for b, ab in zip(earlier, along)), default=0)
            nxt.append((sigma + (1,), _primitive([n * c + d for c, d in zip(y, a)])))
            nxt.append((sigma + (-1,), _primitive([n * c - d for c, d in zip(y, a)])))
        cells = nxt
    return cells


def hypercube_topes(t: int) -> list[SignVector]:
    """The full tope set {+1,-1}^t in lexicographic order ('+' < '-')."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return list(product((1, -1), repeat=t))


def rank2_fan(t: int) -> Arrangement:
    """Normals (1, e-1): t distinct slopes in the open right half-plane (acyclic)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return Arrangement([(1, e - 1) for e in range(1, t + 1)])


def moment_curve(t: int, r: int) -> Arrangement:
    """Normals (1, e, ..., e^(r-1)); any r of them are linearly independent."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if r < 2 or r > t:
        raise ValueError(f"need 2 <= r <= t, got r={r}, t={t}")
    return Arrangement([tuple(e**i for i in range(r)) for e in range(1, t + 1)])


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
    arr = Arrangement(rows)
    # the least half-turn count is the least open half-plane count (see oracles.check_halfplane_condition)
    if min(ccw_half_turn_counts(arr.rows)) < 2:
        raise ArrangementError(
            [Violation("halfplane", (), "generated fan leaves an open half-plane with fewer than two vectors")]
        )
    return arr

