"""Central hyperplane arrangements over exact rationals: validation, strict
feasibility, chamber enumeration, and instance generators."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

from .core import DimensionError, SignVector, Violation

RationalVector = tuple[Fraction, ...]


class ArrangementError(ValueError):
    """An arrangement (or candidate arrangement) failed validation."""

    def __init__(self, violations: Sequence[Violation]):
        super().__init__("; ".join(v.detail for v in violations) or "invalid arrangement")
        self.violations = list(violations)


@dataclass(frozen=True)
class Arrangement:
    """t central hyperplanes in R^dim given by exact rational normals (elements are 1-based)."""

    t: int
    dim: int
    normals: tuple[RationalVector, ...]

    def __post_init__(self):
        if self.t != len(self.normals):
            raise DimensionError(f"t={self.t} but {len(self.normals)} normals given")
        if any(len(n) != self.dim for n in self.normals):
            raise DimensionError(f"every normal must have dimension {self.dim}")


def make_arrangement(rows: Iterable[Sequence]) -> Arrangement:
    normals = tuple(tuple(Fraction(c) for c in row) for row in rows)
    if not normals:
        raise ValueError("an arrangement needs at least one normal")
    return Arrangement(len(normals), len(normals[0]), normals)


def validate_simple(arr: Arrangement) -> list[Violation]:
    """Check for loops (zero normals) and (anti)parallel pairs; empty list means ok."""
    out = []
    for e, n in enumerate(arr.normals, start=1):
        if not any(n):
            out.append(Violation("loop", (e,), f"normal {e} is the zero vector"))
    if out:
        return out
    for e in range(arr.t):
        for f in range(e + 1, arr.t):
            u, v = arr.normals[e], arr.normals[f]
            if _dependent(u, v):
                kind = "parallel" if _same_direction(u, v) else "antiparallel"
                out.append(Violation(kind, (e + 1, f + 1), f"normals {e + 1} and {f + 1} are {kind}"))
    return out


def _dependent(u: RationalVector, v: RationalVector) -> bool:
    return all(u[i] * v[j] == u[j] * v[i] for i in range(len(u)) for j in range(i + 1, len(u)))


def _same_direction(u: RationalVector, v: RationalVector) -> bool:
    k = next(i for i, c in enumerate(u) if c)
    return (u[k] > 0) == (v[k] > 0)


def primitive_vector(row: Sequence) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, preserving its direction."""
    fr = [Fraction(c) for c in row]
    if not any(fr):
        return (0,) * len(fr)
    scale = math.lcm(*(c.denominator for c in fr))
    ints = [int(c * scale) for c in fr]
    g = math.gcd(*ints)
    return tuple(c // g for c in ints)


def strict_feasible(vectors: Sequence[Sequence], signs: Sequence[int] | None = None) -> bool:
    """Decide whether some x satisfies sign_e * <a_e, x> > 0 for every e.

    Exact Fourier-Motzkin elimination on the homogeneous strict system: each
    round eliminates the leading coordinate by combining opposite-sign rows
    with positive multipliers (which preserves strictness), and an all-zero
    derived row reads 0 > 0 and certifies infeasibility.  An emptied system
    is feasible; the empty collection is vacuously feasible.
    """
    if signs is not None and len(signs) != len(vectors):
        raise DimensionError(f"{len(signs)} signs for {len(vectors)} vectors")
    work: set[tuple[int, ...]] = set()
    width = None
    for i, v in enumerate(vectors):
        if width is None:
            width = len(v)
        elif len(v) != width:
            raise DimensionError("vectors of mixed dimension")
        s = 1 if signs is None else signs[i]
        row = primitive_vector([s * Fraction(c) for c in v])
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


def _cross2(u: Sequence, v: Sequence):
    return u[0] * v[1] - u[1] * v[0]


def ccw_half_turn_counts(dirs: Sequence[Sequence]) -> list[int]:
    """For each d in dirs, #{a in dirs : d_x a_y - d_y a_x > 0}: the vectors strictly
    inside the open half-turn counterclockwise of d (parallel and antiparallel
    ones lie on its boundary and do not count)."""
    return [sum(1 for a in dirs if _cross2(d, a) > 0) for d in dirs]


def enumerate_topes(arr: Arrangement) -> list[SignVector]:
    """All chamber sign vectors, in lexicographic order with '+' before '-'.

    Incremental sign-prefix tree: a prefix survives iff the strict subsystem
    of its first k hyperplanes is feasible, so infeasible subtrees are pruned
    wholesale instead of scanning all 2^t sign vectors.
    """
    violations = validate_simple(arr)
    if violations:
        raise ArrangementError(violations)
    topes: list[SignVector] = [()]
    for k in range(arr.t):
        topes = [T + (s,) for T in topes for s in (1, -1) if strict_feasible(arr.normals[: k + 1], T + (s,))]
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
    rounding is only a construction heuristic.  Simplicity and the
    two-per-half-plane condition are then verified exactly, and failure
    raises instead of returning an unusable instance.
    """
    if t < 5:
        raise ValueError("t must be >= 5")
    radius = 100 * t
    rows = []
    for k in range(t):
        theta = 2 * math.pi * k / t + math.pi * k / (4 * t * t)
        rows.append((round(radius * math.cos(theta)), round(radius * math.sin(theta))))
    arr = make_arrangement(rows)
    violations = validate_simple(arr)
    if violations:
        raise ArrangementError(violations)
    from .oracles import check_halfplane_condition  # oracles imports this module

    result = check_halfplane_condition(arr.normals)
    if not result.holds:
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
