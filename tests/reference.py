"""Reference implementations that the tests compare the package against,
kept out of the package: the decomposition by enumerating all 2^(2t) vertex
subsets, the decomposition of all-plus by maximal positive parts, rank-2
feasibility by the half-turn count of the distinct directions, strict
feasibility in any dimension by Fourier-Motzkin elimination, primitive rows
through Fraction arithmetic, (anti)parallel normals by 2x2 minors, the
chamber count of a rank-3 arrangement by Zaslavsky's theorem, the
Dehn-Sommerville row recurrence summed row by row, the left side of the
Dehn-Sommerville polynomial identity expanded by binomials, long f-vectors
by counting listed faces, the faces of a complex listed from its facets, and
the depth-first search for a symmetric cycle by recursion."""

from __future__ import annotations

import math
import random
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from topecycles.arrangements import ccw_half_turn_counts, primitive_vector
from topecycles.core import (
    DimensionError,
    SignVector,
    Violation,
    check_sign_vector,
    flip,
    negate,
    sign_vector_str,
)
from topecycles.cycles import SymmetricCycle


@lru_cache(maxsize=8)
def _sums_by_subset(cycle: SymmetricCycle) -> dict[tuple[int, ...], list[int]]:
    """Map each achievable coordinate-wise sum to the vertex-subset bitmasks producing it."""
    verts = cycle.vertices
    n = len(verts)
    sums: list[tuple[int, ...]] = [(0,) * cycle.t] * (1 << n)
    table: dict[tuple[int, ...], list[int]] = defaultdict(list)
    table[sums[0]].append(0)
    for m in range(1, 1 << n):
        low = m & -m
        v = verts[low.bit_length() - 1]
        s = tuple(p + x for p, x in zip(sums[m ^ low], v))
        sums[m] = s
        table[s].append(m)
    return dict(table)


def brute_force_decompose(
    tope: Sequence[int], cycle: SymmetricCycle, max_t: int = 8
) -> list[tuple[tuple[SignVector, ...], bool]]:
    """Every subset of the cycle's vertex set summing to the tope, each flagged
    for inclusion-minimality against the other hits.

    Exhausts all 2^(2t) subsets, so it refuses past the guard: this is a
    cross-checking oracle, not a production path.
    """
    T = tuple(tope)
    check_sign_vector(T, cycle.t)
    if cycle.t > max_t:
        raise ValueError(f"t={cycle.t} exceeds the oracle guard {max_t} (2^(2t) subsets)")
    masks = _sums_by_subset(cycle).get(T, [])
    results = []
    for m in masks:
        minimal = not any(o != m and o & m == o for o in masks)
        members = tuple(v for i, v in enumerate(cycle.vertices) if m >> i & 1)
        results.append((members, minimal))
    results.sort(key=lambda r: (len(r[0]), [sign_vector_str(v) for v in r[0]]))
    return results


def positive_part(v: Sequence[int]) -> frozenset[int]:
    """Elements where the vector is +1."""
    return frozenset(e for e, x in enumerate(v, start=1) if x > 0)


def maxpos_vertices(cycle: SymmetricCycle) -> list[SignVector]:
    """Vertices whose positive parts are inclusion-maximal among the cycle's vertices, in cycle order."""
    parts = [positive_part(v) for v in cycle.vertices]
    return [cycle.vertices[i] for i, p in enumerate(parts) if not any(p < q for q in parts)]


def rank2_feasible(vectors: Sequence[Sequence]) -> bool:
    """Do all the planar vectors fit strictly inside some open half-plane?

    They do exactly when some distinct primitive direction, the most
    clockwise one, sees every other direction inside its open half-turn.
    """
    dirs = set()
    for v in vectors:
        if len(v) != 2:
            raise DimensionError("rank-2 test needs 2-dimensional vectors")
        d = primitive_vector(v)
        if not any(d):
            raise ValueError("zero vector in rank-2 feasibility test")
        dirs.add(d)
    return len(dirs) <= 1 or len(dirs) - 1 in ccw_half_turn_counts(list(dirs))


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


def primitive_vector_by_fractions(row: Sequence) -> tuple[int, ...]:
    """Coprime integers with the row's direction, computed over Fractions."""
    fr = [Fraction(c) for c in row]
    if not any(fr):
        return (0,) * len(fr)
    scale = math.lcm(*(c.denominator for c in fr))
    ints = [int(c * scale) for c in fr]
    g = math.gcd(*ints)
    return tuple(c // g for c in ints)


def _dependent(u: Sequence, v: Sequence) -> bool:
    return all(u[i] * v[j] == u[j] * v[i] for i in range(len(u)) for j in range(i + 1, len(u)))


def validate_simple_by_minors(normals: Sequence[Sequence]) -> list[Violation]:
    """The loops, else the (anti)parallel pairs in (e, f) order: two nonzero
    normals are dependent when every 2x2 minor vanishes, and parallel when
    their first nonzero coordinates have the same sign."""
    out = [Violation("loop", (e,), f"normal {e} is the zero vector") for e, n in enumerate(normals, start=1) if not any(n)]
    if out:
        return out
    for (e, u), (f, v) in combinations(enumerate(normals, start=1), 2):
        if _dependent(u, v):
            k = next(i for i, c in enumerate(u) if c)
            kind = "parallel" if (u[k] > 0) == (v[k] > 0) else "antiparallel"
            out.append(Violation(kind, (e, f), f"normals {e} and {f} are {kind}"))
    return out


def zaslavsky_rank3_chambers(normals: Sequence[Sequence[int]]) -> int:
    """Chambers of a simple central arrangement of integer normals in R^3:
    2 + 2 * sum over the distinct lines L = a_e x a_f of (m_L - 1), where m_L
    counts the normals orthogonal to L (Zaslavsky 1975)."""
    lines = set()
    for (a1, a2, a3), (b1, b2, b3) in combinations(normals, 2):
        line = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
        g = math.gcd(*line)
        if next(c for c in line if c) < 0:
            g = -g
        lines.add(tuple(c // g for c in line))
    return 2 + 2 * sum(sum(1 for a in normals if sum(x * y for x, y in zip(a, L)) == 0) - 1 for L in lines)


def check_recurrence(f: Sequence[int]) -> dict[int, bool]:
    """Row recurrence for each 3 <= j <= t-2, where t = len(f) - 1:

        C(t,j) - f_j  ==  - sum_{i=3..j} (-1)^i C(t-i, j-i) (C(t,i) - f_i).

    Empty (vacuously true) when t < 5.
    """
    t = len(f) - 1
    out: dict[int, bool] = {}
    for j in range(3, t - 1):
        lhs = comb(t, j) - f[j]
        rhs = -sum((-1) ** i * comb(t - i, j - i) * (comb(t, i) - f[i]) for i in range(3, j + 1))
        out[j] = lhs == rhs
    return out


def ds_polynomial_sides_by_binomials(f: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Degree-ascending coefficients of both sides of the polynomial identity

        sum_{j=3..t} (C(t,j) - f_j) (x-1)^(t-j)
            ==  - sum_{j=3..t} (-1)^j (C(t,j) - f_j) x^(t-j),

    each power of (x-1) expanded by the binomial theorem."""
    t = len(f) - 1
    width = max(t - 2, 0)
    lhs = [0] * width
    rhs = [0] * width
    for j in range(3, t + 1):
        d = comb(t, j) - f[j]
        n = t - j
        for i in range(n + 1):
            lhs[i] += d * comb(n, i) * (-1) ** (n - i)
        rhs[n] -= d * (-1) ** j
    return tuple(lhs), tuple(rhs)


def count_faces_by_size(face_masks: Iterable[int], t: int) -> tuple[int, ...]:
    """Face counts by cardinality, f_0..f_t, over a listed family of face bitmasks."""
    f = [0] * (t + 1)
    for m in face_masks:
        f[m.bit_count()] += 1
    return tuple(f)


def downward_closure(facets: Iterable[int]) -> set[int]:
    """Every submask of every facet, the empty face included; (s - 1) & f is
    the next smaller submask of f after s."""
    out = {0}
    for f in facets:
        s = f
        while s:
            out.add(s)
            s = (s - 1) & f
    return out


def find_symmetric_cycle_recursively(
    topes: Iterable[Sequence[int]], start: Sequence[int] | None = None, seed: int = 0
) -> SymmetricCycle | None:
    """The depth-first search for a symmetric cycle with one recursive call
    per step, trying elements in the seed's shuffled order; its depth is
    bounded by the recursion limit.  Takes a negation-closed tope set."""
    members = {tuple(v) for v in topes}
    t = len(next(iter(members)))
    order = list(range(1, t + 1))
    random.Random(seed).shuffle(order)
    starts = [tuple(start)] if start is not None else sorted(members, reverse=True)
    for w0 in starts:
        path = [w0]
        if _extend_path(path, set(), order, members, t):
            half = path[:t]
            return SymmetricCycle(half + [negate(v) for v in half])
    return None


def _extend_path(path: list[SignVector], used: set[int], order: list[int], members: set[SignVector], t: int) -> bool:
    if len(used) == t:
        return True
    cur = path[-1]
    for e in order:
        if e in used:
            continue
        nxt = flip(cur, e)
        if nxt in members:
            path.append(nxt)
            used.add(e)
            if _extend_path(path, used, order, members, t):
                return True
            path.pop()
            used.remove(e)
    return False
