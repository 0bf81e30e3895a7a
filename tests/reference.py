"""Reference implementations that the tests compare the package against,
kept out of the package: the decomposition by enumerating all 2^(2t) vertex
subsets, the decomposition of all-plus by maximal positive parts, rank-2
feasibility by the half-turn count of the distinct directions, the half-turn
counts of planar vectors by one determinant per unordered pair, strict
feasibility in any dimension by Fourier-Motzkin elimination, the chambers of
an arrangement by deletion-restriction down to dimension 0, the chamber
certificate by substituting each witness into every row, primitive rows
through Fraction arithmetic, (anti)parallel normals by 2x2 minors, the
chamber count of a rank-3 arrangement by Zaslavsky's theorem, the
Dehn-Sommerville row recurrence summed row by row, both sides of the
Dehn-Sommerville polynomial identity expanded by binomials, long f-vectors
by counting listed faces and by summing binomials, the faces of a complex
listed from its facets, the depth-first search for a symmetric cycle by
recursion, the symmetric-cycle checks by separation sets of sign tuples, and
the decomposition census read one tope mask at a time.
Also here are the sign-vector helpers only tests use: ``all_plus``, ``flip``,
``separation_set`` and ``text_mask``."""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import itemgetter, mul
from typing import Iterable, Sequence

from topecycles.arrangements import _primitive, primitive_vector
from topecycles.core import (
    DimensionError,
    SignVector,
    Violation,
    _mask_text,
    _minus_mask,
    _minus_masks,
    check_sign_vector,
    negate,
    parse_sign_vector,
    sign_vector_str,
)
from topecycles.cycles import SymmetricCycle, symmetric_cycle
from topecycles.decomposition import _checked_tope
from topecycles.oracles import CensusResult


def all_plus(t: int) -> SignVector:
    if t < 1:
        raise ValueError("t must be positive")
    return (1,) * t


def text_mask(text: str) -> int:
    """The minus mask of a '+'/'-' string; raises as ``parse_sign_vector`` does."""
    return _minus_mask(parse_sign_vector(text), len(text))


def flip(v: Sequence[int], e: int) -> SignVector:
    """Negate element e (1-based), keeping all others."""
    if not 1 <= e <= len(v):
        raise ValueError(f"element {e} outside 1..{len(v)}")
    return tuple(-x if i == e - 1 else x for i, x in enumerate(v))


def separation_set(a: Sequence[int], b: Sequence[int]) -> frozenset[int]:
    """Elements on which two topes disagree."""
    if len(a) != len(b):
        raise DimensionError(f"length mismatch: {len(a)} vs {len(b)}")
    return frozenset(e for e, (x, y) in enumerate(zip(a, b), start=1) if x != y)


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
    return len(dirs) <= 1 or len(dirs) - 1 in half_turn_counts_by_pairs(list(dirs))


def half_turn_counts_by_pairs(vectors: Sequence[Sequence]) -> list[int]:
    """For each planar vector d, how many of the vectors lie strictly inside the open half-turn
    counterclockwise of d.  Each unordered pair is compared once: the sign of its 2x2 determinant says
    which of the two sees the other, and a zero one (parallel, antiparallel or equal) counts for neither."""
    counts = [0] * len(vectors)
    for (i, (dx, dy)), (k, (ax, ay)) in combinations(enumerate(vectors), 2):
        det = dx * ay - dy * ax
        if det > 0:
            counts[i] += 1
        elif det < 0:
            counts[k] += 1
    return counts


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


def chambers_by_restriction(rows: Sequence[tuple[int, ...]], dim: int) -> list[tuple[SignVector, tuple[int, ...]]]:
    """Each chamber of the central arrangement of the nonzero primitive integer
    rows in Z^dim, as (sign vector, integer interior point), in lexicographic
    order with '+' before '-'.  Rows may repeat up to sign: a repeat copies
    the sign of its first occurrence (negated if antiparallel) and splits
    nothing.

    Deletion-restriction all the way down to dimension 0: the package's own
    recursion before it stopped at the plane's closed form.  The dimension is
    explicit because it cannot be read off an empty row list."""
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
        splits = dict(chambers_by_restriction(restricted, dim - 1))
        # each lifted y below is strictly inside its restricted chamber, so every earlier b.y is a nonzero
        # integer and n > |b.a| keeps n*y +/- a on y's side of b (a looser bound than per cell: bigger witnesses)
        n = 1 + max((abs(_dot(b, a)) for b in earlier), default=0)
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
            nxt.append((sigma + (1,), _primitive([n * c + d for c, d in zip(y, a)])))
            nxt.append((sigma + (-1,), _primitive([n * c - d for c, d in zip(y, a)])))
        cells = nxt
    return cells


def _dot(a: Sequence[int], x: Sequence[int]) -> int:
    return sum(map(mul, a, x))


def certify_by_substitution(rows: Sequence[tuple[int, ...]], cells: Sequence[tuple[SignVector, tuple[int, ...]]]) -> None:
    """Raise RuntimeError naming the first cell (sigma, x), in list order, with sigma(e) * a_e.x <= 0
    for some row a_e: one dot product per cell and row, the package's certificate before it read
    all cells at once."""
    for sigma, x in cells:
        dots = [_dot(a, x) for a in rows]
        if min(map(mul, dots, sigma)) <= 0:
            raise RuntimeError(f"witness {x} does not certify tope {sign_vector_str(sigma)}")


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


def face_counts_by_binomials(ks: Iterable[int], t: int) -> tuple[int, ...]:
    """(1, f_1, ..., f_t) with f_m = sum_k C(k, m - 1), summed term by term."""
    f = [1] + [0] * t
    for k, n in Counter(ks).items():
        for i in range(k + 1):
            f[i + 1] += n * comb(k, i)
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


def cycle_violations_by_separation_sets(vertices: Iterable[Sequence[int]]) -> list[Violation]:
    """The violations ``symmetric_cycle(vertices)`` reports, empty for a
    symmetric cycle, found on the sign tuples: vertices compared as tuples,
    each step's separation set, and each antipode against the negated
    vertex."""
    verts = tuple(map(tuple, vertices))
    n = len(verts)
    if n < 4 or n % 2:
        return [Violation("shape", (), f"vertex count {n} is not an even number >= 4")]
    t = n // 2
    for k, v in enumerate(verts):
        if len(v) != t or not {1, -1}.issuperset(v):
            return [Violation("shape", (k,), f"vertex {k} is not a +/-1 vector of length t={t}")]
    out: list[Violation] = []
    seen: dict[SignVector, int] = {}
    for k, v in enumerate(verts):
        if v in seen:
            out.append(Violation("distinct", (seen[v], k), f"vertices {seen[v]} and {k} coincide"))
        else:
            seen[v] = k
    steps = [separation_set(verts[k], verts[(k + 1) % n]) for k in range(n)]
    adjacency = [
        Violation("adjacency", (k,), f"step {k} -> {(k + 1) % n} does not flip exactly one element")
        for k, step in enumerate(steps)
        if len(step) != 1
    ]
    out += adjacency
    for k in range(t):
        if verts[k + t] != negate(verts[k]):
            out.append(Violation("antipodal", (k,), f"antipodal symmetry fails at k={k}"))
    if not adjacency and sorted(e for (e,) in steps[:t]) != list(range(1, t + 1)):
        out.append(Violation("flip_permutation", (), "first-half flips are not a permutation of the ground set"))
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
            return symmetric_cycle(half + [negate(v) for v in half])
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


def census_by_tope_masks(
    topes: Iterable[Sequence[int]],
    cycle: SymmetricCycle,
    list_topes: bool = False,
) -> CensusResult:
    """The decomposition census read off one integer per tope, one interpreted step each.

    A tope's integer is the minus mask of its flip-order signs x_j = T(e_j) * R^0(e_j): bit j-1 is
    set iff x_j = -1.  |Q| counts x's sign changes: one where x_1 = x_t and one per j with
    x_(j+1) != x_j.  Topes are checked in the order given, as ``census`` checks them, and each
    listed class is in lexicographic order, '+' before '-' (descending tuples)."""
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
    r0 = text_mask("".join(order(_mask_text(cycle.masks[0], t))))  # R^0's minus mask in flip order
    low = (1 << (t - 1)) - 1
    sizes = [(((x := m ^ r0) ^ (x >> 1)) & low).bit_count() + (not (x ^ (x >> (t - 1))) & 1) for m in masks]
    listed = None
    if list_topes:
        by_size: dict[int, list[SignVector]] = {}
        for size, tope in zip(sizes, unique):
            by_size.setdefault(size, []).append(tope)
        listed = {j: sorted(by_size[j], reverse=True) for j in sorted(by_size)}
    return CensusResult(t, dict(sorted(Counter(sizes).items())), listed)
