"""Central hyperplane arrangements over exact rationals: simple arrangements
validated on construction, chamber enumeration by deletion-restriction down
to a closed form in the plane, with certified integer witnesses, and instance
generators."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain, combinations, product, repeat
from operator import add, itemgetter, mul, neg, sub
from typing import Sequence

from .core import DimensionError, SignVector, Violation, _form_columns, _form_texts, _key_form, _signs, _ViolationsError, negate


class ArrangementError(_ViolationsError):
    """An arrangement (or candidate arrangement) failed validation."""


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
        rows = tuple(map(primitive_vector, normals))
        loops = [Violation("loop", (e,), f"normal {e} is the zero vector") for e, r in enumerate(rows, 1) if not any(r)]
        violations = loops or _dependent_pairs(rows)
        if violations:
            raise ArrangementError(violations)
        object.__setattr__(self, "rows", rows)

    @property
    def t(self) -> int:
        return len(self.normals)

    @property
    def dim(self) -> int:
        return len(self.normals[0])


def _dependent_pairs(rows: Sequence[tuple[int, ...]]) -> list[Violation]:
    """The (anti)parallel pairs e < f of nonzero primitive rows, in (e, f) order.

    A row and its negation share one key, the larger of the two, so one dict
    groups the elements by key in O(t) lookups; a pair within a group is
    parallel when the two rows are equal, else antiparallel."""
    # every row negated, in C: the grouper idiom cuts the flat negated entries into rows
    negated = list(zip(*[map(neg, chain.from_iterable(rows))] * len(rows[0])))
    distinct = set(rows)
    if len(distinct) == len(rows) and distinct.isdisjoint(negated):
        return []
    groups: dict[tuple[int, ...], list[tuple[int, bool]]] = {}  # key -> (element, whether its row is the key)
    for e, (r, k) in enumerate(zip(rows, map(max, rows, negated)), 1):
        groups.setdefault(k, []).append((e, r == k))
    pairs = sorted(
        (e, f, "parallel" if a == b else "antiparallel")
        for group in groups.values()
        for (e, a), (f, b) in combinations(group, 2)
    )
    return [Violation(kind, (e, f), f"normals {e} and {f} are {kind}") for e, f, kind in pairs]


def primitive_vector(row: Sequence[int | Fraction]) -> tuple[int, ...]:
    """Scale a vector of ints and Fractions to coprime integers, preserving its direction.

    Rationals become integers here, read off each coordinate's numerator and
    denominator; any other coordinate type (a float, say) raises TypeError.
    A row of ints alone (no bool) is already integer and goes straight to the gcd."""
    if {int}.issuperset(map(type, row)):
        return _primitive(row)
    for c in row:
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"coordinates must be ints or Fractions, got {c!r}")
    scale = math.lcm(*[c.denominator for c in row])
    return _primitive([c.numerator * (scale // c.denominator) for c in row])


def _primitive(v: Sequence[int]) -> tuple[int, ...]:
    """The integer vector divided by the gcd of its entries."""
    g = math.gcd(*v)
    return tuple([c // g for c in v]) if g > 1 else tuple(v)


def _half_turn_counts(dirs: Sequence[Sequence]) -> list[int]:
    """For each d in dirs, #{a in dirs : d_x a_y - d_y a_x > 0}: the vectors strictly
    inside the open half-turn counterclockwise of d (parallel and antiparallel
    ones lie on its boundary and do not count)."""
    return [sum(1 for a in dirs if d[0] * a[1] - d[1] * a[0] > 0) for d in dirs]


def enumerate_topes(arr: Arrangement) -> list[SignVector]:
    """All chamber sign vectors, in lexicographic order with '+' before '-'.

    Deletion-restriction (Zaslavsky) down to the plane: the sign prefix grows
    one hyperplane at a time, and a cell of the first k-1 hyperplanes is split
    by H_k exactly when it meets H_k in a chamber of their restriction to H_k,
    one recursive call one dimension lower; in the plane the chambers are the
    sectors between the sorted lines, read off in closed form (``_planar_chambers``).
    A sign prefix is an int key: element 1 is its top bit and a set bit means
    -, so growing the prefix by one sign is ``(key << 1) | bit``, and the
    sorted keys are the topes in this order.  Every cell carries an exact
    integer interior point x, and at the end each tope sigma is certified by
    checking sigma(e) * a_e.x >= 1 for every row a_e of ``arr.rows``, in one
    bit-sliced pass per row over all chambers at once (``_certify``); a
    failure (a bug, not bad input) raises RuntimeError naming the first
    failing tope.  No feasibility test is run.

    Only the chambers on the + side of hyperplane 1 are built.  The
    arrangement is central, so C is a chamber with interior point x exactly
    when -C is one with interior point -x, and every restriction of a central
    arrangement is central too: the same half is all the recursion needs at
    every level (``_half_chambers``), and the other half is the complements of
    its keys, in reverse order (``_tope_form``), no negated point built.  The
    certificate still checks every chamber against an exact point, the
    negated ones against -x.
    """
    return _signs(_tope_form(arr), arr.t)


def _tope_form(arr: Arrangement) -> bytes:
    """The codec's joined form of the certified topes ``enumerate_topes`` lists, in its order: the
    keys of the half, sorted, then their complements in reverse, read into the form once, and the
    certificate and every output cut from it.  Above the plane ``_half_chambers`` lists the cells in
    key order already, so the sort is one pass over them."""
    half = sorted(_half_chambers(arr.rows, arr.dim), key=itemgetter(0))
    keys = [key for key, _ in half]
    everyone = (1 << arr.t) - 1
    form = _key_form(keys + [key ^ everyone for key in reversed(keys)], arr.t)
    _certify(arr.rows, form, [x for _, x in half])
    return form


_GUARD_DIGIT = bytes(49 if b & 128 else 48 for b in range(256))  # a byte's top bit as the digit "0" or "1"


def _certify(rows: Sequence[tuple[int, ...]], form: bytes, half_points: Sequence[tuple[int, ...]]) -> None:
    """Raise RuntimeError naming the first tope of the joined form of n = 2m topes, with its point, in
    list order, whose point is not strictly on its sign's side of every row, or return.  Tope k < m
    has the point x_k of half_points, and tope n-1-k its negation -x_k.

    The check is bit-sliced, in exact integer arithmetic.  Coordinate i of the m half points is one
    big integer X_i with one w-byte slot of W = 8w bits per point, holding x_i + M_i, where M_i is
    the largest |x_i|, so no slot is negative.  For a row a, S = sum_i a_i X_i holds a.x + c in each
    slot, c = sum_i a_i M_i.  Every |a.x| is at most B - 1, with the bound B = max_a sum_i |a_i| M_i
    + 1, and W is the least multiple of 8 with 2^(W-1) > B.  Then S + (2^(W-1) - 1 - c) * ones holds
    2^(W-1) + a.x - 1 in every slot, which lies in [0, 2^W): no slot borrows from or carries into
    its neighbour, and a slot's top (guard) bit is set iff a.x >= 1.  Subtracted from
    (2^W - 2) * ones it leaves 2^(W-1) - a.x - 1, whose guard bit is set iff a.x <= -1.  Each row's
    guard bits are read at once, as the top bits of the slots' top bytes: P (a.x_k >= 1) and Q
    (a.x_k <= -1), slot m-1 first.  Since a.(-x) = -a.x exactly, Q is where -x_k is on the + side
    and P where it is on the - side, so the m slots decide all n topes: the n-bit words are Q
    reversed then P, and P reversed then Q.  They are compared with the row's column of minus
    signs, cut from the form, and the lowest bit of the rows' ORed mismatches is the first bad tope."""
    m = len(half_points)
    columns = list(zip(*half_points))
    bounds = [max(map(abs, column)) for column in columns]
    w = (max(sum(map(mul, map(abs, a), bounds)) for a in rows) + 1).bit_length() // 8 + 1  # least with 2^(8w-1) > B
    slots = [
        int.from_bytes(b"".join(map(int.to_bytes, map(add, column, repeat(bound)), repeat(w), repeat("little"))), "little")
        for column, bound in zip(columns, bounds)
    ]
    ones = int.from_bytes(b"\1".ljust(w, b"\0") * m, "little")
    guard, size, everyone = 1 << (8 * w - 1), m * w, (1 << 2 * m) - 1
    mirror = (2 * guard - 2) * ones  # 2^W - 2 in every slot
    bad = 0
    for a, minus in zip(rows, _form_columns(form, len(rows))):
        plus_side = sum(map(mul, a, slots)) + (guard - 1 - sum(map(mul, a, bounds))) * ones  # 2^(W-1) + a.x - 1
        p, q = _guard_digits(plus_side, size, w), _guard_digits(mirror - plus_side, size, w)
        plus_ok, minus_ok = int(q[::-1] + p, 2), int(p[::-1] + q, 2)
        bad |= (plus_ok ^ minus ^ everyone) | (minus_ok ^ minus)
    if bad:
        k = (bad & -bad).bit_length() - 1
        x = half_points[k] if k < m else tuple(map(neg, half_points[2 * m - 1 - k]))
        raise RuntimeError(f"witness {x} does not certify tope {_form_texts(form, len(rows))[k]}")


def _guard_digits(v: int, size: int, w: int) -> bytes:
    """The top bit of each w-byte slot of the size-byte integer v as a binary digit, the top slot first."""
    return v.to_bytes(size, "big")[::w].translate(_GUARD_DIGIT)


def _half_chambers(rows: Sequence[tuple[int, ...]], dim: int) -> list[tuple[int, tuple[int, ...]]]:
    """The chambers on the + side of row 1 of the central arrangement of at
    least one nonzero primitive integer row in Z^dim, as (key, integer
    interior point), in no promised order.  The key is the sign vector over
    the rows: row 1 is its top bit (clear on this side) and a set bit means
    -.  Rows may repeat up to sign: a repeat takes the sign of its first
    occurrence (negated if antiparallel) and splits nothing.  The
    arrangement is central, so x is inside a chamber C exactly when -x is
    inside -C: these chambers and their antipodes are all of them.

    In dimension 2 the chambers come in closed form (``_planar_chambers``), so
    the recursion stops there; in every other dimension (above 2, or the 1 of
    a one-dimensional arrangement) the sign prefix grows one row at a time as
    ``enumerate_topes`` describes.  Row 1 makes one cell, its + side,
    witnessed by the row itself.  Every restriction of a central arrangement
    is central again, and a cell's sign on row 1 is its chamber's sign on the
    restricted row 1 wherever it meets H_k, so the cells that H_k splits are
    the chambers on the + side of the restricted row 1: the same half, one
    dimension lower."""
    if dim == 2:
        return _planar_chambers(rows)
    cells: list[tuple[int, tuple[int, ...]]] = [(0, rows[0])]
    # row -> (index of its first occurrence, 0 or 1 to flip)
    first: dict[tuple[int, ...], tuple[int, int]] = {rows[0]: (0, 0), negate(rows[0]): (0, 1)}
    for k in range(1, len(rows)):
        a = rows[k]
        if a in first:
            i, flip = first[a]
            shift = k - 1 - i  # the bit of row i in a k-row key
            cells = [((key << 1) | (((key >> shift) & 1) ^ flip), x) for key, x in cells]
            continue
        first[a], first[negate(a)] = (k, 0), (k, 1)
        earlier = rows[:k]
        # H_k in the coordinates other than a pivot j: b restricts to
        # sign(a_j) * (a_j * b_l - b_j * a_l) for l != j
        j = next(l for l, c in enumerate(a) if c)
        p = abs(a[j])
        sj = 1 if a[j] > 0 else -1
        others = [l for l in range(dim) if l != j]
        restricted = [_primitive([p * b[l] - sj * b[j] * a[l] for l in others]) for b in earlier]
        splits = dict(_half_chambers(restricted, dim - 1))
        # each lifted y below is strictly inside its restricted chamber, so every earlier b.y is a nonzero
        # integer and n > |b.a| keeps n*y +/- a on y's side of b (a looser bound than per cell: bigger witnesses)
        n = 1 + max(abs(sum(map(mul, b, a))) for b in earlier)
        lift, pivot, a_others = n * p, -n * sj, [a[l] for l in others]
        nxt: list[tuple[int, tuple[int, ...]]] = []
        for key, x in cells:
            z = splits.get(key)
            key <<= 1
            if z is None:  # the cell misses H_k, so its point's side is the whole cell's
                nxt.append((key | (sum(map(mul, a, x)) <= 0), x))
                continue
            # lift z to y in H_k (n*y: p*z in the other coordinates, -sj*a.z at the pivot), then step
            # off it by a_k on either side, far enough inside the cell that no earlier row changes sign;
            # no gcd is divided out: on moment curves up to (14, 6) the largest witness has as many bits with it
            ny = [lift * c for c in z]
            ny.insert(j, pivot * sum(map(mul, a_others, z)))
            nxt.append((key, tuple(map(add, ny, a))))
            nxt.append((key | 1, tuple(map(sub, ny, a))))
        cells = nxt
    return cells


def _planar_chambers(rows: Sequence[tuple[int, ...]]) -> list[tuple[int, tuple[int, ...]]]:
    """The chambers on the + side of row 1 of at least one nonzero primitive
    row in Z^2, rows that may repeat up to sign, in counterclockwise order:
    the sectors between the distinct lines, keyed as in ``_half_chambers``.

    Each line's direction is taken in the half-open upper half-plane
    (y > 0, or y = 0 < x), and the directions are sorted by the exact sign of
    the integer cross product d_x e_y - d_y e_x.  With their negations they
    are the 2m rays in angular order; consecutive rays are less than a half
    turn apart, so the sum of a sector's two boundary rays is inside it.  Row
    1 = (a_0, a_1) is positive on the half turn counterclockwise of its ray
    (a_1, -a_0), which holds the m sectors after that ray; their antipodes,
    the other half, are the negated sums.  Crossing a ray flips the signs of
    the rows on its line and no other: one XOR of the key with the line's
    bits.  With one line the chamber is witnessed by row 1 itself."""
    top = len(rows) - 1
    lines: dict[tuple[int, int], int] = {}  # direction -> the key bits of the rows on its line
    for k, (a0, a1) in enumerate(rows):
        d = (-a1, a0) if a0 > 0 or a0 == 0 > a1 else (a1, -a0)
        lines[d] = lines.get(d, 0) | 1 << (top - k)
    dirs = sorted(lines, key=cmp_to_key(lambda d, e: d[1] * e[0] - d[0] * e[1]))
    m = len(dirs)
    a0, a1 = rows[0]
    rays = dirs + [(-x, -y) for x, y in dirs]
    s = rays.index((a1, -a0))  # row 1 is positive on the half turn counterclockwise of this ray
    rays = rays[s:] + rays[:s]
    # with one line its two rays would sum to 0
    witnesses = [(x + u, y + v) for (x, y), (u, v) in zip(rays[:m], rays[1 : m + 1])] if m > 1 else [(a0, a1)]
    # the sector after ray s + k is entered by crossing ray s + k; start in the sector after ray s
    w0, w1 = witnesses[0]
    key = int("".join(["0" if b0 * w0 + b1 * w1 > 0 else "1" for b0, b1 in rows]), 2)
    cells = [(key, witnesses[0])]
    for k in range(1, m):
        key ^= lines[dirs[(s + k) % m]]
        cells.append((key, witnesses[k]))
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
    if min(_half_turn_counts(arr.rows)) < 2:
        raise ArrangementError(
            [Violation("halfplane", (), "generated fan leaves an open half-plane with fewer than two vectors")]
        )
    return arr

