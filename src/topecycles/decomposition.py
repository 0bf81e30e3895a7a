"""The unique inclusion-minimal subset of cycle vertices summing to a tope,
plus the exhaustive oracle that cross-checks it."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .core import DimensionError, IntVector, SignVector, check_sign_vector, sign_vector_str
from .cycles import SymmetricCycle


class DecompositionError(RuntimeError):
    """A decomposition broke an invariant that holds for every symmetric cycle:
    it signals a bug, not bad input."""


@dataclass(frozen=True)
class Decomposition:
    """tope == sum of members.  coeffs index the first half of the cycle:
    c_i = +1 selects R^i, c_i = -1 selects the antipode R^(i+t), c_i = 0 neither."""

    tope: SignVector
    cycle: SymmetricCycle
    coeffs: tuple[int, ...]
    members: tuple[SignVector, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def decompose(tope: Sequence[int], cycle: SymmetricCycle) -> Decomposition:
    """The unique representation of the tope over the cycle's first half, and
    the member set it selects, in O(t) integer steps.

    In flip order e_1..e_t, vertex R^k reads -R^0 on e_1..e_k and R^0 on the
    rest, so with x_j = T(e_j) * R^0(e_j) the coefficients are
    c_0 = (x_1 + x_t) / 2 and c_j = (x_(j+1) - x_j) / 2 for j = 1..t-1.
    Each lies in {-1, 0, 1}, and the nonzero ones (the members) are odd in
    number.
    """
    T = tuple(tope)
    check_sign_vector(T)
    if len(T) != cycle.t:
        raise DimensionError(f"tope length {len(T)} does not match cycle ground set t={cycle.t}")
    r0 = cycle.vertices[0]
    x = [T[e - 1] * r0[e - 1] for e in cycle.flips]
    coeffs = ((x[0] + x[-1]) // 2,) + tuple((b - a) // 2 for a, b in zip(x, x[1:]))
    idx = sorted(i if c > 0 else i + cycle.t for i, c in enumerate(coeffs) if c)
    return Decomposition(T, cycle, coeffs, tuple(cycle.vertices[i] for i in idx))


@lru_cache(maxsize=8)
def _sums_by_subset(cycle: SymmetricCycle) -> dict[IntVector, list[int]]:
    """Map each achievable coordinate-wise sum to the vertex-subset bitmasks producing it."""
    verts = cycle.vertices
    n = len(verts)
    sums: list[IntVector] = [(0,) * cycle.t] * (1 << n)
    table: dict[IntVector, list[int]] = defaultdict(list)
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
