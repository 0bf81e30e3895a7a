"""Reference implementations that the tests compare the package against,
kept out of the package: the decomposition by enumerating all 2^(2t) vertex
subsets, the decomposition of all-plus by maximal positive parts, and rank-2
feasibility by the half-turn count of the distinct directions."""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from typing import Sequence

from topecycles.arrangements import ccw_half_turn_counts, primitive_vector
from topecycles.core import DimensionError, SignVector, check_sign_vector, sign_vector_str
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
