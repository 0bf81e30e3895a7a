"""Symmetric cycles in tope graphs: validation, canonical construction,
depth-first search, and normal form."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .core import (
    SignVector,
    Violation,
    _ViolationsError,
    all_plus,
    check_sign_vector,
    flip,
    negate,
    separation_set,
    sign_vector_str,
)


class CycleError(_ViolationsError):
    """A vertex sequence violates the symmetric-cycle invariants."""

    fallback = "invalid cycle"


@dataclass(frozen=True)
class SymmetricCycle:
    """2t topes R^0..R^(2t-1): consecutive steps flip one element and R^(k+t) = -R^k.

    Built from the vertices alone, kept as a tuple of tuples.  Construction
    checks every invariant of ``validate_cycle`` (except tope-set membership,
    which needs a tope set), raising CycleError on any violation, so every
    instance is a genuine symmetric cycle.  Derived are ``t``, half the vertex
    count, and the flip order ``flips`` = e_1..e_t: step k (R^(k-1) -> R^k)
    flips element e_k, a 1-based ground-set element.
    """

    vertices: tuple[SignVector, ...]
    t: int = field(init=False, repr=False, compare=False)
    flips: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        verts = tuple(map(tuple, self.vertices))
        violations, flips = _check_invariants(verts)
        if violations:
            raise CycleError(violations)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "t", len(verts) // 2)
        object.__setattr__(self, "flips", flips)

    def __iter__(self):
        return iter(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)


def validate_cycle(vertices: Iterable[Sequence[int]], tope_set: Iterable[Sequence[int]] | None = None) -> list[Violation]:
    """Check every symmetric-cycle invariant; an empty list means valid.

    Checks run in a fixed order (shape, distinctness, adjacency, antipodal
    symmetry, flip permutation, optional membership), so the first entry of
    the report names the first violated invariant and its index.
    """
    verts = [tuple(v) for v in vertices]
    out, _ = _check_invariants(verts)
    if tope_set is not None and not (out and out[0].kind == "shape"):
        members = {tuple(v) for v in tope_set}
        out += [
            Violation("membership", (k,), f"vertex {k} ({sign_vector_str(v)}) is not in the tope set")
            for k, v in enumerate(verts)
            if v not in members
        ]
    return out


def _check_invariants(verts: Sequence[SignVector]) -> tuple[list[Violation], tuple[int, ...]]:
    """The violated invariants in report order, and the flip order e_1..e_t,
    which is meaningful only when no invariant is violated.

    Each step's separation set is computed once; adjacency, the flip
    permutation and the flip order are all read off it."""
    n = len(verts)
    if n < 4 or n % 2:
        return [Violation("shape", (), f"vertex count {n} is not an even number >= 4")], ()
    t = n // 2
    for k, v in enumerate(verts):
        if len(v) != t or any(x not in (1, -1) for x in v):
            return [Violation("shape", (k,), f"vertex {k} is not a +/-1 vector of length t={t}")], ()
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
    flips: tuple[int, ...] = ()
    if not adjacency:
        flips = tuple(e for (e,) in steps[:t])
        if sorted(flips) != list(range(1, t + 1)):
            out.append(Violation("flip_permutation", (), "first-half flips are not a permutation of the ground set"))
    return out, flips


def symmetric_cycle(vertices: Iterable[Sequence[int]]) -> SymmetricCycle:
    """The same as ``SymmetricCycle(vertices)``, kept under this name for the
    benchmark workloads that call it."""
    return SymmetricCycle(vertices)


def canonical_hypercube_cycle(t: int) -> SymmetricCycle:
    """All-plus start; step k flips element k; the second half is the antipodal image."""
    if t < 2:
        raise ValueError("t must be >= 2")
    half = [all_plus(t)]
    for e in range(1, t):
        half.append(flip(half[-1], e))
    return SymmetricCycle(half + [negate(v) for v in half])


def find_symmetric_cycle(
    topes: Iterable[Sequence[int]],
    start: Sequence[int] | None = None,
    seed: int = 0,
) -> SymmetricCycle | None:
    """Depth-first search for a symmetric cycle inside a negation-closed tope set.

    Walks half a cycle: t steps, each flipping a previously untouched element
    and staying inside the tope set; the antipodal half then closes the cycle
    automatically.  The seed only shuffles the element order tried at each
    step, so equal seeds give equal cycles.  Returns None when the search is
    exhausted -- a result, not an error.
    """
    members: set[SignVector] = set()
    unpaired: set[SignVector] = set()  # the members whose negation is not a member
    t = None
    for v in map(tuple, topes):
        if v not in members:
            if t is None:
                t = len(v)
            check_sign_vector(v, t)
            members.add(v)
            if (w := negate(v)) in unpaired:
                unpaired.remove(w)
            else:
                unpaired.add(v)
    if t is None:
        return None
    if t < 2:
        raise ValueError("ground set must have t >= 2")
    if unpaired:  # max() names the first of them in '+'-before-'-' order
        raise ValueError(f"tope set is not closed under negation: missing -{sign_vector_str(max(unpaired))}")
    order = list(range(1, t + 1))
    random.Random(seed).shuffle(order)
    if start is not None:
        w0 = tuple(start)
        check_sign_vector(w0, t)
        if w0 not in members:
            raise ValueError(f"start tope {sign_vector_str(w0)} is not in the tope set")
        starts = [w0]
    else:
        starts = sorted(members, reverse=True)  # lexicographic with '+' before '-'
    for w0 in starts:
        half = _half_cycle(w0, order, members, t)
        if half is not None:
            return SymmetricCycle(half + [negate(v) for v in half])
    return None


def _half_cycle(w0: SignVector, order: list[int], members: set[SignVector], t: int) -> list[SignVector] | None:
    """R^0..R^(t-1) of the first path from w0 that flips every element once
    inside the member set, trying elements in ``order`` at each step, or None.

    The depth-first search keeps an explicit stack of the elements still to
    try at each step, so its depth t is not bounded by the recursion limit."""
    path = [w0]
    flipped: dict[int, None] = {}  # insertion-ordered, so popitem() undoes the last step
    untried = [iter(order)]
    while len(flipped) < t:
        for e in untried[-1]:
            if e not in flipped and (nxt := flip(path[-1], e)) in members:
                path.append(nxt)
                flipped[e] = None
                untried.append(iter(order))
                break
        else:
            untried.pop()
            if not flipped:
                return None
            path.pop()
            flipped.popitem()
    return path[:t]


def normalize_cycle(cycle: SymmetricCycle) -> SymmetricCycle:
    """Rotate/reflect so the lexicographically smallest vertex comes first,
    followed by the smaller of its two neighbors."""
    verts = cycle.vertices
    n = len(verts)
    i = max(range(n), key=verts.__getitem__)  # for +/-1 vectors, '+' < '-' is descending tuple order
    if verts[(i + 1) % n] >= verts[(i - 1) % n]:
        rotated = [verts[(i + k) % n] for k in range(n)]
    else:
        rotated = [verts[(i - k) % n] for k in range(n)]
    return SymmetricCycle(rotated)
