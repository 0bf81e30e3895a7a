"""Symmetric cycles in tope graphs: validation, canonical construction,
depth-first search, and normal form."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .core import (
    SignVector,
    Violation,
    _SIGNS,
    _ViolationsError,
    _minus_mask,
    check_sign_vector,
    negate,
    sign_vector_str,
)


class CycleError(_ViolationsError):
    """A vertex sequence violates the symmetric-cycle invariants."""


@dataclass(frozen=True)
class SymmetricCycle:
    """2t topes R^0..R^(2t-1): consecutive steps flip one element and R^(k+t) = -R^k.

    Built from the vertices alone, kept as a tuple of tuples.  Construction
    checks every invariant and raises CycleError, whose ``violations`` name
    each broken one in a fixed order: shape, distinctness, adjacency,
    antipodal symmetry, flip permutation.  So every instance is a genuine
    symmetric cycle; membership in a tope set is for the caller to check.
    Derived are ``t``, half the vertex count, the flip order ``flips`` =
    e_1..e_t: step k (R^(k-1) -> R^k) flips element e_k, a 1-based
    ground-set element, and the minus masks ``masks`` of R^0..R^(2t-1), which
    validation reads: bit e-1 of masks[k] is set iff R^k(e) = -1.
    """

    vertices: tuple[SignVector, ...]
    t: int = field(init=False, repr=False, compare=False)
    flips: tuple[int, ...] = field(init=False, repr=False, compare=False)
    masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        verts = tuple(map(tuple, self.vertices))
        n = len(verts)
        if n < 4 or n % 2:
            raise CycleError([Violation("shape", (), f"vertex count {n} is not an even number >= 4")])
        t = n // 2
        for k, v in enumerate(verts):
            if len(v) != t or not _SIGNS.issuperset(v):
                raise CycleError([Violation("shape", (k,), f"vertex {k} is not a +/-1 vector of length t={t}")])
        masks = tuple(map(_minus_mask, verts))
        out: list[Violation] = []
        seen: dict[int, int] = {}
        for k, m in enumerate(masks):
            if m in seen:
                out.append(Violation("distinct", (seen[m], k), f"vertices {seen[m]} and {k} coincide"))
            else:
                seen[m] = k
        # each step's mask holds the elements it flips: adjacency, the flip permutation and the flip order read it
        steps = [m ^ masks[(k + 1) % n] for k, m in enumerate(masks)]
        adjacency = [
            Violation("adjacency", (k,), f"step {k} -> {(k + 1) % n} does not flip exactly one element")
            for k, step in enumerate(steps)
            if step.bit_count() != 1
        ]
        out += adjacency
        full = (1 << t) - 1
        for k in range(t):
            if masks[k + t] != masks[k] ^ full:
                out.append(Violation("antipodal", (k,), f"antipodal symmetry fails at k={k}"))
        flips: tuple[int, ...] = ()
        if not adjacency:
            flips = tuple(step.bit_length() for step in steps[:t])
            if len(set(flips)) != t:
                out.append(Violation("flip_permutation", (), "first-half flips are not a permutation of the ground set"))
        if out:
            raise CycleError(out)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "flips", flips)
        object.__setattr__(self, "masks", masks)

    def __iter__(self):
        return iter(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)


def symmetric_cycle(vertices: Iterable[Sequence[int]]) -> SymmetricCycle:
    """The same as ``SymmetricCycle(vertices)``, kept under this name for the
    benchmark workloads that call it."""
    return SymmetricCycle(vertices)


def canonical_hypercube_cycle(t: int) -> SymmetricCycle:
    """All-plus start; step k flips element k; the second half is the antipodal image."""
    if t < 2:
        raise ValueError("t must be >= 2")
    half = [(-1,) * k + (1,) * (t - k) for k in range(t)]
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

    The pool is keyed by minus mask (bit e-1 set where a tope is - on element
    e), so a flip is one XOR and a membership test one int lookup: on a pool
    that is a single cycle the search tries O(t^2) candidates.
    """
    members: dict[int, SignVector] = {}  # minus mask -> tope
    t = None
    for v in map(tuple, topes):
        if t is None:
            t = len(v)
        check_sign_vector(v, t)
        members[_minus_mask(v)] = v
    if t is None:
        return None
    if t < 2:
        raise ValueError("ground set must have t >= 2")
    full = (1 << t) - 1
    unpaired = [v for m, v in members.items() if m ^ full not in members]
    if unpaired:  # max() names the first of them in '+'-before-'-' order
        raise ValueError(f"tope set is not closed under negation: missing -{sign_vector_str(max(unpaired))}")
    bits = [1 << i for i in range(t)]  # bit e-1 flips element e
    random.Random(seed).shuffle(bits)
    if start is not None:
        w0 = tuple(start)
        check_sign_vector(w0, t)
        if _minus_mask(w0) not in members:
            raise ValueError(f"start tope {sign_vector_str(w0)} is not in the tope set")
        starts = [w0]
    else:
        starts = sorted(members.values(), reverse=True)  # lexicographic with '+' before '-'
    for w0 in starts:
        half = _half_cycle(_minus_mask(w0), bits, members)
        if half is not None:
            return SymmetricCycle([members[m] for m in half] + [members[m ^ full] for m in half])
    return None


def _half_cycle(m0: int, bits: list[int], members: dict[int, SignVector]) -> list[int] | None:
    """The minus masks of R^0..R^(t-1) on the first path from m0 that flips
    every element once inside the member set, trying the element bits in
    ``bits`` order at each step, or None.

    The depth-first search keeps an explicit stack of the elements still to
    try at each step, so its depth t is not bounded by the recursion limit.
    A path flips each element at most once: it has flipped ``path[-1] ^ m0``."""
    full = sum(bits)
    path = [m0]
    untried = [iter(bits)]
    while (flipped := path[-1] ^ m0) != full:
        for b in untried[-1]:
            if not flipped & b and (nxt := path[-1] ^ b) in members:
                path.append(nxt)
                untried.append(iter(bits))
                break
        else:
            untried.pop()
            path.pop()
            if not path:
                return None
    return path[:-1]


def _normalized_vertices(cycle: SymmetricCycle) -> tuple[SignVector, ...]:
    """The vertices rotated or reflected so the lexicographically smallest
    ('+' before '-') comes first, followed by the smaller of its two neighbors."""
    verts = cycle.vertices
    n = len(verts)
    i = max(range(n), key=verts.__getitem__)  # for +/-1 vectors, '+' < '-' is descending tuple order
    step = 1 if verts[(i + 1) % n] >= verts[(i - 1) % n] else -1
    return tuple(verts[(i + step * k) % n] for k in range(n))
