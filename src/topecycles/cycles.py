"""Symmetric cycles in tope graphs: validation, canonical construction,
depth-first search, and normal form."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Container, Iterable, Sequence

from .core import (
    SignVector,
    Violation,
    _SIGNS,
    _ViolationsError,
    _mask_text,
    _minus_mask,
    _minus_masks,
    negate,
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
        t = _half_count(len(verts))
        try:
            masks = tuple(_minus_masks(verts, t))
        except (TypeError, ValueError):  # name the first vertex that is not t signs
            for k, v in enumerate(verts):
                if len(v) != t or not _SIGNS.issuperset(v):
                    raise CycleError([Violation("shape", (k,), f"vertex {k} is not a +/-1 vector of length t={t}")])
            raise
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "flips", _cycle_flips(masks))
        object.__setattr__(self, "masks", masks)

    def __iter__(self):
        return iter(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)


def _half_count(n: int) -> int:
    """t for a cycle of n vertices; raises CycleError unless n is an even number >= 4."""
    if n < 4 or n % 2:
        raise CycleError([Violation("shape", (), f"vertex count {n} is not an even number >= 4")])
    return n // 2


def _cycle_flips(masks: Sequence[int]) -> tuple[int, ...]:
    """The flip order of the cycle whose vertices have these minus masks.

    Raises CycleError naming every broken invariant in ``SymmetricCycle``'s
    order; the masks are taken to lie below 2^t, which the vertex shape
    check ensures."""
    n = len(masks)
    t = _half_count(n)
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
    return flips


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
        members[_minus_mask(v, t)] = v
    if t is None:
        return None
    masks = _find_cycle_masks(members, t, start, seed)
    return None if masks is None else SymmetricCycle([members[m] for m in masks])


def _find_cycle_masks(members: dict[int, Any], t: int, start: Sequence[int] | None, seed: int) -> list[int] | None:
    """The minus masks of R^0..R^(2t-1) of the cycle that ``find_symmetric_cycle``
    finds among the member masks, or None.

    Without a start, the starts are the members in descending order of their
    values.  Tope tuples so come '+' before '-'.  '+'/'-' strings come in the
    opposite order, whose k-th start is the negation of the k-th tope; a search
    from -w walks the negation of the path from w, so it finds the same cycle,
    started at the antipode, which the CLI writes in normal form."""
    if t < 2:
        raise ValueError("ground set must have t >= 2")
    full = (1 << t) - 1
    unpaired = [m for m in members if m ^ full not in members]
    if unpaired:  # min() names the first of them in '+'-before-'-' order
        raise ValueError(f"tope set is not closed under negation: missing -{min(_mask_text(m, t) for m in unpaired)}")
    bits = [1 << i for i in range(t)]  # bit e-1 flips element e
    random.Random(seed).shuffle(bits)
    if start is not None:
        m0 = _minus_mask(tuple(start), t)
        if m0 not in members:
            raise ValueError(f"start tope {_mask_text(m0, t)} is not in the tope set")
        starts = [m0]
    else:
        starts = sorted(members, key=members.__getitem__, reverse=True)
    for m0 in starts:
        half = _half_cycle(m0, bits, members)
        if half is not None:
            return half + [m ^ full for m in half]
    return None


def _half_cycle(m0: int, bits: list[int], members: Container[int]) -> list[int] | None:
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
