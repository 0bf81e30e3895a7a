"""Symmetric cycles in tope graphs, held as the minus masks of their
vertices: validation, canonical construction, and depth-first search."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection, Container, Iterable, Sequence

from .core import SignVector, Violation, _ViolationsError, parse_sign_vector
from .core import _first_offender, _mask_text, _minus_mask, _minus_masks


class CycleError(_ViolationsError):
    """A mask or vertex sequence violates the symmetric-cycle invariants."""


@dataclass(frozen=True)
class SymmetricCycle:
    """2t topes R^0..R^(2t-1): consecutive steps flip one element and R^(k+t) = -R^k.

    A cycle is built from, compared by and hashed by the minus masks
    ``masks`` of R^0..R^(2t-1): bit e-1 of masks[k] is set iff R^k(e) = -1.
    Construction checks every invariant and raises CycleError, whose
    ``violations`` name each broken one in a fixed order: shape (the mask
    count, or a mask that is not an int in [0, 2^t)), distinctness, adjacency,
    antipodal symmetry, flip permutation.  So every instance is a genuine
    symmetric cycle; membership in a tope set is for the caller to check.
    Derived are ``t``, half the vertex count, and the flip order ``flips`` =
    e_1..e_t: step k (R^(k-1) -> R^k) flips element e_k, a 1-based ground-set
    element.  ``vertices`` is built on first use; ``symmetric_cycle`` reads them.
    """

    masks: tuple[int, ...]
    t: int = field(init=False, repr=False, compare=False)
    flips: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        masks = tuple(self.masks)
        n = len(masks)
        t = _half_count(n)
        full = (1 << t) - 1
        if not {int}.issuperset(map(type, masks)) or min(masks) < 0 or max(masks) > full:
            k = next(k for k, m in enumerate(masks) if type(m) is not int or not 0 <= m <= full)
            raise CycleError([Violation("shape", (k,), f"mask {k} is not an int in [0, 2^t) for t={t}")])
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
        vars(self).update(masks=masks, t=t, flips=flips)

    @cached_property
    def vertices(self) -> tuple[SignVector, ...]:
        """R^0..R^(2t-1) as tuples of int signs, read off the masks."""
        return tuple(parse_sign_vector(_mask_text(m, self.t)) for m in self.masks)

    def __iter__(self):
        return iter(self.vertices)

    def __len__(self) -> int:
        return len(self.masks)


def _half_count(n: int) -> int:
    """t for a cycle of n vertices; raises CycleError unless n is an even number >= 4."""
    if n < 4 or n % 2:
        raise CycleError([Violation("shape", (), f"vertex count {n} is not an even number >= 4")])
    return n // 2


def symmetric_cycle(vertices: Iterable[Sequence[int]]) -> SymmetricCycle:
    """The cycle R^0..R^(2t-1) read from its vertices, whose entries are read by value (1.0 is +1):
    the first vertex that is not t signs is a shape violation, then ``SymmetricCycle`` checks the masks."""
    verts = tuple(map(tuple, vertices))
    t = _half_count(len(verts))
    try:
        masks = _minus_masks(verts, t)
    except (TypeError, ValueError):  # the first vertex that is not t signs is a shape violation
        k, _ = _first_offender(verts, t)
        raise CycleError([Violation("shape", (k,), f"vertex {k} is not a +/-1 vector of length t={t}")])
    return SymmetricCycle(masks)


def canonical_hypercube_cycle(t: int) -> SymmetricCycle:
    """All-plus start; step k flips element k; the second half is the antipodal image."""
    if t < 2:
        raise ValueError("t must be >= 2")
    full = (1 << t) - 1
    half = [(1 << k) - 1 for k in range(t)]  # R^k is - on elements 1..k
    return SymmetricCycle(half + [m ^ full for m in half])


def find_symmetric_cycle(
    topes: Iterable[Sequence[int]],
    start: Sequence[int] | None = None,
    seed: int = 0,
) -> SymmetricCycle | None:
    """Depth-first search for a symmetric cycle inside a negation-closed tope set, or None when
    the search is exhausted -- a result, not an error.

    The seed only shuffles the element order tried at each step, so equal
    seeds give equal cycles.  Without a start, the starts are the topes in
    lexicographic order, '+' before '-'.  Every tope is made a tuple, then
    one codec pass reads and checks the pool, keyed by minus mask: the first
    tope that is not t signs (t the first tope's length) raises.  A start
    costs at most (2n+1)*t membership tests on n topes (``_half_cycle``),
    and no negation pair is walked twice (``_find_cycle_masks``).
    """
    pool = list(map(tuple, topes))
    if not pool:
        return None
    t = len(pool[0])
    members = dict(zip(_minus_masks(pool, t), pool))  # minus mask -> tope
    if start is None:
        starts = sorted(members, key=members.__getitem__, reverse=True)
    else:  # read (and so checked) only when the search asks for its first start, after the pool checks
        starts = (_minus_mask(tuple(s), t) for s in [start])
    return _find_cycle_masks(members, t, starts, seed)


def _find_cycle_masks(members: Collection[int], t: int, starts: Iterable[int], seed: int) -> SymmetricCycle | None:
    """The cycle ``find_symmetric_cycle`` finds among the member masks from the
    first start that leads to one, or None.

    The starts are read only after the member set is checked, so the errors
    about the set (t < 2, a tope without its negation) come before any error
    that reading a start raises; a start outside the set raises ValueError.

    A start whose walk fails is dropped, with its antipode, from the set
    later walks see: a vertex of a symmetric cycle in the set starts a half
    cycle in it, and the cycle holds -v with v, so neither lies on a cycle.
    That prunes only dead branches, so every later walk finds what it found
    before.  The set is copied on the first failure, which a tope set never has."""
    if t < 2:
        raise ValueError("ground set must have t >= 2")
    full = (1 << t) - 1
    unpaired = [m for m in members if m ^ full not in members]
    if unpaired:  # min() names the first of them in '+'-before-'-' order
        raise ValueError(f"tope set is not closed under negation: missing -{min(_mask_text(m, t) for m in unpaired)}")
    bits = [1 << i for i in range(t)]  # bit e-1 flips element e
    random.Random(seed).shuffle(bits)
    live = members  # the members that may still lie on a cycle
    for m0 in starts:
        if m0 not in members:
            raise ValueError(f"start tope {_mask_text(m0, t)} is not in the tope set")
        # m0 is out of live when it is the antipode of a failed start
        if m0 in live and (half := _half_cycle(m0, bits, live)) is not None:
            return SymmetricCycle(half + [m ^ full for m in half])
        live = set(live) if live is members else live
        live -= {m0, m0 ^ full}
    return None


def _half_cycle(m0: int, bits: list[int], members: Container[int]) -> list[int] | None:
    """The minus masks of R^0..R^(t-1) on the first path from m0 that flips
    every element once inside the member set, trying the element bits in
    ``bits`` order at each step, or None.

    The walk holds only its path and the masks popped from it.  At a mask it
    has flipped ``mask ^ m0``, so a popped mask leads nowhere again; skipping
    those keeps the depth-first order, pushes each mask at most once and makes
    at most (2n+1)*t membership tests on n member masks.  On a tope set the
    walk never backs up: tope graphs are isometric in the cube (Bjorner et al., Oriented Matroids, 4.2)."""
    full = sum(bits)
    path, dead = [m0], set()
    while path and (flipped := path[-1] ^ m0) != full:
        for b in bits:
            if not flipped & b and (nxt := path[-1] ^ b) in members and nxt not in dead:
                path.append(nxt)
                break
        else:
            dead.add(path.pop())
    return path[:-1] or None  # no path left: every way from m0 led nowhere
