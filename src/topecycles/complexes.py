"""Simplicial complexes attached to a decomposition: the Lambda complex
generated by the separation-set complements E_t - S(T,Q) of the members, the
Delta complex of acyclic subsets, and long f-vectors.  A face is a bitmask
over {1..t}: bit e-1 represents element e.  Each complex is built by walking
the submasks of its facets, so the work follows the faces produced rather
than the 2^t subsets of the ground set."""

from __future__ import annotations

from typing import Iterable, Sequence

from .core import check_sign_vector
from .cycles import SymmetricCycle
from .decomposition import DecompositionError, decompose


def lambda_facets(tope: Sequence[int], cycle: SymmetricCycle) -> list[int]:
    """The facets {E_t - S(T,Q)} over the decomposition members Q of the tope,
    as sorted bitmasks; raises DecompositionError if they are not an antichain."""
    T = tuple(tope)
    members = decompose(T, cycle).members
    facets = sorted({_agreement_mask(T, q) for q in members})
    for a in facets:
        for b in facets:
            if a != b and a & b in (a, b):
                raise DecompositionError("facet family is not an antichain: broken decomposition")
    return facets


def lambda_face_masks(tope: Sequence[int], cycle: SymmetricCycle) -> set[int]:
    """All faces of the complex generated by the lambda facets."""
    return _downward_closure(lambda_facets(tope, cycle))


def delta_face_masks(tope: Sequence[int], cycle: SymmetricCycle) -> set[int]:
    """Acyclic subsets of the cycle reoriented against the tope: A is a face
    iff some cycle vertex agrees with the tope on every element of A."""
    T = tuple(tope)
    check_sign_vector(T, cycle.t)
    masks = {_agreement_mask(T, q) for q in cycle.vertices}
    maximal = [m for m in masks if not any(m != o and m & o == m for o in masks)]
    return _downward_closure(maximal)


def long_f_vector(face_masks: Iterable[int], t: int) -> tuple[int, ...]:
    """Face counts by cardinality, f_0..f_t."""
    f = [0] * (t + 1)
    for m in face_masks:
        f[m.bit_count()] += 1
    return tuple(f)


def _agreement_mask(a: Sequence[int], b: Sequence[int]) -> int:
    m = 0
    for i, (x, y) in enumerate(zip(a, b)):
        if x == y:
            m |= 1 << i
    return m


def _downward_closure(facets: Iterable[int]) -> set[int]:
    """Every submask of every facet, the empty face included; (s - 1) & f is
    the next smaller submask of f after s."""
    out = {0}
    for f in facets:
        s = f
        while s:
            out.add(s)
            s = (s - 1) & f
    return out
