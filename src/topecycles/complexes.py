"""Simplicial complexes attached to a decomposition: the facet family built
from separation-set complements, the acyclic-subset face complex, and long
f-vectors.  Faces are exposed both as frozensets of 1-based elements and as
bitmasks (bit e-1 represents element e) for bulk sweeps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import check_sign_vector
from .cycles import SymmetricCycle
from .decomposition import DecompositionError, decompose


@dataclass(frozen=True)
class FacetFamily:
    """Pairwise incomparable facets over {1..t}."""

    t: int
    facets: frozenset[frozenset[int]]


def lambda_facets(tope: Sequence[int], cycle: SymmetricCycle) -> FacetFamily:
    """The facet family {E_t - S(T,Q)} over the decomposition members of the tope."""
    masks = _lambda_facet_masks(tope, cycle)
    return FacetFamily(cycle.t, frozenset(_mask_to_set(m) for m in masks))


def lambda_face_masks(tope: Sequence[int], cycle: SymmetricCycle) -> set[int]:
    """All faces (as bitmasks) of the complex generated by the lambda facets."""
    return _downward_closure(_lambda_facet_masks(tope, cycle), cycle.t)


def delta_faces(tope: Sequence[int], cycle: SymmetricCycle) -> set[frozenset[int]]:
    """Acyclic subsets of the cycle reoriented against the tope: A is a face
    iff some cycle vertex agrees with the tope on every element of A."""
    return {_mask_to_set(m) for m in delta_face_masks(tope, cycle)}


def delta_face_masks(tope: Sequence[int], cycle: SymmetricCycle) -> set[int]:
    T = tuple(tope)
    check_sign_vector(T, cycle.t)
    masks = {_agreement_mask(T, q) for q in cycle.vertices}
    maximal = [m for m in masks if not any(m != o and m & o == m for o in masks)]
    return _downward_closure(maximal, cycle.t)


def faces_of(family: FacetFamily) -> set[frozenset[int]]:
    """Every subset of every facet (the complex the family generates)."""
    masks = [_set_to_mask(f) for f in family.facets]
    return {_mask_to_set(m) for m in _downward_closure(masks, family.t)}


def long_f_vector(faces: FacetFamily | Iterable, t: int | None = None) -> tuple[int, ...]:
    """Face counts by cardinality, f_0..f_t.  Accepts a FacetFamily, a
    collection of frozensets, or a collection of bitmasks (with t given)."""
    if isinstance(faces, FacetFamily):
        t = faces.t
        faces = faces_of(faces)
    if t is None:
        raise ValueError("t is required when passing a bare face collection")
    f = [0] * (t + 1)
    for face in faces:
        size = face.bit_count() if isinstance(face, int) else len(face)
        f[size] += 1
    return tuple(f)


def is_reorientation_totally_cyclic(tope: Sequence[int], cycle: SymmetricCycle) -> bool:
    """Whether reorienting the cycle's rank-2 tope set against the tope leaves no
    all-plus tope.  Simple rank-2 tope sets are either acyclic or totally
    cyclic, and the reorientation is acyclic exactly when the tope is a cycle
    vertex, so this reduces to a membership test."""
    return tuple(tope) not in cycle.vertices


def _lambda_facet_masks(tope: Sequence[int], cycle: SymmetricCycle) -> list[int]:
    T = tuple(tope)
    members = decompose(T, cycle).members
    facets = sorted({_agreement_mask(T, q) for q in members})
    for a in facets:
        for b in facets:
            if a != b and a & b in (a, b):
                raise DecompositionError("facet family is not an antichain: broken decomposition")
    return facets


def _agreement_mask(a: Sequence[int], b: Sequence[int]) -> int:
    m = 0
    for i, (x, y) in enumerate(zip(a, b)):
        if x == y:
            m |= 1 << i
    return m


def _downward_closure(facet_masks: Sequence[int], t: int) -> set[int]:
    # full 2^t scan with bitmask containment; t is desk-scale by design
    out = set()
    for a in range(1 << t):
        for f in facet_masks:
            if a & ~f == 0:
                out.add(a)
                break
    return out


def _mask_to_set(mask: int) -> frozenset[int]:
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return frozenset(out)


def _set_to_mask(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << (e - 1)
    return m
