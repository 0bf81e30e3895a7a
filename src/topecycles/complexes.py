"""Simplicial complexes attached to a decomposition: the Lambda complex
generated by the separation-set complements E_t - S(T,Q) of the members, the
Delta complex of acyclic subsets, and long f-vectors.  A face is a bitmask
over {1..t}: bit e-1 represents element e.

A complex is kept as its facet antichain, and its long f-vector is read off
the cycle's flip order in closed form, in O(t^2) integer steps.  No function
here lists faces: only iterating a ``FaceComplex`` walks the submasks of its
facets, so that work follows the faces produced rather than the 2^t subsets
of the ground set."""

from __future__ import annotations

from collections import Counter
from collections.abc import Set
from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, Sequence

from .core import DimensionError, check_sign_vector
from .cycles import SymmetricCycle
from .decomposition import DecompositionError, decompose


@dataclass(frozen=True, eq=False)
class FaceComplex(Set):
    """The downward closure of an antichain of facet masks on {1..t}, as an
    immutable set of face masks, with its long f-vector f_0..f_t.

    Two complexes are equal when their t and facets are: the maximal faces
    of the closure of an antichain are that antichain.  Against any other
    set, equality compares faces."""

    t: int
    facets: tuple[int, ...]
    f_vector: tuple[int, ...]

    def __contains__(self, m: object) -> bool:
        # every facet lies below 2^t, so a mask outside [0, 2^t) is a submask of none
        return isinstance(m, int) and any(m & ~f == 0 for f in self.facets)

    def __len__(self) -> int:
        return sum(self.f_vector)

    def __iter__(self) -> Iterator[int]:
        return iter(_downward_closure(self.facets))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FaceComplex):
            return (self.t, self.facets) == (other.t, other.facets)
        return Set.__eq__(self, other)

    @classmethod
    def _from_iterable(cls, it: Iterable[int]) -> frozenset[int]:
        # the results of &, |, - and ^ are plain face sets, not closures of antichains
        return frozenset(it)


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


def lambda_face_masks(tope: Sequence[int], cycle: SymmetricCycle) -> FaceComplex:
    """The complex generated by the lambda facets.  It equals the delta
    complex for every symmetric cycle; a mismatch is a bug and raises
    DecompositionError."""
    facets = tuple(lambda_facets(tope, cycle))
    # the private name keeps perfbench's delta_face_masks counts to the callers that ask for Delta
    delta = _delta_complex(tope, cycle)
    if facets != delta.facets:
        raise DecompositionError("lambda facets differ from the delta facets: broken decomposition")
    return delta


def delta_face_masks(tope: Sequence[int], cycle: SymmetricCycle) -> FaceComplex:
    """Acyclic subsets of the cycle reoriented against the tope: A is a face
    iff some cycle vertex agrees with the tope on every element of A."""
    return _delta_complex(tope, cycle)


def long_f_vector(face_masks: FaceComplex, t: int) -> tuple[int, ...]:
    """Face counts by cardinality, f_0..f_t."""
    if face_masks.t != t:
        raise DimensionError(f"complex lives on t={face_masks.t}, expected t={t}")
    return face_masks.f_vector


def _delta_complex(tope: Sequence[int], cycle: SymmetricCycle) -> FaceComplex:
    """The delta complex from the flip order e_1..e_t, with x_j = T(e_j) * R^0(e_j).

    Place e_j at position j of a 2t-gon if x_j = 1, else at position j + t.
    The agreement mask of R^k holds the elements placed at positions
    k+1..k+t, so the faces are the element sets that fit in t consecutive
    positions.

    Facets: step k of the cycle toggles e_k in the agreement mask, so the
    2t masks form a closed walk that adds or drops one element per step.
    A mask is maximal exactly when both its neighbours on the walk are
    submasks of it.

    f-vector: a nonempty face has one last element e_j, and the others are
    any of the k_j = #{i < j : x_i = x_j} + #{i > j : x_i = -x_j} elements
    placed in the t - 1 positions before e_j: f_m = sum_j C(k_j, m - 1).
    """
    T = tuple(tope)
    t = cycle.t
    check_sign_vector(T, t)
    r0 = cycle.vertices[0]
    x = [T[e - 1] * r0[e - 1] for e in cycle.flips]

    masks = [_agreement_mask(T, r0)]
    for k in range(2 * t - 1):
        masks.append(masks[-1] ^ (1 << (cycle.flips[k % t] - 1)))
    neighbours = zip(masks[-1:] + masks[:-1], masks, masks[1:] + masks[:1])
    facets = tuple(sorted(m for before, m, after in neighbours if (before | after) & ~m == 0))

    ks = []
    earlier = {1: 0, -1: 0}
    later = Counter(x)
    for xj in x:
        later[xj] -= 1
        ks.append(earlier[xj] + later[-xj])
        earlier[xj] += 1
    return FaceComplex(t, facets, _face_counts(ks, t))


def _face_counts(ks: Iterable[int], t: int) -> tuple[int, ...]:
    """(1, f_1, ..., f_t) with f_m = sum_k C(k, m - 1): the f-vector of a
    complex whose nonempty faces each have one distinguished element, which
    may be joined by any subset of k other elements (0 <= k < t)."""
    f = [1] + [0] * t
    for k, n in Counter(ks).items():
        for i in range(k + 1):
            f[i + 1] += n * comb(k, i)
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
