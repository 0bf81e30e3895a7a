"""Simplicial complexes attached to a decomposition: the Lambda complex
generated by the separation-set complements E_t - S(T,Q) of the members, the
Delta complex of acyclic subsets, and long f-vectors.  A face is a bitmask
over {1..t}: bit e-1 represents element e.

A complex is a plain value: its facet antichain and its long f-vector, read
off the first half of the cycle's masks in closed form: t integer steps for
the walk, then O(t) big-integer steps for the face counts.  It answers
whether a mask is a face and how many faces there are; nothing here lists
faces."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

from .core import DimensionError
from .cycles import SymmetricCycle
from .decomposition import DecompositionError, _checked_tope, _coefficients


@dataclass(frozen=True)
class FaceComplex:
    """The downward closure of an antichain of facet masks on {1..t}, with
    its long f-vector f_0..f_t.  ``m in c`` asks whether m is a face and
    ``len(c)`` counts the faces."""

    t: int
    facets: tuple[int, ...]
    f_vector: tuple[int, ...]

    def __contains__(self, m: object) -> bool:
        # every facet lies below 2^t, so a mask outside [0, 2^t) is a submask of none
        return isinstance(m, int) and any(m & ~f == 0 for f in self.facets)

    def __len__(self) -> int:
        return sum(self.f_vector)


def lambda_face_masks(tope: Sequence[int], cycle: SymmetricCycle) -> FaceComplex:
    """The complex generated by the facets E_t - S(T,Q), one per decomposition
    member Q.  It equals the delta complex for every symmetric cycle; a
    mismatch is a bug and raises DecompositionError."""
    t = cycle.t
    _, mask, coeffs = _coefficients(tope, cycle)  # checks the tope, so the delta complex below takes it as it is
    # member R^i (c_i = +1) or its antipode R^(i+t) (c_i = -1) agrees with the tope on P ^ its minus mask
    P = ((1 << t) - 1) ^ mask
    delta = _delta_complex(P, cycle)
    facets = tuple(sorted({P ^ cycle.masks[i if c > 0 else i + t] for i, c in enumerate(coeffs) if c}))
    if facets != delta.facets:
        raise DecompositionError("lambda facets differ from the delta facets: broken decomposition")
    return delta


def delta_face_masks(tope: Sequence[int], cycle: SymmetricCycle) -> FaceComplex:
    """Acyclic subsets of the cycle reoriented against the tope: A is a face
    iff some cycle vertex agrees with the tope on every element of A.

    The agreement mask E_t - S(T,R^k) of vertex R^k is P ^ masks[k], where P
    is the plus mask of the tope.  In the flip order e_1..e_t, with
    x_j = T(e_j) * R^0(e_j), place e_j at position j of a 2t-gon if x_j = 1,
    else at position j + t.  The agreement mask of R^k holds the elements
    placed at positions k+1..k+t, so the faces are the element sets that fit
    in t consecutive positions.

    Facets: step k of the cycle toggles e_k in the agreement mask, so the
    2t masks form a closed walk that adds or drops one element per step.
    A mask is maximal exactly when both its neighbours on the walk are
    submasks of it.

    f-vector: the step into R^k drops position k and adds position k+t, and
    exactly one of the two holds an element, so exactly t steps grow the mask.
    A grown mask M is the t-window ending at the element e it added, and the
    faces whose last element is e are e with any subset of the other |M| - 1
    elements of M: f_m = sum over the t grown masks M of C(|M| - 1, m - 1).

    ``_delta_complex`` reads both off the first t masks of the walk: the
    antipodal map R^(k+t) = -R^k makes the second half the complements of
    the first.
    """
    _, mask = _checked_tope(tope, cycle)
    return _delta_complex(((1 << cycle.t) - 1) ^ mask, cycle)


def _delta_complex(P: int, cycle: SymmetricCycle) -> FaceComplex:
    """The delta complex of the tope whose plus mask is P (see ``delta_face_masks``),
    read off the agreement masks M_0..M_(t-1) of R^0..R^(t-1) in one pass.

    The agreement mask of R^(k+t) is the complement of M_k, so the second
    half of the walk is the complement of the first, and M_(t-1) -> M_t and
    M_(2t-1) -> M_0 are steps to a complement.  A facet of the second half
    is the complement of a trough of the first (a mask that is a submask of
    both its neighbours), and its step into R^(k+t) grows the mask exactly
    when the step into R^k shrinks M_k: a down-step from s to s - 1 elements
    in the first half is an up-step from t - s to t - s + 1 in the second.
    So each of the t first-half steps gives one ``ks`` entry: |M_k| - 1 if
    it grows M_k, else t - 1 - |M_k|."""
    t = cycle.t
    full = (1 << t) - 1
    walk = [P ^ m for m in cycle.masks[:t]]
    facets = []
    ks = []
    for b, m, a in zip([full ^ walk[-1], *walk[:-1]], walk, [*walk[1:], full ^ walk[0]]):
        s = m.bit_count()
        if m & ~b:  # an up-step into m: m is a facet if the next step drops an element
            ks.append(s - 1)
            if a & ~m == 0:
                facets.append(m)
        else:  # a down-step into m, so an up-step into full ^ m: a facet if the next step adds an element
            ks.append(t - 1 - s)
            if m & ~a == 0:
                facets.append(full ^ m)
    facets.sort()
    return FaceComplex(t, tuple(facets), _face_counts(ks, t))


def long_f_vector(face_masks: FaceComplex, t: int) -> tuple[int, ...]:
    """Face counts by cardinality, f_0..f_t."""
    if face_masks.t != t:
        raise DimensionError(f"complex lives on t={face_masks.t}, expected t={t}")
    return face_masks.f_vector


def _face_counts(ks: Sequence[int], t: int) -> tuple[int, ...]:
    """(1, f_1, ..., f_t) with f_m = sum_k C(k, m - 1): the f-vector of a
    complex whose nonempty faces each have one distinguished element, which
    may be joined by any subset of k other elements (0 <= k < t).

    f_(i+1) is the coefficient of x^i in sum_k n_k (1 + x)^k, where n_k
    counts k in ks.  Horner's rule evaluates it at x = 2^(8w) in one integer
    (Kronecker substitution): every f_m <= len(ks) * 2^(t-1) fits in a w-byte
    slot, so the t coefficients are its t little-endian w-byte slots, cut
    apart by one ``struct.unpack`` and read by one ``map`` of ``int.from_bytes``."""
    n = [0] * t
    for k in ks:
        n[k] += 1
    w = (t + len(ks).bit_length() + 7) // 8
    b = 8 * w
    acc = 0
    for c in reversed(n):
        acc += (acc << b) + c
    slots = struct.unpack(f"{w}s" * t, acc.to_bytes(t * w, "little"))
    return (1, *map(int.from_bytes, slots, repeat("little")))
