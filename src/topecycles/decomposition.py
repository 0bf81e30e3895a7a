"""The unique inclusion-minimal subset of cycle vertices summing to a tope."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import DimensionError, SignVector, check_sign_vector
from .cycles import SymmetricCycle


class DecompositionError(RuntimeError):
    """A decomposition broke an invariant that holds for every symmetric cycle:
    it signals a bug, not bad input."""


@dataclass(frozen=True)
class Decomposition:
    """tope == sum of members.  coeffs index the first half of the cycle:
    c_i = +1 selects R^i, c_i = -1 selects the antipode R^(i+t), c_i = 0 neither."""

    tope: SignVector
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
    T, coeffs = _coefficients(tope, cycle)
    idx = sorted(i if c > 0 else i + cycle.t for i, c in enumerate(coeffs) if c)
    return Decomposition(T, coeffs, tuple(cycle.vertices[i] for i in idx))


def _coefficients(tope: Sequence[int], cycle: SymmetricCycle) -> tuple[SignVector, tuple[int, ...]]:
    """The checked tope (see ``_checked_tope``) and the coefficients c_0..c_(t-1)
    of ``decompose``, with R^0 read off its minus mask."""
    T = _checked_tope(tope, cycle)
    r0 = cycle.masks[0]
    x = [-T[e - 1] if r0 >> (e - 1) & 1 else T[e - 1] for e in cycle.flips]
    return T, ((x[0] + x[-1]) // 2,) + tuple((b - a) // 2 for a, b in zip(x, x[1:]))


def _checked_tope(tope: Sequence[int], cycle: SymmetricCycle) -> SignVector:
    """The tope as a tuple.  Raises ValueError if it is not a sign vector and
    DimensionError if its length is not the cycle's t."""
    T = tuple(tope)
    check_sign_vector(T)
    if len(T) != cycle.t:
        raise DimensionError(f"tope length {len(T)} does not match cycle ground set t={cycle.t}")
    return T
