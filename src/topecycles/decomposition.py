"""The unique inclusion-minimal subset of cycle vertices summing to a tope."""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub
from typing import Sequence

from .core import DimensionError, SignVector, _minus_mask
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


def decompose(tope: Sequence[int], cycle: SymmetricCycle) -> Decomposition:
    """The unique representation of the tope over the cycle's first half, and
    the member set it selects, in O(t) integer steps.

    In flip order e_1..e_t, vertex R^k reads -R^0 on e_1..e_k and R^0 on the
    rest, so with x_j = T(e_j) * R^0(e_j) the coefficients are
    c_0 = (x_1 + x_t) / 2 and c_j = (x_(j+1) - x_j) / 2 for j = 1..t-1.
    Each lies in {-1, 0, 1}, and the nonzero ones (the members) are odd in
    number.
    """
    T, _, coeffs = _coefficients(tope, cycle)
    idx = sorted(i if c > 0 else i + cycle.t for i, c in enumerate(coeffs) if c)
    return Decomposition(T, coeffs, tuple(cycle.vertices[i] for i in idx))


def _coefficients(tope: Sequence[int], cycle: SymmetricCycle) -> tuple[SignVector, int, tuple[int, ...]]:
    """``_checked_tope`` and the int coefficients c_0..c_(t-1) of ``decompose``: with b_j bit e_j - 1
    of mask ^ masks[0], x_j = 1 - 2 b_j, so c_0 = 1 - b_1 - b_t and c_j = b_j - b_(j+1)."""
    T, mask = _checked_tope(tope, cycle)
    d = mask ^ cycle.masks[0]
    b = [d >> (e - 1) & 1 for e in cycle.flips]
    return T, mask, (1 - b[0] - b[-1], *map(sub, b, b[1:]))


def _checked_tope(tope: Sequence[int], cycle: SymmetricCycle) -> tuple[SignVector, int]:
    """The tope as a tuple and its minus mask, read by one codec call that is its one check: raises
    ValueError if it is not a sign vector, and otherwise DimensionError if its length is not t."""
    T = tuple(tope)
    try:
        return T, _minus_mask(T, cycle.t)
    except DimensionError:
        raise DimensionError(f"tope length {len(T)} does not match cycle ground set t={cycle.t}") from None
