"""Exact verification of the Dehn-Sommerville type identities satisfied by
long f-vectors: boundary rows, a palindromic polynomial identity checked at
the coefficient level, the row recurrence read off that identity's
residual, an alternating sum, and closed-form spot checks for t in {5, 6, 7}."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence


@dataclass(frozen=True)
class SpecialCaseNote:
    label: str
    holds: bool


@dataclass(frozen=True)
class DSReport:
    t: int
    boundary_ok: bool
    polynomial_residual: tuple[int, ...]
    alternating_sum: int
    special_case_notes: tuple[SpecialCaseNote, ...]

    @property
    def recurrence_ok(self) -> dict[int, bool]:
        """Row j of the recurrence, 3 <= j <= t-2, is the residual's coefficient of x^(t-j)."""
        return {j: self.polynomial_residual[self.t - j] == 0 for j in range(3, self.t - 1)}

    @property
    def passes(self) -> bool:
        # a zero residual implies every recurrence row, and with the boundary rows the alternating sum
        return self.boundary_ok and not any(self.polynomial_residual)


def _t_of(f: Sequence[int]) -> int:
    if len(f) < 2:
        raise ValueError("an f-vector needs at least entries f_0, f_1")
    if bad := [j for j, x in enumerate(f) if not isinstance(x, int) or isinstance(x, bool)]:  # keeps the verdict exact
        raise TypeError(f"f-vector entry f_{bad[0]} = {f[bad[0]]!r} is not an int")
    return len(f) - 1


def ds_polynomial_sides(f: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Degree-ascending coefficients of both sides of the polynomial identity

        sum_{j=3..t} (C(t,j) - f_j) (x-1)^(t-j)
            ==  - sum_{j=3..t} (-1)^j (C(t,j) - f_j) x^(t-j).

    Both sides have degree at most t-3, hence t-2 coefficients.  The left
    side is built by Horner steps, lhs <- lhs * (x-1) + d_j for j = 3..t.
    """
    t = _t_of(f)
    lhs: list[int] = []
    rhs = [0] * max(t - 2, 0)
    for j in range(3, t + 1):
        d = comb(t, j) - f[j]
        lhs = [xl - l for xl, l in zip([0] + lhs, lhs + [0])]  # x * lhs - lhs
        lhs[0] += d
        rhs[t - j] -= d * (-1) ** j
    return tuple(lhs), tuple(rhs)


def check_ds(f: Sequence[int]) -> DSReport:
    """Full report on one long f-vector: boundary rows f_j = C(t,j) for j <= 2
    and f_{t-1} = f_t = 0, the coefficient-level polynomial residual, the row
    recurrence, the alternating sum, and any special-case notes.

    The row recurrence for 3 <= j <= t-2,

        C(t,j) - f_j  ==  - sum_{i=3..j} (-1)^i C(t-i, j-i) (C(t,i) - f_i),

    is the coefficient of x^(t-j) in the polynomial identity, multiplied by
    (-1)^j, so row j holds exactly when that residual coefficient is zero.
    It is empty (vacuously true) when t < 5.

    The report passes exactly when the boundary rows hold and the residual
    is zero.  The alternating sum cannot fail on its own: at x = 1 the
    identity reads d_t == -sum_{j=3..t} (-1)^j d_j with d_j = C(t,j) - f_j,
    and once f_0..f_2 are binomial and f_{t-1} = f_t = 0, that equation is
    the alternating sum being zero."""
    t = _t_of(f)
    boundary = all(f[j] == comb(t, j) for j in range(min(2, t) + 1)) and f[t - 1] == f[t] == 0
    lhs, rhs = ds_polynomial_sides(f)
    residual = tuple(a - b for a, b in zip(lhs, rhs))
    return DSReport(
        t=t,
        boundary_ok=boundary,
        polynomial_residual=residual,
        alternating_sum=sum(f[2 : t - 1 : 2]) - sum(f[1 : t - 1 : 2]),  # sum of (-1)^j f_j, 1 <= j <= t-2
        special_case_notes=_special_cases(f, t),
    )


def _special_cases(f: Sequence[int], t: int) -> tuple[SpecialCaseNote, ...]:
    """Closed-form spot checks, available only for t in {5, 6, 7}."""
    notes = []
    if t == 5:
        notes.append(SpecialCaseNote("f3 == C(5,2) - 5 == 5", f[3] == comb(5, 2) - 5))
    elif t == 6:
        notes.append(SpecialCaseNote("f3 == C(6,3) - 2*6 + 4 == 12", f[3] == comb(6, 3) - 2 * 6 + 4))
        notes.append(SpecialCaseNote("f4 == C(6,2) - 3*6 + 6 == 3", f[4] == comb(6, 2) - 3 * 6 + 6))
    elif t == 7:
        notes.append(SpecialCaseNote("f4 == 2*f3 - 35", f[4] == 2 * f[3] - 35))
        notes.append(SpecialCaseNote("f5 == f3 - 21", f[5] == f[3] - 21))
        notes.append(SpecialCaseNote("f4 == 2*f5 + 7", f[4] == 2 * f[5] + 7))
        notes.append(SpecialCaseNote("f4 is odd", f[4] % 2 == 1))
    return tuple(notes)
