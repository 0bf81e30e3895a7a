"""Exact verification of the Dehn-Sommerville type identities satisfied by
long f-vectors: boundary rows, a palindromic polynomial identity checked at
the coefficient level by one Horner pass, the row recurrence read off that
identity's residual, an alternating sum, and closed-form spot checks for t in {5, 6, 7}."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import sub
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
    if not {int}.issuperset(map(type, f)):  # keeps the verdict exact
        if bad := [j for j, x in enumerate(f) if not isinstance(x, int) or isinstance(x, bool)]:
            raise TypeError(f"f-vector entry f_{bad[0]} = {f[bad[0]]!r} is not an int")
    return len(f) - 1


def check_ds(f: Sequence[int]) -> DSReport:
    """Full report on one long f-vector: boundary rows f_j = C(t,j) for j <= 2
    and f_{t-1} = f_t = 0, the coefficient-level polynomial residual, the row
    recurrence, the alternating sum, and any special-case notes.

    With d_j = C(t,j) - f_j, the residual is the t-2 degree-ascending
    coefficients of left minus right in the polynomial identity

        sum_{j=3..t} d_j (x-1)^(t-j)  ==  - sum_{j=3..t} (-1)^j d_j x^(t-j),

    built by Horner steps residual <- residual * (x-1) + d_j for j = 3..t,
    each one ``map(sub, ...)`` over the residual's coefficients, then
    (-1)^j d_j added at x^(t-j).  Row j of the recurrence (3 <= j <= t-2,
    none when t < 5), d_j == - sum_{i=3..j} (-1)^i C(t-i, j-i) d_i, is (-1)^j
    times the coefficient of x^(t-j), so it holds exactly when that is zero.

    The report passes exactly when the boundary rows hold and the residual
    is zero.  The alternating sum cannot fail on its own: at x = 1 the
    identity reads d_t == -sum_{j=3..t} (-1)^j d_j, which, once f_0..f_2 are
    binomial and f_{t-1} = f_t = 0, is the alternating sum being zero.

    Every entry must be an int (not a bool): an f-vector of plain ints is
    cleared by one pass over the entries' types, and any other one is
    scanned for its first offender, which raises TypeError."""
    t = _t_of(f)
    boundary = all(f[j] == comb(t, j) for j in range(min(2, t) + 1)) and f[t - 1] == f[t] == 0
    d = [comb(t, j) - f[j] for j in range(3, t + 1)]
    residual: list[int] = []
    for dj in d:
        residual = list(map(sub, [dj, *residual], [*residual, 0]))  # x * residual - residual + d_j
    for j, dj in enumerate(d, 3):
        residual[t - j] += -dj if j % 2 else dj
    return DSReport(
        t=t,
        boundary_ok=boundary,
        polynomial_residual=tuple(residual),
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
