"""Sign-vector arithmetic over the ground set {1, ..., t}."""

from __future__ import annotations

from dataclasses import dataclass
from operator import neg
from typing import Sequence

SignVector = tuple[int, ...]

_SIGN_OF = {"+": 1, "-": -1}
_SIGNS = frozenset((1, -1))


class DimensionError(ValueError):
    """Operands live on ground sets of different sizes."""


@dataclass(frozen=True)
class Violation:
    """A failed structural check: what broke, and where."""

    kind: str
    where: tuple[int, ...]
    detail: str


class _ViolationsError(ValueError):
    """Carries the violations a check found; the message joins their details,
    or is the subclass's ``fallback`` when there are none."""

    def __init__(self, violations: Sequence[Violation]):
        super().__init__("; ".join(v.detail for v in violations) or self.fallback)
        self.violations = list(violations)


def parse_sign_vector(text: str) -> SignVector:
    """Parse a '+'/'-' string; character k is the sign of element k+1."""
    if not text:
        raise ValueError("empty sign vector")
    try:
        return tuple(_SIGN_OF[ch] for ch in text)
    except KeyError as exc:
        raise ValueError(f"invalid sign character {exc.args[0]!r} in {text!r}") from None


def sign_vector_str(v: Sequence[int]) -> str:
    return "".join("+" if x > 0 else "-" for x in v)


def check_sign_vector(v: Sequence[int], t: int | None = None) -> None:
    if not _SIGNS.issuperset(v):
        raise ValueError(f"not a sign vector: {tuple(v)!r}")
    if t is not None and len(v) != t:
        raise DimensionError(f"sign vector has length {len(v)}, expected {t}")


def all_plus(t: int) -> SignVector:
    if t < 1:
        raise ValueError("t must be positive")
    return (1,) * t


def negate(v: Sequence[int]) -> SignVector:
    return tuple(map(neg, v))


def flip(v: Sequence[int], e: int) -> SignVector:
    """Negate element e (1-based), keeping all others."""
    if not 1 <= e <= len(v):
        raise ValueError(f"element {e} outside 1..{len(v)}")
    return tuple(-x if i == e - 1 else x for i, x in enumerate(v))


def separation_set(a: Sequence[int], b: Sequence[int]) -> frozenset[int]:
    """Elements on which two topes disagree."""
    if len(a) != len(b):
        raise DimensionError(f"length mismatch: {len(a)} vs {len(b)}")
    return frozenset(e for e, (x, y) in enumerate(zip(a, b), start=1) if x != y)
