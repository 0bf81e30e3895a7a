"""Sign-vector arithmetic over the ground set {1, ..., t}."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from operator import neg
from typing import Sequence

SignVector = tuple[int, ...]

# str.translate deletes the sign characters, leaving the others in order; bytes.translate makes '+' 1 and '-' 0xff
_NOT_A_SIGN = str.maketrans("", "", "+-")
_SIGN_BYTE = bytes.maketrans(b"+-", b"\x01\xff")
_SIGNS = frozenset((1, -1))
# the binary digit of a sign, by value: bytes(map(_DIGIT, v)) reads v in C; an entry not in _SIGNS raises KeyError
_DIGIT = {1: 48, -1: 49}.__getitem__


class DimensionError(ValueError):
    """Operands live on ground sets of different sizes."""


@dataclass(frozen=True)
class Violation:
    """A failed structural check: what broke, and where."""

    kind: str
    where: tuple[int, ...]
    detail: str


class _ViolationsError(ValueError):
    """Carries the violations a check found (at least one); the message joins their details."""

    def __init__(self, violations: Sequence[Violation]):
        super().__init__("; ".join(v.detail for v in violations))
        self.violations = list(violations)


def parse_sign_vector(text: str) -> SignVector:
    """Parse a '+'/'-' string; character k is the sign of element k+1."""
    if not text:
        raise ValueError("empty sign vector")
    if other := text.translate(_NOT_A_SIGN):
        raise ValueError(f"invalid sign character {other[0]!r} in {text!r}")
    # the string is ASCII '+'/'-' now: one byte each, read as signed bytes 1 and -1 in C
    return struct.unpack(f"{len(text)}b", text.encode().translate(_SIGN_BYTE))


def sign_vector_str(v: Sequence[int]) -> str:
    return "".join("+" if x > 0 else "-" for x in v)


def check_sign_vector(v: Sequence[int], t: int | None = None) -> None:
    """Raise unless every entry equals 1 or -1 (and, given t, the length is t).

    Entries are compared by value, so 1.0, True and Fraction(1) count as +1.
    Results for such a vector equal those for the int signs it equals, though
    a returned tope or coefficient may keep the type of the entries given."""
    if not _SIGNS.issuperset(v):
        raise ValueError(f"not a sign vector: {tuple(v)!r}")
    if t is not None and len(v) != t:
        raise DimensionError(f"sign vector has length {len(v)}, expected {t}")


def negate(v: Sequence[int]) -> SignVector:
    return tuple(map(neg, v))


def _minus_mask(v: Sequence[int]) -> int:
    """The elements where the sign vector v is -: bit e-1 is set iff v(e) = -1."""
    return int(bytes(map(_DIGIT, reversed(v))) or b"0", 2)
