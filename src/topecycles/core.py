"""Sign-vector arithmetic over the ground set {1, ..., t}."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import starmap
from operator import neg
from typing import Sequence

SignVector = tuple[int, ...]

# The sign-vector codec reads a sign vector into a minus mask (bit e-1 set iff v(e) = -1) in one C
# pass: struct packs +1 and -1 as the bytes 01 and ff, which _BIT translates to '0' and '1'.  Every
# other byte becomes '!', never a digit, whitespace or '_', which int(..., 2) would accept.
_BIT = bytes(48 if b == 1 else 49 if b == 255 else 33 for b in range(256))
_SIGN_CHAR = bytes(43 if b == 1 else 45 if b == 255 else 33 for b in range(256))  # the same, to "+" and "-"
_CHAR_BIT = str.maketrans("+-", "01")
_BIT_CHAR = str.maketrans("01", "+-")
# str.translate deletes the sign characters, leaving the others in order; bytes.translate makes '+' 1 and '-' 0xff
_NOT_A_SIGN = str.maketrans("", "", "+-")
_SIGN_BYTE = bytes.maketrans(b"+-", b"\x01\xff")
_SIGN_DIGIT = bytes.maketrans(b"+-", b"01")  # _CHAR_BIT on the encoded text
_SIGNS = frozenset((1, -1))
# the by-value read of an entry struct rejects (1.0, Fraction(1), 2**70): a non-sign becomes None, which struct rejects too
_DIGIT = {1: 1, -1: -1}.get


@lru_cache(maxsize=64)  # one packer per length read: t, or a tope count when columns are read by value
def _packer(t: int):
    return struct.Struct(f"{t}b").pack


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
    _check_text(text)
    # the string is ASCII '+'/'-' now: one byte each, read as signed bytes 1 and -1 in C
    return struct.unpack(f"{len(text)}b", text.encode().translate(_SIGN_BYTE))


def sign_vector_str(v: Sequence[int]) -> str:
    """The '+'/'-' string of the sign vector v; anything else raises what ``check_sign_vector`` raises."""
    v = tuple(v)
    try:
        text = _packer(len(v))(*v).translate(_SIGN_CHAR).decode()
    except struct.error:
        text = "!"
    if "!" in text:  # an entry to read by value, or not a sign
        return _mask_text(_minus_mask(v), len(v))
    return text


def check_sign_vector(v: Sequence[int], t: int | None = None) -> None:
    """Raise unless every entry equals 1 or -1 (and, given t, the length is t).

    Entries are compared by value, so 1.0, True and Fraction(1) count as +1:
    results are those for the int signs they equal, but a returned tope keeps
    the entries given.  Only the codec calls it, once a read of v has failed."""
    if not _SIGNS.issuperset(v):
        raise ValueError(f"not a sign vector: {tuple(v)!r}")
    if t is not None and len(v) != t:
        raise DimensionError(f"sign vector has length {len(v)}, expected {t}")


def negate(v: Sequence[int]) -> SignVector:
    return tuple(map(neg, v))


def _check_text(text: str) -> None:
    if not text:
        raise ValueError("empty sign vector")
    if other := text.translate(_NOT_A_SIGN):
        raise ValueError(f"invalid sign character {other[0]!r} in {text!r}")


def _minus_mask(v: Sequence[int], t: int | None = None) -> int:
    """The elements where the sign vector v is -: bit e-1 is set iff v(e) = -1.

    Entries are read by value, as ``check_sign_vector`` reads them, and anything else (an entry
    other than +1 or -1, or a length other than t, when t is given) raises what it raises."""
    pack = _packer(len(v) if t is None else t)
    try:
        try:
            signs = pack(*v)
        except struct.error:  # an entry such as 1.0 or Fraction(-1), or the wrong length: read v by value
            signs = pack(*map(_DIGIT, v))
        return int(signs.translate(_BIT)[::-1] or b"0", 2)
    except (struct.error, TypeError, ValueError):
        check_sign_vector(v, t)
        raise


def _minus_masks(vs: Sequence[Sequence[int]], t: int) -> list[int]:
    """``_minus_mask(v, t)`` for each v in vs, in one comprehension while every v packs as signs;
    otherwise one at a time, so the first v that is not t signs raises."""
    pack = _packer(t)
    try:
        return [int(pack(*v).translate(_BIT)[::-1], 2) for v in vs]
    except (struct.error, ValueError):  # some v is read by value (1.0, Fraction(-1)), or is not t signs
        return [_minus_mask(v, t) for v in vs]


def _minus_columns(vs: Sequence[Sequence[int]], t: int) -> list[int]:
    """The minus masks of the t columns of n >= 1 sign vectors vs: bit i of the (e-1)-th mask is
    set iff vs[i](e) = -1.  Each v is packed in C, which checks its length, and each column is one
    strided slice of the joined bytes.  If some entry is read by value or is not a sign, the
    lengths are checked (DimensionError) and each column is read by ``_minus_masks``, which
    raises for the first column that is not n signs."""
    try:
        bits = b"".join(starmap(_packer(t), vs)).translate(_BIT)[::-1]  # reversed: the last entry of the last v first
        return [int(bits[k::t], 2) for k in range(t - 1, -1, -1)]
    except (struct.error, ValueError):  # a length other than t, an entry such as 1.0, or not a sign
        if not {t}.issuperset(map(len, vs)):  # zip would cut every column at the shortest v
            raise DimensionError(f"sign vectors of length {t} expected") from None
        return _minus_masks(list(zip(*vs)), len(vs))


def _text_mask(text: str) -> int:
    """The minus mask of a '+'/'-' string; raises as ``parse_sign_vector`` does."""
    _check_text(text)
    return int(text[::-1].translate(_CHAR_BIT), 2)


def _mask_text(m: int, t: int) -> str:
    """The '+'/'-' string of the minus mask m (0 <= m < 2^t) of a sign vector of length t >= 1."""
    return format(m, f"0{t}b")[::-1].translate(_BIT_CHAR)
