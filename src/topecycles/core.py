"""Sign-vector arithmetic over the ground set {1, ..., t}, and the one codec for sign vectors.

Its form is a byte per entry: "0" for +1, "1" for -1, "!" for anything else, which every reader
rejects.  Tuples reach it through struct and a table (entries struct cannot pack, such as 1.0, are
read by value), '+'/'-' strings by encode and a table, and the int keys of chamber enumeration
(element 1 the top bit, a set bit -1) by formatting each as t binary digits.  Each output is one C
pass over it: minus masks (bit e-1 set iff v(e) = -1) int(..., 2) of the reversed form, columns
strided slices, tuples struct.iter_unpack, text a translate (cut every t characters for a list).  No
other module knows the form."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat, starmap
from operator import neg
from typing import Collection, Iterable, Sequence

SignVector = tuple[int, ...]

_REJECT = ord("!")  # the form's byte for a non-sign: not a digit, whitespace or "_", which int(..., 2) accepts
_PACKED_FORM = bytes(48 if b == 1 else 49 if b == 255 else _REJECT for b in range(256))  # struct's bytes of +1, -1
_TEXT_FORM = bytes(48 if b == 43 else 49 if b == 45 else _REJECT for b in range(256))  # the encoded "+" and "-"
_FORM_PACKED = bytes.maketrans(b"01", b"\x01\xff")
_FORM_TEXT = bytes.maketrans(b"01", b"+-")
_FORM_SELECTOR = bytes.maketrans(b"01", b"\0\1")
# the by-value read of an entry struct rejects (1.0, Fraction(1), 2**70): a non-sign becomes None, which struct rejects too
_DIGIT = {1: 1, -1: -1}.get


@lru_cache(maxsize=64)  # one packer per length t read
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
    """Parse a '+'/'-' string; character k is the sign of element k+1.  Anything but a str raises
    TypeError naming its type."""
    return _signs(_text_form(text), len(text))[0]


def sign_vector_str(v: Sequence[int]) -> str:
    """The '+'/'-' string of the sign vector v; anything else raises what ``check_sign_vector`` raises."""
    v = tuple(v)
    return _form(v, len(v)).translate(_FORM_TEXT).decode()


def check_sign_vector(v: Sequence[int], t: int) -> None:
    """Raise unless every entry equals 1 or -1 and the length is t.

    Entries are compared by value, so 1.0, True and Fraction(1) count as +1:
    results are those for the int signs they equal, but a returned tope keeps
    the entries given.  Only the codec calls it, once a read of v has failed."""
    if None in map(_DIGIT, v):
        raise ValueError(f"not a sign vector: {tuple(v)!r}")
    if len(v) != t:
        raise DimensionError(f"sign vector has length {len(v)}, expected {t}")


def negate(v: Sequence[int]) -> SignVector:
    return tuple(map(neg, v))


def _first_offender(vs: Iterable[Sequence[int]], t: int) -> tuple[int, Sequence[int]] | None:
    """The first v in vs that is not t signs read by value, with its index, or None; a v of length t
    raises TypeError at an unhashable entry met before any entry that is not a sign."""
    return next(((k, v) for k, v in enumerate(vs) if len(v) != t or None in map(_DIGIT, v)), None)


def _form(v: Sequence[int], t: int) -> bytes:
    """``_forms((v,), t)``, with the struct pass over the one sign vector v made directly."""
    try:
        form = _packer(t)(*v).translate(_PACKED_FORM)
        if _REJECT not in form:
            return form
    except (struct.error, TypeError):  # an entry to read by value, or v is not t signs
        pass
    return _forms((v,), t)


def _forms(vs: Collection[Sequence[int]], t: int) -> bytes:
    """The forms of the sign vectors vs, joined, in one struct pass or, for entries such as 1.0, one
    by-value pass; the first v that is not t signs raises what ``check_sign_vector`` raises."""
    pack = _packer(t)
    try:
        form = b"".join(starmap(pack, vs)).translate(_PACKED_FORM)
        if _REJECT not in form:
            return form
    except (struct.error, TypeError):  # an entry such as 1.0 or Fraction(-1), or some v is not t signs
        pass
    if offender := _first_offender(vs, t):
        check_sign_vector(offender[1], t)  # raises: the offender is not t signs
    return b"".join([pack(*map(_DIGIT, v)) for v in vs]).translate(_PACKED_FORM)


def _text_form(text: str) -> bytes:
    """The form of a '+'/'-' string; an empty string, or one with another character, raises ValueError,
    and anything but a str TypeError."""
    if not isinstance(text, str):
        raise TypeError(f"a sign vector to parse must be a str, got {type(text).__name__}")
    if not text:
        raise ValueError("empty sign vector")
    form = text.encode().translate(_TEXT_FORM)
    if _REJECT in form:  # lstrip leaves the first other character first
        raise ValueError(f"invalid sign character {text.lstrip('+-')[0]!r} in {text!r}")
    return form


def _text_forms(texts: Collection, t: int) -> bytes:
    """The forms of '+'/'-' strings of length t, joined, in a few C passes over their joined text.
    Any other input raises ValueError for its first offender: a non-string, a bad string or a wrong length."""
    try:
        form = "".join(texts).encode().translate(_TEXT_FORM)
        if _REJECT not in form and {t}.issuperset(map(len, texts)):
            return form
    except TypeError:  # an entry that is not a string
        pass
    for text in texts:  # one string at a time, so the first offender raises
        if not isinstance(text, str):
            raise ValueError(f"sign vectors must be strings, got {text!r}")
        if len(_text_form(text)) != t:  # all '+' and '-', one byte per character
            raise DimensionError(f"sign vector {text!r} has length {len(text)}, expected t={t}")
    return b"".join(map(_text_form, texts))


def _texts(vs: Collection[Sequence[int]], t: int) -> list[str]:
    """The '+'/'-' strings of the sign vectors vs of length t >= 1, from their joined forms
    (``_form_texts``).  The first v that is not t signs raises what ``check_sign_vector`` raises."""
    return _form_texts(_forms(vs, t), t)


def _form_texts(form: bytes, t: int) -> list[str]:
    """The '+'/'-' strings of the t-byte forms (t >= 1) joined in form: one translate to text, cut
    every t characters."""
    text = form.translate(_FORM_TEXT).decode()
    return [text[k : k + t] for k in range(0, len(text), t)]


def _key_form(keys: Iterable[int], t: int) -> bytes:
    """The joined forms of the sign vectors of length t >= 1 whose keys are keys: element 1 is a key's
    top bit, and a set bit means -1, so a key written as t binary digits is its form."""
    return "".join(map(format, keys, repeat(f"0{t}b"))).encode()


def _signs(form: bytes, t: int) -> list[SignVector]:
    """The sign tuples of the t-byte forms joined in form."""
    return list(struct.iter_unpack(f"{t}b", form.translate(_FORM_PACKED)))


def _masks(form: bytes, t: int) -> list[int]:
    """The minus masks of the t-byte forms joined in form: reversed, form k is chunk n-1-k and reads
    as the binary digits of its mask."""
    masks = [int(bits, 2) for (bits,) in struct.iter_unpack(f"{t}s", form[::-1])]
    masks.reverse()
    return masks


def _mask_form(m: int, t: int) -> bytes:
    """The form of the sign vector of length t whose minus mask is m (0 <= m < 2^t)."""
    return format(m, f"0{t}b")[::-1].encode()


def _minus_mask(v: Sequence[int], t: int) -> int:
    """The elements where the sign vector v of length t is -: bit e-1 is set iff v(e) = -1.

    Entries are read by value, as ``check_sign_vector`` reads them, and anything else (an entry
    other than +1 or -1, or a length other than t) raises what it raises."""
    return int(_form(v, t)[::-1], 2)


def _minus_masks(vs: Sequence[Sequence[int]], t: int) -> list[int]:
    """``_minus_mask(v, t)`` for each v in vs, read in one pass; the first v that is not t signs raises."""
    form = _forms(vs, t)
    return _masks(form, t) if t else [0] * len(vs)  # at t = 0 every v is ()


def _minus_columns(vs: Collection[Sequence[int]], t: int) -> list[int]:
    """``_form_columns`` of the joined forms of n >= 1 sign vectors vs; the first v that is not t
    signs raises what ``check_sign_vector`` raises."""
    return _form_columns(_forms(vs, t), t)


def _form_columns(form: bytes, t: int) -> list[int]:
    """The minus masks of the t columns of the n >= 1 t-byte forms joined in form: bit i of the
    (e-1)-th mask is set iff sign vector i is -1 on e.  Each column is one strided slice."""
    bits = form[::-1]  # reversed: the last entry of the last form first
    return [int(bits[k::t], 2) for k in range(t - 1, -1, -1)]


def _mask_text(m: int, t: int) -> str:
    """The '+'/'-' string of the minus mask m (0 <= m < 2^t) of a sign vector of length t >= 1."""
    return _mask_form(m, t).translate(_FORM_TEXT).decode()


def _selectors(m: int, n: int) -> bytes:
    """Bit i of the n-bit mask m as byte i, 0 or 1: selectors for ``itertools.compress``."""
    return _mask_form(m, n).translate(_FORM_SELECTOR)
