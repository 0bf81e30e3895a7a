"""JSON document formats shared by the CLI and test fixtures.

Rationals travel as strings "p" or "p/q" of ASCII digits (JSON numbers cannot carry exact
rationals); sign vectors as '+'/'-' strings with index 1 leftmost, which the codec in ``core``
reads and writes.  A tope-set document has one reader, ``tope_set_from_doc``, which every command
that reads a tope list uses, and a census one writer, ``census_to_doc``.  Cycles are serialized
in normalized order."""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction
from typing import Any, Collection

from .arrangements import Arrangement
from .core import SignVector, _mask_text, _masks, _text_forms, _texts, sign_vector_str
from .cycles import SymmetricCycle
from .decomposition import Decomposition
from .dehn_sommerville import DSReport


class SchemaError(ValueError):
    """A document is structurally not the expected format."""


_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def rational_to_str(q: int | Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def rational_from_str(text: Any) -> int | Fraction:
    """'p' as an int and 'p/q' as a Fraction; anything else raises SchemaError, among it
    an integer longer than the interpreter converts (``sys.get_int_max_str_digits``)."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise SchemaError(f"rationals must be strings 'p' or 'p/q', got {text!r}")
    try:
        if "/" not in text:  # int() reads an integer string several times faster than Fraction()
            return int(text)
        return Fraction(text)
    except ZeroDivisionError:
        raise SchemaError(f"invalid rational {text!r}") from None
    except ValueError:  # the text matched, so only the interpreter's digit limit is left
        digits = max(map(len, text.lstrip("-").split("/")))
        shown = text if len(text) <= 24 else f"{text[:10]}...{text[-10:]}"
        raise SchemaError(
            f"rational {shown!r} has {digits} digits, more than the"
            f" {sys.get_int_max_str_digits()} this interpreter reads"
        ) from None


_READ_CHUNK = 1 << 16  # bytes asked of each os.read


def load_doc(path: str) -> dict:
    """The JSON object in the file at path, read by os.read calls until end of file, decoded once and
    parsed once.  A file that is not UTF-8 text or not JSON, nests deeper than the decoder reads, holds
    an integer past the interpreter's digit limit or holds no object raises SchemaError naming the
    path; a file that cannot be read raises OSError naming it.  Line ends are read as a text file
    reads them, so an error's position counts a CR LF pair as one character."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, _READ_CHUNK):
            chunks.append(chunk)
    except OSError as exc:  # a directory opens, and its read names no file
        raise type(exc)(exc.errno, exc.strerror, path) from None
    finally:
        os.close(fd)
    try:
        text = b"".join(chunks).decode("utf-8")
    except UnicodeDecodeError as exc:  # a ValueError, which would read as invalid input (exit 2)
        raise SchemaError(f"{path}: not UTF-8 text: {exc}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not JSON: {exc}") from None
    except RecursionError:  # not a bug in the package (exit 4), but a document the decoder cannot read
        raise SchemaError(f"{path}: nested deeper than the JSON decoder reads") from None
    except ValueError:  # the decoder's int() past sys.get_int_max_str_digits, its one other ValueError
        limit = sys.get_int_max_str_digits()
        raise SchemaError(f"{path}: an integer has more than the {limit} digits this interpreter reads") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    return doc


def _field(doc: dict, key: str, kind: type) -> Any:
    if key not in doc:
        raise SchemaError(f"missing field {key!r}")
    value = doc[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise SchemaError(f"field {key!r} must be {kind.__name__}")
    return value


def _ground_set_size(doc: dict) -> int:
    """The field t, which every document has and which must be positive."""
    t = _field(doc, "t", int)
    if t < 1:
        raise SchemaError(f"field 't' must be >= 1, got {t}")
    return t


def _read_forms(strings: Collection, t: int) -> bytes:
    """The codec's form of '+'/'-' strings of length t, joined; the first offender raises SchemaError."""
    try:
        return _text_forms(strings, t)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def arrangement_to_doc(arr: Arrangement) -> dict:
    return {
        "t": arr.t,
        "dim": arr.dim,
        "normals": [[rational_to_str(c) for c in n] for n in arr.normals],
    }


def arrangement_from_doc(doc: dict) -> Arrangement:
    t = _ground_set_size(doc)
    dim = _field(doc, "dim", int)
    rows = _field(doc, "normals", list)
    if len(rows) != t:
        raise SchemaError(f"t={t} but {len(rows)} normals given")
    normals = []
    for row in rows:
        if not isinstance(row, list) or len(row) != dim:
            raise SchemaError(f"each normal must be a list of {dim} rationals")
        normals.append([rational_from_str(c) for c in row])
    return Arrangement(normals)


def tope_set_to_doc(t: int, topes: list[SignVector]) -> dict:
    """The topes as '+'/'-' strings; a tope that is not t signs raises what ``check_sign_vector`` raises,
    and t < 1 or no topes, which ``tope_set_from_doc`` rejects, raise ValueError."""
    if t < 1:
        raise ValueError(f"a tope set needs t >= 1, got t={t}")
    if not topes:
        raise ValueError(f"t={t} but no topes given")
    return {"t": t, "topes": _texts(topes, t)}


def tope_set_from_doc(doc: dict) -> tuple[int, Collection[str], bytes]:
    """t, the distinct listed topes as '+'/'-' strings in the order first listed, and their joined
    form, read with no tuple.  Repeats are dropped before the one checked pass, so a repeated tope
    is checked once; the first listing of an entry is where an error names it, so the first
    offender is the list's.  An empty list raises SchemaError, since no tope backs its t."""
    t = _ground_set_size(doc)
    strings = _field(doc, "topes", list)
    if not strings:
        raise SchemaError(f"t={t} but no topes given")
    try:
        distinct: Collection = dict.fromkeys(strings).keys()
    except TypeError:  # an unhashable entry, so not a string: the pass over the whole list names the first offender
        distinct = strings
    return t, distinct, _read_forms(distinct, t)


def cycle_to_doc(cycle: SymmetricCycle) -> dict:
    """The cycle's vertices, rotated or reflected so the lexicographically
    smallest vertex ('+' before '-') comes first, followed by the smaller of
    its two neighbors."""
    t = cycle.t
    texts = [_mask_text(m, t) for m in cycle.masks]
    n = len(texts)
    i = min(range(n), key=texts.__getitem__)
    step = 1 if texts[(i + 1) % n] <= texts[(i - 1) % n] else -1
    return {"t": t, "vertices": [texts[(i + step * k) % n] for k in range(n)]}


def cycle_masks_from_doc(doc: dict) -> tuple[int, list[int]]:
    """t and the minus masks of the listed vertices, with no check of the
    cycle invariants; a count other than 2t raises SchemaError."""
    t = _ground_set_size(doc)
    strings = _field(doc, "vertices", list)
    if len(strings) != 2 * t:
        raise SchemaError(f"t={t} but {len(strings)} vertices given")
    return t, _masks(_read_forms(strings, t), t)


def cycle_from_doc(doc: dict) -> SymmetricCycle:
    """The cycle the document lists; a broken invariant raises CycleError."""
    return SymmetricCycle(cycle_masks_from_doc(doc)[1])


def decomposition_to_doc(d: Decomposition) -> dict:
    return {
        "tope": sign_vector_str(d.tope),
        "coeffs": list(d.coeffs),
        "members": [sign_vector_str(v) for v in d.members],
    }


def fvector_to_doc(f: tuple[int, ...]) -> dict:
    """The long f-vector f_0..f_t, t = len(f) - 1; t < 1, which ``fvector_from_doc`` rejects, raises ValueError."""
    if len(f) < 2:
        raise ValueError(f"an f-vector needs t >= 1, got t={len(f) - 1} from {list(f)}")
    return {"t": len(f) - 1, "f": list(f)}


def fvector_from_doc(doc: dict) -> tuple[int, tuple[int, ...]]:
    t = _ground_set_size(doc)
    f = _field(doc, "f", list)
    if len(f) != t + 1 or not all(isinstance(x, int) and not isinstance(x, bool) for x in f):
        raise SchemaError(f"f must be a list of {t + 1} integers")
    return t, tuple(f)


def ds_report_to_doc(report: DSReport) -> dict:
    return {
        "t": report.t,
        "boundary_ok": report.boundary_ok,
        "polynomial_residual": list(report.polynomial_residual),
        "recurrence_ok": {str(j): ok for j, ok in report.recurrence_ok.items()},
        "alternating_sum": report.alternating_sum,
        "special_case_notes": [{"label": n.label, "holds": n.holds} for n in report.special_case_notes],
        "passes": report.passes,
    }


def census_to_doc(t: int, histogram: dict[int, int], expected: dict[int, int] | None, listed: dict[int, list[str]] | None) -> dict:
    """The census of a tope set on t elements: its histogram of decomposition sizes; given the
    expected histogram, also that and whether the census matches it; given the listed classes,
    each as its '+'/'-' strings."""
    doc: dict[str, Any] = {"t": t, "histogram": {str(j): n for j, n in histogram.items()}}
    if expected is not None:
        doc["expected"] = {str(j): n for j, n in sorted(expected.items())}
        doc["match"] = histogram == expected
    if listed is not None:
        doc["topes"] = {str(j): texts for j, texts in listed.items()}
    return doc
